package main

import (
	"fmt"
	"time"

	"bftree/internal/device"
	"bftree/internal/workload"
)

// perLayer reduces a traced window: span times from the recorder,
// counts from the program's public snapshots taken at the window's
// edges.
func perLayer(w *window, m *mount, cfg config) *result {
	res := &result{attempted: w.attempted, failed: w.failed, firstErr: w.firstErr, values: map[string]measured{}}
	v := res.values
	ops := float64(w.attempted)
	us := func(ns []float64) dist {
		for i := range ns {
			ns[i] /= float64(time.Microsecond)
		}
		return newDist(ns)
	}

	// Spans: per op, client > server > index.
	var rttSelf, handle, srvSelf, writeIdx []float64
	var kindIdx [workload.NumOpKinds][]float64
	var respBytes int64
	for _, spans := range m.rec.byOp() {
		var client []span
		var servers, idx []span
		for _, s := range spans {
			switch s.layer {
			case layerClient:
				client = append(client, s)
			case layerServer:
				servers = append(servers, s)
			case layerIndex:
				idx = append(idx, s)
			}
		}
		for _, c := range client {
			rttSelf = append(rttSelf, float64(selfTime(c, servers)))
		}
		for _, s := range servers {
			handle = append(handle, float64(s.dur()))
			srvSelf = append(srvSelf, float64(selfTime(s, idx)))
			respBytes += s.bytes
		}
		for _, s := range idx {
			kindIdx[s.kind] = append(kindIdx[s.kind], float64(s.busy))
			if s.kind == workload.OpInsert || s.kind == workload.OpDelete {
				writeIdx = append(writeIdx, float64(s.busy))
			}
		}
	}
	median := func(xs []float64) measured { d := us(xs); return measured{value: d.median(), n: len(d)} }

	late := durations(w.late, time.Millisecond)
	v["loadgen.late_p99_ms"] = tailMeasure(late, 0.99)
	v["loadgen.conn_wait_p99_ms"] = tailMeasure(durations(w.wait, time.Millisecond), 0.99)
	v["http.rtt_self_us"] = median(rttSelf)

	b, a := w.before, w.after
	v["server.handle_us"] = median(handle)
	v["server.self_us"] = median(srvSelf)
	v["server.resp_bytes_per_op"] = measured{value: ratio(float64(respBytes), ops), n: w.attempted}
	v["server.requests_per_op"] = measured{value: ratio(float64(a.served.Requests-b.served.Requests), ops), n: w.attempted}
	v["server.rejected"] = measured{value: float64(a.served.Rejected - b.served.Rejected), n: w.attempted}
	v["server.errors"] = measured{value: float64(a.served.Errors - b.served.Errors), n: w.attempted}

	for name, k := range map[string]workload.OpKind{
		"index.search_us": workload.OpSearch, "index.multi_us": workload.OpMultiSearch,
		"index.range_us": workload.OpRangeScan, "index.scanlimit_us": workload.OpScanLimit,
		"index.insert_us": workload.OpInsert, "index.delete_us": workload.OpDelete,
	} {
		v[name] = median(kindIdx[k])
	}
	v["index.write_p99_us"] = tailMeasure(us(writeIdx), 0.99)

	p, keys := w.point, float64(w.keys)
	perKey := func(x int) measured { return measured{value: ratio(float64(x), keys), n: w.keys} }
	v["core.index_reads_per_key"] = perKey(p.IndexReads)
	v["bloom.probes_per_key"] = perKey(p.BFProbes)
	v["core.candidate_pages_per_key"] = perKey(p.CandidatePages)
	v["core.data_pages_per_key"] = perKey(p.DataPagesRead)
	v["core.false_reads_per_key"] = perKey(p.FalseReads)
	v["core.useful_read_ratio"] = measured{value: ratio(float64(p.DataPagesRead-p.FalseReads), float64(p.DataPagesRead)), n: p.DataPagesRead}

	mb, ma := b.maint, a.maint
	count := func(x uint64) measured { return measured{value: float64(x), n: 1} }
	v["maint.passes"] = count(ma.Passes - mb.Passes)
	v["maint.incremental_passes"] = count(ma.IncrementalPasses - mb.IncrementalPasses)
	v["maint.leaves_compacted"] = count(ma.LeavesCompacted - mb.LeavesCompacted)
	v["maint.full_rebuilds"] = count(ma.Compactions - mb.Compactions)
	v["maint.max_hold_ms"] = measured{value: float64(ma.CompactionMaxStall) / float64(time.Millisecond), n: 1,
		note: "longest hold since the index was built"}
	v["maint.hold_frac"] = measured{value: (ma.CompactionTotalStall - mb.CompactionTotalStall).Seconds() / w.elapsed.Seconds(), n: 1}
	v["maint.lock_misses"] = count(ma.LockMisses - mb.LockMisses)
	v["maint.forced_locks"] = count(ma.ForcedLocks - mb.ForcedLocks)
	v["maint.pages_reclaimed"] = count(ma.PagesReclaimed - mb.PagesReclaimed)
	v["maint.limbo_pages_end"] = count(uint64(ma.LimboPages))
	v["maint.fpp_max"] = measured{value: w.fppMax, n: 1, note: "live estimate sampled every 5 ms"}
	dataReads := reads(a.data) - reads(b.data)
	v["maint.data_reads"] = measured{value: float64(int64(dataReads) - int64(w.dataPages)), n: 1,
		note: "data-device reads not charged to any probe"}

	v["pagestore.fresh_pages"] = count(a.fresh - b.fresh)
	v["pagestore.reused_pages"] = count(a.reused - b.reused)

	idxWrites := writes(a.idx) - writes(b.idx)
	v["device.index_reads_per_op"] = measured{value: ratio(float64(reads(a.idx)-reads(b.idx)), ops), n: w.attempted}
	v["device.data_reads_per_op"] = measured{value: ratio(float64(dataReads), ops), n: w.attempted}
	v["device.index_writes_per_op"] = measured{value: ratio(float64(idxWrites), ops), n: w.attempted}
	v["device.index_bytes_written_per_write"] = measured{value: ratio(float64(a.idx.BytesWritten-b.idx.BytesWritten), float64(idxWrites)), n: int(idxWrites)}
	sleep := measured{note: "no device latency"}
	if m.spec.latency > 0 {
		sleep = measured{value: float64(cfg.sleep) / float64(time.Microsecond), n: sleepSamples,
			note: fmt.Sprintf("configured %v", m.spec.latency)}
	}
	v["device.sleep_us"] = sleep
	v["device.wait_share"] = measured{value: ratio(float64(w.probePages)*float64(cfg.sleep), float64(w.probeService)), n: w.probePages,
		note: "page reads x measured sleep over probe service time"}

	v["runtime.alloc_kb_per_op"] = measured{value: ratio(float64(a.totalAlloc-b.totalAlloc)/1024, ops), n: w.attempted}
	v["runtime.gc_cycles"] = count(a.numGC - b.numGC)
	return res
}

func reads(s device.Stats) uint64  { return s.RandomReads + s.SeqReads }
func writes(s device.Stats) uint64 { return s.RandomWrites + s.SeqWrites }
