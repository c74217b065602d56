package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"bftree/index"
	"bftree/internal/device"
	"bftree/internal/server"
	"bftree/internal/workload"
)

// window is the reduced outcome of one measured phase.
type window struct {
	elapsed           time.Duration
	lat, writeLat     []time.Duration // from each op's due time
	cpu               []time.Duration // in-process ops: the worker thread's CPU time
	wait, late        []time.Duration // open loop only
	attempted, failed int
	sloMiss           int // failed, refused at least once, or over the limit
	writes, refusals  int
	firstErr          error
	point             index.ProbeStats // search and multi-search ops
	keys              int              // keys those ops probed
	dataPages         int              // data pages charged to any probe
	probeService      time.Duration    // sent→end of ops that answered with probe stats
	probePages        int              // index and data pages those ops read
	before, after     snapshot
	fppMax            float64
	openLoop          bool
}

func (w *window) add(o outcome, t timing, slo time.Duration) {
	w.attempted++
	lat := t.latency()
	w.lat = append(w.lat, lat)
	if w.openLoop {
		w.wait = append(w.wait, t.connWait())
		if t.late > 0 {
			w.late = append(w.late, t.late)
		}
	}
	if o.err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = o.err
		}
	}
	if o.err != nil || o.refusals > 0 || lat > slo {
		w.sloMiss++
	}
	if o.kind == workload.OpInsert || o.kind == workload.OpDelete {
		w.writes++
		w.refusals += o.refusals
		w.writeLat = append(w.writeLat, lat)
	}
	if o.probe {
		s := o.stats
		if o.kind == workload.OpSearch || o.kind == workload.OpMultiSearch {
			addStats(&w.point, s)
			w.keys += o.keys
		}
		w.dataPages += s.DataPagesRead
		w.probeService += t.end.Sub(t.sent)
		w.probePages += s.IndexReads + s.DataPagesRead
	}
}

func addStats(dst *index.ProbeStats, s index.ProbeStats) {
	dst.IndexReads += s.IndexReads
	dst.BFProbes += s.BFProbes
	dst.CandidatePages += s.CandidatePages
	dst.DataPagesRead += s.DataPagesRead
	dst.FalseReads += s.FalseReads
}

// snapshot holds the program's public counters at a window boundary.
type snapshot struct {
	idx, data         device.Stats
	fresh, reused     uint64
	maint             index.MaintenanceStats
	served            server.ServedStats
	totalAlloc, numGC uint64
}

func (m *mount) snap() snapshot {
	var s snapshot
	s.idx, s.data = m.idxDev.Stats(), m.dataDev.Stats()
	s.fresh, _, s.reused = m.idxStore.PressureStats()
	if mt, ok := m.ix.(index.Maintainer); ok {
		s.maint = mt.MaintenanceStats()
	}
	for _, srv := range m.servers {
		st := srv.Served()
		s.served.Requests += st.Requests
		s.served.Errors += st.Errors
		s.served.Rejected += st.Rejected
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.totalAlloc, s.numGC = ms.TotalAlloc, uint64(ms.NumGC)
	return s
}

// measure runs the workload on m for d and reduces what it saw.
func (m *mount) measure(seed int64, d time.Duration) (*window, error) {
	spec := m.spec
	w := &window{openLoop: spec.rate > 0}
	del := newDeletedSet()
	stopSampler := m.sampleFPP(w)
	if m.rec != nil {
		m.rec.reset()
	}
	w.before = m.snap()
	start := time.Now()

	switch {
	case !spec.served:
		// In-process lookups: one worker, uniform keys, back to back.
		// With a single worker each op is added to w as it returns.
		rng := workload.SubStream(seed, 0)
		w.lat = make([]time.Duration, 0, 1<<20)
		w.cpu = make([]time.Duration, 0, 1<<20)
		closedLoop(start.Add(d), 1, func(_, i int, sent time.Time) {
			if i == 0 {
				// The worker keeps one thread, so that thread's CPU
				// clock times its ops; the thread ends with the loop.
				runtime.LockOSThread()
			}
			key := rng.Uint64n(spec.tuples)
			if m.rec != nil {
				m.lanes[0].op.Store(int64(i))
			}
			o := outcome{kind: workload.OpSearch, keys: 1}
			c0 := threadCPU()
			res, err := m.target.SearchFirst(key)
			w.cpu = append(w.cpu, threadCPU()-c0)
			end := time.Now()
			if err == nil {
				o.probe, o.stats = true, res.Stats
				err = checkPoint(key, res.Tuples, del)
			}
			o.err = err
			w.add(o, timing{due: sent, sent: sent, end: end}, spec.slo)
		})
		w.elapsed = time.Since(start)

	case spec.rate > 0:
		// Open loop: op i is due at i/rate whatever the server is doing.
		ops := openLoopOps(spec, seed, int(spec.rate*d.Seconds()))
		outs := make([]outcome, len(ops))
		times := openLoop(len(ops), spec.rate, spec.conns, func(wk, i int) (end time.Time) {
			outs[i], end = m.exec(wk, int64(i), ops[i], del)
			return end
		})
		var last time.Time
		for i, t := range times {
			w.add(outs[i], t, spec.slo)
			if t.end.After(last) {
				last = t.end
			}
		}
		w.elapsed = last.Sub(start)

	default:
		// Closed loop: each connection sends its next op when the last
		// one returns, drawing from its own seeded stream.
		streams := make([]*workload.OpStream, spec.conns)
		for i := range streams {
			s, err := workload.NewOpStream(spec.mix, workload.StreamConfig{
				Dist: workload.DistUniform, NumKeys: spec.tuples, Worker: i, Workers: spec.conns, Seed: seed,
			})
			if err != nil {
				return nil, err
			}
			streams[i] = s
		}
		type done struct {
			o outcome
			t timing
		}
		outs := make([][]done, spec.conns)
		closedLoop(start.Add(d), spec.conns, func(wk, i int, sent time.Time) {
			o, end := m.exec(wk, int64(wk)<<32|int64(i), streams[wk].Next(), del)
			outs[wk] = append(outs[wk], done{o, timing{due: sent, sent: sent, end: end}})
		})
		w.elapsed = time.Since(start)
		for _, ds := range outs {
			for _, x := range ds {
				w.add(x.o, x.t, spec.slo)
			}
		}
	}
	stopSampler()
	w.after = m.snap()
	return w, nil
}

// openLoopOps draws n ops whose kinds follow the mix's weights in one
// fixed, evenly spread order (smooth weighted round robin) and whose
// keys come from the seed. Writes then fall at the same times under
// every seed, and so do the compaction passes they trigger: with kinds
// drawn at random, which few passes a run holds, and so its p99,
// depended on the seed.
func openLoopOps(spec *workloadSpec, seed int64, n int) []workload.Op {
	var weight, credit [workload.NumOpKinds]int
	total := 0
	for k, w := range spec.mix.Weights {
		weight[k] = int(math.Round(w * 100))
		total += weight[k]
	}
	rng := workload.SubStream(seed, 0)
	ops := make([]workload.Op, n)
	for i := range ops {
		next := workload.OpKind(0)
		for k := range credit {
			credit[k] += weight[k]
			if credit[k] > credit[next] {
				next = workload.OpKind(k)
			}
		}
		credit[next] -= total
		op := workload.Op{Kind: next, Key: rng.Uint64n(spec.tuples)}
		if next == workload.OpMultiSearch {
			op.Keys = make([]uint64, multiBatch)
			for j := range op.Keys {
				op.Keys[j] = rng.Uint64n(spec.tuples)
			}
		}
		ops[i] = op
	}
	return ops
}

// multiBatch is the multi-search batch of the open loop, the workload
// package's default.
const multiBatch = 16

// sampleFPP samples the live drift estimate every 5 ms into w.fppMax
// during a traced window; the returned stop waits for the sampler.
func (m *mount) sampleFPP(w *window) (stop func()) {
	if m.rec == nil {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			if f := m.ix.Stats().EffectiveFPP; f > w.fppMax {
				w.fppMax = f
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// runEndToEnd sets up repeatedly (see setupRepeats), measures the last
// mount for the full window untraced, and reports the end-to-end
// metrics.
func runEndToEnd(spec *workloadSpec, cfg config) (*result, error) {
	var setups []float64
	var m *mount
	for i, total := 0, time.Duration(0); i < setupRepeats || total < setupMinTime; i++ {
		if m != nil {
			if err := m.close(); err != nil {
				return nil, err
			}
			m = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if m, err = newMount(spec, cfg.seed, nil); err != nil {
			return nil, err
		}
		took := time.Since(t0)
		total += took
		setups = append(setups, took.Seconds())
	}
	w, err := m.measure(cfg.seed, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		m.close()
		return nil, err
	}
	res := endToEnd(w, spec)
	res.values["setup_s"] = measured{value: newDist(setups).median(), n: len(setups), note: "median of set-ups"}
	res.values["index_bytes_per_tuple"] = measured{value: float64(m.ix.Stats().SizeBytes) / float64(spec.tuples), n: 1}

	// The live heap is taken once the window's own samples are dropped,
	// so it is the relation, the index and the server that it weighs.
	// The second collection empties the sync.Pool caches the first one
	// only moves aside.
	w = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.values["heap_mb"] = measured{value: float64(ms.HeapAlloc) / (1 << 20), n: 1}
	if err := m.close(); err != nil {
		return nil, err
	}
	return res, nil
}

// endToEnd reduces a window to the end-to-end metrics. Two of them are
// taken so that a busy shared host moves them as little as it can:
//
//   - In-process lookups are timed on the worker thread's CPU clock, so
//     the time the host gives the CPU to others, which only adds to
//     an op's wall time, is left out of throughput, p50 and p99 alike.
//     The wall-clock figures go into the notes.
//   - An open loop's p50 is the median of its one-second medians, so a
//     compaction hold, and the backlog it leaves, sets it only when it
//     spans half the run.
func endToEnd(w *window, spec *workloadSpec) *result {
	res := &result{attempted: w.attempted, failed: w.failed, firstErr: w.firstErr, values: map[string]measured{}}
	v := res.values
	lat := durations(w.lat, time.Millisecond)
	n := len(lat)
	v["throughput_ops_s"] = measured{value: float64(w.attempted-w.failed) / w.elapsed.Seconds(), n: n,
		note: fmt.Sprintf("over %.3f s", w.elapsed.Seconds())}
	v["p50_ms"] = measured{value: lat.median(), n: n}
	v["p99_ms"] = tailMeasure(lat, 0.99)
	switch {
	case len(w.cpu) > 0:
		busy := sum(w.cpu)
		cpu := durations(w.cpu, time.Millisecond)
		wall := fmt.Sprintf("wall clock %.6g ops/s, p50 %.6g ms, p99 %.6g ms", v["throughput_ops_s"].value, v["p50_ms"].value, v["p99_ms"].value)
		v["throughput_ops_s"] = measured{value: float64(w.attempted-w.failed) / busy.Seconds(), n: n,
			note: fmt.Sprintf("per second of worker CPU time, %.3f s of %.3f s; %s", busy.Seconds(), w.elapsed.Seconds(), wall)}
		v["p50_ms"] = measured{value: cpu.median(), n: n, note: "worker CPU time"}
		v["p99_ms"] = tailMeasure(cpu, 0.99)
	case w.openLoop:
		perSecond := int(spec.rate)
		seconds := chunkMedians(w.lat, perSecond, time.Millisecond)
		v["p50_ms"] = measured{value: seconds.median(), n: n,
			note: fmt.Sprintf("median of %d one-second medians; of all ops %.6g ms", len(seconds), lat.median())}
	}
	if len(w.writeLat) > 0 {
		v["write_p99_ms"] = tailMeasure(durations(w.writeLat, time.Millisecond), 0.99)
	} else {
		v["write_p99_ms"] = measured{note: "no writes"}
	}
	v["slo_miss_frac"] = measured{value: ratio(float64(w.sloMiss), float64(w.attempted)), n: w.attempted,
		note: fmt.Sprintf("limit %v", spec.slo)}
	v["failed_frac"] = measured{value: ratio(float64(w.failed), float64(w.attempted)), n: w.attempted}
	v["refused_frac"] = measured{value: ratio(float64(w.refusals), float64(w.writes+w.refusals)), n: w.writes + w.refusals,
		note: "429s over write attempts"}
	return res
}

// tailMeasure reports the want quantile under the percentile rule,
// naming the quantile used when the sample forced a lower one.
func tailMeasure(d dist, want float64) measured {
	if len(d) == 0 {
		return measured{note: "no samples"}
	}
	v, q := d.tail(want)
	m := measured{value: v, n: len(d)}
	if q < want {
		m.note = fmt.Sprintf("p%.4g: too few samples for p%.4g", 100*q, 100*want)
	}
	return m
}

// runTraced runs an untraced window and then a traced one, each half
// the run, on fresh mounts, and reports the per-layer metrics of the
// traced one. The tracing overhead compares the time an op takes in the
// two: worker CPU time per op in process, wall time per op in a served
// closed loop, and the median latency in an open loop, whose throughput
// the offered rate pins whatever an op costs.
func runTraced(spec *workloadSpec, cfg config) (*result, error) {
	half := time.Duration(cfg.seconds) * time.Second / 2
	var cost [2]float64
	var w *window
	var m *mount
	for i, traced := range []bool{false, true} {
		var rec *recorder
		if traced {
			rec = newRecorder()
		}
		var err error
		if m, err = newMount(spec, cfg.seed, rec); err != nil {
			return nil, err
		}
		if w, err = m.measure(cfg.seed, half); err != nil {
			m.close()
			return nil, err
		}
		switch {
		case len(w.cpu) > 0:
			cost[i] = float64(sum(w.cpu)) / float64(time.Millisecond) / float64(len(w.cpu))
		case spec.rate > 0:
			cost[i] = durations(w.lat, time.Millisecond).median()
		default:
			cost[i] = w.elapsed.Seconds() * 1000 / float64(w.attempted)
		}
		if !traced {
			if err := m.close(); err != nil {
				return nil, err
			}
			runtime.GC()
		}
	}
	res := perLayer(w, m, cfg)
	if cfg.spansDir != "" {
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl.gz", spec.name, cfg.seed))
		n, err := m.rec.write(path)
		if err != nil {
			m.close()
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("# spans: %d written to %s\n", n, path)
	}
	basis := "wall time per op"
	switch {
	case !spec.served:
		basis = "worker CPU time per op"
	case spec.rate > 0:
		basis = "median latency"
	}
	res.values["trace.overhead_frac"] = measured{value: 1 - cost[0]/cost[1], n: 2,
		note: fmt.Sprintf("%s untraced %.4g ms, traced %.4g ms", basis, cost[0], cost[1])}
	if err := m.close(); err != nil {
		return nil, err
	}
	return res, nil
}
