package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"bftree/index"
	"bftree/internal/device"
)

// ScanStreamLimits is the LIMIT-k sweep of the scan-stream experiment;
// 0 is the full drain.
var ScanStreamLimits = []int{1, 10, 100}

// scanStreamOps is how many ranges each mode scans; enough for stable
// quantiles while keeping the harness interactive.
const scanStreamOps = 32

// ScanStreamResult is one mode of the scan-stream experiment: the
// materialized RangeScan against the streaming cursor at several LIMITs
// over the same ~10%-selectivity ranges.
type ScanStreamResult struct {
	Backend string
	// Mode is "materialized", "stream" (drained cursor) or "limit-k".
	Mode  string
	Limit int // the k of limit modes, 0 otherwise
	Ops   int
	// PagesPerOp is index+data pages read per operation (ProbeStats);
	// TuplesPerOp the tuples returned per operation.
	PagesPerOp  float64
	TuplesPerOp float64
	// FirstTuple is the average virtual time until the first tuple is
	// available — the end of the call for the materialized scan, the
	// first Next for streams.
	FirstTuple time.Duration
	Throughput float64 // operations per virtual second
	P50, P99   time.Duration
}

// latencyQuantiles sorts (destructively) and reads the p50/p99 of a
// latency sample.
func latencyQuantiles(lats []time.Duration) (p50, p99 time.Duration) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	q := func(f float64) time.Duration { return lats[int(f*float64(len(lats)-1))] }
	return q(0.50), q(0.99)
}

// ScanStreamSweep builds the ATT1 index of the selected backend on the
// SSD/SSD configuration and runs the same ~10%-selectivity ranges
// through the materialized RangeScan and the streaming cursor at each
// LIMIT. The streaming rows show what the pull API buys: a LIMIT-k
// consumer pays for the pages behind its k tuples, not the whole range.
func ScanStreamSweep(scale Scale) ([]*ScanStreamResult, error) {
	cfg := StorageConfig{Name: "SSD/SSD", Index: device.SSD, Data: device.SSD}
	env, syn, err := syntheticEnv(cfg, scale, 0)
	if err != nil {
		return nil, err
	}
	backend := scale.IndexBackend()
	ix, err := BuildIndex(backend, env, syn.File, 1, pointOpts(1, 1e-3))
	if err != nil {
		return nil, err
	}
	defer ix.Close()
	s, ok := ix.(index.Scanner)
	if !ok {
		return nil, fmt.Errorf("bench: backend %q does not implement Scanner", backend)
	}

	// ~10% selectivity of the ATT1 key domain, starts spread by seed.
	maxKey := syn.ATT1Keys[len(syn.ATT1Keys)-1]
	span := maxKey / 10
	if span == 0 {
		span = 1
	}
	rng := rand.New(rand.NewSource(scale.Seed + 7))
	ranges := make([][2]uint64, scanStreamOps)
	for i := range ranges {
		lo := uint64(rng.Int63n(int64(maxKey - span + 1)))
		ranges[i] = [2]uint64{lo, lo + span}
	}

	type mode struct {
		name  string
		limit int // -1 materialized, 0 full drain, k>0 LIMIT-k
	}
	modes := []mode{{"materialized", -1}, {"stream", 0}}
	for _, k := range ScanStreamLimits {
		modes = append(modes, mode{fmt.Sprintf("limit-%d", k), k})
	}

	var out []*ScanStreamResult
	for _, m := range modes {
		env.ResetIO()
		var pages, tuples uint64
		var firstTotal, elapsedTotal time.Duration
		lats := make([]time.Duration, 0, len(ranges))
		for _, r := range ranges {
			e0 := env.Elapsed()
			var st index.ProbeStats
			var first, lat time.Duration
			if m.limit < 0 {
				res, err := ix.RangeScan(r[0], r[1])
				if err != nil {
					return nil, err
				}
				st = res.Stats
				tuples += uint64(len(res.Tuples))
				lat = env.Elapsed() - e0
				first = lat
			} else {
				it, err := s.Scan(r[0], r[1])
				if err != nil {
					return nil, err
				}
				n := 0
				for it.Next() {
					n++
					if n == 1 {
						first = env.Elapsed() - e0
					}
					if m.limit > 0 && n >= m.limit {
						break
					}
				}
				if err := it.Err(); err != nil {
					it.Close()
					return nil, err
				}
				st = it.Stats()
				if err := it.Close(); err != nil {
					return nil, err
				}
				tuples += uint64(n)
				lat = env.Elapsed() - e0
				if n == 0 {
					first = lat
				}
			}
			pages += uint64(st.IndexReads + st.DataPagesRead)
			firstTotal += first
			elapsedTotal += lat
			lats = append(lats, lat)
		}
		p50, p99 := latencyQuantiles(lats)
		ops := len(ranges)
		throughput := 0.0
		if elapsedTotal > 0 {
			throughput = float64(ops) / elapsedTotal.Seconds()
		}
		out = append(out, &ScanStreamResult{
			Backend:     backend,
			Mode:        m.name,
			Limit:       max(m.limit, 0),
			Ops:         ops,
			PagesPerOp:  float64(pages) / float64(ops),
			TuplesPerOp: float64(tuples) / float64(ops),
			FirstTuple:  firstTotal / time.Duration(ops),
			Throughput:  throughput,
			P50:         p50,
			P99:         p99,
		})
	}
	return out, nil
}

// RunScanStream is the `scan-stream` experiment: materialized RangeScan
// versus the streaming cursor at LIMIT 1/10/100 over ~10%-selectivity
// ATT1 ranges on SSD/SSD. With -json it also writes BENCH_scan.json.
func RunScanStream(scale Scale) (*Table, error) {
	results, err := ScanStreamSweep(scale)
	if err != nil {
		return nil, err
	}
	return scanStreamTable(scale, results)
}

// scanStreamTable renders the scan modes and writes their
// BENCH_scan.json records when scale.JSONDir is set.
func scanStreamTable(scale Scale, results []*ScanStreamResult) (*Table, error) {
	t := &Table{
		Title:  fmt.Sprintf("Streaming scans: %s on SSD/SSD, ~10%% selectivity ranges", results[0].Backend),
		Header: []string{"mode", "ops", "pages/op", "tuples/op", "first tuple", "p50", "p99", "ops/s(virt)"},
		Notes: []string{
			"pages/op counts index + data pages (ProbeStats); a LIMIT-k stream",
			"pays only for the pages behind its k tuples, while the materialized",
			"scan reads the whole range before the first tuple is available",
		},
	}
	var records []Record
	for _, r := range results {
		t.AddRow(
			r.Mode,
			fmt.Sprint(r.Ops),
			fmtF(r.PagesPerOp),
			fmtF(r.TuplesPerOp),
			r.FirstTuple.Round(time.Microsecond).String(),
			r.P50.Round(time.Microsecond).String(),
			r.P99.Round(time.Microsecond).String(),
			fmtF(r.Throughput),
		)
		records = append(records, Record{
			Experiment: "scan-stream",
			Backend:    r.Backend,
			Mode:       r.Mode,
			Batch:      r.Limit,
			Throughput: r.Throughput,
			P50:        r.P50.Seconds(),
			P99:        r.P99.Seconds(),
			PagesPerOp: r.PagesPerOp,
		})
	}
	if err := writeArtifact(scale, "scan-stream", records); err != nil {
		return nil, err
	}
	return t, nil
}
