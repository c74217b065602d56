package bench

import (
	"testing"
)

// sweepScale keeps the concurrent sweep fast in unit tests: few probes,
// small relation.
func sweepScale() Scale {
	s := DefaultScale()
	s.SyntheticTuples = 20000
	s.Probes = 128
	return s
}

// concurrentShared is the one concurrent-probe sweep both
// concurrent-probe tests check.
var concurrentShared = &shared[[]*ConcurrentResult]{run: func() ([]*ConcurrentResult, error) {
	return ConcurrentProbeSweep(sweepScale(), ConcurrentWorkerCounts)
}}

// TestConcurrentProbeSweepScales runs the 1→16 worker sweep and asserts
// the property the concurrent read path exists to provide: aggregate
// throughput grows by more than 2x from 1 to 8 workers, because probers
// overlap their per-access blocking time instead of serializing behind
// a store- or device-wide lock.
func TestConcurrentProbeSweepScales(t *testing.T) {
	results := concurrentShared.get(t)
	byWorkers := map[int]*ConcurrentResult{}
	for _, r := range results {
		byWorkers[r.Workers] = r
	}
	one, eight := byWorkers[1], byWorkers[8]
	if one == nil || eight == nil {
		t.Fatalf("unexpected sweep rows: %+v", results)
	}
	speedup := eight.Throughput / one.Throughput
	if speedup <= 2 {
		t.Errorf("8-worker speedup = %.2fx, want > 2x (read path still serializes?)", speedup)
	}
	for _, r := range []*ConcurrentResult{one, eight} {
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("workers=%d: implausible latencies p50=%v p99=%v", r.Workers, r.P50, r.P99)
		}
		if r.Probes != 128 {
			t.Errorf("workers=%d ran %d probes, want 128", r.Workers, r.Probes)
		}
	}
}

// TestConcurrentProbeExperimentRegistered checks the
// experiment's rendered table, as `bfbench -exp concurrent-probe` prints
// it, from the same sweep.
func TestConcurrentProbeExperimentRegistered(t *testing.T) {
	results := concurrentShared.get(t)
	tbl := concurrentProbeTable(results)
	checkShape(t, "concurrent-probe", tbl)
	if len(tbl.Rows) != len(ConcurrentWorkerCounts) {
		t.Fatalf("table has %d rows, want %d", len(tbl.Rows), len(ConcurrentWorkerCounts))
	}
	if tbl.Rows[0][0] != "1" || tbl.Rows[len(tbl.Rows)-1][0] != "16" {
		t.Errorf("worker sweep rows wrong: first=%q last=%q", tbl.Rows[0][0], tbl.Rows[len(tbl.Rows)-1][0])
	}
}
