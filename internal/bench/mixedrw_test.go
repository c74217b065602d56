package bench

import (
	"testing"
)

// mixedScale keeps the mixed-rw sweep fast in unit tests.
func mixedScale() Scale {
	s := DefaultScale()
	s.SyntheticTuples = 20000
	s.Probes = 96
	return s
}

// mixedRWShared is the one mixed-rw sweep both
// mixed-rw tests check.
var mixedRWShared = &shared[[]*MixedRWResult]{run: func() ([]*MixedRWResult, error) {
	return MixedRWSweep(mixedScale(), MixedRWReaderCounts)
}}

// TestMixedRWSweepLiveWriter runs the 1→8 reader sweep and asserts the
// property the experiment exists to demonstrate: readers make progress
// under a continuously structural-writing writer, and the writer really
// was live (it completed inserts, grew the leaf level) during every
// measured window.
func TestMixedRWSweepLiveWriter(t *testing.T) {
	results := mixedRWShared.get(t)
	byReaders := map[int]*MixedRWResult{}
	for _, r := range results {
		byReaders[r.Readers] = r
	}
	one, eight := byReaders[1], byReaders[8]
	if one == nil || eight == nil {
		t.Fatalf("unexpected sweep rows: %+v", results)
	}
	for _, r := range []*MixedRWResult{one, eight} {
		if r.Throughput <= 0 {
			t.Errorf("readers=%d: no reader throughput", r.Readers)
		}
		if r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("readers=%d: implausible latencies p50=%v p99=%v", r.Readers, r.P50, r.P99)
		}
		if r.LeavesAdded == 0 {
			t.Errorf("readers=%d: no structural changes raced the readers", r.Readers)
		}
	}
	// The writer must be live inside the measured window; the 1-reader
	// row has the longest window, so assert there (short windows at high
	// reader counts can legitimately catch the writer mid-batch).
	if one.WriterInserts == 0 {
		t.Error("the writer completed no inserts inside the 1-reader measurement window")
	}
	// Readers must scale despite the live writer: the read path takes no
	// locks, so 8 readers beat 1 clearly even while splits stream.
	speedup := eight.Throughput / one.Throughput
	if speedup <= 2 {
		t.Errorf("8-reader speedup under a live writer = %.2fx, want > 2x", speedup)
	}
}

// TestMixedRWExperimentRegistered checks the
// experiment's rendered table, as `bfbench -exp mixed-rw` prints
// it, from the same sweep.
func TestMixedRWExperimentRegistered(t *testing.T) {
	results := mixedRWShared.get(t)
	tbl := mixedRWTable(results)
	checkShape(t, "mixed-rw", tbl)
	if len(tbl.Rows) != len(MixedRWReaderCounts) {
		t.Fatalf("table has %d rows, want %d", len(tbl.Rows), len(MixedRWReaderCounts))
	}
	if tbl.Rows[0][0] != "1" || tbl.Rows[len(tbl.Rows)-1][0] != "8" {
		t.Errorf("reader sweep rows wrong: first=%q last=%q", tbl.Rows[0][0], tbl.Rows[len(tbl.Rows)-1][0])
	}
}
