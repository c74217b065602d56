package bench

import (
	"testing"
)

// multiWriterScale keeps the sweep fast in unit tests while leaving
// enough leaves for 8 disjoint writer regions.
func multiWriterScale() Scale {
	s := DefaultScale()
	s.SyntheticTuples = 40000
	return s
}

// multiWriterShared is the one multi-writer sweep both
// multi-writer tests check.
var multiWriterShared = &shared[[]*MultiWriterResult]{run: func() ([]*MultiWriterResult, error) {
	return MultiWriterSweep(multiWriterScale(), MultiWriterCounts)
}}

// TestMultiWriterSweepScalesOnDisjointLeaves asserts the property the
// experiment exists to demonstrate — and the acceptance bar of the
// leaf-latching work: aggregate insert throughput over disjoint leaves
// grows by more than 1.5x from 1 to 4 writers, because latched writers
// only share the tree lock in read mode and overlap their page waits.
func TestMultiWriterSweepScalesOnDisjointLeaves(t *testing.T) {
	results := multiWriterShared.get(t)
	byWriters := map[int]*MultiWriterResult{}
	for _, r := range results {
		byWriters[r.Writers] = r
	}
	one, four := byWriters[1], byWriters[4]
	if one == nil || four == nil {
		t.Fatalf("unexpected sweep rows: %+v", results)
	}
	for _, r := range []*MultiWriterResult{one, four} {
		if r.DisjointThroughput <= 0 || r.ContendedThroughput <= 0 {
			t.Fatalf("writers=%d: no throughput measured: %+v", r.Writers, r)
		}
	}
	speedup := four.DisjointThroughput / one.DisjointThroughput
	if speedup <= 1.5 {
		t.Errorf("4-writer disjoint-leaf speedup = %.2fx, want > 1.5x", speedup)
	}
}

// TestMultiWriterExperimentRegistered checks the
// experiment's rendered table, as `bfbench -exp multi-writer` prints
// it, from the same sweep.
func TestMultiWriterExperimentRegistered(t *testing.T) {
	results := multiWriterShared.get(t)
	tbl := multiWriterTable(results)
	checkShape(t, "multi-writer", tbl)
	if len(tbl.Rows) != len(MultiWriterCounts) {
		t.Fatalf("table has %d rows, want %d", len(tbl.Rows), len(MultiWriterCounts))
	}
	if tbl.Rows[0][0] != "1" || tbl.Rows[len(tbl.Rows)-1][0] != "8" {
		t.Errorf("writer sweep rows wrong: first=%q last=%q", tbl.Rows[0][0], tbl.Rows[len(tbl.Rows)-1][0])
	}
}
