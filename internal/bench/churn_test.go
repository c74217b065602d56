package bench

import (
	"testing"
)

// churnScale keeps the churn run fast in unit tests: ~120k ops over a
// 16384-key tree, enough for dozens of drift-triggered compactions.
func churnScale() Scale {
	s := DefaultScale()
	s.SyntheticTuples = 30000
	return s
}

// churnShared is the one churn run both churn tests check.
var churnShared = &shared[*ChurnResult]{run: func() (*ChurnResult, error) {
	return ChurnRun(churnScale())
}}

// TestChurnSelfMaintains asserts the acceptance properties of the
// self-maintaining mode: under sustained insert+delete churn the
// maintainer compacts on drift (observed in MaintenanceStats), the
// effective fpp stays near the configured Equation 14 threshold, limbo
// stays bounded, and the page economy balances at quiescence with the
// foreground write path having performed zero reclamation.
func TestChurnSelfMaintains(t *testing.T) {
	r := churnShared.get(t)
	if r.Ops < 4*r.Keys {
		t.Fatalf("only %d ops over %d keys; fixture too small to drift", r.Ops, r.Keys)
	}
	if r.Stats.Compactions == 0 {
		t.Errorf("no auto-compaction observed: %+v", r.Stats)
	}
	// Drift is held near the threshold: the maintainer may detect the
	// crossing one reclaim interval late, so allow bounded overshoot.
	if r.MaxFPP >= r.Threshold+0.05 {
		t.Errorf("max effective fpp %.4f overshot threshold %.3f by more than 0.05",
			r.MaxFPP, r.Threshold)
	}
	// Limbo is bounded: at most a couple of retired tree generations,
	// never growing with the op count.
	if limit := 4*int(r.LiveNodes) + 64; r.MaxLimbo > limit {
		t.Errorf("max limbo %d pages exceeds %d (live nodes %d); limbo grows with churn",
			r.MaxLimbo, limit, r.LiveNodes)
	}
	if r.Stats.PagesReclaimed == 0 {
		t.Error("maintainer reclaimed nothing; retired trees leaked")
	}
	if r.LimboAtEnd != 0 {
		t.Errorf("%d pages stuck in limbo at quiescence", r.LimboAtEnd)
	}
	if !r.EconomyBalanced() {
		t.Errorf("page economy leaks: live %d + free %d + limbo %d != device %d",
			r.LiveNodes, r.FreePages, r.LimboAtEnd, r.DevicePages)
	}
}

// TestChurnExperimentRegistered checks the experiment's rendered table,
// as `bfbench -exp churn` prints it, from the same run.
func TestChurnExperimentRegistered(t *testing.T) {
	tbl := churnTable(churnShared.get(t))
	checkShape(t, "churn", tbl)
	for _, row := range tbl.Rows {
		if row[0] == "page economy" {
			if len(row[1]) == 0 || row[1][len(row[1])-1] != ')' {
				t.Errorf("economy row malformed: %q", row[1])
			}
			return
		}
	}
	t.Error("no page-economy row in the churn table")
}
