package bench

import (
	"testing"
)

// shardScaleShared is the one uniform shard-scale sweep both
// shard-scale tests check.
var shardScaleShared = &shared[[]*ShardScaleResult]{run: func() ([]*ShardScaleResult, error) {
	return ShardScaleSweep(DefaultScale(), ShardScaleCounts)
}}

// shardRow returns the sweep's row for the given shard count.
func shardRow(t *testing.T, results []*ShardScaleResult, shards int) *ShardScaleResult {
	t.Helper()
	for _, r := range results {
		if r.Shards == shards {
			return r
		}
	}
	t.Fatalf("shard counts %+v lack %d", results, shards)
	return nil
}

// TestShardScaleSpeedup is the experiment's acceptance bar: 4 shards
// must deliver at least 2x the aggregate structural-insert throughput
// of 1 shard under the fixed 8-writer population. The append path holds
// a shard's writer lock exclusively across its page waits, so one shard
// serializes the whole population and four shards overlap up to four
// appends; 2x leaves headroom for scheduler noise on top of the ~4x
// ideal. The same sweep renders the experiment's table.
func TestShardScaleSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("real-latency measurement")
	}
	results := shardScaleShared.get(t)
	one, four := shardRow(t, results, 1), shardRow(t, results, 4)
	if four.Throughput < 2*one.Throughput {
		t.Errorf("4-shard throughput %.0f/s < 2x 1-shard %.0f/s", four.Throughput, one.Throughput)
	}
	for _, r := range []*ShardScaleResult{one, four} {
		if r.Ops != shardScaleOps {
			t.Errorf("%d shards: ops = %d, want %d", r.Shards, r.Ops, shardScaleOps)
		}
		if r.P99 < r.P50 || r.P50 <= 0 {
			t.Errorf("%d shards: implausible stalls p50=%v p99=%v", r.Shards, r.P50, r.P99)
		}
	}

	// The rendered table, as `bfbench -exp shard-scale` prints it.
	tbl := shardScaleTable(DefaultScale(), results)
	checkShape(t, "shard-scale", tbl)
	if len(tbl.Rows) != len(ShardScaleCounts) {
		t.Errorf("table has %d rows, want %d", len(tbl.Rows), len(ShardScaleCounts))
	}
}

// TestShardScaleSkewErodesScaling pins the skew knob's effect: with all
// ops funnelled to one hot shard (extreme Zipf), a 4-shard forest loses
// most of its multiplier. The uniform baseline is the 4-shard row of
// the shared sweep.
func TestShardScaleSkewErodesScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("real-latency measurement")
	}
	four := shardRow(t, shardScaleShared.get(t), 4)
	skewed := DefaultScale()
	skewed.Skew = 8 // nearly all draws hit rank 0
	slow, err := ShardScaleSweep(skewed, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if slow[0].Throughput > 0.75*four.Throughput {
		t.Errorf("skewed throughput %.0f/s not below 0.75x uniform %.0f/s",
			slow[0].Throughput, four.Throughput)
	}
}

// TestShardScalePlans sanity-checks the per-shard append plans: keys
// start above each shard's resident maximum and below the next
// separator, pids start past the relation in disjoint regions.
func TestShardScalePlans(t *testing.T) {
	f, file, _, _, err := shardScaleFixture(DefaultScale(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plans := shardAppendPlans(f, file)
	seps := f.Separators()
	for i, p := range plans {
		if i < len(seps) && p.nextKey >= seps[i] {
			t.Errorf("shard %d: next key %d not below separator %d", i, p.nextKey, seps[i])
		}
		if i > 0 && plans[i-1].nextPid >= p.nextPid {
			t.Errorf("shard %d: pid region %d not above shard %d's %d", i, p.nextPid, i-1, plans[i-1].nextPid)
		}
		if uint64(p.nextPid) <= uint64(file.FirstPage())+file.NumPages() && i > 0 {
			t.Errorf("shard %d: pid region %d overlaps the relation", i, p.nextPid)
		}
	}
	// A few appends per shard must route back to their shard and take
	// the structural path (node count grows).
	before := f.Shard(2).NumNodes()
	p := plans[2]
	for j := 0; j < 3; j++ {
		if err := f.Insert(p.nextKey, p.nextPid); err != nil {
			t.Fatal(err)
		}
		p.nextKey++
		p.nextPid += shardPidStride
	}
	if after := f.Shard(2).NumNodes(); after < before+3 {
		t.Errorf("3 appends grew shard 2 from %d to %d nodes; want ≥ +3", before, after)
	}
}
