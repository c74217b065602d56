package bench

import (
	"fmt"
	"sync"
	"time"

	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/forest"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
	"bftree/internal/workload"
)

// ShardScaleCounts is the shard sweep of the shard-scale experiment.
var ShardScaleCounts = []int{1, 2, 4, 8}

// shardScaleWriters is the fixed writer population of every row: the
// sweep varies shards, not writers, so each row shows how much of the
// same offered structural load the forest can absorb.
const shardScaleWriters = 8

// shardScaleOps is the total structural-insert count of one measurement.
const shardScaleOps = 512

// shardScaleLatency is the real per-I/O blocking time imposed during
// the measured phase (same technique as multi-writer). A structural
// append holds the shard's writer lock exclusively across several page
// accesses, so with one shard the 8 writers fully serialize; with N
// shards up to N appends overlap their page waits.
const shardScaleLatency = 100 * time.Microsecond

// shardKeyGap strides the fixture's keys (key = ordinal * gap) so every
// shard's keyspace has room above its resident maximum for appended
// keys that still route to that shard.
const shardKeyGap = 1 << 20

// shardPidStride spaces consecutive appended page ids far enough apart
// that no new leaf can cover two of them (leaf spans are bounded by
// maxS * granularity ≤ 65535 pages), so every insert takes the
// appendLeaf structural path — no in-place absorption.
const shardPidStride = 1 << 20

// shardPidRegion spaces the per-shard appended-pid regions so shards
// never collide on page ids.
const shardPidRegion = 1 << 40

// ShardScaleResult is one row of the sweep: aggregate structural-insert
// throughput and per-op stall quantiles at a shard count.
type ShardScaleResult struct {
	Shards     int
	Writers    int
	Ops        int
	Elapsed    time.Duration
	Throughput float64 // appends per second of wall time
	P50, P99   time.Duration
}

// shardScaleFixture builds a fresh strided-key relation and a
// range-partitioned forest over it on Memory devices (no latency during
// the build).
func shardScaleFixture(scale Scale, shards int) (*forest.Forest, *heapfile.File, *device.Device, *device.Device, error) {
	n := scale.SyntheticTuples
	if n < 32768 {
		n = 32768
	}
	dataDev := device.New(device.Memory, PageSize)
	idxDev := device.New(device.Memory, PageSize)
	dataStore := pagestore.New(dataDev)
	idxStore := pagestore.New(idxDev)
	b, err := heapfile.NewBuilder(dataStore, mixedRWSchema)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	tup := make([]byte, mixedRWSchema.TupleSize)
	for i := uint64(0); i < n; i++ {
		mixedRWSchema.Set(tup, 0, i*shardKeyGap)
		if err := b.Append(tup); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	file, err := b.Finish()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	f, err := forest.New(idxStore, file, 0, forest.Options{
		Shards: shards,
		Tree:   core.Options{FPP: 1e-4},
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return f, file, idxDev, dataDev, nil
}

// shardAppendPlan is one shard's append state: the next key (just above
// the shard's resident maximum, still below its upper bound) and the
// next page id (its private region past the relation). The mutex keeps
// a shard's appends key- and pid-ordered across writers — the tail-leaf
// append path requires both to be monotone.
type shardAppendPlan struct {
	mu      sync.Mutex
	nextKey uint64
	nextPid device.PageID
}

// shardAppendPlans derives each shard's starting key and pid from the
// forest's separators and the relation geometry.
func shardAppendPlans(f *forest.Forest, file *heapfile.File) []*shardAppendPlan {
	seps := f.Separators()
	maxRelKey := (file.NumTuples() - 1) * shardKeyGap
	base := file.FirstPage() + device.PageID(file.NumPages())
	plans := make([]*shardAppendPlan, f.NumShards())
	for i := range plans {
		maxExisting := maxRelKey
		if i < len(seps) {
			// Separators are resident keys (page minima), so the shard's
			// resident maximum is the last key strictly below the
			// separator — one stride down, as all keys are multiples of
			// the gap.
			maxExisting = ((seps[i] - 1) / shardKeyGap) * shardKeyGap
		}
		plans[i] = &shardAppendPlan{
			nextKey: maxExisting + 1,
			nextPid: base + device.PageID(i)*shardPidRegion,
		}
	}
	return plans
}

// runShardScale drives the fixed writer population through ops
// structural appends via the shared Driver: each writer draws target
// shards from its seeded sub-stream (Zipfian over the shard ids, skew
// ≤ 1 uniform) and executes the append through the Apply hook, so each
// op's stall is wall time including the wait for the shard's append
// mutex — tail quantiles surface queueing, not just I/O cost.
func runShardScale(f *forest.Forest, plans []*shardAppendPlan, writers, ops int,
	skew float64, seed int64) (time.Duration, float64, time.Duration, time.Duration, error) {
	res, err := Drive(f, DriverConfig{
		Workers: writers,
		Ops:     ops,
		Source: func(w int) func() workload.Op {
			ranks := workload.NewRanks(workload.DistZipf, skew, uint64(len(plans)), workload.SubStream(seed, w))
			return func() workload.Op {
				return workload.Op{Kind: workload.OpInsert, Key: ranks.Rank()}
			}
		},
		Apply: func(_ int, op workload.Op) error {
			p := plans[op.Key]
			p.mu.Lock()
			key, pid := p.nextKey, p.nextPid
			p.nextKey++
			p.nextPid += shardPidStride
			err := f.Insert(key, pid)
			p.mu.Unlock()
			return err
		},
	})
	if err != nil {
		return 0, 0, 0, 0, err
	}
	return res.Elapsed, res.Throughput, res.P50, res.P99, nil
}

// ShardScaleSweep measures aggregate structural-insert throughput at
// each shard count under the fixed writer population. Writers pick a
// target shard per op from a Zipfian draw over the shard ids
// (scale.Skew; ≤ 1 is uniform), so a skewed run shows sharding's limit:
// partitions only multiply throughput while load spreads across them.
func ShardScaleSweep(scale Scale, shardCounts []int) ([]*ShardScaleResult, error) {
	var out []*ShardScaleResult
	for _, shards := range shardCounts {
		f, file, idxDev, dataDev, err := shardScaleFixture(scale, shards)
		if err != nil {
			return nil, err
		}
		n := f.NumShards() // separators can collapse; use the real count
		plans := shardAppendPlans(f, file)
		idxDev.SetRealLatency(shardScaleLatency)
		dataDev.SetRealLatency(shardScaleLatency)
		elapsed, thr, p50, p99, err := runShardScale(f, plans, shardScaleWriters, shardScaleOps, scale.Skew, scale.Seed)
		idxDev.SetRealLatency(0)
		dataDev.SetRealLatency(0)
		closeErr := f.Close()
		if err != nil {
			return nil, err
		}
		if closeErr != nil {
			return nil, closeErr
		}
		out = append(out, &ShardScaleResult{
			Shards:     n,
			Writers:    shardScaleWriters,
			Ops:        shardScaleOps,
			Elapsed:    elapsed,
			Throughput: thr,
			P50:        p50,
			P99:        p99,
		})
	}
	return out, nil
}

// RunShardScale is the `shard-scale` experiment: aggregate append-only
// structural-insert throughput at 1/2/4/8 shards under 8 concurrent
// writers, with real per-access device latency. Every insert opens a
// fresh tail leaf (pids jump a full leaf span per op), so each op takes
// its shard's exclusive writer lock across several page waits — the
// workload a single tree serializes entirely and a forest spreads over
// its shards. `-skew` above 1 concentrates writers on the hottest shard
// and erodes the multiplier back toward the single-tree row.
func RunShardScale(scale Scale) (*Table, error) {
	results, err := ShardScaleSweep(scale, ShardScaleCounts)
	if err != nil {
		return nil, err
	}
	return shardScaleTable(scale, results), nil
}

// shardScaleTable renders a shard sweep; speedups are relative to its
// first row.
func shardScaleTable(scale Scale, results []*ShardScaleResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Shard-scale structural inserts: %d writers, %v per page access, skew %.2f",
			shardScaleWriters, shardScaleLatency, scale.Skew),
		Header: []string{"shards", "ops", "wall", "appends/s", "speedup", "p50 stall", "p99 stall"},
		Notes: []string{
			"every insert appends a fresh tail leaf under its shard's exclusive writer",
			"lock, so throughput measures structural-write concurrency across shards;",
			"stalls are per-op wall time including the wait for the shard's append",
			"order lock. speedups are relative to the 1-shard row; skew > 1 drains",
			"them by funnelling ops to the hottest shard.",
		},
	}
	base := results[0].Throughput
	for _, r := range results {
		t.AddRow(
			fmt.Sprint(r.Shards),
			fmt.Sprint(r.Ops),
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.2fx", r.Throughput/base),
			r.P50.Round(time.Microsecond).String(),
			r.P99.Round(time.Microsecond).String(),
		)
	}
	return t
}
