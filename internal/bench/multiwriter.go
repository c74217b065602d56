package bench

import (
	"fmt"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
	"bftree/internal/workload"
)

// MultiWriterCounts is the writer sweep of the multi-writer experiment.
var MultiWriterCounts = []int{1, 2, 4, 8}

// multiWriterLatency is the real per-I/O blocking time imposed during
// the measured phase (see Device.SetRealLatency and the concurrent-probe
// experiment that introduced the technique). Each non-structural insert
// pays a handful of page accesses — the descent reads, the latched
// re-read, the leaf write — so aggregate insert throughput scales with
// writer count if and only if the write path lets writers overlap those
// waits: exactly what leaf-level latching provides for disjoint leaves
// and what a single writer mutex forbids.
const multiWriterLatency = 100 * time.Microsecond

// multiWriterOps is the total insert count of one measurement, shared
// between the writers.
const multiWriterOps = 256

// MultiWriterResult is one row of the sweep: aggregate insert throughput
// at a writer count, for writers spread over disjoint leaves and for
// writers hammering one leaf.
type MultiWriterResult struct {
	Writers             int
	Ops                 int
	DisjointElapsed     time.Duration
	DisjointThroughput  float64 // inserts per second of wall time
	ContendedElapsed    time.Duration
	ContendedThroughput float64
}

// multiWriterFixture builds a fresh unique-key relation and BF-Tree on
// Memory devices (no latency during the build). The fpp is chosen low
// so the tree has enough leaves for 8 writers to claim disjoint sets.
func multiWriterFixture(scale Scale) (*core.Tree, *heapfile.File, *device.Device, *device.Device, error) {
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
		mixedRWSchema.Set(tup, 0, i)
		if err := b.Append(tup); err != nil {
			return nil, nil, nil, nil, err
		}
	}
	file, err := b.Finish()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	tr, err := core.BulkLoad(idxStore, file, 0, core.Options{FPP: 1e-4})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return tr, file, idxDev, dataDev, nil
}

// runMultiWriter measures aggregate wall-clock insert throughput for
// the given writer count through the shared Driver. keyFor maps a
// writer and its seeded sub-stream to the key that writer re-inserts;
// re-inserting a present key at its own page is the non-structural
// in-place rewrite of Algorithm 3, so the measurement isolates the
// latched write path (no splits, no COW).
func runMultiWriter(tr *core.Tree, file *heapfile.File, writers, ops int, seed int64,
	keyFor func(w int, rng *workload.SplitMix64) uint64) (time.Duration, float64, error) {
	res, err := Drive(coreTarget{tr}, DriverConfig{
		Workers: writers,
		Ops:     ops,
		RefOf:   func(k uint64) index.Ref { return index.Ref{Page: file.PageOf(k)} },
		Source: func(w int) func() workload.Op {
			rng := workload.SubStream(seed, w)
			return func() workload.Op {
				return workload.Op{Kind: workload.OpInsert, Key: keyFor(w, rng)}
			}
		},
	})
	if err != nil {
		return 0, 0, err
	}
	return res.Elapsed, res.Throughput, nil
}

// MultiWriterSweep measures aggregate insert throughput at each writer
// count, twice per row: writers partitioned over disjoint leaf regions
// (each writer draws from its own contiguous slice of the keyspace via
// its seeded sub-stream), and writers contending for one leaf (everyone
// re-inserts keys from the same 64-key range). Each measurement runs
// against a fresh tree so rows stay comparable.
func MultiWriterSweep(scale Scale, writerCounts []int) ([]*MultiWriterResult, error) {
	var out []*MultiWriterResult
	for _, writers := range writerCounts {
		r := &MultiWriterResult{Writers: writers, Ops: multiWriterOps}
		for _, contended := range []bool{false, true} {
			tr, file, idxDev, dataDev, err := multiWriterFixture(scale)
			if err != nil {
				return nil, err
			}
			n := file.NumTuples()
			chunk := n / uint64(writers)
			keyFor := func(w int, rng *workload.SplitMix64) uint64 {
				if contended {
					return rng.Uint64n(64) // one leaf for every writer
				}
				return uint64(w)*chunk + rng.Uint64n(chunk)
			}
			idxDev.SetRealLatency(multiWriterLatency)
			dataDev.SetRealLatency(multiWriterLatency)
			elapsed, thr, err := runMultiWriter(tr, file, writers, multiWriterOps, scale.Seed, keyFor)
			idxDev.SetRealLatency(0)
			dataDev.SetRealLatency(0)
			if err != nil {
				return nil, err
			}
			if contended {
				r.ContendedElapsed, r.ContendedThroughput = elapsed, thr
			} else {
				r.DisjointElapsed, r.DisjointThroughput = elapsed, thr
			}
		}
		out = append(out, r)
	}
	return out, nil
}

// RunMultiWriter is the `multi-writer` experiment: aggregate in-place
// insert throughput at 1/2/4/8 writer goroutines, with real per-access
// device latency, over disjoint leaves vs one contended leaf. Disjoint
// scaling demonstrates leaf-level write latching: writers share the
// tree's writer lock in read mode and serialize only on per-leaf
// latches, so writers on different leaves overlap their page waits.
// The contended column shows the cost of the latch actually doing its
// job: same-leaf writers serialize on the leaf's latch (and its page
// write), but still overlap their descents.
func RunMultiWriter(scale Scale) (*Table, error) {
	results, err := MultiWriterSweep(scale, MultiWriterCounts)
	if err != nil {
		return nil, err
	}
	return multiWriterTable(results), nil
}

// multiWriterTable renders a writer sweep; speedups are relative to
// its first row.
func multiWriterTable(results []*MultiWriterResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Multi-writer inserts: leaf-latched in-place writes, %v per page access",
			multiWriterLatency),
		Header: []string{"writers", "ops", "disjoint wall", "disjoint ins/s", "speedup",
			"contended wall", "contended ins/s", "speedup"},
		Notes: []string{
			"writers re-insert present keys in place (no structural changes); disjoint",
			"rows draw from writer-private keyspace slices, contended rows share one leaf.",
			"each page access blocks for the stated real latency outside all locks, so",
			"disjoint speedup measures write-path concurrency, not host core count;",
			"speedups are relative to the 1-writer row of the same column.",
		},
	}
	baseD := results[0].DisjointThroughput
	baseC := results[0].ContendedThroughput
	for _, r := range results {
		t.AddRow(
			fmt.Sprint(r.Writers),
			fmt.Sprint(r.Ops),
			r.DisjointElapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.DisjointThroughput),
			fmt.Sprintf("%.2fx", r.DisjointThroughput/baseD),
			r.ContendedElapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.ContendedThroughput),
			fmt.Sprintf("%.2fx", r.ContendedThroughput/baseC),
		)
	}
	return t
}
