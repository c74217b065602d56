package bench

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
	"bftree/internal/workload"
)

// The compaction-stall experiment measures what incremental compaction
// buys: the same delete-heavy churn mix runs twice through DriveMix —
// once with the legacy whole-tree Rebuild (IncrementalBatch 0) and
// once with per-leaf partial rebuilds — and the runs are compared on
// the longest single writer stall (the maintainer's exclusive-lock
// hold, MaintenanceStats.CompactionMaxStall) and on the effective-fpp
// ceiling both held. The headline: incremental compaction shrinks the
// stall to the leaves that earned it while holding the same fpp line.

const (
	stallWriters = 4

	// stallFPP and stallFPPThreshold mirror the churn drift budget: with
	// standard filters every logical delete adds 1/numKeys of Section 7
	// drift, so the threshold crossing recurs throughout the run and
	// both variants compact repeatedly.
	stallFPP          = 0.02
	stallFPPThreshold = 0.12
)

// stallMix is the churn-shaped mix the experiment drives: delete-heavy
// with a read component, so compaction races live probes.
var stallMix = workload.Mix{
	Name: "churn",
	Weights: func() [workload.NumOpKinds]float64 {
		var w [workload.NumOpKinds]float64
		w[workload.OpDelete] = 0.45
		w[workload.OpInsert] = 0.35
		w[workload.OpSearch] = 0.20
		return w
	}(),
}

// CompactionStallResult is the outcome of one variant's run.
type CompactionStallResult struct {
	Mode  string // "full-rebuild" or "incremental"
	Batch int    // IncrementalBatch used (0 for full)

	Keys    uint64
	Ops     uint64
	Elapsed time.Duration

	Throughput float64
	P50, P99   time.Duration // per-op writer+reader latency quantiles

	MaxFPP    float64 // highest effective fpp observed (sampled)
	Threshold float64

	Stats core.MaintenanceStats // terminal snapshot (after Close)

	LiveNodes   uint64
	FreePages   uint64
	LimboAtEnd  uint64
	DevicePages uint64
}

// EconomyBalanced reports whether every index page is accounted for at
// quiescence: live + free + limbo == device.
func (r *CompactionStallResult) EconomyBalanced() bool {
	return r.LiveNodes+r.FreePages+r.LimboAtEnd == r.DevicePages
}

// stallFixture builds a unique-key relation of n tuples and an
// auto-maintained BF-Tree over it with the given compaction batch.
func stallFixture(n uint64, batch int) (*core.Tree, *heapfile.File, *pagestore.Store, *device.Device, error) {
	dataStore := pagestore.New(device.New(device.Memory, PageSize))
	idxDev := device.New(device.Memory, PageSize)
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
	tr, err := core.BulkLoad(idxStore, file, 0, core.Options{
		FPP: stallFPP,
		Maintenance: core.MaintenancePolicy{
			Mode:             core.MaintenanceAuto,
			FPPThreshold:     stallFPPThreshold,
			ReclaimInterval:  2 * time.Millisecond,
			IncrementalBatch: batch,
		},
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return tr, file, idxStore, idxDev, nil
}

// stallScale derives the fixture size and op budget: enough keys that
// the tree holds dozens of leaves — a whole-tree rebuild then costs
// tens of milliseconds of exclusive hold, well clear of scheduler
// noise, while a batch stays a small fraction of it — and enough churn
// for several threshold crossings per variant.
func stallScale(scale Scale) (n, ops uint64) {
	n = scale.SyntheticTuples * 2
	if n < 262144 {
		n = 262144
	}
	ops = scale.SyntheticTuples * 4
	if ops < n {
		ops = n
	}
	return n, ops
}

// CompactionStallRun runs the churn mix against one variant and
// reports its stall and drift profile. batch 0 selects the legacy
// whole-tree Rebuild; positive batches compact that many top-drifted
// leaves per exclusive-lock hold.
func CompactionStallRun(scale Scale, batch int) (*CompactionStallResult, error) {
	n, ops := stallScale(scale)
	tr, file, idxStore, idxDev, err := stallFixture(n, batch)
	if err != nil {
		return nil, err
	}

	var maxFPP atomic.Uint64 // float64 bits; positive floats order like uints
	sampleFPP := func() {
		bits := math.Float64bits(tr.EffectiveFPP())
		for {
			old := maxFPP.Load()
			if bits <= old || maxFPP.CompareAndSwap(old, bits) {
				return
			}
		}
	}

	start := time.Now()
	res, err := DriveMix(coreTarget{tr}, MixConfig{
		Mix:     stallMix,
		Dist:    workload.DistUniform,
		NumKeys: n,
		Seed:    scale.Seed,
		Workers: stallWriters,
		Ops:     int(ops),
		RefOf:   func(k uint64) index.Ref { return index.Ref{Page: file.PageOf(k)} },
		OnOp: func(_, i int, _ workload.Op) {
			if i%128 == 0 {
				sampleFPP()
			}
		},
	})
	elapsed := time.Since(start)
	if err != nil {
		tr.Close()
		return nil, err
	}
	sampleFPP()

	if err := tr.Close(); err != nil {
		return nil, err
	}
	st := tr.MaintenanceStats()

	// The compacted tree still answers: spot-check surviving keys.
	for k := uint64(0); k < n; k += n / 64 {
		r, err := tr.SearchFirst(k)
		if err != nil {
			return nil, err
		}
		if len(r.Tuples) == 0 {
			return nil, fmt.Errorf("bench: compaction-stall lost key %d", k)
		}
	}

	mode := "incremental"
	if batch <= 0 {
		mode = "full-rebuild"
	}
	return &CompactionStallResult{
		Mode:        mode,
		Batch:       batch,
		Keys:        n,
		Ops:         uint64(res.Ops),
		Elapsed:     elapsed,
		Throughput:  res.Throughput,
		P50:         res.P50,
		P99:         res.P99,
		MaxFPP:      math.Float64frombits(maxFPP.Load()),
		Threshold:   stallFPPThreshold,
		Stats:       st,
		LiveNodes:   tr.NumNodes(),
		FreePages:   uint64(idxStore.FreePages()),
		LimboAtEnd:  uint64(st.LimboPages),
		DevicePages: idxDev.NumPages(),
	}, nil
}

// stallBatch picks the incremental batch for the comparison: a
// sixteenth of the tree's leaves, so each exclusive hold rewrites a
// small, fixed fraction of what the full rebuild rewrites.
func stallBatch(scale Scale) (int, error) {
	n, _ := stallScale(scale)
	tr, _, _, _, err := stallFixture(n, 0)
	if err != nil {
		return 0, err
	}
	defer tr.Close()
	b := int(tr.NumLeaves() / 16)
	if b < 1 {
		b = 1
	}
	return b, nil
}

// RunCompactionStall is the `compaction-stall` experiment: the same
// churn mix against the whole-tree and incremental compaction
// variants, compared on max writer stall and fpp ceiling. With -json
// it also emits BENCH_compact.json.
func RunCompactionStall(scale Scale) (*Table, error) {
	batch, err := stallBatch(scale)
	if err != nil {
		return nil, err
	}
	full, err := CompactionStallRun(scale, 0)
	if err != nil {
		return nil, err
	}
	incr, err := CompactionStallRun(scale, batch)
	if err != nil {
		return nil, err
	}
	return compactionStallTable(scale, batch, full, incr)
}

// compactionStallTable renders the full-vs-incremental comparison and
// writes its BENCH_compact.json records when scale.JSONDir is set.
func compactionStallTable(scale Scale, batch int, full, incr *CompactionStallResult) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Incremental compaction: %d churn ops over %d keys, full rebuild vs batch %d",
			full.Ops, full.Keys, batch),
		Header: []string{"metric", "full rebuild", fmt.Sprintf("incremental (batch %d)", batch)},
		Notes: []string{
			"both variants run the same delete-heavy mix (DriveMix) against an auto-",
			"maintained tree; every logical delete adds 1/keys of Section 7 drift, so the",
			"Equation 14 estimate crosses the threshold repeatedly. the full variant pays",
			"one whole-tree Rebuild per crossing under the exclusive lock; the incremental",
			"variant rebuilds only the most-drifted leaves, off the lock, taking it only",
			"for each leaf's swap — max stall is the longest single exclusive hold either way.",
		},
	}
	econ := func(r *CompactionStallResult) string {
		if r.EconomyBalanced() {
			return "balanced"
		}
		return fmt.Sprintf("LEAK: %d live + %d free + %d limbo vs %d device",
			r.LiveNodes, r.FreePages, r.LimboAtEnd, r.DevicePages)
	}
	rows := [][3]string{
		{"ops", fmt.Sprint(full.Ops), fmt.Sprint(incr.Ops)},
		{"ops/s", fmt.Sprintf("%.0f", full.Throughput), fmt.Sprintf("%.0f", incr.Throughput)},
		{"op p99", full.P99.Round(time.Microsecond).String(), incr.P99.Round(time.Microsecond).String()},
		{"max writer stall", full.Stats.CompactionMaxStall.Round(10 * time.Microsecond).String(),
			incr.Stats.CompactionMaxStall.Round(10 * time.Microsecond).String()},
		{"total stall", full.Stats.CompactionTotalStall.Round(10 * time.Microsecond).String(),
			incr.Stats.CompactionTotalStall.Round(10 * time.Microsecond).String()},
		{"whole-tree rebuilds", fmt.Sprint(full.Stats.Compactions), fmt.Sprint(incr.Stats.Compactions)},
		{"incremental passes", fmt.Sprint(full.Stats.IncrementalPasses), fmt.Sprint(incr.Stats.IncrementalPasses)},
		{"leaves compacted", fmt.Sprint(full.Stats.LeavesCompacted), fmt.Sprint(incr.Stats.LeavesCompacted)},
		{"fpp threshold", fmt.Sprintf("%.3f", full.Threshold), fmt.Sprintf("%.3f", incr.Threshold)},
		{"max effective fpp", fmt.Sprintf("%.4f", full.MaxFPP), fmt.Sprintf("%.4f", incr.MaxFPP)},
		{"page economy", econ(full), econ(incr)},
	}
	for _, row := range rows {
		t.AddRow(row[0], row[1], row[2])
	}
	if full.Stats.CompactionMaxStall > 0 {
		ratio := float64(full.Stats.CompactionMaxStall) / float64(max(incr.Stats.CompactionMaxStall, 1))
		t.Notes = append(t.Notes, fmt.Sprintf("max-stall ratio (full / incremental): %.1fx", ratio))
	}

	records := make([]Record, 0, 2)
	for _, r := range []*CompactionStallResult{full, incr} {
		records = append(records, Record{
			Experiment:        "compaction-stall",
			Backend:           "bftree",
			Mode:              r.Mode,
			Batch:             r.Batch,
			Workers:           stallWriters,
			Ops:               int(r.Ops),
			Throughput:        r.Throughput,
			P50:               r.P50.Seconds(),
			P99:               r.P99.Seconds(),
			MaxStallMS:        float64(r.Stats.CompactionMaxStall) / float64(time.Millisecond),
			TotalStallMS:      float64(r.Stats.CompactionTotalStall) / float64(time.Millisecond),
			Compactions:       r.Stats.Compactions,
			IncrementalPasses: r.Stats.IncrementalPasses,
			LeavesCompacted:   r.Stats.LeavesCompacted,
			MaxFPP:            r.MaxFPP,
		})
	}
	if err := writeArtifact(scale, "compaction-stall", records); err != nil {
		return nil, err
	}
	return t, nil
}
