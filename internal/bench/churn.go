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

// The churn experiment drives the self-maintaining mode (DESIGN.md §4):
// sustained insert+delete load on an auto-maintained tree, measuring
// that (a) the Equation 14 fpp drift is held near the configured
// compaction threshold by background Rebuilds, (b) limbo stays bounded
// — retired pages are reclaimed by the maintainer, with zero foreground
// structural changes required — and (c) the page economy balances at
// quiescence: live + free + limbo == device.

const (
	// churnWriters delete+re-insert over disjoint key partitions;
	// churnReaders probe concurrently, driving the epoch-exit hook that
	// lets the maintainer reclaim without foreground structural help.
	churnWriters = 4
	churnReaders = 2

	// churnFPP and churnFPPThreshold set the drift budget: with
	// standard filters every logical delete adds 1/numKeys to the
	// effective fpp (Section 7), so the maintainer must compact roughly
	// every (threshold-fpp)×numKeys deletes to hold the line.
	churnFPP          = 0.02
	churnFPPThreshold = 0.12
)

// ChurnResult is the outcome of one churn run.
type ChurnResult struct {
	Keys    uint64 // distinct keys in the fixture
	Ops     uint64 // insert+delete operations performed
	Elapsed time.Duration

	MaxFPP    float64 // highest effective fpp observed (sampled)
	Threshold float64
	MaxLimbo  int // highest limbo page count observed (sampled)

	Stats core.MaintenanceStats // terminal snapshot (after Close)

	LiveNodes   uint64
	FreePages   uint64
	LimboAtEnd  uint64
	DevicePages uint64
}

// EconomyBalanced reports whether every index page is accounted for at
// quiescence: live + free + limbo == device.
func (r *ChurnResult) EconomyBalanced() bool {
	return r.LiveNodes+r.FreePages+r.LimboAtEnd == r.DevicePages
}

// churnFixture builds a unique-key relation of n tuples and an
// auto-maintained BF-Tree over it, both on Memory devices.
func churnFixture(n uint64) (*core.Tree, *heapfile.File, *pagestore.Store, *device.Device, error) {
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
		FPP: churnFPP,
		Maintenance: core.MaintenancePolicy{
			Mode:            core.MaintenanceAuto,
			FPPThreshold:    churnFPPThreshold,
			ReclaimInterval: 2 * time.Millisecond,
		},
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	return tr, file, idxStore, idxDev, nil
}

// ChurnRun performs the churn measurement: at least 4×SyntheticTuples
// insert+delete operations (≥1M at the default scale) against an
// auto-maintained tree, with concurrent readers, sampling drift and
// limbo throughout. Both pools run through the shared Driver: writers
// on deterministic per-worker quotas of delete+re-insert pairs, readers
// in until-mode drawing seeded uniform probes for the whole writer
// window.
func ChurnRun(scale Scale) (*ChurnResult, error) {
	n := scale.SyntheticTuples / 8
	if n < 16384 {
		n = 16384
	}
	target := scale.SyntheticTuples * 4
	if target < 4*n {
		target = 4 * n
	}
	tr, file, idxStore, idxDev, err := churnFixture(n)
	if err != nil {
		return nil, err
	}

	var (
		maxFPP   atomic.Uint64 // float64 bits; positive floats order like uints
		maxLimbo atomic.Int64
	)
	sampleFPP := func() {
		bits := math.Float64bits(tr.EffectiveFPP())
		for {
			old := maxFPP.Load()
			if bits <= old || maxFPP.CompareAndSwap(old, bits) {
				return
			}
		}
	}
	sampleLimbo := func() {
		l := int64(tr.MaintenanceStats().LimboPages)
		for {
			old := maxLimbo.Load()
			if l <= old || maxLimbo.CompareAndSwap(old, l) {
				return
			}
		}
	}

	// Per-writer quota: pairs rounded up so the run totals at least
	// target ops; each worker's quota is even, so every delete's
	// re-insert lands in the same worker's budget.
	pairsPerWriter := (target + 2*churnWriters - 1) / (2 * churnWriters)
	totalOps := int(2 * pairsPerWriter * churnWriters)
	span := n / uint64(churnWriters)
	refOf := func(k uint64) index.Ref { return index.Ref{Page: file.PageOf(k)} }

	writerCfg := DriverConfig{
		Workers: churnWriters,
		Ops:     totalOps,
		RefOf:   refOf,
		// Delete then re-insert the same drawn key: with standard
		// filters the delete accrues Section 7 drift and the re-insert
		// is absorbed in place (the filter still claims it), so the
		// workload is pure in-place churn plus the compactions it
		// provokes. Keys come from each writer's seeded sub-stream over
		// its private span partition.
		Source: func(w int) func() workload.Op {
			rng := workload.SubStream(scale.Seed, w)
			lo := uint64(w) * span
			var pending uint64
			havePending := false
			return func() workload.Op {
				if havePending {
					havePending = false
					return workload.Op{Kind: workload.OpInsert, Key: pending}
				}
				pending = lo + rng.Uint64n(span)
				havePending = true
				return workload.Op{Kind: workload.OpDelete, Key: pending}
			}
		},
		OnOp: func(_, i int, _ workload.Op) {
			if i%256 == 0 {
				sampleFPP()
				sampleLimbo()
			}
		},
	}

	writerDone := make(chan struct{})
	readerCfg := DriverConfig{
		Workers:        churnReaders,
		Until:          writerDone,
		UseSearchFirst: true,
		Source: func(r int) func() workload.Op {
			rng := workload.SubStream(scale.Seed, churnWriters+r)
			return func() workload.Op {
				return workload.Op{Kind: workload.OpSearch, Key: rng.Uint64n(n)}
			}
		},
		OnOp: func(_, i int, _ workload.Op) {
			if i%64 == 0 {
				sampleFPP()
				sampleLimbo()
			}
		},
	}

	start := time.Now()
	readerErr := make(chan error, 1)
	go func() {
		_, err := Drive(coreTarget{tr}, readerCfg)
		readerErr <- err
	}()
	// Sample limbo on a ticker until the writers exit — the epoch-driven
	// reclamation the samples bound happens between writer ops too.
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for {
			select {
			case <-writerDone:
				return
			case <-time.After(time.Millisecond):
				sampleLimbo()
			}
		}
	}()
	writerRes, werr := Drive(coreTarget{tr}, writerCfg)
	close(writerDone)
	<-samplerDone
	rerr := <-readerErr
	elapsed := time.Since(start)
	if werr == nil {
		werr = rerr
	}
	if werr != nil {
		tr.Close()
		return nil, werr
	}
	sampleFPP()

	// Quiescence: Close stops the maintainer and drains limbo; the full
	// page economy must then balance with zero foreground structural
	// changes having performed any reclamation (auto mode forbids it by
	// construction).
	if err := tr.Close(); err != nil {
		return nil, err
	}
	st := tr.MaintenanceStats()

	// The compacted tree still answers: spot-check surviving keys.
	for k := uint64(0); k < n; k += n / 64 {
		res, err := tr.SearchFirst(k)
		if err != nil {
			return nil, err
		}
		if len(res.Tuples) == 0 {
			return nil, fmt.Errorf("bench: churn lost key %d", k)
		}
	}

	return &ChurnResult{
		Keys:        n,
		Ops:         uint64(writerRes.Ops),
		Elapsed:     elapsed,
		MaxFPP:      math.Float64frombits(maxFPP.Load()),
		Threshold:   churnFPPThreshold,
		MaxLimbo:    int(maxLimbo.Load()),
		Stats:       st,
		LiveNodes:   tr.NumNodes(),
		FreePages:   uint64(idxStore.FreePages()),
		LimboAtEnd:  uint64(st.LimboPages),
		DevicePages: idxDev.NumPages(),
	}, nil
}

// RunChurn is the `churn` experiment: sustained insert+delete load on a
// self-maintaining tree. The maintainer must hold the Equation 14 drift
// near the compaction threshold via background Rebuilds and keep limbo
// bounded via epoch-driven reclamation, without any foreground
// structural change performing reclamation.
func RunChurn(scale Scale) (*Table, error) {
	r, err := ChurnRun(scale)
	if err != nil {
		return nil, err
	}
	return churnTable(r), nil
}

// churnTable renders one churn run.
func churnTable(r *ChurnResult) *Table {
	t := &Table{
		Title: fmt.Sprintf("Self-maintaining churn: %d insert+delete ops over %d keys, auto maintenance",
			r.Ops, r.Keys),
		Header: []string{"metric", "value"},
		Notes: []string{
			"writers delete+re-insert in place; every delete adds 1/keys of Section 7 drift,",
			"so the maintainer must compact (Rebuild) each time the Equation 14 estimate",
			"crosses the threshold. limbo pages are retired-tree pages awaiting their epoch",
			"grace period; the maintainer reclaims them (probe-exit hook + ticker) — the",
			"foreground write path performs no reclamation in auto mode.",
		},
	}
	econ := fmt.Sprintf("%d live + %d free + %d limbo vs %d device",
		r.LiveNodes, r.FreePages, r.LimboAtEnd, r.DevicePages)
	if r.EconomyBalanced() {
		econ += " (balanced)"
	} else {
		econ += " (LEAK)"
	}
	rows := [][2]string{
		{"ops", fmt.Sprint(r.Ops)},
		{"wall time", r.Elapsed.Round(time.Millisecond).String()},
		{"ops/s", fmt.Sprintf("%.0f", float64(r.Ops)/r.Elapsed.Seconds())},
		{"fpp threshold", fmt.Sprintf("%.3f", r.Threshold)},
		{"max effective fpp", fmt.Sprintf("%.4f", r.MaxFPP)},
		{"compactions", fmt.Sprint(r.Stats.Compactions)},
		{"incremental passes", fmt.Sprint(r.Stats.IncrementalPasses)},
		{"leaves compacted", fmt.Sprint(r.Stats.LeavesCompacted)},
		{"compaction stall min", r.Stats.CompactionMinStall.Round(10 * time.Microsecond).String()},
		{"compaction stall max", r.Stats.CompactionMaxStall.Round(10 * time.Microsecond).String()},
		{"compaction stall total", r.Stats.CompactionTotalStall.Round(10 * time.Microsecond).String()},
		{"maintenance passes", fmt.Sprint(r.Stats.Passes)},
		{"pages reclaimed", fmt.Sprint(r.Stats.PagesReclaimed)},
		{"max limbo pages", fmt.Sprint(r.MaxLimbo)},
		{"probe wakeups", fmt.Sprint(r.Stats.ProbeWakeups)},
		{"drift wakeups", fmt.Sprint(r.Stats.DriftWakeups)},
		{"structural requests", fmt.Sprint(r.Stats.StructuralRequests)},
		{"forced lock acquisitions", fmt.Sprint(r.Stats.ForcedLocks)},
		{"page economy", econ},
	}
	for _, row := range rows {
		t.AddRow(row[0], row[1])
	}
	return t
}
