package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// driftFixture bulk-loads a tree over even keys 0,2,..,2(n-1) on small
// index pages (many leaves) and returns the keys; odd keys are
// guaranteed absent, so inserting them records drift deterministically.
func driftFixture(t *testing.T, n int, opts Options) ([]uint64, *Tree, *pagestore.Store, *heapfile.File) {
	t.Helper()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	idx := pagestore.New(device.New(device.Memory, 512))
	tr, err := BulkLoad(idx, f, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	return keys, tr, idx, f
}

// sumDrift folds per-leaf drift into tree-wide totals.
func sumDrift(t *testing.T, tr *Tree) (ins, del uint64) {
	t.Helper()
	drifts, err := tr.DriftByLeaf()
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range drifts {
		ins += uint64(d.Inserts)
		del += uint64(d.Deletes)
	}
	return ins, del
}

// assertDriftInvariant checks the accounting contract behind incremental
// compaction: at quiescence the per-leaf counters partition the global
// ones exactly — every published increment is charged to exactly one
// leaf, and compaction sheds exactly what it charged.
func assertDriftInvariant(t *testing.T, tr *Tree) {
	t.Helper()
	ins, del := sumDrift(t, tr)
	m := tr.loadMeta()
	if ins != m.inserts || del != m.deletes {
		t.Errorf("per-leaf drift (ins %d, del %d) != global (ins %d, del %d)",
			ins, del, m.inserts, m.deletes)
	}
}

// TestPerLeafDriftInvariant pins the core accounting: mixed inserts of
// new keys and logical deletes of present keys must leave the per-leaf
// counters summing exactly to the published global drift, spread over
// more than one leaf.
func TestPerLeafDriftInvariant(t *testing.T) {
	keys, tr, _, f := driftFixture(t, 4000, Options{FPP: 0.01})
	if tr.NumLeaves() < 4 {
		t.Fatalf("fixture too small: %d leaves", tr.NumLeaves())
	}
	// 300 new (odd) keys spread across the key space, 150 logical
	// deletes of present keys.
	for i := 0; i < 300; i++ {
		ord := (i * 13) % len(keys)
		if err := tr.Insert(keys[ord]+1, f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i++ {
		ord := (i * 277) % len(keys)
		if err := tr.Delete(keys[ord], f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	// Deletes of present keys always probe true, so the count is exact;
	// a new key can collide in a filter (design fpp) and absorb without
	// drift, so the insert count may fall a hair short of 300.
	m := tr.loadMeta()
	if m.inserts < 290 || m.inserts > 300 || m.deletes != 150 {
		t.Fatalf("global drift (ins %d, del %d), want (≈300, 150)", m.inserts, m.deletes)
	}
	assertDriftInvariant(t, tr)
	drifts, err := tr.DriftByLeaf()
	if err != nil {
		t.Fatal(err)
	}
	charged := 0
	for _, d := range drifts {
		if d.Total() > 0 {
			charged++
		}
	}
	if charged < 2 {
		t.Errorf("drift landed on %d leaves, want it spread over several", charged)
	}
}

// TestCompactLeavesShedsDrift drives the partial-rebuild path directly:
// compacting the most-drifted leaf must shed exactly its contribution
// from the global counters, keep every key findable, skip the now-stale
// pid on a second call, and leave the page economy balanced.
func TestCompactLeavesShedsDrift(t *testing.T) {
	keys, tr, idx, f := driftFixture(t, 4000, Options{FPP: 0.01})
	for i := 0; i < 200; i++ {
		ord := (i * 17) % len(keys)
		if err := tr.Insert(keys[ord]+1, f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		ord := (i * 173) % len(keys)
		if err := tr.Delete(keys[ord], f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	drifts, err := tr.DriftByLeaf()
	if err != nil {
		t.Fatal(err)
	}
	top := drifts[0]
	for _, d := range drifts[1:] {
		if d.Total() > top.Total() {
			top = d
		}
	}
	if top.Total() == 0 {
		t.Fatal("no drifted leaf to compact")
	}

	pre := tr.loadMeta()
	n, err := tr.CompactLeaves([]device.PageID{top.Pid})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("compacted %d leaves, want 1", n)
	}
	post := tr.loadMeta()
	if post.inserts != pre.inserts-uint64(top.Inserts) ||
		post.deletes != pre.deletes-uint64(top.Deletes) {
		t.Errorf("compaction shed (ins %d, del %d), want exactly (%d, %d)",
			pre.inserts-post.inserts, pre.deletes-post.deletes, top.Inserts, top.Deletes)
	}
	if post.numKeys != pre.numKeys || post.numLeaves != pre.numLeaves {
		t.Errorf("compaction changed shape: keys %d->%d leaves %d->%d",
			pre.numKeys, post.numKeys, pre.numLeaves, post.numLeaves)
	}
	assertDriftInvariant(t, tr)
	// Every build-time key must survive the rewrite.
	for i := 0; i < len(keys); i += 97 {
		res, err := tr.SearchFirst(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			t.Fatalf("key %d lost after CompactLeaves", keys[i])
		}
	}
	st := tr.MaintenanceStats()
	if st.LeavesCompacted != 1 {
		t.Errorf("LeavesCompacted = %d, want 1", st.LeavesCompacted)
	}
	if st.CompactionMaxStall <= 0 || st.CompactionTotalStall < st.CompactionMaxStall ||
		st.CompactionMinStall > st.CompactionMaxStall {
		t.Errorf("stall stats inconsistent: min %v max %v total %v",
			st.CompactionMinStall, st.CompactionMaxStall, st.CompactionTotalStall)
	}

	// The old pid is retired: a second compaction of it is a no-op skip.
	n, err = tr.CompactLeaves([]device.PageID{top.Pid})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("stale pid compacted %d leaves, want 0 (skip)", n)
	}

	// Drain limbo and balance the books.
	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	inLimbo := uint64(tr.MaintenanceStats().LimboPages)
	live := tr.NumNodes()
	free := uint64(idx.FreePages())
	if total := idx.Device().NumPages(); live+free+inLimbo != total {
		t.Errorf("page economy leaks: live %d + free %d + limbo %d != device %d",
			live, free, inLimbo, total)
	}
}

// TestCompactSingleLeafRoot exercises the height-1 special case: the
// lone leaf is the root, so compaction must swap the root pointer
// itself (no parent to relink) and still shed the drift.
func TestCompactSingleLeafRoot(t *testing.T) {
	keys := make([]uint64, 200)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, _ := buildKeyedFile(t, keys)
	idx := pagestore.New(device.New(device.Memory, 4096))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() != 1 {
		t.Fatalf("fixture should be a single-leaf tree, height %d", tr.Height())
	}
	for i := 0; i < 20; i++ {
		if err := tr.Insert(keys[i]+1, f.PageOf(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	oldRoot := tr.loadMeta().root
	n, err := tr.CompactLeaves([]device.PageID{oldRoot})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("compacted %d leaves, want 1", n)
	}
	m := tr.loadMeta()
	if m.root == oldRoot || m.firstLeaf != m.root {
		t.Errorf("root not swapped: root %d firstLeaf %d old %d", m.root, m.firstLeaf, oldRoot)
	}
	if m.inserts != 0 || m.deletes != 0 {
		t.Errorf("drift not shed: ins %d del %d", m.inserts, m.deletes)
	}
	assertDriftInvariant(t, tr)
	for _, k := range keys {
		res, err := tr.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			t.Fatalf("key %d lost compacting the root leaf", k)
		}
	}
}

// TestIncrementalMaintainConverges puts the maintainer's selection
// policy under test: with IncrementalBatch set and drift past the
// threshold, Maintain must converge below the threshold through
// partial rebuilds alone — multiple bounded passes, zero whole-tree
// Rebuilds — because the decrement rule sheds exactly the compacted
// leaves' contributions.
func TestIncrementalMaintainConverges(t *testing.T) {
	keys, tr, _, f := driftFixture(t, 4000, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		FPPThreshold:     0.05,
		IncrementalBatch: 2,
	}})
	// 280 logical deletes alone push the Section 7 additive term to
	// deletes/numKeys = 0.07; with 300 insert drift on top the estimate
	// is safely past the threshold, and one 2-leaf batch cannot shed
	// enough to converge — multiple passes are structurally required.
	for i := 0; i < 300; i++ {
		ord := (i * 13) % len(keys)
		if err := tr.Insert(keys[ord]+1, f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 280; i++ {
		ord := (i * 277) % len(keys)
		if err := tr.Delete(keys[ord], f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.driftNeedsCompaction() {
		t.Fatalf("fixture under threshold: fpp %g", tr.EffectiveFPP())
	}
	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	if tr.driftNeedsCompaction() {
		t.Errorf("incremental maintenance did not converge: fpp %g", tr.EffectiveFPP())
	}
	st := tr.MaintenanceStats()
	if st.Compactions != 0 {
		t.Errorf("%d whole-tree rebuilds; incremental mode must not fall back here", st.Compactions)
	}
	if st.IncrementalPasses < 2 {
		t.Errorf("IncrementalPasses = %d, want ≥2 (batch 2 over several drifted leaves)", st.IncrementalPasses)
	}
	if st.LeavesCompacted < uint64(st.IncrementalPasses) {
		t.Errorf("LeavesCompacted = %d < passes %d", st.LeavesCompacted, st.IncrementalPasses)
	}
	if st.CompactionMaxStall <= 0 {
		t.Error("no compaction stall recorded")
	}
	assertDriftInvariant(t, tr)
}

// TestFullRebuildFallbackWhenDriftUnattributed pins the pathological
// path: when the estimate is over threshold but no leaf carries
// attributable drift (here: counters zeroed behind the meta's back),
// the incremental pass finds nothing and the maintainer falls back to
// the whole-tree Rebuild rather than spinning forever.
func TestFullRebuildFallbackWhenDriftUnattributed(t *testing.T) {
	keys, tr, _, f := driftFixture(t, 4000, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		FPPThreshold:     0.05,
		IncrementalBatch: 2,
	}})
	for i := 0; i < 300; i++ {
		ord := (i * 277) % len(keys)
		if err := tr.Delete(keys[ord], f.PageOf(uint64(ord))); err != nil {
			t.Fatal(err)
		}
	}
	// Wipe the per-leaf counters, simulating an index whose leaves
	// predate per-leaf accounting (or lost it to corruption).
	drifts, err := tr.DriftByLeaf()
	if err != nil {
		t.Fatal(err)
	}
	var stats ProbeStats
	for _, d := range drifts {
		leaf, err := tr.readLeaf(d.Pid, &stats)
		if err != nil {
			t.Fatal(err)
		}
		leaf.driftIns, leaf.driftDel = 0, 0
		if err := tr.writeLeaf(d.Pid, leaf); err != nil {
			t.Fatal(err)
		}
	}
	if !tr.driftNeedsCompaction() {
		t.Fatalf("fixture under threshold: fpp %g", tr.EffectiveFPP())
	}
	if err := tr.Maintain(); err != nil {
		t.Fatal(err)
	}
	st := tr.MaintenanceStats()
	if st.Compactions != 1 {
		t.Errorf("Compactions = %d, want 1 full-rebuild fallback", st.Compactions)
	}
	if tr.driftNeedsCompaction() {
		t.Errorf("fallback did not converge: fpp %g", tr.EffectiveFPP())
	}
}

// TestSplitByRebuildShedsDriftToGlobals is the regression test for the
// drift accounting at the rebuild split (the full-domain leaf forces
// splitByRebuild): the halves are re-derived exactly from the data
// pages, so the old leaf's drift must be shed from the global counters
// — not carried into halves that no longer contain it. Before the fix
// the globals kept the dead contribution forever and
// driftNeedsCompaction could never converge past such a split.
func TestSplitByRebuildShedsDriftToGlobals(t *testing.T) {
	var keys []uint64
	for i := uint64(0); i < 100; i++ {
		keys = append(keys, i)
	}
	for i := uint64(0); i < 100; i++ {
		keys = append(keys, 1<<63+i)
	}
	keys = append(keys, ^uint64(0)) // leaf spans [0, MaxUint64]
	f, _ := buildKeyedFile(t, keys)
	tr, err := BulkLoad(pagestore.New(device.New(device.Memory, 4096)), f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 1 {
		t.Fatalf("fixture should bulk-load one leaf, got %d", tr.NumLeaves())
	}
	// Drift the leaf: one genuinely new key, two logical deletes.
	if err := tr.Insert(150, f.PageOf(50)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{40, 60} {
		if err := tr.Delete(k, f.PageOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	if m := tr.loadMeta(); m.inserts != 1 || m.deletes != 2 {
		t.Fatalf("setup drift (ins %d, del %d), want (1, 2)", m.inserts, m.deletes)
	}
	// Saturate the key budget so the next insert splits; the full-domain
	// span selects the exact rebuild variant.
	leaf, leafPid, _, err := tr.descendPath(0, true)
	if err != nil {
		t.Fatal(err)
	}
	leaf.numKeys = uint32(tr.geo.KeysPerLeaf)
	if err := tr.writeLeaf(leafPid, leaf); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(151, f.PageOf(51)); err != nil {
		t.Fatal(err)
	}
	if tr.NumLeaves() != 2 {
		t.Fatalf("leaves = %d, want 2 after the split", tr.NumLeaves())
	}
	// The split shed all pre-split drift; the only drift left is the
	// triggering key 151, absorbed after the re-descend and charged to
	// its half.
	m := tr.loadMeta()
	if m.inserts != 1 || m.deletes != 0 {
		t.Errorf("post-split drift (ins %d, del %d), want (1, 0): rebuild split must shed",
			m.inserts, m.deletes)
	}
	assertDriftInvariant(t, tr)
}

// TestSplitByProbeTransfersDrift is the counterpart: a probe-based
// split carries the old filters' contents into the halves, so the
// drift contribution survives and must transfer — sum preserved across
// the halves, globals untouched.
func TestSplitByProbeTransfersDrift(t *testing.T) {
	f, _ := buildInitialFile(t, 2000)
	idx := pagestore.New(device.New(device.Memory, 512))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	// Drift one narrow-domain leaf with logical deletes.
	leaf, leafPid, path, err := tr.descendPath(500, false)
	if err != nil {
		t.Fatal(err)
	}
	for k := leaf.minKey; k < leaf.minKey+5; k++ {
		if err := tr.Delete(k, f.PageOf(k)); err != nil {
			t.Fatal(err)
		}
	}
	preIns, preDel := tr.loadMeta().inserts, tr.loadMeta().deletes
	// Re-read: the deletes rewrote the leaf page.
	var stats ProbeStats
	leaf, err = tr.readLeaf(leafPid, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.maxKey-leaf.minKey >= splitEnumLimit {
		t.Fatalf("leaf span [%d,%d] would select the rebuild split", leaf.minKey, leaf.maxKey)
	}
	if leaf.driftDel == 0 {
		t.Fatal("setup recorded no per-leaf drift")
	}
	want := LeafDrift{Inserts: leaf.driftIns, Deletes: leaf.driftDel}
	if err := tr.splitLeaf(leaf, leafPid, path); err != nil {
		t.Fatal(err)
	}
	m := tr.loadMeta()
	if m.inserts != preIns || m.deletes != preDel {
		t.Errorf("probe split changed globals (ins %d->%d, del %d->%d)",
			preIns, m.inserts, preDel, m.deletes)
	}
	ins, del := sumDrift(t, tr)
	if ins != uint64(want.Inserts) || del != uint64(want.Deletes) {
		t.Errorf("halves carry (ins %d, del %d), want the transferred (%d, %d)",
			ins, del, want.Inserts, want.Deletes)
	}
	assertDriftInvariant(t, tr)
}

// TestIncrementalCompactionRace is the writer/maintainer race test:
// 8 latched writers and 4 readers run while the auto maintainer
// performs incremental compaction. At quiescence the page economy must
// balance exactly and the per-leaf drift counters must sum to the
// global ones — no published increment lost to a concurrent partial
// rebuild — and no key present at build time or inserted meanwhile is
// ever missed.
func TestIncrementalCompactionRace(t *testing.T) {
	runIncrementalCompactionRace(t, 0)
}

// TestIncrementalCompactionRaceRealLatency reruns the race on devices
// that sleep per page access, so each off-lock leaf build really
// overlaps the writers mutating its leaf.
func TestIncrementalCompactionRaceRealLatency(t *testing.T) {
	runIncrementalCompactionRace(t, 100*time.Microsecond)
}

func runIncrementalCompactionRace(t *testing.T, latency time.Duration) {
	const distinct = 4000
	// Key 4i is stored twice. A materializing writer later turns a
	// second copy into the new key 4i+1 — tuple first, then index, the
	// order a real insert follows — so a compaction that read the data
	// page before the tuple landed must get the key from its delta.
	tupleKeys := make([]uint64, 2*distinct)
	for i := range tupleKeys {
		tupleKeys[i] = uint64(4 * (i / 2))
	}
	f, dataStore := buildKeyedFile(t, tupleKeys)
	key := func(i int) uint64 { return uint64(4 * i) }
	page := func(i int) device.PageID { return f.PageOf(uint64(2 * i)) }
	idx := pagestore.New(device.New(device.Memory, 512))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01, Maintenance: MaintenancePolicy{
		Mode:             MaintenanceAuto,
		ReclaimInterval:  time.Millisecond,
		FPPThreshold:     0.04, // ~160 drifted ops re-arm it
		IncrementalBatch: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	idx.Device().SetRealLatency(latency)
	dataStore.Device().SetRealLatency(latency)

	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 12)
	materialized := make([]atomic.Bool, distinct)
	// 3 writers insert keys 4i+2 that no tuple holds: each run charges
	// drift, and a compaction that snapshots one drops the phantom
	// claim, so re-inserting keeps regenerating drift.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stopped(); i++ {
				ord := (i*131 + w*977) % distinct
				if err := tr.Insert(key(ord)+2, page(ord)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	// 1 writer materializes keys 4i+1, each once, where both copies of
	// 4i share a page.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ord := 0; ord < distinct && !stopped(); ord++ {
			p := page(ord)
			if f.PageOf(uint64(2*ord+1)) != p {
				continue
			}
			if err := rewriteTupleKey(f, uint64(2*ord+1), key(ord)+1); err != nil {
				errs[3] = err
				return
			}
			if err := tr.Insert(key(ord)+1, p); err != nil {
				errs[3] = err
				return
			}
			materialized[ord].Store(true)
		}
	}()
	// 4 writers logically delete present keys — the standard-filter
	// delete always claims, so drift accrues unboundedly.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stopped(); i++ {
				ord := (i*193 + w*547) % distinct
				if err := tr.Delete(key(ord), page(ord)); err != nil {
					errs[4+w] = err
					return
				}
			}
		}(w)
	}
	// 4 readers: build-time keys and materialized keys stay physically
	// present, so a rewrite must never lose them.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !stopped(); i++ {
				ord := (i*173 + r*709) % distinct
				k := key(ord)
				if r%2 == 1 && materialized[ord].Load() {
					k++
				}
				res, err := tr.SearchFirst(k)
				if err != nil {
					errs[8+r] = err
					return
				}
				if len(res.Tuples) == 0 {
					errs[8+r] = fmt.Errorf("key %d vanished", k)
					return
				}
			}
		}(r)
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st := tr.MaintenanceStats()
		if st.IncrementalPasses >= 3 && st.PagesReclaimed > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	st := tr.MaintenanceStats()
	if st.IncrementalPasses == 0 {
		t.Fatalf("maintainer never compacted incrementally in 10s: %+v", st)
	}
	if st.LeavesCompacted == 0 || st.CompactionMaxStall <= 0 {
		t.Errorf("compaction ran without stats: %+v", st)
	}

	// Quiescence — the maintainer's in-flight pass drained too, or a
	// swap could land between the drift walk and the globals' read: no
	// key missed, no increment lost, no page leaked.
	tr.StopMaintenance()
	idx.Device().SetRealLatency(0)
	dataStore.Device().SetRealLatency(0)
	for ord := 0; ord < distinct; ord++ {
		if !materialized[ord].Load() {
			continue
		}
		res, err := tr.SearchFirst(key(ord) + 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) == 0 {
			t.Fatalf("materialized key %d missed at quiescence", key(ord)+1)
		}
	}
	assertDriftInvariant(t, tr)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.inflight.n.Load() != 0 {
		t.Errorf("%d leaves still registered in flight", tr.inflight.n.Load())
	}
	assertPageEconomy(t, tr, idx, true)
}

// rewriteTupleKey overwrites the key of the tuple at ordinal ord in
// place on its data page, as an update of that slot would.
func rewriteTupleKey(f *heapfile.File, ord, key uint64) error {
	pid := f.PageOf(ord)
	buf, err := f.Store().ReadPage(pid)
	if err != nil {
		return err
	}
	const header = 2 // the heap page's uint16 tuple count
	slot := int(ord % uint64(f.TuplesPerPage()))
	f.Schema().Set(buf[header+slot*f.Schema().TupleSize:], 0, key)
	return f.Store().WritePage(pid, buf)
}

// assertPageEconomy checks live + free + limbo == device; with
// drained set, limbo must also be empty.
func assertPageEconomy(t *testing.T, tr *Tree, idx *pagestore.Store, drained bool) {
	t.Helper()
	inLimbo := uint64(tr.MaintenanceStats().LimboPages)
	if drained && inLimbo != 0 {
		t.Errorf("%d pages stuck in limbo on a quiescent tree", inLimbo)
	}
	live := tr.NumNodes()
	free := uint64(idx.FreePages())
	if total := idx.Device().NumPages(); live+free+inLimbo != total {
		t.Errorf("page economy leaks: live %d + free %d + limbo %d != device %d",
			live, free, inLimbo, total)
	}
}

// midLeaf returns a leaf from the middle of the fixture's key space and
// two ordinals of build-time keys strictly inside it.
func midLeaf(t *testing.T, tr *Tree, keys []uint64) (*bfLeaf, device.PageID, uint64, uint64) {
	t.Helper()
	leaf, pid, _, err := tr.descendPath(keys[len(keys)/2], true)
	if err != nil {
		t.Fatal(err)
	}
	a := leaf.minKey/2 + 1
	b := a + 1
	if keys[b] >= leaf.maxKey {
		t.Fatalf("leaf [%d,%d] too narrow", leaf.minKey, leaf.maxKey)
	}
	return leaf, pid, a, b
}

// TestCompactReplaysWritesDuringBuild drives the three-phase compaction
// deterministically: through the hook between the off-lock build and
// the swap, a latched insert of a new key and a delete (a logical
// delete on standard filters, a physical one on counting filters) hit
// the leaf under build. The swap must replay both onto the fresh leaf,
// which carries their drift, while only the snapshot's drift is shed
// from the globals.
func TestCompactReplaysWritesDuringBuild(t *testing.T) {
	for _, tc := range []struct {
		name   string
		filter FilterKind
	}{{"standard", StandardFilter}, {"counting", CountingFilter}} {
		t.Run(tc.name, func(t *testing.T) {
			keys, tr, idx, f := driftFixture(t, 4000, Options{FPP: 0.01, Filter: tc.filter})
			_, pid, a, b := midLeaf(t, tr, keys)
			// Drift charged before the snapshot, shed by the swap.
			if err := tr.Insert(keys[a]+1, f.PageOf(a)); err != nil {
				t.Fatal(err)
			}
			var stats ProbeStats
			snap, err := tr.readLeaf(pid, &stats)
			if err != nil {
				t.Fatal(err)
			}
			inserted, insPage := keys[b]+1, f.PageOf(b)
			deleted, delPage := keys[a], f.PageOf(a)
			var duringIns, duringDel uint64
			hooked := false
			tr.beforeSwap = func(p device.PageID) {
				if p != pid {
					return
				}
				hooked = true
				m0 := tr.loadMeta()
				if err := tr.Insert(inserted, insPage); err != nil {
					t.Error(err)
				}
				if err := tr.Delete(deleted, delPage); err != nil {
					t.Error(err)
				}
				m1 := tr.loadMeta()
				duringIns, duringDel = m1.inserts-m0.inserts, m1.deletes-m0.deletes
			}
			pre := tr.loadMeta()
			n, err := tr.CompactLeaves([]device.PageID{pid})
			if err != nil {
				t.Fatal(err)
			}
			if !hooked || n != 1 {
				t.Fatalf("hooked %v, compacted %d leaves; want the hook run and 1", hooked, n)
			}
			if duringIns != 1 || duringDel != 1 {
				t.Fatalf("writes during the build charged (ins %d, del %d), want (1, 1)", duringIns, duringDel)
			}
			post := tr.loadMeta()
			if post.inserts != pre.inserts+duringIns-uint64(snap.driftIns) ||
				post.deletes != pre.deletes+duringDel-uint64(snap.driftDel) {
				t.Errorf("globals (ins %d, del %d), want pre (%d, %d) + during (%d, %d) - snapshot (%d, %d)",
					post.inserts, post.deletes, pre.inserts, pre.deletes,
					duringIns, duringDel, snap.driftIns, snap.driftDel)
			}
			fresh, freshPid, _, err := tr.descendPath(inserted, true)
			if err != nil {
				t.Fatal(err)
			}
			if freshPid == pid {
				t.Fatal("the old leaf is still linked")
			}
			if uint64(fresh.driftIns) != duringIns || uint64(fresh.driftDel) != duringDel {
				t.Errorf("fresh leaf drift (ins %d, del %d), want the replayed (%d, %d)",
					fresh.driftIns, fresh.driftDel, duringIns, duringDel)
			}
			if !fresh.probeOne(fresh.bfIndexOf(insPage), inserted) {
				t.Errorf("key %d inserted during the build is missing from the fresh leaf", inserted)
			}
			if tc.filter == CountingFilter && fresh.probeOne(fresh.bfIndexOf(delPage), deleted) {
				t.Errorf("key %d deleted during the build is still claimed", deleted)
			}
			if st := tr.MaintenanceStats(); st.CompactionAborts != 0 || st.LeavesCompacted != 1 {
				t.Errorf("aborts %d, leaves compacted %d; want 0 and 1", st.CompactionAborts, st.LeavesCompacted)
			}
			if tr.inflight.n.Load() != 0 {
				t.Error("the leaf is still registered in flight after its swap")
			}
			assertDriftInvariant(t, tr)
			tr.beforeSwap = nil
			if err := tr.Maintain(); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			assertPageEconomy(t, tr, idx, true)
		})
	}
}

// TestCompactAbandonsSwapOfRetiredLeaf splits the leaf under build
// through the hook: the swap must notice the leaf is no longer live,
// abandon, free its unlinked page and count the abort, leaving the
// split's drift accounting intact.
func TestCompactAbandonsSwapOfRetiredLeaf(t *testing.T) {
	keys, tr, idx, f := driftFixture(t, 4000, Options{FPP: 0.01})
	_, pid, a, _ := midLeaf(t, tr, keys)
	if err := tr.Insert(keys[a]+1, f.PageOf(a)); err != nil {
		t.Fatal(err)
	}
	tr.beforeSwap = func(p device.PageID) {
		if p != pid {
			return
		}
		tr.writeMu.Lock()
		defer tr.writeMu.Unlock()
		leaf, leafPid, path, err := tr.descendPath(keys[a], true)
		if err == nil && leafPid != pid {
			err = fmt.Errorf("descended to %d, want %d", leafPid, pid)
		}
		if err == nil {
			err = tr.splitLeaf(leaf, leafPid, path)
		}
		if err != nil {
			t.Error(err)
		}
	}
	n, err := tr.CompactLeaves([]device.PageID{pid})
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("compacted %d leaves, want the swap abandoned", n)
	}
	st := tr.MaintenanceStats()
	if st.CompactionAborts != 1 || st.LeavesCompacted != 0 {
		t.Errorf("aborts %d, leaves compacted %d; want 1 and 0", st.CompactionAborts, st.LeavesCompacted)
	}
	if st.CompactionMaxStall <= 0 {
		t.Error("the abandoned swap's hold was not recorded")
	}
	if tr.inflight.n.Load() != 0 {
		t.Error("the leaf is still registered in flight after the abort")
	}
	if m := tr.loadMeta(); m.inserts != 1 {
		t.Errorf("global inserts %d, want the split-transferred 1", m.inserts)
	}
	assertDriftInvariant(t, tr)
	// The fresh page went straight back to the free list.
	assertPageEconomy(t, tr, idx, false)
}

// TestCompactionHoldBoundedUnderRealLatency pins the point of the
// three-phase compaction on devices with real per-page latency: the
// exclusive hold of compacting a leaf that spans ≥64 data pages stays
// below 16 page times — the data-page reads happen off the lock — and
// a writer to a different leaf completes while the leaf is being
// rebuilt.
func TestCompactionHoldBoundedUnderRealLatency(t *testing.T) {
	const pageTime = time.Millisecond
	keys := make([]uint64, 20000)
	for i := range keys {
		keys[i] = uint64(2 * i)
	}
	f, dataStore := buildKeyedFile(t, keys)
	idx := pagestore.New(device.New(device.Memory, 4096))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	drifts, err := tr.DriftByLeaf()
	if err != nil {
		t.Fatal(err)
	}
	if len(drifts) < 3 {
		t.Fatalf("fixture has %d leaves, want ≥3", len(drifts))
	}
	var stats ProbeStats
	target := drifts[1].Pid
	leaf, err := tr.readLeaf(target, &stats)
	if err != nil {
		t.Fatal(err)
	}
	if leaf.numPages() < 64 {
		t.Fatalf("target leaf spans %d data pages, want ≥64", leaf.numPages())
	}
	other, err := tr.readLeaf(drifts[len(drifts)-1].Pid, &stats)
	if err != nil {
		t.Fatal(err)
	}
	otherOrd := other.minKey/2 + 1

	dataDev := dataStore.Device()
	idx.Device().SetRealLatency(pageTime)
	dataDev.SetRealLatency(pageTime)
	readsBefore := dataDev.Stats().Reads()

	var buildEnd time.Time
	tr.beforeSwap = func(device.PageID) { buildEnd = time.Now() }
	type outcome struct {
		done time.Time
		err  error
	}
	writer := make(chan outcome, 1)
	compacted := make(chan struct{})
	go func() {
		// Start once the build is reading data pages.
		for dataDev.Stats().Reads() == readsBefore {
			select {
			case <-compacted:
				writer <- outcome{err: errors.New("the compaction read no data page")}
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
		err := tr.Insert(keys[otherOrd]+1, f.PageOf(otherOrd))
		writer <- outcome{time.Now(), err}
	}()
	n, err := tr.CompactLeaves([]device.PageID{target})
	close(compacted)
	w := <-writer
	if err != nil {
		t.Fatal(err)
	}
	if w.err != nil {
		t.Fatal(w.err)
	}
	if n != 1 {
		t.Fatalf("compacted %d leaves, want 1", n)
	}
	if reads := dataDev.Stats().Reads() - readsBefore; reads < 64 {
		t.Errorf("compaction read %d data pages, want ≥64", reads)
	}
	if hold := tr.MaintenanceStats().CompactionMaxStall; hold >= 16*pageTime {
		t.Errorf("exclusive hold %v, want < 16 page times (%v)", hold, 16*pageTime)
	}
	if !w.done.Before(buildEnd) {
		t.Errorf("writer to another leaf finished %v after the build ended; it must not wait for the build",
			w.done.Sub(buildEnd))
	}
}
