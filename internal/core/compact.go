package core

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bftree/internal/device"
)

// This file is the incremental-compaction path: instead of paying one
// whole-tree rebuildLocked stall when Equation 14 drift crosses the
// threshold, the tree rewrites only the leaves that earned the drift.
// Each leaf carries its own drift counters (bfLeaf.driftIns/driftDel,
// charged under the leaf latch in the same page write as the mutation),
// so a partial rebuild can shed exactly the compacted leaves'
// contributions from the global counters and driftNeedsCompaction
// converges without a full reset. A leaf is rebuilt in three phases —
// snapshot, off-lock build, exclusive swap that replays the writes the
// leaf received meanwhile — so the data-page reads never run under the
// exclusive writer lock. DESIGN.md §4 states the contract.

// LeafDrift is one leaf's share of the tree-wide drift accounting.
type LeafDrift struct {
	Pid     device.PageID
	Inserts uint32 // keys absorbed since the leaf was built or compacted
	Deletes uint32 // associations deleted since then
}

// Total is the leaf's drift contribution used for compaction ranking.
func (d LeafDrift) Total() uint64 { return uint64(d.Inserts) + uint64(d.Deletes) }

// DriftByLeaf walks the leaf chain of the current snapshot and returns
// every leaf's drift counters, in chain order. It runs lock-free under
// the epoch scheme, like any probe; the answer is a consistent snapshot
// of each leaf but may trail concurrent writers. The sum of the
// returned counters equals the published global drift at quiescence —
// the invariant the race tests assert.
func (t *Tree) DriftByLeaf() ([]LeafDrift, error) {
	m, ep := t.beginProbe()
	defer t.endProbe(ep)
	return t.driftWalk(m)
}

// driftWalk is DriftByLeaf's body; callers are registered as epoch
// readers.
func (t *Tree) driftWalk(m *treeMeta) ([]LeafDrift, error) {
	var out []LeafDrift
	var stats ProbeStats
	pid := m.firstLeaf
	for pid != device.InvalidPage {
		l, err := t.readLeaf(pid, &stats)
		if err != nil {
			return nil, err
		}
		out = append(out, LeafDrift{Pid: pid, Inserts: l.driftIns, Deletes: l.driftDel})
		pid = l.next
	}
	return out, nil
}

// CompactLeaves rebuilds the named leaves from their data pages — fresh
// pages, filters sized to current contents — one leaf at a time, each
// in the three phases of compactLeaf: the data-page reads run with only
// an epoch registration held, and the exclusive writer lock is held
// only for each leaf's pointer swap, so latched writers (on this leaf
// too) keep running while a leaf is rebuilt. Stale pids — a leaf that a
// concurrent split, rebuild, or compaction already retired — are
// skipped, not errors, and so is a swap abandoned because the leaf was
// retired during its build: the method reports how many leaves it
// actually compacted. The global drift counters are decremented by
// exactly the compacted leaves' snapshot contributions.
//
// Like Rebuild, compaction re-derives a leaf from the relation, so
// logical deletes of tuples still physically present are resurrected —
// the index is approximate in exactly the direction probes tolerate.
func (t *Tree) CompactLeaves(pids []device.PageID) (int, error) {
	n := 0
	var err error
	for _, pid := range pids {
		var ok bool
		if ok, err = t.compactLeaf(pid); err != nil {
			break
		}
		if ok {
			n++
		}
	}
	if n > 0 {
		// Hand the retired leaves to the maintainer (or, in manual mode,
		// reclaim inline), as every structural writer does.
		t.writeMu.Lock()
		t.maintRequest()
		t.writeMu.Unlock()
	}
	return n, err
}

// compactIncremental is the maintainer's selection policy: rank every
// leaf by drift contribution and compact the top k. The ranking walk
// reads only leaf pages — O(numLeaves) cached page reads, a small
// fraction of the whole-file scan a full rebuild pays — and runs as an
// epoch reader, without writeMu, exactly like DriftByLeaf; each
// compaction then takes the exclusive lock only for its swap. attempted
// counts the drifted leaves the pass tried (each swap counts itself in
// LeavesCompacted or CompactionAborts); zero means no leaf carries
// attributable drift, the caller's cue to fall back to a full rebuild.
func (t *Tree) compactIncremental(k int) (attempted int, err error) {
	drifts, err := t.DriftByLeaf()
	if err != nil {
		return 0, err
	}
	sort.Slice(drifts, func(i, j int) bool { return drifts[i].Total() > drifts[j].Total() })
	for _, d := range drifts[:min(k, len(drifts))] {
		if d.Total() == 0 {
			break // ranked order: everything after is drift-free too
		}
		attempted++
		if _, err := t.compactLeaf(d.Pid); err != nil {
			return attempted, err
		}
	}
	return attempted, nil
}

// compactLeaf rebuilds one leaf in three phases (DESIGN.md §4) and
// reports whether the fresh leaf was swapped in. It stays registered as
// an epoch reader throughout, so neither the leaf nor anything it
// links to can be recycled under it.
//
//  1. Snapshot (snapshotLeaf): under writeMu.RLock and the leaf's latch,
//     read the leaf image and register the leaf as in flight. From then
//     on every in-place rewrite of the leaf also logs its op to the
//     leaf's delta (inflight.record).
//  2. Build: re-derive the leaf from its data pages and write it to a
//     freshly allocated, unlinked page — no tree lock held.
//  3. Swap (swapLeaf): under the exclusive writeMu, replay the delta onto
//     the fresh leaf and relink it in place of the old one.
//
// It reports false (no error) for pids that are not currently live,
// non-empty leaves — already compacted, split, or recycled — so callers
// can hand it a ranking computed without the lock, and for swaps
// abandoned because the leaf was retired during the build or the delta
// would overfill the fresh leaf.
func (t *Tree) compactLeaf(pid device.PageID) (bool, error) {
	ep := t.readers.enter()
	defer t.readers.exit(ep)
	snap, err := t.snapshotLeaf(pid)
	if snap == nil || err != nil {
		return false, err
	}
	fresh, err := t.rebuildLeafContents(snap)
	if err != nil {
		t.inflight.take(pid)
		return false, err
	}
	fresh.next = snap.next
	newPid := t.store.Allocate(1)
	if err := t.writeLeaf(newPid, fresh); err != nil {
		t.inflight.take(pid)
		t.store.Free(newPid) // never linked: immediately reusable
		return false, err
	}
	if t.beforeSwap != nil {
		t.beforeSwap(pid)
	}
	return t.swapLeaf(pid, snap, fresh, newPid)
}

// snapshotLeaf is compaction phase 1: it returns the image of the live,
// non-empty leaf at pid and registers the leaf as in flight, or nil
// when pid is no such leaf or another compactor already owns it. The
// shared lock freezes the structure for the liveness check; the latch
// orders the image read and the registration against latched writers,
// so each in-place rewrite lands either in the image or in the delta.
func (t *Tree) snapshotLeaf(pid device.PageID) (*bfLeaf, error) {
	t.writeMu.RLock()
	defer t.writeMu.RUnlock()
	mu := t.latches.lock(pid)
	defer mu.Unlock()
	var stats ProbeStats
	leaf, err := t.readLeaf(pid, &stats)
	if err != nil {
		return nil, nil // not a decodable leaf: stale pid, skip
	}
	if leaf.minKey > leaf.maxKey {
		return nil, nil // empty sentinel leaf: nothing to rebuild
	}
	if live, _, err := t.liveLeafPath(pid, leaf.minKey); !live || err != nil {
		return nil, err
	}
	if !t.inflight.register(pid) {
		return nil, nil
	}
	return leaf, nil
}

// liveLeafPath reports whether pid is still the leaf covering minKey
// (its own min key) and returns the internal path to it. Insert routing
// matches how separators are derived (a separator is its right leaf's
// min key), so a live leaf always descends to itself; a retired one
// does not. Callers hold writeMu, shared or exclusive.
func (t *Tree) liveLeafPath(pid device.PageID, minKey uint64) (bool, []frame, error) {
	if m := t.loadMeta(); m.height == 1 {
		return m.root == pid, nil, nil
	}
	cur, path, err := t.descendPathPid(minKey, true)
	if err != nil {
		return false, nil, err
	}
	return cur == pid, path, nil
}

// swapLeaf is compaction phase 3, the only exclusive hold: it takes the
// leaf's delta, re-checks liveness, replays the delta onto the fresh
// leaf at newPid, relinks the chain and then the parent pointer (or the
// root), sheds the snapshot's drift from the global counters and
// retires the old page. The replayed ops keep the drift they charged,
// so the per-leaf counters still sum to the globals. A leaf retired
// during the build, or a delta that would overfill the fresh leaf,
// abandons the swap: the unlinked page is freed and the old leaf stays
// for a later pass.
//
// Unlike a split, no separator changes: the parent keeps its keys and
// swaps one child pointer, so the relink is a single in-place
// page-atomic write instead of a copy-on-write path — a racing probe
// reads either the old or the new parent image, and both route to a
// leaf claiming the same keys (the old leaf stays frozen in limbo
// until every reader drains).
func (t *Tree) swapLeaf(pid device.PageID, snap, fresh *bfLeaf, newPid device.PageID) (bool, error) {
	t.writeMu.Lock()
	begin := time.Now()
	defer func() {
		t.maintStats.recordCompactionStall(time.Since(begin))
		t.writeMu.Unlock()
	}()
	ops := t.inflight.take(pid)
	abandon := func() (bool, error) {
		t.store.Free(newPid) // never linked: immediately reusable
		t.maintStats.compactionAborts.Add(1)
		return false, nil
	}
	live, path, err := t.liveLeafPath(pid, snap.minKey)
	if err != nil {
		t.store.Free(newPid)
		return false, err
	}
	if !live {
		return abandon()
	}
	var stats ProbeStats
	cur, err := t.readLeaf(pid, &stats)
	if err != nil {
		t.store.Free(newPid)
		return false, err
	}
	ok, err := t.replayDelta(fresh, ops)
	if err != nil {
		t.store.Free(newPid)
		return false, err
	}
	if !ok {
		return abandon()
	}
	// Rewrite the fresh page only if the build's image is stale: the
	// delta changed its contents, or a structural change next door
	// (a successor's split or compaction, an append past the tail)
	// moved the old leaf's chain pointer.
	if len(ops) > 0 || fresh.next != cur.next {
		fresh.next = cur.next
		if err := t.writeLeaf(newPid, fresh); err != nil {
			t.store.Free(newPid)
			return false, err
		}
	}

	// Chain relink first: after it, scans reach the new leaf while
	// descents still reach the old one — both claim the same keys, so
	// the transient is consistent — and a failure before the parent
	// relink leaves the new page unreferenced and immediately freeable.
	predPid, err := t.predecessorLeaf(path)
	if err != nil {
		t.store.Free(newPid)
		return false, err
	}
	relinked := false
	var pred *bfLeaf
	if predPid != device.InvalidPage {
		pred, err = t.readLeaf(predPid, &stats)
		if err != nil {
			t.store.Free(newPid)
			return false, err
		}
		pred.next = newPid
		if err := t.writeLeaf(predPid, pred); err != nil {
			t.store.Free(newPid)
			return false, err
		}
		relinked = true
	}

	// Parent relink (or root swap): the single structural pointer moves.
	if len(path) > 0 {
		f := path[len(path)-1]
		f.node.children[f.slot] = newPid
		buf := make([]byte, t.store.PageSize())
		perr := encodeInternal(buf, f.node)
		if perr == nil {
			perr = t.store.WritePage(f.pid, buf)
		}
		if perr != nil {
			// Undo the chain relink so the new page really is
			// unreferenced before freeing it. A failure here too leaves
			// the tree consistent (old leaf serves both paths) but leaks
			// newPid — the double-fault case the page economy accepts.
			if relinked {
				pred.next = pid
				if rerr := t.writeLeaf(predPid, pred); rerr != nil {
					return false, errors.Join(perr, rerr)
				}
			}
			t.store.Free(newPid)
			return false, perr
		}
	}

	shedIns, shedDel := uint64(snap.driftIns), uint64(snap.driftDel)
	t.publish(func(mm *treeMeta) {
		if len(path) == 0 {
			mm.root = newPid
		}
		if mm.firstLeaf == pid {
			mm.firstLeaf = newPid
		}
		mm.inserts -= min(mm.inserts, shedIns)
		mm.deletes -= min(mm.deletes, shedDel)
	})
	t.retire(pid)
	t.maintStats.leavesCompacted.Add(1)
	return true, nil
}

// replayDelta applies the in-place rewrites an in-flight leaf received
// after its snapshot to the fresh leaf, in the order they hit the old
// leaf, carrying the drift each one charged. It reports false when a
// replayed insert would push the fresh leaf past its Equation 5
// capacity — the swap is then abandoned, as a split cannot happen here.
func (t *Tree) replayDelta(fresh *bfLeaf, ops []deltaOp) (bool, error) {
	for _, op := range ops {
		switch op.kind {
		case deltaInsert:
			applied, _, err := t.absorbIntoLeaf(fresh, op.key, op.pid)
			if err != nil || !applied {
				return false, err
			}
			if op.drift {
				fresh.driftIns++
			}
		case deltaRemove:
			// The rebuild may have found the tuple already gone from its
			// data page; removing an association the fresh filter does
			// not claim would corrupt its counters.
			if fresh.probeOne(fresh.bfIndexOf(op.pid), op.key) {
				lastGone, err := fresh.removeKey(op.key, op.pid)
				if err != nil {
					return false, err
				}
				if lastGone && fresh.numKeys > 0 {
					fresh.numKeys--
				}
			}
			if op.drift {
				fresh.driftDel++
			}
		case deltaCharge:
			fresh.driftDel++
		}
	}
	return true, nil
}

// deltaKind names the in-place leaf rewrites an in-flight compaction
// must replay.
type deltaKind uint8

const (
	deltaInsert deltaKind = iota // absorbIntoLeaf(key, pid)
	deltaRemove                  // counting-filter removeKey(key, pid)
	deltaCharge                  // standard-filter logical delete: drift only
)

// deltaOp is one logged in-place rewrite of an in-flight leaf; drift
// records whether it charged one unit of drift to the leaf.
type deltaOp struct {
	kind  deltaKind
	key   uint64
	pid   device.PageID
	drift bool
}

// inflightSet is the tree's set of leaves between compaction snapshot
// and swap, each with its delta: the in-place rewrites it received
// since the snapshot. Writers record under the leaf's latch (or the
// exclusive writeMu) after their leaf write lands; registration happens
// under that same latch, so a rewrite is either in the snapshot image
// or in the delta, never both or neither.
type inflightSet struct {
	n      atomic.Int32 // len(leaves): lets writers skip mu when no compaction runs
	mu     sync.Mutex
	leaves map[device.PageID][]deltaOp
}

// register marks pid in flight with an empty delta; false if another
// compactor already owns it.
func (s *inflightSet) register(pid device.PageID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.leaves[pid]; ok {
		return false
	}
	if s.leaves == nil {
		s.leaves = make(map[device.PageID][]deltaOp)
	}
	s.leaves[pid] = nil
	s.n.Add(1)
	return true
}

// tracks reports whether pid is in flight. Called under pid's latch (or
// the exclusive writeMu), the answer holds until the caller releases
// it: registration needs the latch, and deregistration happens only at
// the exclusive swap or on a build error, after which a record is
// dropped harmlessly.
func (s *inflightSet) tracks(pid device.PageID) bool {
	if s.n.Load() == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.leaves[pid]
	return ok
}

// record appends ops to pid's delta if pid is in flight.
func (s *inflightSet) record(pid device.PageID, ops ...deltaOp) {
	if s.n.Load() == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.leaves[pid]; ok {
		s.leaves[pid] = append(d, ops...)
	}
}

// take deregisters pid and returns its delta.
func (s *inflightSet) take(pid device.PageID) []deltaOp {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.leaves[pid]
	if ok {
		delete(s.leaves, pid)
		s.n.Add(-1)
	}
	return d
}

// rebuildLeafContents re-derives one leaf from its data pages: exactly
// the keys physically present in [minPid, maxPid] (clamped to the file's
// tail for a still-growing tail leaf) that fall inside the leaf's key
// range and the tree's partition. The page span is preserved even when
// boundary pages hold no in-range keys, so neighboring leaves' coverage
// and future in-range inserts are unaffected; the filters are rebuilt
// from scratch at the size the current contents need, which is what
// restores the design fpp.
func (t *Tree) rebuildLeafContents(leaf *bfLeaf) (*bfLeaf, error) {
	last := t.lastDataPage()
	pages := make([]pageKeys, 0, leaf.numPages())
	for pid := leaf.minPid; pid <= leaf.maxPid; pid++ {
		pk := pageKeys{pid: pid}
		if pid <= last {
			tuples, err := t.file.ReadPageTuples(pid)
			if err != nil {
				return nil, err
			}
			for _, tup := range tuples {
				k := t.file.Schema().Get(tup, t.fieldIdx)
				if k < leaf.minKey || k > leaf.maxKey || !t.part.Accept(k) {
					continue
				}
				if len(pk.keys) == 0 || pk.keys[len(pk.keys)-1] != k {
					pk.keys = append(pk.keys, k)
				}
			}
		}
		pages = append(pages, pk)
	}
	return buildLeaf(pages, t.opts, t.geo)
}
