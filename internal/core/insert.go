package core

import (
	"fmt"
	"sort"
	"sync"

	"bftree/internal/device"
)

// splitEnumLimit caps the key-domain enumeration of the probe-based
// Algorithm 2 split. Wider leaf key ranges fall back to rebuilding the
// leaf from its data pages, which is exact and bounded by the leaf's page
// count (the paper notes enumeration is impractical for very-high-
// cardinality domains, Section 7).
const splitEnumLimit = 1 << 20

// frame is one step of a root-to-leaf descent, kept for split
// propagation. node is a writer-private decoded copy, free to mutate.
type frame struct {
	pid  device.PageID
	node *internalNode
	slot int
}

// sepInsert is a separator/child pair a structural change adds to the
// parent level: the new right sibling produced by a leaf or internal
// split, or a freshly appended tail leaf.
type sepInsert struct {
	key   uint64
	child device.PageID
}

// descendLeafPid walks to the leaf pid for key without decoding the
// leaf image or recording the internal path. The latched insert path
// uses it: the leaf must be re-read under its latch anyway, so decoding
// it during the descent would be wasted work on the hot path.
func (t *Tree) descendLeafPid(key uint64, forInsert bool) (device.PageID, error) {
	pid := t.loadMeta().root
	for {
		buf, err := t.store.ReadPage(pid)
		if err != nil {
			return 0, err
		}
		kind, err := nodeKind(buf)
		if err != nil {
			return 0, err
		}
		if kind == nodeBFLeaf {
			return pid, nil
		}
		n, err := decodeInternal(buf)
		if err != nil {
			return 0, err
		}
		var i int
		if forInsert {
			i = sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		} else {
			i = sort.Search(len(n.keys), func(i int) bool { return key <= n.keys[i] })
		}
		pid = n.children[i]
	}
}

// descendPath walks to the leaf for key, recording the internal path.
// Searches use leftmost routing (key <= separator goes left, because
// duplicates may trail in the left leaf); inserts use rightmost routing
// (key == separator goes right, because a separator is the right leaf's
// min key, so new tuples for it live in the right leaf's page range).
func (t *Tree) descendPath(key uint64, forInsert bool) (*bfLeaf, device.PageID, []frame, error) {
	pid, path, buf, err := t.descendPathBuf(key, forInsert)
	if err != nil {
		return nil, 0, nil, err
	}
	l, err := decodeBFLeaf(buf)
	if err != nil {
		return nil, 0, nil, err
	}
	return l, pid, path, nil
}

// descendPathPid is descendPath without the leaf decode, for callers
// that re-read the leaf under its latch anyway (flushGroupLatched) and
// need the path only for routeBound.
func (t *Tree) descendPathPid(key uint64, forInsert bool) (device.PageID, []frame, error) {
	pid, path, _, err := t.descendPathBuf(key, forInsert)
	return pid, path, err
}

// descendPathBuf is the shared body: it returns the leaf's pid, the
// recorded internal path, and the leaf's undecoded page image.
func (t *Tree) descendPathBuf(key uint64, forInsert bool) (device.PageID, []frame, []byte, error) {
	var path []frame
	pid := t.loadMeta().root
	for {
		buf, err := t.store.ReadPage(pid)
		if err != nil {
			return 0, nil, nil, err
		}
		kind, err := nodeKind(buf)
		if err != nil {
			return 0, nil, nil, err
		}
		if kind == nodeBFLeaf {
			return pid, path, buf, nil
		}
		n, err := decodeInternal(buf)
		if err != nil {
			return 0, nil, nil, err
		}
		var i int
		if forInsert {
			i = sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		} else {
			i = sort.Search(len(n.keys), func(i int) bool { return key <= n.keys[i] })
		}
		path = append(path, frame{pid: pid, node: n, slot: i})
		pid = n.children[i]
	}
}

// writeLeaf serializes and writes a leaf.
func (t *Tree) writeLeaf(pid device.PageID, l *bfLeaf) error {
	if t.leafWriteFault != nil {
		if err := t.leafWriteFault(pid); err != nil {
			return err
		}
	}
	buf := make([]byte, t.store.PageSize())
	if err := encodeBFLeaf(buf, l); err != nil {
		return err
	}
	return t.store.WritePage(pid, buf)
}

// Insert implements Algorithm 3: route to the BF-leaf for key, split if
// the leaf is at its key capacity, then update the key range, the key
// count and the Bloom filter of the data page holding the tuple. The
// data page pid must fall inside the leaf's page range, or extend the
// file's tail (appends), mirroring the paper's assumption that data stays
// ordered or partitioned on the indexed attribute.
//
// Insert is safe to call concurrently with any number of probes and
// writers. A non-structural insert — the leaf absorbs the key in place —
// runs under the shared writer lock plus the target leaf's latch, so
// inserts into disjoint leaves proceed in parallel; an insert that needs
// a structural change (append past the tail, split at capacity)
// escalates to the exclusive writer lock (DESIGN.md §3).
func (t *Tree) Insert(key uint64, pid device.PageID) error {
	err := t.insert(key, pid)
	if err == nil {
		// Outside all tree locks: nudge the maintainer if this insert's
		// published drift crossed the compaction threshold.
		t.driftNudge()
	}
	return err
}

func (t *Tree) insert(key uint64, pid device.PageID) error {
	if done, err := t.insertLatched(key, pid); done {
		return err
	}
	// Escalate: re-run the full path under the exclusive lock. Another
	// writer may have done the structural work between the shared-lock
	// release and this acquisition; insertLocked re-descends, so it
	// either performs the change itself or lands on the in-place path.
	t.writeMu.Lock()
	defer t.writeMu.Unlock()
	return t.insertLocked(key, pid)
}

// absorbIntoLeaf applies one key→page association to a decoded leaf in
// place: filter update, key-range widening, and the distinct-key count.
// Shared by the latched and exclusive insert paths and by Flush, so the
// accounting cannot diverge between them. If the association is new and
// the leaf sits at its Equation 5 capacity, nothing is changed and
// applied=false: the caller must split first. An association the target
// filter already claims is always absorbed in place — it cannot grow
// the distinct-key count, so capacity is irrelevant.
//
// isNew is judged per target filter, not leaf-wide, which makes numKeys
// a conservative upper bound on the leaf's distinct keys: a key indexed
// under two page groups counts twice, and the delete side decrements
// only when the key vanishes from every filter (removeKey's
// last-association rule) — both rules err on the high side of the
// capacity check. The leaf-wide alternative (count only keys no filter
// claims) would undercount as the leaf fills: near design load the
// chance that some filter false-positively claims a genuinely new key
// approaches S×fpp, disabling the capacity guard exactly when it
// matters. A symmetric per-filter decrement on delete is no better:
// bulk load counts a key spanning two page groups once, so per-filter
// decrements would push numKeys below the true distinct load and let
// overloaded filters degrade the fpp silently. The residual cost of
// the chosen rules — insert-then-delete churn of multi-group keys can
// ratchet numKeys up — is bounded: every split recounts its halves
// exactly.
func (t *Tree) absorbIntoLeaf(leaf *bfLeaf, key uint64, pid device.PageID) (applied, isNew bool, err error) {
	isNew = !leaf.probeOne(leaf.bfIndexOf(pid), key)
	if isNew && uint64(leaf.numKeys)+1 > t.geo.KeysPerLeaf {
		return false, true, nil
	}
	if err := leaf.addKey(key, pid); err != nil {
		return false, false, err
	}
	if key < leaf.minKey {
		leaf.minKey = key
	}
	if key > leaf.maxKey {
		leaf.maxKey = key
	}
	if isNew {
		leaf.numKeys++
	}
	return true, isNew, nil
}

// insertLatched is Insert's leaf-latched fast path: descend under the
// shared writer lock (the tree structure is frozen; only in-place leaf
// rewrites may race), latch the target leaf, and absorb the key in
// place. It reports done=false when the insert needs the exclusive
// structural path — a page beyond the leaf's range (append or ordering
// violation, both diagnosed against a stable tree) or a new key landing
// on a leaf at its Equation 5 capacity (split).
func (t *Tree) insertLatched(key uint64, pid device.PageID) (done bool, err error) {
	t.writeMu.RLock()
	defer t.writeMu.RUnlock()
	leafPid, err := t.descendLeafPid(key, true)
	if err != nil {
		return true, err
	}
	mu := t.latches.lock(leafPid)
	defer mu.Unlock()
	// Re-read under the latch: another latched writer may have rewritten
	// the leaf between the descent's read and the latch acquisition. The
	// shared lock guarantees leafPid is still the leaf that covers key —
	// in-place rewrites never move a leaf's page range or its separators.
	var stats ProbeStats
	leaf, err := t.readLeaf(leafPid, &stats)
	if err != nil {
		return true, err
	}
	if pid < leaf.minPid || pid > leaf.maxPid {
		return false, nil
	}
	applied, isNew, err := t.absorbIntoLeaf(leaf, key, pid)
	if err != nil {
		return true, err
	}
	if !applied {
		return false, nil
	}
	if isNew {
		leaf.driftIns++
	}
	if err := t.writeLeaf(leafPid, leaf); err != nil {
		return true, err
	}
	t.inflight.record(leafPid, deltaOp{kind: deltaInsert, key: key, pid: pid, drift: isNew})
	if isNew {
		t.publish(func(m *treeMeta) { m.inserts++ })
	}
	return true, nil
}

// insertLocked is Insert's body; callers hold writeMu.
func (t *Tree) insertLocked(key uint64, pid device.PageID) error {
	leaf, leafPid, path, err := t.descendPath(key, true)
	if err != nil {
		return err
	}

	// Appends past the last covered page open a fresh leaf.
	if pid > leaf.maxPid {
		if leaf.next != device.InvalidPage {
			return fmt.Errorf("%w: page %d beyond leaf range [%d,%d] of a non-tail leaf",
				ErrKeyRange, pid, leaf.minPid, leaf.maxPid)
		}
		return t.appendLeaf(key, pid, leaf, leafPid, path)
	}
	if pid < leaf.minPid {
		return fmt.Errorf("%w: page %d before leaf range [%d,%d]; data must stay ordered",
			ErrKeyRange, pid, leaf.minPid, leaf.maxPid)
	}

	// Non-structural insert: the leaf keeps its pid and is rewritten in
	// place. Page writes are atomic at the store level, so a concurrent
	// probe sees either the pre- or the post-insert leaf image — both
	// consistent trees. absorbIntoLeaf refuses only a new key on a leaf
	// at its Equation 5 capacity, which is the split trigger.
	applied, isNew, err := t.absorbIntoLeaf(leaf, key, pid)
	if err != nil {
		return err
	}
	if !applied {
		if err := t.splitLeaf(leaf, leafPid, path); err != nil {
			return err
		}
		// Re-descend: the key now routes to one of the halves.
		return t.insertLocked(key, pid)
	}
	if isNew {
		leaf.driftIns++
	}
	if err := t.writeLeaf(leafPid, leaf); err != nil {
		return err
	}
	t.inflight.record(leafPid, deltaOp{kind: deltaInsert, key: key, pid: pid, drift: isNew})
	if isNew {
		t.publish(func(m *treeMeta) { m.inserts++ })
	}
	return nil
}

// Delete removes one key→page association. Counting-filter leaves
// delete physically (Section 7's deletable-filter alternative); standard
// leaves only record the delete, which degrades the effective fpp by the
// additive term of Section 7 until the leaf is rebuilt.
//
// Routing mirrors Search, not Insert: insert routing sends a key equal
// to a separator right, but duplicates of a separator key trail in the
// *left* leaf, so Delete descends leftmost and walks every chained leaf
// whose [minKey, maxKey] covers the key, removing the association from
// each leaf whose page range holds pid (post-split halves may overlap by
// one page group, so more than one leaf can claim it). The drift counter
// moves only when a covering filter actually claimed the association;
// a counting-filter delete that finds none returns ErrNotIndexed.
//
// Delete is always non-structural: it runs under the shared writer lock
// with per-leaf latches, in parallel with inserts and deletes on other
// leaves.
func (t *Tree) Delete(key uint64, pid device.PageID) error {
	err := t.delete(key, pid)
	if err == nil {
		// Outside all tree locks: nudge the maintainer if this delete's
		// published drift crossed the compaction threshold.
		t.driftNudge()
	}
	return err
}

func (t *Tree) delete(key uint64, pid device.PageID) error {
	t.writeMu.RLock()
	defer t.writeMu.RUnlock()
	var stats ProbeStats
	leaf, leafPid, err := t.descend(t.loadMeta().root, key, &stats)
	if err != nil {
		return err
	}
	// Leftmost descent can land one leaf early when key equals a
	// separator; skip forward while the leaf's range is entirely below.
	for key > leaf.maxKey && leaf.next != device.InvalidPage {
		nextPid := leaf.next
		nl, err := t.readLeaf(nextPid, &stats)
		if err != nil {
			return err
		}
		if key < nl.minKey {
			break
		}
		leaf, leafPid = nl, nextPid
	}
	counting := t.opts.Filter == CountingFilter
	removed := false
	for key >= leaf.minKey && key <= leaf.maxKey {
		if pid >= leaf.minPid && pid <= leaf.maxPid {
			if counting {
				// Only the first successful removal carries the drift
				// charge: one published global decrement is attributed to
				// exactly one leaf (the per-leaf accounting invariant).
				r, err := t.deleteLatched(key, pid, leafPid, !removed)
				if err != nil {
					return err
				}
				removed = removed || r
			} else if !removed && leaf.probeOne(leaf.bfIndexOf(pid), key) {
				// Standard filters cannot clear bits; the association is
				// claimed, so the logical delete counts toward drift —
				// charged to this first claiming leaf, under its latch,
				// so the per-leaf counters stay in sync with the global
				// ones a partial rebuild will decrement.
				if err := t.chargeDeleteLatched(leafPid); err != nil {
					return err
				}
				removed = true
			}
		}
		if leaf.next == device.InvalidPage {
			break
		}
		nextPid := leaf.next
		nl, err := t.readLeaf(nextPid, &stats)
		if err != nil {
			return err
		}
		leaf, leafPid = nl, nextPid
	}
	if !removed {
		if counting {
			return fmt.Errorf("%w: key %d on page %d", ErrNotIndexed, key, pid)
		}
		// A logical delete of an unindexed association records nothing:
		// counting it would overstate the Section 7 drift term.
		return nil
	}
	t.publish(func(m *treeMeta) { m.deletes++ })
	return nil
}

// deleteLatched removes the key→page association from the leaf at
// leafPid under its latch, re-reading the leaf image first (a racing
// latched writer may have rewritten it since the caller's read) and
// re-checking coverage. It reports whether an association was removed.
// The leaf's distinct-key count drops only when removeKey reports the
// key's last association gone — a key still claimed on other pages of
// the leaf keeps its slot in the Equation 5 capacity check. With
// chargeDrift set, a successful removal also records one unit of delete
// drift on the leaf, matching the single global decrement the caller
// publishes.
func (t *Tree) deleteLatched(key uint64, pid device.PageID, leafPid device.PageID, chargeDrift bool) (bool, error) {
	mu := t.latches.lock(leafPid)
	defer mu.Unlock()
	var stats ProbeStats
	leaf, err := t.readLeaf(leafPid, &stats)
	if err != nil {
		return false, err
	}
	if key < leaf.minKey || key > leaf.maxKey || pid < leaf.minPid || pid > leaf.maxPid {
		return false, nil
	}
	if !leaf.probeOne(leaf.bfIndexOf(pid), key) {
		return false, nil // the filter never claimed this association
	}
	lastGone, err := leaf.removeKey(key, pid)
	if err != nil {
		return false, err
	}
	if lastGone && leaf.numKeys > 0 {
		leaf.numKeys--
	}
	if chargeDrift {
		leaf.driftDel++
	}
	if err := t.writeLeaf(leafPid, leaf); err != nil {
		return false, err
	}
	t.inflight.record(leafPid, deltaOp{kind: deltaRemove, key: key, pid: pid, drift: chargeDrift})
	return true, nil
}

// chargeDeleteLatched records one unit of delete drift on the leaf at
// leafPid — the standard-filter logical-delete counterpart of
// deleteLatched's chargeDrift. Standard filters cannot clear bits, so
// the leaf's content is untouched; only the drift counter moves, under
// the leaf's latch and re-read like any latched rewrite, so no racing
// writer's increment is lost. A claim observed by the caller cannot
// vanish before the latch is held: standard filters never clear bits,
// and a compaction replaces the leaf only at its swap, which needs the
// exclusive lock the caller's RLock excludes. A compaction building a
// replacement meanwhile gets the charge through its delta.
func (t *Tree) chargeDeleteLatched(leafPid device.PageID) error {
	mu := t.latches.lock(leafPid)
	defer mu.Unlock()
	var stats ProbeStats
	leaf, err := t.readLeaf(leafPid, &stats)
	if err != nil {
		return err
	}
	leaf.driftDel++
	if err := t.writeLeaf(leafPid, leaf); err != nil {
		return err
	}
	t.inflight.record(leafPid, deltaOp{kind: deltaCharge})
	return nil
}

// appendLeaf grows the tree at its right edge: a new leaf covering the
// page range starting at pid, pre-sized to the maximum filter count so
// later appends land in it without resizing. The new leaf goes to a
// freshly allocated page; the old tail keeps its pid and only has its
// chain pointer updated (a page-atomic write), so the sole structural
// edit — inserting the new separator and child — is done copy-on-write
// up the path and published as one new snapshot.
func (t *Tree) appendLeaf(key uint64, pid device.PageID, lastLeaf *bfLeaf, lastPid device.PageID, path []frame) error {
	maxS := maxFiltersPerLeaf(t.geo)
	posPerBF := t.geo.positionsFor(maxS, t.opts.Filter)
	span := device.PageID(maxS*t.opts.Granularity) - 1
	o := t.opts
	o.Hashes = hashesFor(t.opts.Hashes, posPerBF, t.geo.KeysPerLeaf, maxS)
	nl := newBFLeaf(pid, pid+span, o, posPerBF, maxS)
	if err := nl.addKey(key, pid); err != nil {
		return err
	}
	nl.minKey = key
	nl.maxKey = key
	nl.numKeys = 1
	nl.driftIns = 1 // the appended key is post-build drift, charged here
	newPid := t.store.Allocate(1)
	nl.next = lastLeaf.next // InvalidPage: this is the new tail
	if err := t.writeLeaf(newPid, nl); err != nil {
		t.store.Free(newPid) // never linked: immediately reusable
		return err
	}
	newRoot, added, grew, fresh, retired, err := t.cowPath(path, lastPid, &sepInsert{key: key, child: newPid})
	if err != nil {
		t.store.Free(newPid)
		return err
	}
	// Chain the old tail to the new leaf, now that nothing can fail and
	// leave a linked-but-unindexed tail behind. Probes racing this see
	// the tail either without the appended leaf (the pre-insert
	// snapshot) or with it fully written — both consistent.
	lastLeaf.next = newPid
	if err := t.writeLeaf(lastPid, lastLeaf); err != nil {
		// The snapshot was never published, so every page cowPath wrote
		// (including a grown root) is unreachable: free it all now, or
		// the live + free + limbo page economy leaks.
		t.store.Free(newPid)
		t.store.Free(fresh...)
		return err
	}
	t.publish(func(m *treeMeta) {
		m.root = newRoot
		m.height += grew
		m.numLeaves++
		m.numNodes += 1 + added
		m.numKeys++
		m.inserts++
	})
	t.retire(retired...)
	t.maintRequest()
	return nil
}

// splitLeaf implements Algorithm 2: divide the leaf's key range at its
// midpoint, discover each half's page range by probing the old filters
// for every key in the domain (parallelized across workers when the
// option is set), and build two fresh leaves from the probe results.
// False positives of the old filters carry into the new ones, which is
// exactly the accuracy contract of the paper. Leaves whose key span
// exceeds splitEnumLimit are rebuilt exactly from their data pages
// instead.
//
// The split is copy-on-write: both halves and every internal node on
// the descent path are written to freshly allocated pages, then the new
// root is published as one snapshot. The pre-split leaf and the old
// path stay frozen until every probe that could still reach them has
// drained (the epoch grace period of meta.go), after which their pages
// return to the store's free list.
func (t *Tree) splitLeaf(leaf *bfLeaf, leafPid device.PageID, path []frame) error {
	var left, right *bfLeaf
	var err error
	// The natural span check maxKey-minKey+1 wraps to zero for a leaf
	// covering the whole uint64 domain, which would select enumeration
	// with span 0; the minus-one form is overflow-safe and still sends
	// wide leaves to the exact rebuild.
	exact := leaf.maxKey-leaf.minKey >= splitEnumLimit
	if exact {
		left, right, err = t.splitByRebuild(leaf)
	} else {
		left, right, err = t.splitByProbe(leaf)
	}
	if err != nil {
		return err
	}
	// Drift accounting across the split. A probe-based split carries the
	// old filters' state (false positives and all) into the halves, so
	// the leaf's drift contribution survives and is transferred to them —
	// the exact split point of each unit is unknowable, so it is divided,
	// preserving the sum. An exact rebuild re-derives the halves from the
	// data pages: the absorbed inserts become build-time content and the
	// logical deletes are resurrected, so the old leaf's contribution is
	// shed from the global counters instead — the same decrement rule as
	// incremental compaction (CompactLeaves), of which this is the
	// one-leaf special case.
	var shedIns, shedDel uint64
	if exact {
		shedIns, shedDel = uint64(leaf.driftIns), uint64(leaf.driftDel)
	} else {
		left.driftIns = leaf.driftIns / 2
		right.driftIns = leaf.driftIns - left.driftIns
		left.driftDel = leaf.driftDel / 2
		right.driftDel = leaf.driftDel - left.driftDel
	}

	leftPid := t.store.Allocate(1)
	rightPid := t.store.Allocate(1)
	right.next = leaf.next
	left.next = rightPid
	if err := t.writeLeaf(leftPid, left); err != nil {
		t.store.Free(leftPid, rightPid) // never linked: immediately reusable
		return err
	}
	if err := t.writeLeaf(rightPid, right); err != nil {
		t.store.Free(leftPid, rightPid)
		return err
	}
	// Locate the predecessor leaf before cowPath mutates the recorded
	// path nodes (separator insert, internal splits); the relink itself
	// happens after the last fallible step below.
	predPid, err := t.predecessorLeaf(path)
	if err != nil {
		t.store.Free(leftPid, rightPid)
		return err
	}
	newRoot, added, grew, fresh, retired, err := t.cowPath(path, leftPid, &sepInsert{key: right.minKey, child: rightPid})
	if err != nil {
		t.store.Free(leftPid, rightPid)
		return err
	}
	// Relink the predecessor's chain pointer (page-atomic) so
	// current-snapshot range scans reach the halves; running it last
	// means a failed split never leaks linked pages. A probe that
	// already followed the old pointer keeps traversing the frozen
	// pre-split leaf, which covers the same keys and pages and answers
	// identically. On failure the unpublished cowPath pages are freed
	// along with the halves — same page-economy rule as appendLeaf.
	if predPid != device.InvalidPage {
		var stats ProbeStats
		pred, err := t.readLeaf(predPid, &stats)
		if err != nil {
			t.store.Free(leftPid, rightPid)
			t.store.Free(fresh...)
			return err
		}
		pred.next = leftPid
		if err := t.writeLeaf(predPid, pred); err != nil {
			t.store.Free(leftPid, rightPid)
			t.store.Free(fresh...)
			return err
		}
	}
	t.publish(func(m *treeMeta) {
		m.root = newRoot
		m.height += grew
		m.numLeaves++
		m.numNodes += 1 + added
		if m.firstLeaf == leafPid {
			m.firstLeaf = leftPid
		}
		m.inserts -= min(m.inserts, shedIns)
		m.deletes -= min(m.deletes, shedDel)
	})
	t.retire(leafPid)
	t.retire(retired...)
	t.maintRequest()
	return nil
}

// predecessorLeaf returns the pid of the leaf chained immediately
// before the leaf at the bottom of path, or InvalidPage when that leaf
// is the leftmost: the rightmost leaf under the nearest left-sibling
// pointer along the path.
func (t *Tree) predecessorLeaf(path []frame) (device.PageID, error) {
	for lv := len(path) - 1; lv >= 0; lv-- {
		f := path[lv]
		if f.slot == 0 {
			continue
		}
		pid := f.node.children[f.slot-1]
		for {
			buf, err := t.store.ReadPage(pid)
			if err != nil {
				return device.InvalidPage, err
			}
			kind, err := nodeKind(buf)
			if err != nil {
				return device.InvalidPage, err
			}
			if kind == nodeBFLeaf {
				return pid, nil
			}
			n, err := decodeInternal(buf)
			if err != nil {
				return device.InvalidPage, err
			}
			pid = n.children[len(n.children)-1]
		}
	}
	return device.InvalidPage, nil
}

// keyPages maps a surviving key to the page groups it matched.
type keyPages struct {
	key  uint64
	bids []int
}

// splitByProbe enumerates [minKey, maxKey], probing the old leaf for
// every key (Algorithm 2 lines 7-17), then packs the halves.
func (t *Tree) splitByProbe(leaf *bfLeaf) (*bfLeaf, *bfLeaf, error) {
	span := leaf.maxKey - leaf.minKey + 1
	results := make([][]int, span)
	probeRange := func(lo, hi uint64) {
		for k := lo; k < hi; k++ {
			m := leaf.probe(leaf.minKey+k, false)
			if len(m) > 0 {
				results[k] = m
			}
		}
	}
	if t.opts.ParallelProbe && span >= 1024 {
		const workers = 8
		var wg sync.WaitGroup
		chunk := (span + workers - 1) / workers
		for w := uint64(0); w < workers; w++ {
			lo := w * chunk
			if lo >= span {
				break
			}
			hi := lo + chunk
			if hi > span {
				hi = span
			}
			wg.Add(1)
			go func(lo, hi uint64) {
				defer wg.Done()
				probeRange(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	} else {
		probeRange(0, span)
	}

	midKey := leaf.minKey + (leaf.maxKey-leaf.minKey)/2
	var lowKeys, highKeys []keyPages
	for off, bids := range results {
		if bids == nil {
			continue
		}
		k := leaf.minKey + uint64(off)
		if k <= midKey {
			lowKeys = append(lowKeys, keyPages{key: k, bids: bids})
		} else {
			highKeys = append(highKeys, keyPages{key: k, bids: bids})
		}
	}
	return t.packHalves(leaf, lowKeys, highKeys)
}

// splitByRebuild reads the leaf's data pages and rebuilds both halves
// exactly. Used when the key domain is too wide to enumerate.
func (t *Tree) splitByRebuild(leaf *bfLeaf) (*bfLeaf, *bfLeaf, error) {
	midKey := leaf.minKey + (leaf.maxKey-leaf.minKey)/2
	last := t.lastDataPage()
	hi := leaf.maxPid
	if hi > last {
		hi = last
	}
	var lowKeys, highKeys []keyPages
	seenLow := make(map[uint64]int)  // key → index in lowKeys
	seenHigh := make(map[uint64]int) // key → index in highKeys
	for pid := leaf.minPid; pid <= hi; pid++ {
		tuples, err := t.file.ReadPageTuples(pid)
		if err != nil {
			return nil, nil, err
		}
		bid := leaf.bfIndexOf(pid)
		for _, tup := range tuples {
			k := t.file.Schema().Get(tup, t.fieldIdx)
			if k < leaf.minKey || k > leaf.maxKey {
				continue
			}
			var seen map[uint64]int
			var list *[]keyPages
			if k <= midKey {
				seen, list = seenLow, &lowKeys
			} else {
				seen, list = seenHigh, &highKeys
			}
			i, ok := seen[k]
			if !ok {
				*list = append(*list, keyPages{key: k})
				i = len(*list) - 1
				seen[k] = i
			}
			kp := &(*list)[i]
			if len(kp.bids) == 0 || kp.bids[len(kp.bids)-1] != bid {
				kp.bids = append(kp.bids, bid)
			}
		}
	}
	return t.packHalves(leaf, lowKeys, highKeys)
}

// packHalves builds the two post-split leaves from per-key page-group
// assignments (Algorithm 2 lines 18-29). The left half covers
// [leaf.minPid, max page of low keys]; the right half covers [min page of
// high keys, leaf.maxPid]; with a key straddling the boundary the two
// ranges may overlap by one page group, as in the paper.
func (t *Tree) packHalves(leaf *bfLeaf, lowKeys, highKeys []keyPages) (*bfLeaf, *bfLeaf, error) {
	if len(lowKeys) == 0 || len(highKeys) == 0 {
		return nil, nil, fmt.Errorf("%w: cannot split leaf [%d,%d]: one half is empty",
			ErrOptions, leaf.minKey, leaf.maxKey)
	}
	leftMax := 0
	for _, kp := range lowKeys {
		if b := kp.bids[len(kp.bids)-1]; b > leftMax {
			leftMax = b
		}
	}
	rightMin := leaf.numBFs() - 1
	for _, kp := range highKeys {
		if b := kp.bids[0]; b < rightMin {
			rightMin = b
		}
	}
	g := device.PageID(leaf.granularity)
	leftLo := leaf.minPid
	leftHi := leaf.minPid + device.PageID(leftMax+1)*g - 1
	if leftHi > leaf.maxPid {
		leftHi = leaf.maxPid
	}
	rightLo := leaf.minPid + device.PageID(rightMin)*g
	rightHi := leaf.maxPid

	build := func(lo, hi device.PageID, keys []keyPages) (*bfLeaf, error) {
		pages := int(hi-lo) + 1
		g, s := leafShape(pages, t.opts.Granularity, maxFiltersPerLeaf(t.geo))
		o := t.opts
		o.Granularity = g
		posPerBF := t.geo.positionsFor(s, t.opts.Filter)
		o.Hashes = hashesFor(t.opts.Hashes, posPerBF, t.geo.KeysPerLeaf, s)
		nl := newBFLeaf(lo, hi, o, posPerBF, s)
		for _, kp := range keys {
			for _, oldBid := range kp.bids {
				plo, phi := leaf.pageRangeOf(oldBid)
				if plo < lo {
					plo = lo
				}
				if phi > hi {
					phi = hi
				}
				for p := plo; p <= phi; p++ {
					if err := nl.addKey(kp.key, p); err != nil {
						return nil, err
					}
				}
			}
			if kp.key < nl.minKey {
				nl.minKey = kp.key
			}
			if kp.key > nl.maxKey {
				nl.maxKey = kp.key
			}
			nl.numKeys++
		}
		return nl, nil
	}
	left, err := build(leftLo, leftHi, lowKeys)
	if err != nil {
		return nil, nil, err
	}
	right, err := build(rightLo, rightHi, highKeys)
	if err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// cowPath rewrites the recorded descent path copy-on-write, bottom-up:
// at the deepest frame the child at the taken slot is replaced by
// newChild and (sep.key, sep.child) is inserted to its right; above, the
// replacement propagates. Every touched internal node is written to a
// freshly allocated page; overfull nodes split into two fresh pages; if
// a separator reaches past the top frame, a new root is written. The
// function returns the new root pid, the net number of internal pages
// added (splits and root growth), the height delta (0 or 1), the pages
// it allocated (all unreachable until the caller publishes — the caller
// must Free them if a later step fails before publication, or the page
// economy leaks), and the old path pages to retire — which the caller
// hands to retire() only after publishing the new snapshot, so an error
// mid-way never poisons the free list with reachable pages.
func (t *Tree) cowPath(path []frame, newChild device.PageID, sep *sepInsert) (newRoot device.PageID, added uint64, grew int, fresh, retired []device.PageID, err error) {
	buf := make([]byte, t.store.PageSize())
	capacity := internalCapacity(t.store.PageSize())
	// Pages allocated here are unreachable until the caller publishes;
	// on error they go straight back to the free list.
	var allocated []device.PageID
	fail := func(err error) (device.PageID, uint64, int, []device.PageID, []device.PageID, error) {
		t.store.Free(allocated...)
		return 0, 0, 0, nil, nil, err
	}
	writeNode := func(n *internalNode) (device.PageID, error) {
		pid := t.store.Allocate(1)
		allocated = append(allocated, pid)
		if err := encodeInternal(buf, n); err != nil {
			return 0, err
		}
		if err := t.store.WritePage(pid, buf); err != nil {
			return 0, err
		}
		return pid, nil
	}
	for level := len(path) - 1; level >= 0; level-- {
		f := path[level]
		n := f.node
		n.children[f.slot] = newChild
		if sep != nil {
			n.keys = append(n.keys, 0)
			copy(n.keys[f.slot+1:], n.keys[f.slot:])
			n.keys[f.slot] = sep.key
			n.children = append(n.children, 0)
			copy(n.children[f.slot+2:], n.children[f.slot+1:])
			n.children[f.slot+1] = sep.child
		}
		retired = append(retired, f.pid)
		if len(n.children) <= capacity {
			pid, err := writeNode(n)
			if err != nil {
				return fail(err)
			}
			newChild = pid
			sep = nil
			continue
		}
		// Internal split: both halves on fresh pages.
		mid := len(n.keys) / 2
		upKey := n.keys[mid]
		right := &internalNode{
			keys:     append([]uint64(nil), n.keys[mid+1:]...),
			children: append([]device.PageID(nil), n.children[mid+1:]...),
		}
		n.keys = n.keys[:mid]
		n.children = n.children[:mid+1]
		leftPid, err := writeNode(n)
		if err != nil {
			return fail(err)
		}
		rightPid, err := writeNode(right)
		if err != nil {
			return fail(err)
		}
		added++
		newChild = leftPid
		sep = &sepInsert{key: upKey, child: rightPid}
	}
	if sep == nil {
		return newChild, added, 0, allocated, retired, nil
	}
	// Root grows one level (also the first split of a single-leaf tree).
	root := &internalNode{keys: []uint64{sep.key}, children: []device.PageID{newChild, sep.child}}
	rootPid, err := writeNode(root)
	if err != nil {
		return fail(err)
	}
	added++
	return rootPid, added, 1, allocated, retired, nil
}
