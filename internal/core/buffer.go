package core

import (
	"sort"

	"bftree/internal/device"
)

// BufferedInserter implements the update-intensive mode of Section 4.2:
// "each node can maintain a list of inserted/deleted/updated keys in
// order to accumulate enough number of such operations to amortize the
// cost of updating the BF". Inserts accumulate in memory and are applied
// in key order on Flush, one leaf read/write per touched leaf instead of
// one per insert. Searches through the inserter consult the buffer, so
// buffered keys are never invisible.
//
// A BufferedInserter is a single-writer handle: its own buffer state is
// not synchronized, so use it from one goroutine (probes directly on
// the Tree may run concurrently; Flush applies each leaf group under
// the shared writer lock plus that leaf's latch, escalating to the
// exclusive lock per entry only when one actually needs a structural
// change — so a flush coexists with latched writers on other leaves).
type BufferedInserter struct {
	tree     *Tree
	capacity int
	pending  []pendingInsert
}

type pendingInsert struct {
	key uint64
	pid device.PageID
}

// NewBufferedInserter wraps the tree with an insert buffer of the given
// capacity (number of pending inserts that triggers an automatic flush).
func (t *Tree) NewBufferedInserter(capacity int) *BufferedInserter {
	if capacity < 1 {
		capacity = 1024
	}
	return &BufferedInserter{tree: t, capacity: capacity}
}

// Insert buffers one key→page insert, flushing when the buffer is full.
func (b *BufferedInserter) Insert(key uint64, pid device.PageID) error {
	b.pending = append(b.pending, pendingInsert{key: key, pid: pid})
	if len(b.pending) >= b.capacity {
		return b.Flush()
	}
	return nil
}

// Pending returns the number of buffered inserts.
func (b *BufferedInserter) Pending() int { return len(b.pending) }

// Search probes the tree and overlays any buffered inserts for the key:
// each buffered page for the key is fetched directly and its matches are
// merged into the result. Tuples the index probe already fetched (the
// key can be present on an indexed page and a buffered page at once) are
// not duplicated: the merge dedups against the probe's tuples, so a
// buffered page the probe also read contributes nothing twice.
func (b *BufferedInserter) Search(key uint64) (*Result, error) {
	res, err := b.tree.Search(key)
	if err != nil {
		return nil, err
	}
	var have map[string]int
	seen := make(map[device.PageID]bool)
	for _, p := range b.pending {
		if p.key != key || seen[p.pid] {
			continue
		}
		seen[p.pid] = true
		// The page may already have been fetched by the tree probe;
		// re-fetching keeps the code simple and only affects
		// buffered keys.
		tuples, err := b.tree.file.SearchPage(p.pid, b.tree.fieldIdx, key)
		if err != nil {
			return nil, err
		}
		res.Stats.DataPagesRead++
		if have == nil {
			have = make(map[string]int, len(res.Tuples))
			for _, tup := range res.Tuples {
				have[string(tup)]++
			}
		}
		for _, tup := range tuples {
			if have[string(tup)] > 0 {
				have[string(tup)]--
				continue
			}
			cp := make([]byte, len(tup))
			copy(cp, tup)
			res.Tuples = append(res.Tuples, cp)
		}
	}
	return res, nil
}

// Flush applies all buffered inserts. Entries are sorted by key and
// applied leaf by leaf: one descent and one leaf write per touched
// leaf. Each leaf group runs under the shared writer lock plus that
// leaf's latch — the same tier as a non-structural Insert — so a flush
// streams alongside latched writers and other flushes on disjoint
// leaves instead of excluding every writer for the whole batch. Only
// when a group's head entry actually needs structural work (a split, an
// append past the tail) does the flush escalate to the exclusive lock,
// for that one entry. On error, every entry that was not durably
// applied stays in the buffer — a failed flush loses nothing, and a
// retry picks up exactly where it stopped.
func (b *BufferedInserter) Flush() error {
	if len(b.pending) == 0 {
		return nil
	}
	t := b.tree
	batch := b.pending
	b.pending = nil
	sort.Slice(batch, func(i, j int) bool { return batch[i].key < batch[j].key })

	i := 0
	// keepRemainder restores everything from index from onward into the
	// buffer: the failing entry plus all entries behind it.
	keepRemainder := func(from int, err error) error {
		b.pending = append(b.pending, batch[from:]...)
		return err
	}
	for i < len(batch) {
		n, err := b.flushGroupLatched(batch[i:])
		if err != nil {
			return keepRemainder(i, err)
		}
		if n > 0 {
			i += n
			// Outside the shared lock: nudge the maintainer if this
			// group's published drift crossed the compaction threshold.
			t.driftNudge()
			continue
		}
		// The head entry needs the structural path: escalate to the
		// exclusive lock for exactly this entry. insertLocked
		// re-descends, so if another writer did the structural work in
		// between it lands on the in-place path.
		t.writeMu.Lock()
		err = t.insertLocked(batch[i].key, batch[i].pid)
		t.writeMu.Unlock()
		if err != nil {
			return keepRemainder(i, err)
		}
		t.driftNudge()
		i++
	}
	return nil
}

// flushGroupLatched applies the longest prefix of batch that routes to
// one leaf and absorbs in place, under the shared writer lock plus that
// leaf's latch, and reports how many entries it durably applied. Zero
// with a nil error means the head entry needs the exclusive structural
// path (its page lies outside the leaf's range, or it is a new key on a
// leaf at its Equation 5 capacity). On error nothing was applied: the
// leaf image is rewritten only after the whole group absorbed.
func (b *BufferedInserter) flushGroupLatched(batch []pendingInsert) (int, error) {
	t := b.tree
	t.writeMu.RLock()
	defer t.writeMu.RUnlock()
	// The shared lock freezes the structure, so the descent's leaf pid
	// and routing bound stay valid for the whole group; the descent
	// skips the leaf decode (descendPathPid) because the leaf image is
	// read under the latch, like insertLatched — a racing latched
	// writer may have rewritten it after the descent.
	leafPid, path, err := t.descendPathPid(batch[0].key, true)
	if err != nil {
		return 0, err
	}
	bound := routeBound(path)
	mu := t.latches.lock(leafPid)
	defer mu.Unlock()
	var stats ProbeStats
	leaf, err := t.readLeaf(leafPid, &stats)
	if err != nil {
		return 0, err
	}
	// A compaction building a replacement for this leaf replays the
	// group from its delta; collect the ops only when one is.
	var ops []deltaOp
	track := t.inflight.tracks(leafPid)
	n := 0
	newKeys := uint64(0)
	for n < len(batch) {
		e := batch[n]
		if e.key > bound {
			break
		}
		if e.pid < leaf.minPid || e.pid > leaf.maxPid {
			break // append or disorder: slow path
		}
		applied, isNew, err := t.absorbIntoLeaf(leaf, e.key, e.pid)
		if err != nil {
			return 0, err
		}
		if !applied {
			break // split needed: slow path
		}
		if isNew {
			newKeys++
		}
		if track {
			ops = append(ops, deltaOp{kind: deltaInsert, key: e.key, pid: e.pid, drift: isNew})
		}
		n++
	}
	if n == 0 {
		return 0, nil
	}
	// The group's new keys are drift charged to this leaf, in the same
	// image write that records them (the per-leaf accounting invariant).
	leaf.driftIns += uint32(newKeys)
	// The group's entries are applied only in memory until the leaf
	// write lands; count nothing before then.
	if err := t.writeLeaf(leafPid, leaf); err != nil {
		return 0, err
	}
	t.inflight.record(leafPid, ops...)
	if newKeys > 0 {
		t.publish(func(m *treeMeta) { m.inserts += newKeys })
	}
	return n, nil
}

// routeBound returns the largest key that still routes to the leaf at
// the end of an insert-routed descent path: one below the nearest
// right-hand separator, or MaxUint64 on the rightmost spine. Insert
// routing sends a key equal to a separator to the right child (the
// separator is the right leaf's min key), so the separator itself is
// already outside this leaf — the bound must be separator-1, not the
// separator.
func routeBound(path []frame) uint64 {
	for lv := len(path) - 1; lv >= 0; lv-- {
		f := path[lv]
		if f.slot < len(f.node.keys) {
			return f.node.keys[f.slot] - 1
		}
	}
	return ^uint64(0)
}
