package core

import (
	"slices"
	"sort"

	"bftree/internal/device"
)

// MultiSearch answers a batch of point lookups in one pass: it sorts
// and dedups the keys, descends through a per-batch cache of decoded
// index pages (adjacent keys share their root-to-leaf path, so the
// cache turns n descents into little more than one), probes each
// BF-leaf's filters once per key that lands on it, and fetches every
// flagged data page exactly once even when several keys want it.
//
// Overlap: the descent is level-synchronous — each tree level's
// distinct unread pages for the whole batch are fetched in one
// vectored read, and so are the next leaves that the first step of the
// separator skip-forward or the duplicate-following walk reads — and
// the flagged data pages are fetched with vectored reads too
// (device.ReadPages, at most device.MaxInFlight pages each). Under
// real device latency a batch therefore waits about once per tree
// level, once for the next leaves and once per MaxInFlight data pages,
// not once per page; only the walks' further steps, both rare, read
// leaves one at a time. The pages read and every stat below are those
// of a key-by-key descent; only the order of the index reads differs,
// which can change which of them the device's virtual clock classifies
// as sequential.
//
// Accounting: IndexReads counts distinct index pages decoded for the
// batch (the shared-descent savings the batched-probe experiment
// measures); BFProbes and CandidatePages accumulate per key exactly as
// n individual Search calls would; DataPagesRead counts distinct data
// pages fetched; FalseReads counts fetched pages yielding no match for
// any batch key. Tuples are returned in page order (grouped by data
// page, not by probe key); every tuple whose indexed field equals any
// batch key appears exactly once.
//
// The whole batch runs under one reader registration, so it observes a
// single consistent snapshot.
func (t *Tree) MultiSearch(keys []uint64) (*Result, error) {
	res := &Result{}
	if len(keys) == 0 {
		return res, nil
	}
	sorted := append([]uint64(nil), keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	n := 0
	for i, k := range sorted {
		if i == 0 || k != sorted[n-1] {
			sorted[n] = k
			n++
		}
	}
	sorted = sorted[:n]
	batch := make(map[uint64]bool, n)
	for _, k := range sorted {
		batch[k] = true
	}

	m, ep := t.beginProbe()
	defer t.endProbe(ep)
	cache := &nodeCache{
		t:      t,
		nodes:  make(map[device.PageID]*internalNode),
		leaves: make(map[device.PageID]*bfLeaf),
	}
	// Phase 1: index side. Collect the union of flagged data pages.
	leaves, err := cache.descendAll(m.root, sorted, &res.Stats)
	if err != nil {
		return nil, err
	}
	// Every key at or past its leaf's minimum goes on to read the next
	// leaf — the first step of the skip-forward or the duplicate walk —
	// so those leaves are one more overlapped round, not one wait each.
	var next []device.PageID
	for i, l := range leaves {
		if sorted[i] >= l.minKey && l.next != device.InvalidPage {
			next = append(next, l.next)
		}
	}
	if err := cache.fetch(next, &res.Stats); err != nil {
		return nil, err
	}
	wanted := make(map[device.PageID]bool)
	last := t.lastDataPage()
	for i, key := range sorted {
		if err := t.multiProbeKey(leaves[i], key, cache, wanted, last, &res.Stats); err != nil {
			return nil, err
		}
	}
	// Phase 2: data side. Read each flagged page once, ascending (the
	// sorted access list of Algorithm 1, now shared across the batch),
	// MaxInFlight pages per vectored read.
	pages := make([]device.PageID, 0, len(wanted))
	for pid := range wanted {
		pages = append(pages, pid)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	for chunk := range slices.Chunk(pages, device.MaxInFlight) {
		tuplesOf, err := t.file.ReadPagesTuples(chunk)
		if err != nil {
			return nil, err
		}
		for _, tuples := range tuplesOf {
			res.Stats.DataPagesRead++
			matched := false
			for _, tup := range tuples {
				// Bloom filters have no false negatives, so a batch key's
				// tuples always lie on pages its own probe flagged; matching
				// against the batch set equals per-key matching.
				if batch[t.file.Schema().Get(tup, t.fieldIdx)] {
					cp := make([]byte, len(tup))
					copy(cp, tup)
					res.Tuples = append(res.Tuples, cp)
					matched = true
				}
			}
			if !matched {
				res.Stats.FalseReads++
			}
		}
	}
	return res, nil
}

// multiProbeKey runs the index part of Algorithm 1 for one key from the
// leaf its descent reached: separator skip-forward and the
// duplicate-following leaf walk of search through the batch cache,
// adding flagged pages to wanted instead of fetching them.
func (t *Tree) multiProbeKey(leaf *bfLeaf, key uint64, cache *nodeCache,
	wanted map[device.PageID]bool, last device.PageID, stats *ProbeStats) error {
	for key > leaf.maxKey && leaf.next != device.InvalidPage {
		nl, err := cache.leaf(leaf.next, stats)
		if err != nil {
			return err
		}
		if key < nl.minKey {
			return nil
		}
		leaf = nl
	}
	for {
		if key < leaf.minKey || key > leaf.maxKey {
			return nil
		}
		matches := leaf.probe(key, t.opts.ParallelProbe)
		stats.BFProbes += leaf.numBFs()
		for _, bid := range matches {
			lo, hi := leaf.pageRangeOf(bid)
			if hi > last {
				hi = last
			}
			for pid := lo; pid <= hi; pid++ {
				stats.CandidatePages++
				wanted[pid] = true
			}
		}
		if leaf.next == device.InvalidPage {
			return nil
		}
		nl, err := cache.leaf(leaf.next, stats)
		if err != nil {
			return err
		}
		if key < nl.minKey || key > nl.maxKey {
			return nil
		}
		leaf = nl
	}
}

// nodeCache memoizes decoded index pages for the lifetime of one batch.
// IndexReads is charged only on a miss, so the stat reflects distinct
// index pages touched — the quantity a buffer pool would serve.
type nodeCache struct {
	t      *Tree
	nodes  map[device.PageID]*internalNode
	leaves map[device.PageID]*bfLeaf
}

// descendAll is Tree.descend for every key of a sorted batch at once,
// one tree level per round: a round fetches the distinct pages the
// still-descending keys stand on (fetch skips those already decoded)
// and moves each of those keys one level down. It returns each key's
// leaf, aligned with keys.
func (c *nodeCache) descendAll(root device.PageID, keys []uint64, stats *ProbeStats) ([]*bfLeaf, error) {
	at := make([]device.PageID, len(keys))
	for i := range at {
		at[i] = root
	}
	leaves := make([]*bfLeaf, len(keys))
	for left := len(keys); left > 0; {
		level := make([]device.PageID, 0, left)
		for i, pid := range at {
			if leaves[i] == nil {
				level = append(level, pid)
			}
		}
		if err := c.fetch(level, stats); err != nil {
			return nil, err
		}
		for i, key := range keys {
			if leaves[i] != nil {
				continue
			}
			if n, ok := c.nodes[at[i]]; ok {
				at[i] = n.children[sort.Search(len(n.keys), func(j int) bool { return key <= n.keys[j] })]
				continue
			}
			leaves[i] = c.leaves[at[i]]
			left--
		}
	}
	return leaves, nil
}

// fetch decodes every page of pids the cache does not hold yet, reading
// them with vectored reads of at most device.MaxInFlight pages and
// charging one IndexRead per page read.
func (c *nodeCache) fetch(pids []device.PageID, stats *ProbeStats) error {
	var miss []device.PageID
	queued := make(map[device.PageID]bool)
	for _, pid := range pids {
		if c.nodes[pid] != nil || c.leaves[pid] != nil || queued[pid] {
			continue
		}
		queued[pid] = true
		miss = append(miss, pid)
	}
	for chunk := range slices.Chunk(miss, device.MaxInFlight) {
		bufs, err := c.t.store.ReadPages(chunk)
		if err != nil {
			return err
		}
		stats.IndexReads += len(chunk)
		for i, buf := range bufs {
			if err := c.decode(chunk[i], buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// decode files one index page image under the cache map of its kind.
func (c *nodeCache) decode(pid device.PageID, buf []byte) error {
	kind, err := nodeKind(buf)
	if err != nil {
		return err
	}
	if kind == nodeBFLeaf {
		l, err := decodeBFLeaf(buf)
		if err != nil {
			return err
		}
		c.leaves[pid] = l
		return nil
	}
	n, err := decodeInternal(buf)
	if err != nil {
		return err
	}
	c.nodes[pid] = n
	return nil
}

// leaf is Tree.readLeaf through the cache.
func (c *nodeCache) leaf(pid device.PageID, stats *ProbeStats) (*bfLeaf, error) {
	if l, ok := c.leaves[pid]; ok {
		return l, nil
	}
	l, err := c.t.readLeaf(pid, stats)
	if err != nil {
		return nil, err
	}
	c.leaves[pid] = l
	return l, nil
}
