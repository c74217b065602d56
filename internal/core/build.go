package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bftree/internal/bloom"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// Tree is a BF-Tree indexing one attribute of a heap file. Index pages
// live on their own store (which may sit on a different device than the
// data, reproducing the paper's five storage configurations).
//
// Concurrency: the tree is multi-writer/multi-reader. All metadata
// lives in an immutable treeMeta snapshot behind an atomic pointer;
// probes load it once and run lock-free. Writers split into two tiers
// (DESIGN.md §3): non-structural inserts and deletes rewrite one BF-leaf
// in place under the shared writeMu plus that leaf's latch, so writers
// on disjoint leaves proceed in parallel; structural changes (split,
// append, internal split, root growth, Rebuild) escalate to the
// exclusive writeMu and are copy-on-write — they build the new leaves
// and internal path on freshly allocated pages, publish a new snapshot,
// and retire the old pages through an epoch grace period (meta.go).
type Tree struct {
	store    *pagestore.Store
	file     *heapfile.File
	fieldIdx int
	opts     Options
	geo      Geometry

	meta    atomic.Pointer[treeMeta]
	readers epochs

	// writeMu is the writer-tier lock: RLock for leaf-latched in-place
	// rewrites (many may hold it at once), Lock for structural changes
	// and Flush/Rebuild (exclusive among all writers). Readers never
	// touch it.
	writeMu   sync.RWMutex
	latches   latchTable      // per-leaf write latches (hash-partitioned)
	limboPrev []device.PageID // retired one flip ago (exclusive-writer-only)
	limboCur  []device.PageID // retired since the last flip (exclusive-writer-only)

	// limboLen mirrors len(limboPrev)+len(limboCur) for lock-free
	// observers: the probe-exit hook (endProbe) and MaintenanceStats
	// read it without touching writeMu. Written only by the exclusive
	// writer (retire/reclaim).
	limboLen atomic.Int64

	// maint is the background maintainer, nil when none is running; the
	// atomic pointer lets the probe-exit hook consult it lock-free.
	// maintStats lives on the tree so counters survive maintainer
	// stop/start cycles and explicit Maintain calls (maintenance.go).
	maint      atomic.Pointer[maintainer]
	maintStats maintStats

	// leafWriteFault, when non-nil, is consulted by writeLeaf before
	// every leaf write; a non-nil return is injected as the write's
	// error. Test-only: set while the tree is quiescent to exercise
	// failure paths (e.g. the appendLeaf tail relink).
	leafWriteFault func(device.PageID) error

	// beforeSwap, when non-nil, is called by compactLeaf between the
	// off-lock build and the exclusive swap, with no tree lock held.
	// Test-only: set while the tree is quiescent to interleave writes
	// with a compaction deterministically.
	beforeSwap func(device.PageID)

	// inflight is the set of leaves a compaction has snapshotted but not
	// yet swapped, with the in-place rewrites each received since
	// (compact.go).
	inflight inflightSet

	// part, when non-nil, restricts the tree to one shard of the
	// relation (partition.go). Immutable after construction; Rebuild
	// re-applies it so drift compaction never re-indexes keys the
	// shard does not own.
	part *Partition
}

// pageKeys is the per-data-page key summary gathered while scanning the
// relation during bulk load.
type pageKeys struct {
	pid  device.PageID
	keys []uint64 // distinct keys on the page, in order
}

// maxFiltersPerLeaf bounds S so every filter keeps at least
// geo.MinBitsPerBF positions' worth of bytes.
func maxFiltersPerLeaf(geo Geometry) int {
	minBytes := int(geo.MinBitsPerBF / 8)
	if minBytes < 1 {
		minBytes = 1
	}
	maxS := (geo.PageSize - leafHeaderSize) / minBytes
	if maxS < 1 {
		maxS = 1
	}
	if maxS > 0xffff {
		maxS = 0xffff
	}
	return maxS
}

// leafShape picks the effective granularity and filter count for a leaf
// covering the given number of data pages: the requested granularity,
// coarsened just enough that S filters fit the page. This is the
// paper's "the number of BFs in a BF-leaf can vary between 1 and the
// number of pages comprising the range": the key budget (Equation 5)
// decides the leaf's reach, and the filters adapt.
func leafShape(pages, baseGranularity, maxS int) (granularity, s int) {
	granularity = baseGranularity
	if need := (pages + maxS - 1) / maxS; need > granularity {
		granularity = need
	}
	s = (pages + granularity - 1) / granularity
	return granularity, s
}

// BulkLoad builds a BF-Tree over field fieldIdx of file, writing index
// pages to idxStore. It makes one pass over the data to pack BF-leaves
// and one pass over the leaves to build the internal levels, as Section
// 4.2 prescribes. The file must be ordered or partitioned on the field:
// each key must occupy one contiguous page range.
//
// Under Options.Maintenance.Mode == MaintenanceAuto the returned tree
// owns a background maintainer goroutine; call Close to drain it.
func BulkLoad(idxStore *pagestore.Store, file *heapfile.File, fieldIdx int, opts Options) (*Tree, error) {
	t, err := bulkLoadTree(idxStore, file, fieldIdx, opts, nil)
	if err != nil {
		return nil, err
	}
	if t.opts.Maintenance.Mode == MaintenanceAuto {
		t.StartMaintenance()
	}
	return t, nil
}

// bulkLoadTree is BulkLoad without the maintainer lifecycle: Rebuild
// uses it to construct the replacement tree (whose Tree shell is
// discarded — only its published meta survives), so no goroutine may be
// attached to it. A non-nil part filters the build down to the keys the
// partition accepts: pages holding none of them are skipped entirely,
// which is what gives a range shard leaf spans covering only its slice
// of the file.
func bulkLoadTree(idxStore *pagestore.Store, file *heapfile.File, fieldIdx int, opts Options, part *Partition) (*Tree, error) {
	o, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	if fieldIdx < 0 || fieldIdx >= len(file.Schema().Fields) {
		return nil, fmt.Errorf("%w: field index %d", ErrOptions, fieldIdx)
	}
	geo, err := geometryFor(idxStore.PageSize(), o)
	if err != nil {
		return nil, err
	}
	t := &Tree{store: idxStore, file: file, fieldIdx: fieldIdx, opts: o, geo: geo, part: part}

	// Pass 1: scan data pages, packing leaves by distinct keys — at most
	// KeysPerLeaf each, the Equation 5 capacity that guarantees the
	// design fpp. Each leaf's filter granularity is then chosen so that
	// the busiest filter's actual load — including keys straddling
	// page-group boundaries, which are inserted into both groups'
	// filters — fits its Equation 1 capacity (see chooseShape).
	// The packing budget keeps a 15 % margin below the Equation 5
	// capacity: filters also absorb keys straddling page-group
	// boundaries (inserted into both groups), and without slack the
	// granularity search cannot hold one-filter-per-page precision.
	budget := geo.KeysPerLeaf * 85 / 100
	if budget < 1 {
		budget = 1
	}
	var leaves []*bfLeaf
	var cur []pageKeys
	var curDistinct uint64
	var lastKey uint64
	haveLast := false

	flush := func() error {
		// Trailing gap pages (possible only under a partition) would
		// stretch the leaf's span past its last owned page.
		for len(cur) > 0 && len(cur[len(cur)-1].keys) == 0 {
			cur = cur[:len(cur)-1]
		}
		if len(cur) == 0 {
			return nil
		}
		l, err := buildLeaf(cur, o, geo)
		if err != nil {
			return err
		}
		leaves = append(leaves, l)
		cur = nil
		curDistinct = 0
		return nil
	}

	first := file.FirstPage()
	for p := uint64(0); p < file.NumPages(); p++ {
		pid := first + device.PageID(p)
		tuples, err := file.ReadPageTuples(pid)
		if err != nil {
			return nil, err
		}
		var keys []uint64
		newDistinct := uint64(0)
		for _, tup := range tuples {
			k := file.Schema().Get(tup, fieldIdx)
			if !part.Accept(k) {
				continue
			}
			if len(keys) == 0 || keys[len(keys)-1] != k {
				keys = append(keys, k)
			}
			if !haveLast || k != lastKey {
				newDistinct++
				lastKey = k
				haveLast = true
			}
		}
		if part != nil && len(keys) == 0 {
			// No accepted keys on this page. A leading gap is skipped
			// outright (leaf spans start at the shard's first owned
			// page); an interior gap — possible under hash partitioning
			// — must stay in the leaf as an empty entry, because leaf
			// geometry (bfIndexOf, pageRangeOf) assumes its page run is
			// contiguous. Trailing gaps are trimmed at flush.
			if len(cur) > 0 {
				cur = append(cur, pageKeys{pid: pid})
			}
			continue
		}
		if len(cur) > 0 && curDistinct+newDistinct > budget {
			if err := flush(); err != nil {
				return nil, err
			}
			// Keys continuing from the previous leaf count as new here.
			newDistinct = uint64(len(keys))
		}
		cur = append(cur, pageKeys{pid: pid, keys: keys})
		curDistinct += newDistinct
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(leaves) == 0 {
		if part == nil {
			return nil, fmt.Errorf("%w: empty relation", ErrOptions)
		}
		// The key distribution left this shard nothing. A shard must
		// still exist — and accept appends later — so build one empty
		// leaf over the file's first page. Its minKey/maxKey sentinels
		// (^0/0) keep every probe and scan out of it until an insert
		// lands.
		posPerBF := geo.positionsFor(1, o.Filter)
		lo := o
		lo.Granularity = 1
		lo.Hashes = hashesFor(o.Hashes, posPerBF, geo.KeysPerLeaf, 1)
		leaves = append(leaves, newBFLeaf(file.FirstPage(), file.FirstPage(), lo, posPerBF, 1))
	}

	// Write the leaf level to contiguous pages, chaining next pointers.
	var m treeMeta
	firstLeaf := idxStore.Allocate(len(leaves))
	buf := make([]byte, idxStore.PageSize())
	for i, l := range leaves {
		if i < len(leaves)-1 {
			l.next = firstLeaf + device.PageID(i) + 1
		}
		if err := encodeBFLeaf(buf, l); err != nil {
			return nil, err
		}
		if err := idxStore.WritePage(firstLeaf+device.PageID(i), buf); err != nil {
			return nil, err
		}
		m.numKeys += uint64(l.numKeys)
	}
	m.firstLeaf = firstLeaf
	m.numLeaves = uint64(len(leaves))
	m.numNodes = m.numLeaves
	m.height = 1

	// Pass 2: build the internal levels bottom-up over the leaves.
	type childRef struct {
		minKey uint64
		pid    device.PageID
	}
	level := make([]childRef, len(leaves))
	for i, l := range leaves {
		level[i] = childRef{minKey: l.minKey, pid: firstLeaf + device.PageID(i)}
	}
	fanout := internalCapacity(idxStore.PageSize())
	for len(level) > 1 {
		numNodes := (len(level) + fanout - 1) / fanout
		firstNode := idxStore.Allocate(numNodes)
		next := make([]childRef, 0, numNodes)
		for i := 0; i < numNodes; i++ {
			lo := i * fanout
			hi := lo + fanout
			if hi > len(level) {
				hi = len(level)
			}
			group := level[lo:hi]
			n := &internalNode{
				keys:     make([]uint64, len(group)-1),
				children: make([]device.PageID, len(group)),
			}
			for j, c := range group {
				n.children[j] = c.pid
				if j > 0 {
					n.keys[j-1] = c.minKey
				}
			}
			if err := encodeInternal(buf, n); err != nil {
				return nil, err
			}
			pid := firstNode + device.PageID(i)
			if err := idxStore.WritePage(pid, buf); err != nil {
				return nil, err
			}
			next = append(next, childRef{minKey: group[0].minKey, pid: pid})
		}
		level = next
		m.numNodes += uint64(numNodes)
		m.height++
	}
	m.root = level[0].pid
	t.meta.Store(&m)
	return t, nil
}

// avgGroupLoad returns the mean number of distinct keys per page group
// of width g — the average filter load, counting a key once per group it
// touches (straddling keys are inserted into every group they span).
// Keys are in file order, so adjacent deduplication within a group is
// exact for ordered data. The average, not the maximum, drives the
// expected false-read rate: occasional overloaded groups (a cardinality
// spike) degrade only their own filters, by the bounded drift of
// Equation 14.
func avgGroupLoad(pages []pageKeys, g int) uint64 {
	var total uint64
	groups := 0
	for lo := 0; lo < len(pages); lo += g {
		hi := lo + g
		if hi > len(pages) {
			hi = len(pages)
		}
		var last uint64
		have := false
		for _, pk := range pages[lo:hi] {
			for _, k := range pk.keys {
				if !have || k != last {
					total++
					last = k
					have = true
				}
			}
		}
		groups++
	}
	if groups == 0 {
		return 0
	}
	return (total + uint64(groups) - 1) / uint64(groups)
}

// chooseShape picks the finest granularity whose average filter load
// stays within the Equation 1 capacity at the design fpp. Granularity 1
// — one filter per page, the paper's best-precision configuration — wins
// whenever the per-page key load allows; high-cardinality attributes
// whose keys span hundreds of pages converge to coarse groups, trading
// probe precision for leaves that cover whole partitions (Section 4.1's
// "1 up to the number of pages" range for S). Feasibility is found by
// doubling then binary refinement: both load and capacity grow roughly
// linearly in g with capacity growing faster, so feasibility is
// monotone in g.
func chooseShape(pages []pageKeys, o Options, geo Geometry) (granularity, s int) {
	p := len(pages)
	feasible := func(g int) (bool, int) {
		sCand := (p + g - 1) / g
		if sCand > 0xffff {
			return false, sCand
		}
		capKeys := bloom.KeysForBits(geo.positionsFor(sCand, o.Filter), o.FPP)
		if capKeys == 0 {
			capKeys = 1
		}
		return avgGroupLoad(pages, g) <= capKeys, sCand
	}
	if ok, sCand := feasible(o.Granularity); ok || o.Granularity >= p {
		return o.Granularity, sCand
	}
	// Double until feasible; g = p always is (one filter holding the
	// leaf's distinct keys, which the packing budget bounded).
	lastBad := o.Granularity
	g := o.Granularity * 2
	for g < p {
		ok, _ := feasible(g)
		if ok {
			break
		}
		lastBad = g
		g *= 2
	}
	if g > p {
		g = p
	}
	// Binary refine in (lastBad, g].
	lo, hi := lastBad+1, g
	for lo < hi {
		mid := (lo + hi) / 2
		if ok, _ := feasible(mid); ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	_, sCand := feasible(lo)
	return lo, sCand
}

// buildLeaf packs one leaf from consecutive data-page key summaries:
// S filters sharing the leaf's filter-bit budget equally (the Section 3
// split property keeps the fpp of the whole-leaf budget).
func buildLeaf(pages []pageKeys, o Options, geo Geometry) (*bfLeaf, error) {
	g, s := chooseShape(pages, o, geo)
	posPerBF := geo.positionsFor(s, o.Filter)
	lo := o
	lo.Granularity = g
	lo.Hashes = hashesFor(o.Hashes, posPerBF, geo.KeysPerLeaf, s)
	l := newBFLeaf(pages[0].pid, pages[len(pages)-1].pid, lo, posPerBF, s)
	var distinct uint32
	var last uint64
	have := false
	for _, pk := range pages {
		for _, k := range pk.keys {
			if err := l.addKey(k, pk.pid); err != nil {
				return nil, err
			}
			if !have || k != last {
				distinct++
				last = k
				have = true
			}
			if k < l.minKey {
				l.minKey = k
			}
			if k > l.maxKey {
				l.maxKey = k
			}
		}
	}
	l.numKeys = distinct
	return l, nil
}
