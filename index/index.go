// Package index is the public API of the BF-Tree library, a
// reproduction of "BF-Tree: Approximate Tree Indexing" (Athanassoulis &
// Ailamaki, PVLDB 7(14), 2014): one capability-aware interface over
// every point-lookup structure the paper compares — the BF-Tree itself,
// the B+-Tree and hash baselines, and the FD-Tree comparator — plus a
// name-keyed backend registry and the constructors for the simulated
// devices, page stores and relations they index.
//
// A BF-Tree indexes a relation that is ordered or partitioned on the
// indexed attribute. Its internal nodes are ordinary B+-Tree nodes; its
// leaves hold Bloom filters — one per data page (or group of pages) —
// answering "might this key be on that page?". The index trades a
// configurable false positive probability for a footprint one to two
// orders of magnitude below a B+-Tree's, and a probe costs within ~2x
// of the exact indexes; this package is that comparison as an API.
// Every backend answers the same probes with the same Result shape —
// matching tuples plus cost accounting — so the bench harness measures
// all of them through one generic path, and a serving layer can mount
// any of them behind the same handler.
//
// The typical flow:
//
//	dev := index.NewDevice(index.SSD, 4096)            // simulated device
//	store := index.NewStore(dev, 0)                    // page store (0 = no cache)
//	b, _ := index.NewRelationBuilder(store, schema)    // build an ordered relation
//	... b.Append(tuple) ...
//	file, _ := b.Finish()
//	ix, _ := index.NewByField("bftree", idxStore, file, "timestamp",
//		index.Options{BFTree: index.BFTreeOptions{FPP: 1e-3}})
//	res, _ := ix.Search(key)                           // same call, any backend
//	if ins, ok := ix.(index.Inserter); ok { ... }      // capability discovery
//
// The index store may sit on a different device than the data — the
// paper's five storage configurations place index and data on memory,
// SSD or HDD independently. Building over a field the relation is not
// ordered on fails with ErrKeyRange.
//
// The mandatory interface is intentionally small: point and range
// lookups, stats, close. Everything else — streaming scans, batched
// probes, inserts, deletes, flushing, persistence, maintenance, cache
// warming — is an optional capability interface discovered by type
// assertion; the per-backend matrix lives in DESIGN.md §5.
//
// Concurrency: a BF-Tree is multi-writer/multi-reader. Probes run
// lock-free on an immutable metadata snapshot; non-structural writes
// rewrite one leaf under that leaf's latch, and structural changes run
// copy-on-write under an exclusive lock (DESIGN.md §3).
// BFTreeOptions.Maintenance selects who performs structural upkeep —
// reclaiming retired pages and compacting the index when insert/delete
// drift pushes the effective false positive rate past a threshold
// (Equation 14, Section 7). Under MaintenanceAuto the tree owns a
// background maintainer that Close drains (DESIGN.md §4).
package index

import (
	"errors"

	"bftree/internal/bptree"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// Result is the outcome of any probe: matching tuple copies plus the
// probe's cost accounting (ProbeStats). Ref identifies one tuple by
// data page and slot — the entry payload of the exact backends; the
// BF-Tree keys associations by page only and ignores the slot.
type (
	Result     = core.Result
	ProbeStats = core.ProbeStats
	Ref        = bptree.TupleRef
	PageID     = device.PageID
	Store      = pagestore.Store
	File       = heapfile.File

	// MaintenanceStats is the snapshot returned by the Maintainer
	// capability (currently only the BF-Tree backend implements it).
	MaintenanceStats = core.MaintenanceStats
)

// ErrUnknownField reports an index build over a field the schema does
// not declare; the error names the field.
var ErrUnknownField = heapfile.ErrUnknownField

// ErrUnknownBackend reports a name no Backend was registered under.
var ErrUnknownBackend = errors.New("index: unknown backend")

// ErrUnsupported reports an operation the backend does not provide
// (for example Open on a backend that does not persist).
var ErrUnsupported = errors.New("index: unsupported operation")

// Index is the common contract every registered backend satisfies.
// Results are identical across backends for the same relation — the
// BF-Tree's approximation costs false-positive *page reads*, visible in
// Result.Stats, never wrong tuples. Implementations are safe for
// concurrent probes when their underlying structure is (the BF-Tree
// backend is; the baselines are read-safe after build as long as no
// writer runs).
//
// Capability discovery: anything beyond this interface is an optional
// capability discovered by type assertion —
//
//	if s, ok := ix.(index.Scanner); ok { it, _ := s.Scan(lo, hi); ... }
//
// and the package-level helpers (Scan, MultiSearch) fold the assertion
// and return ErrUnsupported when the backend lacks the capability —
// the uniform answer for every missing capability, so callers can
// errors.Is(err, index.ErrUnsupported) regardless of which one they
// asked for. All four built-in backends implement Scanner and
// MultiSearcher natively; the remaining capabilities vary (DESIGN.md
// §5).
type Index interface {
	// Search returns every tuple whose indexed field equals key.
	Search(key uint64) (*Result, error)
	// SearchFirst is the primary-key variant: the probe stops as soon
	// as a match is found. Exact backends return the first matching
	// tuple; the BF-Tree returns the first matching page's tuples (the
	// paper's early-exit unit is the page read).
	SearchFirst(key uint64) (*Result, error)
	// RangeScan returns every tuple whose indexed field lies in
	// [lo, hi], in key order.
	RangeScan(lo, hi uint64) (*Result, error)
	// Stats reports the index's size and shape.
	Stats() Stats
	// Close releases background resources (the BF-Tree's maintainer);
	// a no-op for passive backends.
	Close() error
}

// Stats is the size-and-shape snapshot behind the paper's capacity
// comparisons (Tables 2 and 4): footprint, height, and entry counts,
// plus the flags the bench layer keys generic behavior on.
type Stats struct {
	// Backend is the registered name that built this index.
	Backend string
	// Pages is the on-device index footprint in pages (0 for
	// memory-resident backends); SizeBytes is the footprint in bytes
	// (resident size for memory-resident backends).
	Pages     uint64
	SizeBytes uint64
	// Height counts index levels probed on a point lookup's way to the
	// data: B+-Tree/BF-Tree levels, FD-Tree on-device runs (+1 for the
	// head), 1 for hash.
	Height int
	// Entries is the number of indexed associations; Keys the distinct
	// key count where the backend tracks it (0 otherwise).
	Entries uint64
	Keys    uint64
	// EffectiveFPP is the current false positive probability of an
	// approximate backend (drift included); 0 for exact backends.
	EffectiveFPP float64
}

// Inserter is implemented by backends that accept post-build inserts.
type Inserter interface {
	Insert(key uint64, ref Ref) error
}

// Deleter is implemented by backends that can remove an association.
type Deleter interface {
	Delete(key uint64, ref Ref) error
}

// Flusher is implemented by backends that buffer writes in memory and
// can force them to the device (the BF-Tree's buffered-insert mode, the
// FD-Tree's head tree).
type Flusher interface {
	Flush() error
}

// Persister is implemented by backends whose index survives its
// process: MarshalMeta returns the blob that, together with the same
// store and file, reopens the index through the registry's Open.
type Persister interface {
	MarshalMeta() []byte
}

// Maintainer is implemented by backends with structural upkeep —
// reclamation and drift-triggered compaction (DESIGN.md §4).
type Maintainer interface {
	Maintain() error
	MaintenanceStats() MaintenanceStats
}

// Warmable is implemented by backends whose internal (non-leaf) pages
// can be pre-loaded into a buffer cache, the warm-cache setup of the
// paper's Figures 7, 10 and 12b.
type Warmable interface {
	InternalPages() ([]PageID, error)
}
