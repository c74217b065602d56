// Package bftree is the public API of the BF-Tree library, a
// reproduction of "BF-Tree: Approximate Tree Indexing" (Athanassoulis &
// Ailamaki, PVLDB 7(14), 2014).
//
// A BF-Tree indexes a relation that is ordered or partitioned on the
// indexed attribute. Its internal nodes are ordinary B+-Tree nodes; its
// leaves hold Bloom filters — one per data page (or group of pages) —
// answering "might this key be on that page?". The index trades a
// configurable false positive probability for a footprint one to two
// orders of magnitude below a B+-Tree's.
//
// The typical flow:
//
//	dev := bftree.NewDevice(bftree.SSD, 4096)          // simulated device
//	store := bftree.NewStore(dev, 0)                   // page store (0 = no cache)
//	b, _ := bftree.NewRelationBuilder(store, schema)   // build an ordered relation
//	... b.Append(tuple) ...
//	file, _ := b.Finish()
//	idx, _ := bftree.BulkLoad(idxStore, file, "timestamp", bftree.Options{FPP: 1e-3})
//	res, _ := idx.Search(key)
//
// Concurrency: a built Tree is multi-writer/multi-reader. Search,
// SearchFirst, RangeScan and friends may be called from any number of
// goroutines concurrently with writers: every probe loads one
// immutable metadata snapshot and runs lock-free. Writers run in two
// tiers: a non-structural Insert or Delete rewrites one BF-leaf in
// place under a shared tree lock plus that leaf's latch, so writers
// touching disjoint leaves proceed in parallel; an insert that needs a
// structural change (leaf split, append, root growth) escalates to an
// exclusive lock and runs copy-on-write, published atomically, with
// retired pages recycled through an epoch grace period. Flush applies
// each leaf group under the shared tier, escalating per entry only for
// structural work; Rebuild takes the exclusive lock. A
// BufferedInserter's own buffer is unsynchronized — use each inserter
// from a single goroutine. See DESIGN.md §3 for the full contract.
//
// Self-maintaining mode: Options.Maintenance selects who performs
// structural upkeep — reclaiming retired copy-on-write pages and
// compacting the index (via Rebuild) when insert/delete drift pushes
// the effective false positive rate past a threshold (Equation 14,
// Section 7). Under MaintenanceAuto the tree owns a background
// maintainer goroutine, woken by probe completions, drift-publishing
// writers, and a periodic tick; call Close to drain it. The default
// (MaintenanceManual) keeps maintenance inline and on demand
// (Tree.Maintain); Tree.MaintenanceStats reports either way.
// Compaction is incremental when MaintenancePolicy.IncrementalBatch is
// positive: each leaf tracks its own drift contribution and the
// maintainer rewrites only the most-drifted leaves per pass, rebuilding
// each off the writer lock and holding the exclusive lock only for its
// pointer swap instead of for one whole-tree Rebuild
// (Tree.CompactLeaves is the explicit entry point). See
// DESIGN.md §4 for the maintenance contract.
//
// Package-level names are thin aliases over the implementation packages
// under internal/; see DESIGN.md for the full system inventory.
package bftree

import (
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// Re-exported types. Options configures a build (false positive
// probability, pages per filter, hash count, counting filters, parallel
// probing); Tree is the index; Result carries matching tuples plus the
// probe's cost accounting.
type (
	Options    = core.Options
	Tree       = core.Tree
	Result     = core.Result
	ProbeStats = core.ProbeStats
	FilterKind = core.FilterKind

	// MaintenancePolicy configures the self-maintaining mode
	// (Options.Maintenance): auto/manual/disabled, the Equation 14
	// compaction threshold, the reclaim interval, and the limbo high
	// water mark. MaintenanceStats is the snapshot returned by
	// Tree.MaintenanceStats.
	MaintenanceMode   = core.MaintenanceMode
	MaintenancePolicy = core.MaintenancePolicy
	MaintenanceStats  = core.MaintenanceStats

	Schema = heapfile.Schema
	Field  = heapfile.Field
	File   = heapfile.File

	Store      = pagestore.Store
	Device     = device.Device
	DeviceKind = device.Kind
	PageID     = device.PageID
	IOStats    = device.Stats
)

// Device kinds for NewDevice.
const (
	Memory = device.Memory
	SSD    = device.SSD
	HDD    = device.HDD
)

// Filter kinds for Options.Filter.
const (
	StandardFilter = core.StandardFilter
	CountingFilter = core.CountingFilter
)

// Maintenance modes for Options.Maintenance.Mode. Manual (the zero
// value) keeps inline, on-demand maintenance; Auto runs a background
// maintainer the tree drains on Close; Disabled suppresses all
// automatic maintenance (explicit Tree.Maintain still works).
const (
	MaintenanceManual   = core.MaintenanceManual
	MaintenanceAuto     = core.MaintenanceAuto
	MaintenanceDisabled = core.MaintenanceDisabled
)

// Error sentinels re-exported for errors.Is matching.
var (
	// ErrOptions reports invalid build options.
	ErrOptions = core.ErrOptions
	// ErrCorrupt reports an undecodable index page or metadata blob.
	ErrCorrupt = core.ErrCorrupt
	// ErrKeyRange reports an insert or delete whose data page violates
	// the ordered/partitioned-relation contract.
	ErrKeyRange = core.ErrKeyRange
	// ErrNotIndexed reports a counting-filter Delete whose key→page
	// association no leaf claims: nothing was removed, no drift was
	// recorded, and the tree is unchanged — typically a tolerable
	// not-found rather than a failure.
	ErrNotIndexed = core.ErrNotIndexed
	// ErrUnknownField reports an index build over a field the schema
	// does not declare; the concrete error is an *UnknownFieldError
	// carrying the name.
	ErrUnknownField = heapfile.ErrUnknownField
)

// NewDevice creates a simulated storage device of the given kind with
// the default cost profile (derived from the paper's testbed) and page
// size in bytes (0 selects 4096).
func NewDevice(kind DeviceKind, pageSize int) *Device {
	return device.New(kind, pageSize)
}

// NewStore layers page management over a device. cachePages > 0 enables
// an LRU buffer cache of that many pages (the warm-cache configurations
// of the paper); 0 leaves every access cold, like the paper's O_DIRECT
// runs.
func NewStore(dev *Device, cachePages int) *Store {
	if cachePages > 0 {
		return pagestore.New(dev, pagestore.WithCache(cachePages))
	}
	return pagestore.New(dev)
}

// NewRelationBuilder opens a builder for an ordered (or partitioned)
// relation of fixed-size tuples on store. Feed tuples in key order and
// call Finish for the File to index.
func NewRelationBuilder(store *Store, schema Schema) (*heapfile.Builder, error) {
	return heapfile.NewBuilder(store, schema)
}

// BulkLoad builds a BF-Tree over the named field of file, writing index
// pages to idxStore (which may sit on a different device than the data —
// the paper's five storage configurations place index and data on
// memory, SSD or HDD independently).
func BulkLoad(idxStore *Store, file *File, field string, opts Options) (*Tree, error) {
	fieldIdx := file.Schema().FieldIndex(field)
	if fieldIdx < 0 {
		return nil, &heapfile.UnknownFieldError{Field: field}
	}
	return core.BulkLoad(idxStore, file, fieldIdx, opts)
}

// Open reopens an index previously built on idxStore from metadata
// produced by Tree.MarshalMeta, without rebuilding.
func Open(idxStore *Store, file *File, meta []byte) (*Tree, error) {
	return core.Open(idxStore, file, meta)
}

// BufferedInserter batches inserts and applies them leaf-by-leaf on
// flush — the update-intensive mode of the paper's Section 4.2. Obtain
// one with Tree.NewBufferedInserter.
type BufferedInserter = core.BufferedInserter

// UnknownFieldError reports an index build over a field the schema does
// not declare. errors.Is(err, ErrUnknownField) matches it.
type UnknownFieldError = heapfile.UnknownFieldError
