package index

import (
	"fmt"
	"sort"
	"sync"

	"bftree/internal/fdtree"
	"bftree/internal/heapfile"
)

// Options configures a build through the registry. It is the union of
// every backend's knobs: each backend reads the fields it understands
// and ignores the rest (the capability matrix in DESIGN.md §5 says
// which). The zero value builds every backend with sensible defaults.
type Options struct {
	// BFTree carries the BF-Tree build options. A zero FPP selects the
	// 1e-3 design point the quickstart and TPCH experiments use.
	BFTree BFTreeOptions
	// FDTree carries the FD-Tree head capacity and level ratio.
	FDTree fdtree.Options
	// FillFactor is the B+-Tree leaf fill factor; 0 selects 1.0 (the
	// paper's read-only builds).
	FillFactor float64
	// DedupKeys builds the exact tree backends with one entry per
	// distinct key instead of one per tuple — the paper's baseline
	// layout for ordered non-unique attributes. Probes then locate the
	// first occurrence and scan forward through the duplicates
	// (Section 6.3). Ignored by the hash and BF-Tree backends, which
	// have no per-tuple entries to deduplicate.
	DedupKeys bool
	// BufferedInserts, when > 0, puts the BF-Tree backend in the
	// update-intensive buffered mode of Section 4.2 with that buffer
	// capacity: Insert batches in memory, Flush applies leaf-by-leaf.
	BufferedInserts int
	// ForestShards sets the bfforest backend's shard count; 0 selects
	// the forest package default (4). Ignored by single-tree backends.
	ForestShards int
	// ForestHash switches the bfforest backend from range partitioning
	// (the default, ordered shards, concatenating scans) to hash
	// partitioning (skew-resistant point routing, k-way merged scans).
	ForestHash bool
}

// Backend is one registered index implementation: a name, the build
// entry points, and the declarative traits the generic bench plumbing
// keys on.
type Backend struct {
	// Name keys the registry (e.g. "bftree", "bptree", "fdtree",
	// "hash"). Required and unique.
	Name string
	// Approximate marks backends whose probe cost (not result) depends
	// on a false positive probability; the fpp sweeps of the paper's
	// figures apply only to these.
	Approximate bool
	// MemoryResident marks backends whose index structure lives in
	// memory: probes charge no index-device I/O, and the index-device
	// axis of the storage configurations does not apply.
	MemoryResident bool
	// ConcurrentWriters marks backends whose capability writers
	// (Insert/Delete) are safe to run concurrently with probes and each
	// other, per the DESIGN.md §3 contract. Backends without it are
	// read-safe after build only while no writer runs; the concurrent
	// conformance suite keys its writer goroutines on this.
	ConcurrentWriters bool
	// BulkLoad builds the index over the fieldIdx-th field of file,
	// writing any index pages to store. Required.
	BulkLoad func(store *Store, file *File, fieldIdx int, opts Options) (Index, error)
	// Open reopens a previously built index from a Persister's
	// MarshalMeta blob. Nil when the backend does not persist.
	Open func(store *Store, file *File, meta []byte) (Index, error)
}

var (
	regMu    sync.RWMutex
	registry = map[string]Backend{}
)

// Register adds a backend to the registry. It panics on an empty or
// duplicate name — registration is package wiring, not runtime input.
func Register(b Backend) {
	if b.Name == "" || b.BulkLoad == nil {
		panic("index: Register needs a name and a BulkLoad")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[b.Name]; dup {
		panic("index: backend " + b.Name + " registered twice")
	}
	registry[b.Name] = b
}

// Backends returns the registered names in sorted order.
func Backends() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Lookup returns the backend registered under name.
func Lookup(name string) (Backend, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	b, ok := registry[name]
	return b, ok
}

// New bulk-loads a registered backend over the fieldIdx-th field of
// file — the one factory every experiment, example and (future) serving
// layer builds through.
func New(name string, store *Store, file *File, fieldIdx int, opts Options) (Index, error) {
	b, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownBackend, name, Backends())
	}
	if fieldIdx < 0 || fieldIdx >= len(file.Schema().Fields) {
		return nil, fmt.Errorf("%w: field index %d of %d", ErrUnknownField, fieldIdx, len(file.Schema().Fields))
	}
	return b.BulkLoad(store, file, fieldIdx, opts)
}

// NewByField is New addressing the indexed attribute by name; an
// undeclared name reports *heapfile.UnknownFieldError, matching
// ErrUnknownField under errors.Is.
func NewByField(name string, store *Store, file *File, field string, opts Options) (Index, error) {
	fieldIdx := file.Schema().FieldIndex(field)
	if fieldIdx < 0 {
		return nil, &heapfile.UnknownFieldError{Field: field}
	}
	return New(name, store, file, fieldIdx, opts)
}

// Open reopens a persisted index from a Persister's MarshalMeta blob.
// Backends without persistence report ErrUnsupported.
func Open(name string, store *Store, file *File, meta []byte) (Index, error) {
	b, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownBackend, name, Backends())
	}
	if b.Open == nil {
		return nil, fmt.Errorf("%w: backend %q does not persist", ErrUnsupported, name)
	}
	return b.Open(store, file, meta)
}
