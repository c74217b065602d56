package index

import (
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/heapfile"
	"bftree/internal/pagestore"
)

// The construction surface: the simulated devices, page stores and
// ordered relations an index is built over, plus the BF-Tree's own
// option names, so a caller outside the module needs no other package.
type (
	// Schema and Field describe a relation of fixed-size tuples whose
	// uint64 fields sit at fixed offsets.
	Schema = heapfile.Schema
	Field  = heapfile.Field
	// RelationBuilder appends tuples in key order; Finish returns the
	// File to index.
	RelationBuilder = heapfile.Builder

	// Device is a simulated storage device with the paper's cost
	// profiles; IOStats is its access accounting (reads, writes,
	// random/sequential split, virtual elapsed time).
	Device     = device.Device
	DeviceKind = device.Kind
	IOStats    = device.Stats

	// BFTreeOptions configures the BF-Tree backend (Options.BFTree):
	// false positive probability, pages per filter, hash count, filter
	// kind, parallel probing and the maintenance policy.
	BFTreeOptions = core.Options
	FilterKind    = core.FilterKind

	// MaintenancePolicy configures the BF-Tree's self-maintaining mode
	// (BFTreeOptions.Maintenance): who performs upkeep, the Equation 14
	// compaction threshold, the reclaim interval, the limbo high-water
	// mark and the incremental compaction batch (DESIGN.md §4).
	MaintenancePolicy = core.MaintenancePolicy
	MaintenanceMode   = core.MaintenanceMode
)

// Device kinds for NewDevice.
const (
	Memory = device.Memory
	SSD    = device.SSD
	HDD    = device.HDD
)

// Filter kinds for BFTreeOptions.Filter. Counting filters let deletes
// remove associations physically; standard filters record them as fpp
// drift (Section 7).
const (
	StandardFilter = core.StandardFilter
	CountingFilter = core.CountingFilter
)

// Maintenance modes for MaintenancePolicy.Mode. Manual (the zero value)
// keeps inline, on-demand maintenance; Auto runs a background
// maintainer that Close drains; Disabled suppresses all automatic
// maintenance (an explicit Maintain still works).
const (
	MaintenanceManual   = core.MaintenanceManual
	MaintenanceAuto     = core.MaintenanceAuto
	MaintenanceDisabled = core.MaintenanceDisabled
)

// BF-Tree error sentinels for errors.Is matching.
var (
	// ErrOptions reports invalid build options.
	ErrOptions = core.ErrOptions
	// ErrCorrupt reports an undecodable index page or metadata blob.
	ErrCorrupt = core.ErrCorrupt
	// ErrKeyRange reports a violation of the ordered/partitioned-
	// relation contract: a build over a field the relation is not
	// ordered on, or an insert or delete whose data page lies outside
	// the covering leaf's page range.
	ErrKeyRange = core.ErrKeyRange
	// ErrNotIndexed reports a counting-filter Delete whose key→page
	// association no leaf claims: nothing was removed and the tree is
	// unchanged — typically a tolerable not-found rather than a failure.
	ErrNotIndexed = core.ErrNotIndexed
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
func NewRelationBuilder(store *Store, schema Schema) (*RelationBuilder, error) {
	return heapfile.NewBuilder(store, schema)
}
