// Package device simulates the secondary-storage devices of the paper's
// testbed (Section 6.1): a 10K RPM hard disk, a SATA SSD, and main
// memory. Each device stores pages in RAM and charges accesses against a
// deterministic virtual clock using a per-device cost model, so
// experiments measure exactly the quantity the paper reasons about — the
// number and kind of I/O operations weighted by device characteristics —
// without the noise of real hardware.
//
// The cost models distinguish random from sequential access: a read of
// the page that physically follows the previous read is charged the
// sequential rate, anything else pays the random-access penalty (seek +
// rotational latency on the HDD, a flat operation cost on the SSD). This
// reproduces the property the paper's design exploits: on the HDD
// sequential I/O is orders of magnitude cheaper than random I/O, while on
// the SSD the two are nearly identical.
//
// Concurrency: a Device is safe for concurrent use and the read path is
// designed to scale. Accounting (Stats, the sequential-access tracker)
// is kept in atomics, the page directory is published through an atomic
// pointer, and page data is guarded by striped reader/writer locks — so
// concurrent readers of distinct pages never contend on a lock, and
// readers of the same page share a read lock.
//
// Overlap: ReadPages issues a vector of page reads the way a host hands
// a batch of commands to a drive with a command queue. Each page is
// copied and charged in slice order exactly as the same ReadPage calls
// would be, so Stats, the random/sequential classification, bytes and
// the virtual Elapsed clock are identical to a serial loop; only the
// optional real latency (SetRealLatency) differs: a vector waits one
// latency period per MaxInFlight pages, which is what that many
// concurrent ReadPage callers already pay. Virtual-clock figures
// therefore keep describing serial I/O, while wall-clock runs under
// real latency see the overlap.
package device

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// PageID identifies a page on a device. Pages are numbered from 0.
type PageID uint64

// InvalidPage is a sentinel for "no page".
const InvalidPage = PageID(1<<64 - 1)

// Kind enumerates the simulated device classes.
type Kind int

// Device kinds, in increasing random-read cost.
const (
	Memory Kind = iota
	SSD
	HDD
)

// String returns the conventional short name of the device kind.
func (k Kind) String() string {
	switch k {
	case Memory:
		return "mem"
	case SSD:
		return "SSD"
	case HDD:
		return "HDD"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// CostModel gives the virtual-time cost of each operation class on a
// device. Costs are per page of PageSize bytes.
type CostModel struct {
	RandomRead  time.Duration // read of a non-adjacent page
	SeqRead     time.Duration // read of the page following the last access
	RandomWrite time.Duration
	SeqWrite    time.Duration
}

// Stats accumulates I/O accounting for a device. All counters are
// monotonically increasing. Snapshots taken while I/O is in flight are
// internally consistent per counter (each is read atomically) but may
// straddle an operation that has bumped one counter and not yet another;
// quiescent snapshots are exact.
type Stats struct {
	RandomReads  uint64
	SeqReads     uint64
	RandomWrites uint64
	SeqWrites    uint64
	BytesRead    uint64
	BytesWritten uint64
	Elapsed      time.Duration // virtual time charged against this device
}

// Reads returns total page reads of both kinds.
func (s Stats) Reads() uint64 { return s.RandomReads + s.SeqReads }

// Writes returns total page writes of both kinds.
func (s Stats) Writes() uint64 { return s.RandomWrites + s.SeqWrites }

// String formats the stats compactly for harness output.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d(rand=%d,seq=%d) writes=%d elapsed=%v",
		s.Reads(), s.RandomReads, s.SeqReads, s.Writes(), s.Elapsed)
}

// ErrOutOfRange reports access to a page beyond the device size.
var ErrOutOfRange = errors.New("device: page out of range")

// ParallelStripes returns GOMAXPROCS rounded up to a power of two,
// floored at 8 and never exceeding limit (the floor wins should a
// caller pass a limit below 8) — the shared sizing rule for
// parallelism-bound lock tables: the device's page-data stripes here
// and the page-cache shard bound in pagestore. More independent locks
// than runnable goroutines buys nothing, while a big fixed count (the
// old constant 64) wastes footprint on small hosts; the power-of-two
// rounding keeps selection a mask or cheap modulo.
func ParallelStripes(limit int) int {
	n := runtime.GOMAXPROCS(0)
	s := 8
	for s < n && s*2 <= limit {
		s *= 2
	}
	return s
}

// pageStripes is the page-data lock stripe count for a new device.
// Accesses to pages in different stripes proceed fully in parallel;
// the count only bounds how many *writers* can be active at once.
func pageStripes() int {
	return ParallelStripes(1024)
}

// statsCounters is the lock-free backing of Stats.
type statsCounters struct {
	randomReads  atomic.Uint64
	seqReads     atomic.Uint64
	randomWrites atomic.Uint64
	seqWrites    atomic.Uint64
	bytesRead    atomic.Uint64
	bytesWritten atomic.Uint64
	elapsedNanos atomic.Int64
}

func (c *statsCounters) snapshot() Stats {
	return Stats{
		RandomReads:  c.randomReads.Load(),
		SeqReads:     c.seqReads.Load(),
		RandomWrites: c.randomWrites.Load(),
		SeqWrites:    c.seqWrites.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
		Elapsed:      time.Duration(c.elapsedNanos.Load()),
	}
}

func (c *statsCounters) reset() {
	c.randomReads.Store(0)
	c.seqReads.Store(0)
	c.randomWrites.Store(0)
	c.seqWrites.Store(0)
	c.bytesRead.Store(0)
	c.bytesWritten.Store(0)
	c.elapsedNanos.Store(0)
}

// Device is a simulated page-addressable storage device, safe for
// concurrent use. The page directory is a grow-only slice published via
// an atomic pointer (page buffers are stable once allocated), page data
// is guarded by striped RW locks, and all accounting is atomic, so
// concurrent readers never serialize behind a device-wide mutex.
//
// Under concurrency the random/sequential classification of an
// individual access depends on interleaving (the tracker holds the
// globally last-touched page), but the totals reported by Stats —
// Stats.Reads(), Stats.Writes(), bytes — are exact.
type Device struct {
	kind     Kind
	name     string
	pageSize int
	cost     CostModel

	allocMu sync.Mutex               // serializes Allocate
	pages   atomic.Pointer[[][]byte] // grow-only directory; buffers stable
	locks   []sync.RWMutex           // striped page-data locks (pageStripes-sized)

	lastPage atomic.Uint64 // sequential detection; InvalidPage initially
	stats    statsCounters

	realLatency atomic.Int64 // optional real ns slept per I/O op (see SetRealLatency)
}

// New creates a device of the given kind with the default profile for
// that kind (see profiles.go) and a fixed page size in bytes.
func New(kind Kind, pageSize int) *Device {
	return NewWithProfile(Profile{Name: kind.String(), Kind: kind, Cost: DefaultCost(kind)}, pageSize)
}

// NewWithProfile creates a device with an explicit cost profile.
func NewWithProfile(p Profile, pageSize int) *Device {
	if pageSize <= 0 {
		pageSize = 4096
	}
	d := &Device{
		kind:     p.Kind,
		name:     p.Name,
		pageSize: pageSize,
		cost:     p.Cost,
		locks:    make([]sync.RWMutex, pageStripes()),
	}
	empty := make([][]byte, 0)
	d.pages.Store(&empty)
	d.lastPage.Store(uint64(InvalidPage))
	return d
}

// Kind returns the device class.
func (d *Device) Kind() Kind { return d.kind }

// Name returns the profile name.
func (d *Device) Name() string { return d.name }

// PageSize returns the page size in bytes.
func (d *Device) PageSize() int { return d.pageSize }

// NumPages returns the number of allocated pages.
func (d *Device) NumPages() uint64 {
	return uint64(len(*d.pages.Load()))
}

// SetRealLatency makes every subsequent page access block for perOp of
// real (wall-clock) time in addition to the virtual-clock charge. The
// sleep happens outside all locks, modelling a device whose in-flight
// operations overlap: concurrent probers wait in parallel, exactly as
// they would on real storage with queue depth, and one ReadPages call
// waits once per MaxInFlight pages. Zero (the default) disables the
// sleep, keeping tests and experiments instantaneous. The
// concurrent-probe benchmark uses this to measure how probe throughput
// scales with workers even on machines with few cores.
func (d *Device) SetRealLatency(perOp time.Duration) {
	d.realLatency.Store(int64(perOp))
}

func (d *Device) sleepRealLatency() {
	if ns := d.realLatency.Load(); ns > 0 {
		time.Sleep(time.Duration(ns))
	}
}

// stripe returns the data lock guarding page id.
func (d *Device) stripe(id PageID) *sync.RWMutex {
	return &d.locks[uint64(id)%uint64(len(d.locks))]
}

// Allocate appends n zeroed pages and returns the id of the first.
func (d *Device) Allocate(n int) PageID {
	d.allocMu.Lock()
	defer d.allocMu.Unlock()
	old := *d.pages.Load()
	first := PageID(len(old))
	grown := make([][]byte, len(old), len(old)+n)
	copy(grown, old)
	for i := 0; i < n; i++ {
		grown = append(grown, make([]byte, d.pageSize))
	}
	d.pages.Store(&grown)
	return first
}

// chargeRead classifies the access against the sequential tracker and
// bumps the read counters.
func (d *Device) chargeRead(id PageID) (sequential bool) {
	prev := d.lastPage.Swap(uint64(id))
	sequential = prev != uint64(InvalidPage) && uint64(id) == prev+1
	if sequential {
		d.stats.seqReads.Add(1)
		d.stats.elapsedNanos.Add(int64(d.cost.SeqRead))
	} else {
		d.stats.randomReads.Add(1)
		d.stats.elapsedNanos.Add(int64(d.cost.RandomRead))
	}
	d.stats.bytesRead.Add(uint64(d.pageSize))
	return sequential
}

// ReadPage reads page id into buf (which must be at least PageSize long)
// and charges the appropriate cost. It reports whether the access was
// sequential.
func (d *Device) ReadPage(id PageID, buf []byte) (sequential bool, err error) {
	pages := *d.pages.Load()
	if uint64(id) >= uint64(len(pages)) {
		return false, fmt.Errorf("%w: read page %d of %d", ErrOutOfRange, id, len(pages))
	}
	if len(buf) < d.pageSize {
		return false, fmt.Errorf("device: buffer %d smaller than page size %d", len(buf), d.pageSize)
	}
	mu := d.stripe(id)
	mu.RLock()
	copy(buf, pages[id])
	mu.RUnlock()
	sequential = d.chargeRead(id)
	d.sleepRealLatency()
	return sequential, nil
}

// MaxInFlight is the most page reads one ReadPages chunk keeps in
// flight: 32, the native command queue depth of a SATA drive. A longer
// vector is issued in chunks of MaxInFlight pages, each waiting one
// real-latency period, and callers that allocate a buffer per page
// can bound their transient memory to one chunk (128 KiB of 4 KiB
// pages). It is a property of the modelled device, not an option.
const MaxInFlight = 32

// ReadPages reads page ids[i] into bufs[i] for every i. Every id and
// buffer is checked before any page is read, so a rejected vector
// charges nothing. Pages are then copied and charged in slice order,
// exactly as the same sequence of ReadPage calls would be, and the
// caller waits one real-latency period per chunk of MaxInFlight pages
// instead of one per page: the reads of a chunk overlap.
func (d *Device) ReadPages(ids []PageID, bufs [][]byte) error {
	if len(ids) != len(bufs) {
		return fmt.Errorf("device: %d page ids but %d buffers", len(ids), len(bufs))
	}
	pages := *d.pages.Load()
	for i, id := range ids {
		if uint64(id) >= uint64(len(pages)) {
			return fmt.Errorf("%w: read page %d of %d", ErrOutOfRange, id, len(pages))
		}
		if len(bufs[i]) < d.pageSize {
			return fmt.Errorf("device: buffer %d smaller than page size %d", len(bufs[i]), d.pageSize)
		}
	}
	for start := 0; start < len(ids); start += MaxInFlight {
		end := min(start+MaxInFlight, len(ids))
		for i := start; i < end; i++ {
			mu := d.stripe(ids[i])
			mu.RLock()
			copy(bufs[i], pages[ids[i]])
			mu.RUnlock()
			d.chargeRead(ids[i])
		}
		d.sleepRealLatency()
	}
	return nil
}

// WritePage writes buf to page id, charging the appropriate cost. The
// page must already be allocated.
func (d *Device) WritePage(id PageID, buf []byte) error {
	pages := *d.pages.Load()
	if uint64(id) >= uint64(len(pages)) {
		return fmt.Errorf("%w: write page %d of %d", ErrOutOfRange, id, len(pages))
	}
	if len(buf) > d.pageSize {
		return fmt.Errorf("device: payload %d exceeds page size %d", len(buf), d.pageSize)
	}
	mu := d.stripe(id)
	mu.Lock()
	page := pages[id]
	copy(page, buf)
	for i := len(buf); i < d.pageSize; i++ {
		page[i] = 0
	}
	mu.Unlock()
	prev := d.lastPage.Swap(uint64(id))
	if prev != uint64(InvalidPage) && uint64(id) == prev+1 {
		d.stats.seqWrites.Add(1)
		d.stats.elapsedNanos.Add(int64(d.cost.SeqWrite))
	} else {
		d.stats.randomWrites.Add(1)
		d.stats.elapsedNanos.Add(int64(d.cost.RandomWrite))
	}
	d.stats.bytesWritten.Add(uint64(d.pageSize))
	d.sleepRealLatency()
	return nil
}

// Stats returns a snapshot of the accumulated counters.
func (d *Device) Stats() Stats {
	return d.stats.snapshot()
}

// ResetStats zeroes the counters and the sequential-access tracker. Data
// is untouched; experiments call this between the build phase and the
// measured probe phase.
func (d *Device) ResetStats() {
	d.stats.reset()
	d.lastPage.Store(uint64(InvalidPage))
}
