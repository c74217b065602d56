// Package heapfile stores relations as files of fixed-size tuples packed
// into pages, the data layout assumed throughout the paper's evaluation:
// the synthetic relation R (256-byte tuples), the TPCH lineitem table
// (200-byte tuples) and the smart-home dataset are all sequences of
// fixed-size records ordered — or partitioned — on the indexed attribute.
//
// A page holds a 2-byte tuple count followed by packed tuples. Tuples are
// flat byte records whose uint64 attributes live at schema-declared
// offsets (big-endian, so byte order agrees with numeric order).
package heapfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"bftree/internal/device"
	"bftree/internal/pagestore"
)

// ErrSchema reports an invalid schema or a tuple/schema mismatch.
var ErrSchema = errors.New("heapfile: invalid schema")

// ErrUnknownField is the sentinel matched by errors.Is for index builds
// over a field the schema does not declare. The concrete error is an
// *UnknownFieldError carrying the offending name.
var ErrUnknownField = errors.New("bftree: unknown field")

// UnknownFieldError reports an index build over a field the schema does
// not declare. It matches ErrUnknownField under errors.Is.
type UnknownFieldError struct{ Field string }

func (e *UnknownFieldError) Error() string {
	return "bftree: schema has no field named " + e.Field
}

// Is makes errors.Is(err, ErrUnknownField) succeed for this error.
func (e *UnknownFieldError) Is(target error) bool { return target == ErrUnknownField }

// Field is one uint64 attribute of a fixed-size tuple.
type Field struct {
	Name   string
	Offset int // byte offset of the big-endian uint64 within the tuple
}

// Schema describes the fixed-size tuple layout of a relation.
type Schema struct {
	TupleSize int
	Fields    []Field
}

// Validate checks the schema invariants.
func (s Schema) Validate() error {
	if s.TupleSize < 8 {
		return fmt.Errorf("%w: tuple size %d < 8", ErrSchema, s.TupleSize)
	}
	if len(s.Fields) == 0 {
		return fmt.Errorf("%w: no fields", ErrSchema)
	}
	for _, f := range s.Fields {
		if f.Offset < 0 || f.Offset+8 > s.TupleSize {
			return fmt.Errorf("%w: field %q at offset %d does not fit in %d-byte tuple",
				ErrSchema, f.Name, f.Offset, s.TupleSize)
		}
	}
	return nil
}

// FieldIndex returns the index of the named field, or -1.
func (s Schema) FieldIndex(name string) int {
	for i, f := range s.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// Get extracts field fieldIdx from a raw tuple.
func (s Schema) Get(tuple []byte, fieldIdx int) uint64 {
	off := s.Fields[fieldIdx].Offset
	return binary.BigEndian.Uint64(tuple[off : off+8])
}

// Set stores v into field fieldIdx of a raw tuple.
func (s Schema) Set(tuple []byte, fieldIdx int, v uint64) {
	off := s.Fields[fieldIdx].Offset
	binary.BigEndian.PutUint64(tuple[off:off+8], v)
}

const pageHeaderSize = 2 // uint16 tuple count

// File is a heap file of fixed-size tuples on a page store. A File is
// safe for concurrent readers; Extend may run concurrently with readers
// (append workloads under a live writer) because the growing counters
// are atomic — but only one goroutine may Extend at a time.
type File struct {
	store     *pagestore.Store
	schema    Schema
	firstPage device.PageID
	numPages  atomic.Uint64
	numTuples atomic.Uint64
	perPage   int
}

// TuplesPerPage returns how many tuples of the given size fit in a page.
func TuplesPerPage(pageSize, tupleSize int) int {
	return (pageSize - pageHeaderSize) / tupleSize
}

// Builder accumulates tuples and writes them to sequential pages.
type Builder struct {
	store   *pagestore.Store
	schema  Schema
	perPage int

	first     device.PageID
	pages     uint64
	tuples    uint64
	buf       []byte
	inPage    int
	allocated bool
}

// NewBuilder creates a builder for a relation with the given schema on
// store. Build order defines the physical order of the file; callers feed
// tuples in key (or partition) order to produce the ordered files the
// BF-Tree assumes.
func NewBuilder(store *pagestore.Store, schema Schema) (*Builder, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	perPage := TuplesPerPage(store.PageSize(), schema.TupleSize)
	if perPage < 1 {
		return nil, fmt.Errorf("%w: tuple size %d exceeds page capacity %d",
			ErrSchema, schema.TupleSize, store.PageSize()-pageHeaderSize)
	}
	return &Builder{
		store:   store,
		schema:  schema,
		perPage: perPage,
		buf:     make([]byte, store.PageSize()),
	}, nil
}

// Append adds one raw tuple. The tuple must be exactly TupleSize bytes.
func (b *Builder) Append(tuple []byte) error {
	if len(tuple) != b.schema.TupleSize {
		return fmt.Errorf("%w: tuple is %d bytes, schema says %d",
			ErrSchema, len(tuple), b.schema.TupleSize)
	}
	if b.inPage == b.perPage {
		if err := b.flush(); err != nil {
			return err
		}
	}
	copy(b.buf[pageHeaderSize+b.inPage*b.schema.TupleSize:], tuple)
	b.inPage++
	b.tuples++
	return nil
}

func (b *Builder) flush() error {
	if b.inPage == 0 {
		return nil
	}
	binary.BigEndian.PutUint16(b.buf[0:2], uint16(b.inPage))
	id := b.store.Allocate(1)
	if !b.allocated {
		b.first = id
		b.allocated = true
	}
	if err := b.store.WritePage(id, b.buf); err != nil {
		return err
	}
	for i := range b.buf {
		b.buf[i] = 0
	}
	b.inPage = 0
	b.pages++
	return nil
}

// Finish flushes the final partial page and returns the completed file.
func (b *Builder) Finish() (*File, error) {
	if err := b.flush(); err != nil {
		return nil, err
	}
	if !b.allocated {
		return nil, fmt.Errorf("heapfile: empty relation")
	}
	f := &File{
		store:     b.store,
		schema:    b.schema,
		firstPage: b.first,
		perPage:   b.perPage,
	}
	f.numPages.Store(b.pages)
	f.numTuples.Store(b.tuples)
	return f, nil
}

// Open reconstructs a file view over pages already resident on a store
// (e.g. written by an earlier builder in a previous process, or the
// concatenation of several builder runs on the same store). The caller
// supplies the geometry; contents are not validated beyond the schema.
func Open(store *pagestore.Store, schema Schema, firstPage device.PageID, numPages, numTuples uint64) (*File, error) {
	if err := schema.Validate(); err != nil {
		return nil, err
	}
	if numPages == 0 || numTuples == 0 {
		return nil, fmt.Errorf("%w: empty file view", ErrSchema)
	}
	perPage := TuplesPerPage(store.PageSize(), schema.TupleSize)
	if perPage < 1 {
		return nil, fmt.Errorf("%w: tuple size %d exceeds page capacity", ErrSchema, schema.TupleSize)
	}
	f := &File{
		store:     store,
		schema:    schema,
		firstPage: firstPage,
		perPage:   perPage,
	}
	f.numPages.Store(numPages)
	f.numTuples.Store(numTuples)
	return f, nil
}

// Extend grows the file view by pages/tuples written contiguously after
// its current end (append workloads: a later builder on the same store).
// Call it only after the pages are durably written; concurrent probes
// then see either the pre- or post-extension view, both consistent. The
// page count grows first — the pages behind it are already durable by
// contract — so a reader that sees the new tuple count can always reach
// the page a tuple ordinal maps to.
func (f *File) Extend(pages, tuples uint64) {
	f.numPages.Add(pages)
	f.numTuples.Add(tuples)
}

// Schema returns the relation's schema.
func (f *File) Schema() Schema { return f.schema }

// Store returns the page store holding the file.
func (f *File) Store() *pagestore.Store { return f.store }

// FirstPage returns the id of the file's first page; pages are
// contiguous, so the file occupies [FirstPage, FirstPage+NumPages).
func (f *File) FirstPage() device.PageID { return f.firstPage }

// NumPages returns the page count of the file.
func (f *File) NumPages() uint64 { return f.numPages.Load() }

// NumTuples returns the tuple count of the file.
func (f *File) NumTuples() uint64 { return f.numTuples.Load() }

// TuplesPerPage returns the full-page tuple capacity.
func (f *File) TuplesPerPage() int { return f.perPage }

// PageOf maps a zero-based tuple ordinal to the page holding it.
func (f *File) PageOf(ordinal uint64) device.PageID {
	return f.firstPage + device.PageID(ordinal/uint64(f.perPage))
}

// ReadPageTuples reads data page id and returns its packed tuples as
// sub-slices of one page buffer.
func (f *File) ReadPageTuples(id device.PageID) ([][]byte, error) {
	if err := f.checkPage(id); err != nil {
		return nil, err
	}
	buf, err := f.store.ReadPage(id)
	if err != nil {
		return nil, err
	}
	return f.pageTuples(id, buf)
}

// ReadPagesTuples is the vectored ReadPageTuples: it returns the
// tuples of data pages ids, one slice per id in order, fetched through
// one pagestore.Store.ReadPages call so the misses' device reads
// overlap. Every page gets the same file-range and tuple-count checks
// as ReadPageTuples; a page outside the file fails the whole call
// before any device read.
func (f *File) ReadPagesTuples(ids []device.PageID) ([][][]byte, error) {
	for _, id := range ids {
		if err := f.checkPage(id); err != nil {
			return nil, err
		}
	}
	bufs, err := f.store.ReadPages(ids)
	if err != nil {
		return nil, err
	}
	out := make([][][]byte, len(ids))
	for i, buf := range bufs {
		if out[i], err = f.pageTuples(ids[i], buf); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkPage rejects a page id outside the file.
func (f *File) checkPage(id device.PageID) error {
	if np := f.numPages.Load(); id < f.firstPage || id >= f.firstPage+device.PageID(np) {
		return fmt.Errorf("heapfile: page %d outside file [%d,%d)",
			id, f.firstPage, f.firstPage+device.PageID(np))
	}
	return nil
}

// pageTuples splits page id's image into its packed tuples.
func (f *File) pageTuples(id device.PageID, buf []byte) ([][]byte, error) {
	n := int(binary.BigEndian.Uint16(buf[0:2]))
	if n > f.perPage {
		return nil, fmt.Errorf("heapfile: corrupt page %d: count %d > capacity %d", id, n, f.perPage)
	}
	tuples := make([][]byte, n)
	for i := 0; i < n; i++ {
		off := pageHeaderSize + i*f.schema.TupleSize
		tuples[i] = buf[off : off+f.schema.TupleSize]
	}
	return tuples, nil
}

// SearchPage scans data page id for tuples whose field fieldIdx equals
// key and returns them. This is the "search the data page for the desired
// value" step of a BF-Tree probe (Algorithm 1 step 7).
func (f *File) SearchPage(id device.PageID, fieldIdx int, key uint64) ([][]byte, error) {
	tuples, err := f.ReadPageTuples(id)
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for _, tup := range tuples {
		if f.schema.Get(tup, fieldIdx) == key {
			out = append(out, tup)
		}
	}
	return out, nil
}

// Scan iterates every tuple in file order, invoking fn with the page id,
// the slot within the page, and the raw tuple. Iteration stops early if
// fn returns false.
func (f *File) Scan(fn func(id device.PageID, slot int, tuple []byte) bool) error {
	for p := uint64(0); p < f.numPages.Load(); p++ {
		id := f.firstPage + device.PageID(p)
		tuples, err := f.ReadPageTuples(id)
		if err != nil {
			return err
		}
		for slot, tup := range tuples {
			if !fn(id, slot, tup) {
				return nil
			}
		}
	}
	return nil
}

// PageKeyRange reads page id and returns the min and max value of field
// fieldIdx among its tuples. Used by index bulk loaders.
func (f *File) PageKeyRange(id device.PageID, fieldIdx int) (minKey, maxKey uint64, err error) {
	tuples, err := f.ReadPageTuples(id)
	if err != nil {
		return 0, 0, err
	}
	if len(tuples) == 0 {
		return 0, 0, fmt.Errorf("heapfile: empty page %d", id)
	}
	minKey = f.schema.Get(tuples[0], fieldIdx)
	maxKey = minKey
	for _, tup := range tuples[1:] {
		k := f.schema.Get(tup, fieldIdx)
		if k < minKey {
			minKey = k
		}
		if k > maxKey {
			maxKey = k
		}
	}
	return minKey, maxKey, nil
}

// SizeBytes returns the file size in bytes (pages × page size).
func (f *File) SizeBytes() uint64 {
	return f.numPages.Load() * uint64(f.store.PageSize())
}
