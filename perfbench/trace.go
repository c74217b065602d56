package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bftree/index"
	"bftree/internal/server"
	"bftree/internal/workload"
)

// The traced run records spans from the benchmark's own files only: the
// client's op, the HTTP handler around server.Server, and an
// index.Index decorator around the mounted tree. Spans of one op share
// its id; the layer says which is parent of which (client > server >
// index). Spans stay in memory and are reduced when the run ends.

type layer uint8

const (
	layerClient layer = iota
	layerServer
	layerIndex
)

type span struct {
	op    int64
	layer layer
	kind  workload.OpKind
	start int64 // ns since the recorder's epoch
	end   int64
	// busy is the time the layer itself ran inside [start, end]. It
	// equals end-start except for a streamed scan, whose cursor is
	// open while its caller encodes and sends the tuples it pulled.
	busy  int64
	bytes int64  // response bytes, server spans only
	route string // request path, server spans only
}

func (s span) dur() int64 { return s.end - s.start }

type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// reset drops the spans recorded so far (those of set-up and warm-up).
func (r *recorder) reset() {
	r.mu.Lock()
	r.spans = nil
	r.mu.Unlock()
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

var layerNames = [...]string{layerClient: "client", layerServer: "server", layerIndex: "index"}

// write saves every recorded span as one JSON line, gzip-compressed.
func (r *recorder) write(path string) (n int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	r.mu.Lock()
	for _, s := range r.spans {
		name := s.kind.String()
		if s.layer == layerServer {
			name = s.route
		}
		fmt.Fprintf(bw, `{"op":%d,"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d,"busy_ns":%d,"bytes":%d}`+"\n",
			s.op, layerNames[s.layer], name, s.start, s.end, s.busy, s.bytes)
	}
	n = len(r.spans)
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if err := zw.Close(); err != nil {
		return 0, err
	}
	return n, f.Close()
}

// byOp groups the recorded spans by op id.
func (r *recorder) byOp() map[int64][]span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[int64][]span)
	for _, s := range r.spans {
		out[s.op] = append(out[s.op], s)
	}
	return out
}

// selfTime is the parent's duration minus the part of it its children
// cover. Children are clipped to the parent and overlapping children
// count once; a child's own idle time (end-start-busy) is not cover.
func selfTime(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	var idle int64
	for _, c := range children {
		lo, hi := max(c.start, parent.start), min(c.end, parent.end)
		if hi <= lo {
			continue
		}
		ivs = append(ivs, iv{lo, hi})
		idle += min(c.dur()-c.busy, hi-lo)
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var cover, curLo, curHi int64
	for i, v := range ivs {
		switch {
		case i == 0:
			curLo, curHi = v.lo, v.hi
		case v.lo > curHi:
			cover += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		cover += curHi - curLo
	}
	return max(parent.dur()-(cover-idle), 0)
}

// lane is one load-generating connection. Its requests are sequential,
// so the op it is running names every span recorded on it.
type lane struct{ op atomic.Int64 }

// tracedIndex decorates the mounted index with index-layer spans. It
// forwards exactly the capability set of the bftree backend (Scanner,
// MultiSearcher, Inserter, Deleter, Persister, Maintainer, Warmable);
// newTracedIndex refuses an inner index whose set differs, so the
// server discovers the same surface through the decorator.
type tracedIndex struct {
	inner index.Index
	lane  *lane
	rec   *recorder
}

func newTracedIndex(inner index.Index, l *lane, rec *recorder) (*tracedIndex, error) {
	t := &tracedIndex{inner: inner, lane: l, rec: rec}
	if got, want := index.Capabilities(t), index.Capabilities(inner); got != want {
		return nil, fmt.Errorf("traced index changes the capability set: %+v, inner %+v", got, want)
	}
	return t, nil
}

func (t *tracedIndex) record(kind workload.OpKind, start int64) {
	end := t.rec.now()
	t.rec.add(span{op: t.lane.op.Load(), layer: layerIndex, kind: kind, start: start, end: end, busy: end - start})
}

func (t *tracedIndex) Search(key uint64) (*index.Result, error) {
	start := t.rec.now()
	defer t.record(workload.OpSearch, start)
	return t.inner.Search(key)
}

func (t *tracedIndex) SearchFirst(key uint64) (*index.Result, error) {
	start := t.rec.now()
	defer t.record(workload.OpSearch, start)
	return t.inner.SearchFirst(key)
}

func (t *tracedIndex) RangeScan(lo, hi uint64) (*index.Result, error) {
	start := t.rec.now()
	defer t.record(workload.OpRangeScan, start)
	return t.inner.RangeScan(lo, hi)
}

func (t *tracedIndex) MultiSearch(keys []uint64) (*index.Result, error) {
	start := t.rec.now()
	defer t.record(workload.OpMultiSearch, start)
	return t.inner.(index.MultiSearcher).MultiSearch(keys)
}

func (t *tracedIndex) Insert(key uint64, ref index.Ref) error {
	start := t.rec.now()
	defer t.record(workload.OpInsert, start)
	return t.inner.(index.Inserter).Insert(key, ref)
}

func (t *tracedIndex) Delete(key uint64, ref index.Ref) error {
	start := t.rec.now()
	defer t.record(workload.OpDelete, start)
	return t.inner.(index.Deleter).Delete(key, ref)
}

// Scan opens a cursor whose span runs from Scan to Close and whose busy
// time counts only the Scan and Next calls.
func (t *tracedIndex) Scan(lo, hi uint64) (index.Iterator, error) {
	start := t.rec.now()
	it, err := t.inner.(index.Scanner).Scan(lo, hi)
	if err != nil {
		t.record(workload.OpScanLimit, start)
		return nil, err
	}
	return &tracedIter{Iterator: it, t: t, start: start, busy: t.rec.now() - start}, nil
}

func (t *tracedIndex) Stats() index.Stats { return t.inner.Stats() }
func (t *tracedIndex) Close() error       { return t.inner.Close() }
func (t *tracedIndex) MarshalMeta() []byte {
	return t.inner.(index.Persister).MarshalMeta()
}
func (t *tracedIndex) Maintain() error { return t.inner.(index.Maintainer).Maintain() }
func (t *tracedIndex) MaintenanceStats() index.MaintenanceStats {
	return t.inner.(index.Maintainer).MaintenanceStats()
}
func (t *tracedIndex) InternalPages() ([]index.PageID, error) {
	return t.inner.(index.Warmable).InternalPages()
}

type tracedIter struct {
	index.Iterator
	t      *tracedIndex
	start  int64
	busy   int64
	closed bool
}

func (it *tracedIter) Next() bool {
	s := it.t.rec.now()
	ok := it.Iterator.Next()
	it.busy += it.t.rec.now() - s
	return ok
}

func (it *tracedIter) Close() error {
	err := it.Iterator.Close()
	if !it.closed {
		it.closed = true
		end := it.t.rec.now()
		it.t.rec.add(span{op: it.t.lane.op.Load(), layer: layerIndex, kind: workload.OpScanLimit,
			start: it.start, end: end, busy: it.busy})
	}
	return err
}

// newTracedHandler routes /w<i>/... to lane i's server, records one
// server span per request and counts the response bytes. Each lane has
// its own server.Server over its own decorator of the one shared index,
// which is how the decorator knows the lane of the call it records.
func newTracedHandler(servers []*server.Server, lanes []*lane, rec *recorder) http.Handler {
	mux := http.NewServeMux()
	for i, srv := range servers {
		prefix := lanePrefix(i)
		mux.Handle(prefix+"/", http.StripPrefix(prefix, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			start := rec.now()
			cw := &countingWriter{ResponseWriter: w}
			srv.ServeHTTP(cw, r)
			end := rec.now()
			rec.add(span{op: lanes[i].op.Load(), layer: layerServer, start: start, end: end, busy: end - start,
				bytes: cw.n, route: r.URL.Path})
		})))
	}
	return mux
}

func lanePrefix(i int) string { return fmt.Sprintf("/w%d", i) }

// countingWriter counts body bytes and keeps the Flusher the server's
// streamed scans use.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countingWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
