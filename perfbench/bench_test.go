package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/pagestore"
	"bftree/internal/server"
	"bftree/internal/server/loadgen"
	"bftree/internal/workload"
)

func TestPercentileRuleLeavesTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantQ float64
	}{
		{n: 100000, wantQ: 0.99},
		{n: 1000, wantQ: 0.99},
		{n: 999, wantQ: 989.0 / 999},
		{n: 500, wantQ: 0.98},
		{n: 50, wantQ: 0.8},
		{n: 15, wantQ: 8.0 / 15}, // floored at the median
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(tc.n - i) // unsorted on purpose
		}
		v, q := newDist(xs).tail(0.99)
		if q != tc.wantQ {
			t.Errorf("n=%d: reported quantile %v, want %v", tc.n, q, tc.wantQ)
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if tc.n >= 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: %d samples beyond the reported p%.4g, want at least %d", tc.n, beyond, 100*q, minBeyond)
		}
	}
}

// The clock that times in-process ops counts only the time the thread
// ran: a thread that is off the CPU, here asleep, is not charged.
func TestThreadCPUClockCountsOnlyRunTime(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	time.Sleep(50 * time.Millisecond)
	if d := threadCPU() - c0; d > 10*time.Millisecond {
		t.Errorf("asleep 50ms, charged %v of CPU", d)
	}
	c0 = threadCPU()
	for t0 := time.Now(); time.Since(t0) < 20*time.Millisecond; {
	}
	if d := threadCPU() - c0; d <= 0 {
		t.Errorf("busy 20ms, charged %v of CPU", d)
	}
}

// An open loop's p50 is the median of its per-second medians, so a
// burst of slow ops confined to a minority of seconds leaves it alone.
func TestChunkMediansResistAMinorityBurst(t *testing.T) {
	var lat []time.Duration
	for s := 0; s < 5; s++ {
		for i := 0; i < 10; i++ {
			d := time.Duration(s+1) * time.Millisecond
			if s == 1 || s == 2 {
				d = time.Second // two of five seconds stalled
			}
			lat = append(lat, d)
		}
	}
	lat = append(lat, time.Hour) // a partial last second is dropped
	got := chunkMedians(lat, 10, time.Millisecond)
	if want := (dist{1, 4, 5, 1000, 1000}); len(got) != len(want) || got.median() != 5 {
		t.Errorf("chunk medians %v, median %v; want %v, median 5", got, got.median(), want)
	}
	if got := chunkMedians(lat[:3], 10, time.Millisecond); len(got) != 1 || got[0] != 1 {
		t.Errorf("one short group: %v, want [1]", got)
	}
}

// A target that stalls for one second must inflate the latency of every
// op that was due during the stall, not only the op that stalled: the
// open loop times ops from their due time, not from when a worker got
// round to sending them.
func TestOpenLoopTimesOpsFromTheirDueTime(t *testing.T) {
	const (
		rate    = 100.0
		n       = 200
		stalled = 50
		stall   = time.Second
	)
	var mu sync.Mutex // held through the stall, like a writer lock
	var stallEnd time.Time
	times := openLoop(n, rate, 2, func(_, i int) time.Time {
		mu.Lock()
		defer mu.Unlock()
		if i == stalled {
			time.Sleep(stall)
			stallEnd = time.Now()
		}
		return time.Now()
	})
	if got := times[stalled].latency(); got < stall {
		t.Fatalf("stalled op latency %v, want >= %v", got, stall)
	}
	inflated := 0
	for i := stalled + 1; i < n; i++ {
		tm := times[i]
		if !tm.due.Before(stallEnd) {
			continue
		}
		inflated++
		if want := stallEnd.Sub(tm.due); tm.latency() < want {
			t.Errorf("op %d due %v before the stall ended: latency %v, want >= %v",
				i, stallEnd.Sub(tm.due), tm.latency(), want)
		}
	}
	if inflated < 90 {
		t.Fatalf("only %d ops were due during the stall, want about %d", inflated, int(rate*stall.Seconds()))
	}
	// Most of them were sent only after the stall, so send-time latency
	// would have hidden the stall from them.
	if hidden := times[stalled+10].end.Sub(times[stalled+10].sent); hidden > stall/2 {
		t.Errorf("op %d send-to-end %v: expected it to be sent after the stall", stalled+10, hidden)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	parent := span{start: 0, end: 100, busy: 100}
	child := func(start, end, busy int64) span { return span{start: start, end: end, busy: busy} }
	for _, tc := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{child(10, 40, 30)}, 70},
		{"disjoint children", []span{child(10, 20, 10), child(50, 80, 30)}, 60},
		{"overlapping children count once", []span{child(10, 50, 40), child(30, 60, 30)}, 50},
		{"child clipped to the parent", []span{child(-20, 30, 50), child(90, 150, 60)}, 60},
		{"child outside the parent", []span{child(120, 150, 30)}, 100},
		{"idle child covers only its busy time", []span{child(10, 90, 30)}, 70},
	} {
		if got := selfTime(parent, tc.children); got != tc.want {
			t.Errorf("%s: self %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestCheckScan(t *testing.T) {
	tuple := func(k uint64) []byte {
		b := make([]byte, workload.SyntheticSchema.TupleSize)
		workload.SyntheticSchema.Set(b, 0, k)
		return b
	}
	tuples := func(keys ...uint64) [][]byte {
		var out [][]byte
		for _, k := range keys {
			out = append(out, tuple(k))
		}
		return out
	}
	del := newDeletedSet()
	del.add(12)
	for _, tc := range []struct {
		name   string
		lo, hi uint64
		limit  int
		got    [][]byte
		ok     bool
	}{
		{"full range", 10, 13, 0, tuples(10, 11, 12, 13), true},
		{"deleted key may be missing", 10, 13, 0, tuples(10, 11, 13), true},
		{"live key missing", 10, 13, 0, tuples(10, 12, 13), false},
		{"out of range", 10, 13, 0, tuples(10, 11, 13, 14), false},
		{"duplicate", 10, 13, 0, tuples(10, 11, 11, 13), false},
		{"out of order", 10, 13, 0, tuples(13, 10, 11), false},
		{"limit exactly k", 10, 20, 3, tuples(10, 11, 13), true},
		{"limit out of order", 10, 20, 3, tuples(11, 10, 13), false},
		{"limit skips a smaller live key", 10, 20, 3, tuples(10, 13, 14), false},
		{"limit short", 10, 20, 3, tuples(10, 11), false},
		{"limit over", 10, 20, 3, tuples(10, 11, 13, 14), false},
		{"limit short of live matches only", 10, 13, 4, tuples(10, 11, 13), true},
		{"limit above matches", 10, 11, 5, tuples(10, 11), true},
	} {
		if err := checkScan(tc.lo, tc.hi, tc.limit, tc.got, del); (err == nil) != tc.ok {
			t.Errorf("%s: err %v, want ok %v", tc.name, err, tc.ok)
		}
	}
}

// newTestIndex builds a small served-style BF-tree.
func newTestIndex(t *testing.T, tuples uint64) index.Index {
	t.Helper()
	syn, err := workload.GenerateSynthetic(pagestore.New(device.New(device.Memory, pageSize)), tuples, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.New("bftree", pagestore.New(device.New(device.Memory, pageSize)), syn.File, 0,
		index.Options{BFTree: core.Options{FPP: designFPP}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ix.Close() })
	return ix
}

// serve mounts h on a loopback listener until the test ends.
func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() { hs.Serve(ln); close(done) }()
	t.Cleanup(func() { hs.Close(); <-done })
	return "http://" + ln.Addr().String()
}

// A served LIMIT-10 op must read the same data pages as the in-process
// one: the server stops its cursor after k tuples.
func TestServedLimitReadsSamePagesAsInProcess(t *testing.T) {
	ix := newTestIndex(t, 20000)
	c, err := loadgen.Dial(serve(t, server.New(ix, server.Options{})), loadgen.Options{Connections: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, lo := range []uint64{0, 997, 5003, 19990} {
		hi := lo + 78
		it, err := ix.(index.Scanner).Scan(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for n < 10 && it.Next() {
			n++
		}
		local := it.Stats()
		it.Close()

		rit, err := c.ScanLimit(lo, hi, 10)
		if err != nil {
			t.Fatal(err)
		}
		res, err := index.Drain(rit)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != n || res.Stats.DataPagesRead != local.DataPagesRead {
			t.Errorf("[%d,%d] LIMIT 10: served %d tuples from %d data pages, in-process %d from %d",
				lo, hi, len(res.Tuples), res.Stats.DataPagesRead, n, local.DataPagesRead)
		}
	}
}

// The decorator must not change what the server discovers, and its
// spans must nest client > server > index under one op id.
func TestTracedMountKeepsCapabilitiesAndNestsSpans(t *testing.T) {
	ix := newTestIndex(t, 5000)
	rec := newRecorder()
	l := &lane{}
	ti, err := newTracedIndex(ix, l, rec)
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(ti, server.Options{})
	if got, want := srv.Caps(), index.Capabilities(ix); got != want {
		t.Fatalf("server discovers %+v through the decorator, %+v without", got, want)
	}
	base := serve(t, newTracedHandler([]*server.Server{srv}, []*lane{l}, rec))
	c, err := loadgen.Dial(base+lanePrefix(0), loadgen.Options{Connections: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := &mount{rec: rec, lanes: []*lane{l}, clients: []*loadgen.Client{c}}
	if o, _ := m.exec(0, 7, workload.Op{Kind: workload.OpSearch, Key: 42}, newDeletedSet()); o.err != nil {
		t.Fatal(o.err)
	}
	spans := rec.byOp()[7]
	if len(spans) != 3 {
		t.Fatalf("op 7 has %d spans, want client, server and index: %+v", len(spans), spans)
	}
	byLayer := map[layer]span{}
	for _, s := range spans {
		byLayer[s.layer] = s
	}
	c0, s0, i0 := byLayer[layerClient], byLayer[layerServer], byLayer[layerIndex]
	if !(c0.start <= s0.start && s0.start <= i0.start && i0.end <= s0.end && s0.end <= c0.end) {
		t.Errorf("spans do not nest: client %+v server %+v index %+v", c0, s0, i0)
	}

	path := filepath.Join(t.TempDir(), "spans.jsonl.gz")
	if _, err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]int{}
	for sc := bufio.NewScanner(zr); sc.Scan(); {
		var s struct {
			Op    int64
			Layer string
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		if s.Op == 7 {
			layers[s.Layer]++
		}
	}
	if layers["client"] != 1 || layers["server"] != 1 || layers["index"] != 1 {
		t.Errorf("written spans of op 7 by layer: %v", layers)
	}
}

// Every gated or per-layer metric the command prints is declared in
// BENCHMARK.json with the same unit and direction, and vice versa; so
// is every workload that has no known defect, with the same why.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	type def struct{ unit, better string }
	compare := func(kind string, code []metricDef, declared []struct{ Name, Unit, Better string }) {
		want := map[string]def{}
		for _, d := range code {
			if !d.reportOnly {
				want[d.name] = def{d.unit, d.better}
			}
		}
		got := map[string]def{}
		for _, d := range declared {
			got[d.Name] = def{d.Unit, d.Better}
		}
		for n, d := range want {
			if got[n] != d {
				t.Errorf("%s %s: BENCHMARK.json has %+v, the command prints %+v", kind, n, got[n], d)
			}
		}
		for n := range got {
			if _, ok := want[n]; !ok {
				t.Errorf("%s %s is in BENCHMARK.json but the command does not print it", kind, n)
			}
		}
	}
	compare("end_to_end", endToEndMetrics, bj.EndToEnd)
	compare("per_layer", perLayerMetrics, bj.PerLayer)
	declared := map[string]bool{}
	for _, w := range bj.Workloads {
		declared[w.Name] = true
		spec, ok := workloads[w.Name]
		switch {
		case !ok || spec.why != w.Why:
			t.Errorf("workload %s: BENCHMARK.json why differs from the command's", w.Name)
		case spec.defect != "":
			t.Errorf("workload %s is in BENCHMARK.json but fails on a known defect", w.Name)
		}
	}
	for name, spec := range workloads {
		if spec.defect == "" && !declared[name] {
			t.Errorf("workload %s is missing from BENCHMARK.json", name)
		}
	}
}
