// Tests of the module's public surface as an outside caller sees it:
// everything below is built through package index alone — devices,
// stores, relations, indexes and their options — so a name the index
// package fails to export breaks this file.
package bftree_test

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"time"

	"bftree/index"
)

var schema = index.Schema{
	TupleSize: 64,
	Fields:    []index.Field{{Name: "ts", Offset: 0}, {Name: "value", Offset: 8}},
}

func buildRelation(t *testing.T, store *index.Store, n int) *index.File {
	t.Helper()
	b, err := index.NewRelationBuilder(store, schema)
	if err != nil {
		t.Fatal(err)
	}
	tup := make([]byte, 64)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(tup[0:8], uint64(i*3)) // sparse ordered keys
		binary.BigEndian.PutUint64(tup[8:16], uint64(i))
		if err := b.Append(tup); err != nil {
			t.Fatal(err)
		}
	}
	f, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPublicAPIEndToEnd(t *testing.T) {
	dataDev := index.NewDevice(index.HDD, 4096)
	idxDev := index.NewDevice(index.SSD, 4096)
	dataStore := index.NewStore(dataDev, 0)
	idxStore := index.NewStore(idxDev, 0)

	file := buildRelation(t, dataStore, 10000)
	idx, err := index.NewByField("bftree", idxStore, file, "ts", bfOpts(index.BFTreeOptions{FPP: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	if st := idx.Stats(); st.SizeBytes == 0 || st.Height < 1 {
		t.Fatalf("index geometry wrong: %+v", st)
	}

	// Hits.
	for _, k := range []uint64{0, 3, 2997, 29997} {
		res, err := idx.SearchFirst(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			t.Fatalf("key %d: %d tuples", k, len(res.Tuples))
		}
	}
	// Miss (in-domain gap).
	res, err := idx.Search(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tuples) != 0 {
		t.Fatal("gap key matched")
	}
	// Range scan.
	rng, err := idx.RangeScan(30, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(rng.Tuples) != 11 { // keys 30,33,...,60
		t.Fatalf("range returned %d tuples, want 11", len(rng.Tuples))
	}
	// Device accounting is visible through the public API.
	if idxDev.Stats().Reads() == 0 || dataDev.Stats().Reads() == 0 {
		t.Error("device stats should record the probes")
	}
}

func TestUnknownField(t *testing.T) {
	store := index.NewStore(index.NewDevice(index.Memory, 4096), 0)
	file := buildRelation(t, store, 100)
	_, err := index.NewByField("bftree", store, file, "nope", bfOpts(index.BFTreeOptions{FPP: 0.01}))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
	if !errors.Is(err, index.ErrUnknownField) {
		t.Error("errors.Is(err, ErrUnknownField) must match, like the other sentinels")
	}
	if !strings.HasSuffix(err.Error(), " nope") {
		t.Errorf("error %q must name the field", err)
	}
}

func TestCachedStoreFacade(t *testing.T) {
	dev := index.NewDevice(index.HDD, 4096)
	store := index.NewStore(dev, 128)
	file := buildRelation(t, store, 1000)
	idx, err := index.NewByField("bftree", store, file, "ts", bfOpts(index.BFTreeOptions{FPP: 0.01}))
	if err != nil {
		t.Fatal(err)
	}
	// Repeated probes of the same key hit the cache: the second batch
	// must charge fewer device reads than the first. Drop the cache
	// first — the build's write-through already warmed it.
	store.DropCache()
	dev.ResetStats()
	if _, err := idx.SearchFirst(300); err != nil {
		t.Fatal(err)
	}
	cold := dev.Stats().Reads()
	dev.ResetStats()
	if _, err := idx.SearchFirst(300); err != nil {
		t.Fatal(err)
	}
	warm := dev.Stats().Reads()
	if warm >= cold {
		t.Errorf("warm probe read %d pages, cold %d", warm, cold)
	}
}

func TestCountingFilterFacade(t *testing.T) {
	store := index.NewStore(index.NewDevice(index.Memory, 4096), 0)
	file := buildRelation(t, store, 2000)
	idx, err := index.NewByField("bftree", store, file, "ts",
		bfOpts(index.BFTreeOptions{FPP: 0.01, Filter: index.CountingFilter}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := idx.SearchFirst(30)
	if err != nil || len(res.Tuples) != 1 {
		t.Fatal("counting-filter index broken")
	}
}

func TestFacadePersistenceAndBuffer(t *testing.T) {
	idxStore := index.NewStore(index.NewDevice(index.Memory, 4096), 0)
	dataStore := index.NewStore(index.NewDevice(index.Memory, 4096), 0)
	file := buildRelation(t, dataStore, 3000)
	idx, err := index.NewByField("bftree", idxStore, file, "ts", bfOpts(index.BFTreeOptions{FPP: 1e-3}))
	if err != nil {
		t.Fatal(err)
	}
	meta := idx.(index.Persister).MarshalMeta()
	back, err := index.Open("bftree", idxStore, file, meta)
	if err != nil {
		t.Fatal(err)
	}
	res, err := back.SearchFirst(300)
	if err != nil || len(res.Tuples) != 1 {
		t.Fatal("reopened index broken")
	}

	// The update-intensive buffered mode: inserts batch in memory until
	// Flush, and maintenance afterwards keeps every key findable.
	opts := bfOpts(index.BFTreeOptions{FPP: 1e-3})
	opts.BufferedInserts = 16
	buffered, err := index.NewByField("bftree", index.NewStore(index.NewDevice(index.Memory, 4096), 0), file, "ts", opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := buffered.(index.Inserter).Insert(300, index.Ref{Page: file.PageOf(100)}); err != nil {
		t.Fatal(err)
	}
	if err := buffered.(index.Flusher).Flush(); err != nil {
		t.Fatal(err)
	}
	if err := buffered.(index.Maintainer).Maintain(); err != nil {
		t.Fatal(err)
	}
	res, err = buffered.SearchFirst(300)
	if err != nil || len(res.Tuples) != 1 {
		t.Fatal("buffered insert + maintenance broken")
	}
}

// TestFacadeSelfMaintaining drives the self-maintaining mode through
// the public API: an auto-maintained tree compacts on delete drift, the
// stats surface it, and Close drains the maintainer.
func TestFacadeSelfMaintaining(t *testing.T) {
	idxStore := index.NewStore(index.NewDevice(index.Memory, 4096), 0)
	dataStore := index.NewStore(index.NewDevice(index.Memory, 4096), 0)
	file := buildRelation(t, dataStore, 6000)
	idx, err := index.NewByField("bftree", idxStore, file, "ts", bfOpts(index.BFTreeOptions{
		FPP: 1e-2,
		Maintenance: index.MaintenancePolicy{
			Mode:            index.MaintenanceAuto,
			FPPThreshold:    0.05,
			ReclaimInterval: time.Millisecond,
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	m := idx.(index.Maintainer)
	if !m.MaintenanceStats().Running {
		t.Fatal("auto mode did not start the maintainer")
	}
	// Standard-filter deletes accrue Section 7 drift past the threshold.
	del := idx.(index.Deleter)
	for i := 0; i < 400; i++ {
		k := uint64(i * 3)
		if err := del.Delete(k, index.Ref{Page: file.PageOf(uint64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && m.MaintenanceStats().Compactions == 0 {
		time.Sleep(time.Millisecond)
	}
	if st := m.MaintenanceStats(); st.Compactions == 0 {
		t.Fatalf("no auto-compaction through the public API: %+v", st)
	}
	if err := idx.Close(); err != nil {
		t.Fatal(err)
	}
	st := m.MaintenanceStats()
	if st.Running || st.LimboPages != 0 {
		t.Fatalf("Close did not drain the maintainer: %+v", st)
	}
	res, err := idx.SearchFirst(3000)
	if err != nil || len(res.Tuples) != 1 {
		t.Fatal("closed self-maintained index broken")
	}
}

// bfOpts wraps BF-Tree build options for the registry factories.
func bfOpts(o index.BFTreeOptions) index.Options { return index.Options{BFTree: o} }
