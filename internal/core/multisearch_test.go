package core

import (
	"bytes"
	"testing"
	"time"

	"bftree/internal/device"
	"bftree/internal/pagestore"
)

// TestMultiSearchOverlapsReads runs a batch over a three-level tree
// while both the index and the data device sleep 2ms per page access.
// The level-synchronous descent and the vectored data fetch must cut
// the batch to under half the time its page reads take one by one, and
// the answer must equal the per-key Searches' tuples in the same order.
func TestMultiSearchOverlapsReads(t *testing.T) {
	const (
		n   = 20000 // unique keys, 63 per data page
		lat = 2 * time.Millisecond
	)
	f, data := buildInitialFile(t, n)
	idx := pagestore.New(device.New(device.Memory, 512))
	tr, err := BulkLoad(idx, f, 0, Options{FPP: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if tr.Height() < 3 {
		t.Fatalf("tree height %d; the test needs internal levels to overlap", tr.Height())
	}

	// 16 keys 1201 apart: distinct data pages and distinct leaves.
	var batch []uint64
	for k := uint64(7); len(batch) < 16; k += 1201 {
		batch = append(batch, k)
	}
	idx.Device().SetRealLatency(lat)
	data.Device().SetRealLatency(lat)

	var want [][]byte
	for _, k := range batch {
		single, err := tr.Search(k)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, single.Tuples...)
	}
	start := time.Now()
	res, err := tr.MultiSearch(batch)
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}

	if len(res.Tuples) != len(want) {
		t.Fatalf("MultiSearch: %d tuples, per-key Searches %d", len(res.Tuples), len(want))
	}
	for i := range want {
		if !bytes.Equal(res.Tuples[i], want[i]) {
			t.Fatalf("tuple %d differs from the per-key Searches' answer", i)
		}
	}
	if res.Stats.DataPagesRead < 12 {
		t.Fatalf("batch read %d data pages; the test needs at least 12", res.Stats.DataPagesRead)
	}
	serial := time.Duration(res.Stats.IndexReads+res.Stats.DataPagesRead) * lat
	if took >= serial/2 {
		t.Errorf("MultiSearch (%d index + %d data pages) took %v; serial reads sleep %v",
			res.Stats.IndexReads, res.Stats.DataPagesRead, took, serial)
	}
}
