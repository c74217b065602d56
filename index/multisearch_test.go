package index_test

import (
	"testing"
	"time"

	"bftree/index"
)

// TestMultiSearchOverlapsDataReads runs one batch whose keys lie on
// distinct data pages against every backend while the data device
// sleeps 2ms per page access. Every backend must answer exactly the
// union of its own per-key Searches. The backends that know their
// batch's data pages up front fetch those pages with overlapped
// vectored reads, so the batch must finish in under half the time the
// same page reads take one by one. Two layouts read serially by
// design and are exempt from the timing bound: the deduplicated exact
// trees, whose ordered scans find each next page from the last, and
// the buffered BF-Tree, whose batch is per-key buffered searches.
func TestMultiSearchOverlapsDataReads(t *testing.T) {
	const (
		n   = 6000 // 2000 keys, 21 per data page
		lat = 2 * time.Millisecond
	)
	file, store := goldenRelation(t, n)
	// 16 keys 250 apart (50 keys, over two pages): no two share a page.
	var batch []uint64
	for k := uint64(0); len(batch) < 16; k += 250 {
		batch = append(batch, k)
	}

	serialByDesign := map[string]bool{"bftree-buffered": true, "bptree-dedup": true, "fdtree-dedup": true}
	for _, v := range scanVariants() {
		t.Run(v.name, func(t *testing.T) {
			ix := buildVariant(t, v, file)
			defer ix.Close()
			store.Device().SetRealLatency(lat)
			defer store.Device().SetRealLatency(0)

			var want [][]byte
			for _, k := range batch {
				single, err := ix.Search(k)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, single.Tuples...)
			}
			start := time.Now()
			res, err := ix.(index.MultiSearcher).MultiSearch(batch)
			took := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if !sameTuples(res.Tuples, want) {
				t.Fatalf("MultiSearch: %d tuples, per-key Search union has %d", len(res.Tuples), len(want))
			}
			if res.Stats.DataPagesRead < 12 {
				t.Fatalf("batch read %d data pages; the test needs at least 12", res.Stats.DataPagesRead)
			}
			if serialByDesign[v.name] {
				return
			}
			serial := time.Duration(res.Stats.DataPagesRead) * lat
			if took >= serial/2 {
				t.Errorf("MultiSearch over %d data pages took %v; serial reads sleep %v",
					res.Stats.DataPagesRead, took, serial)
			}
		})
	}
}
