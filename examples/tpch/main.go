// TPCH: the data-warehousing scenario of Section 6.4. The lineitem-like
// table is ordered on shipdate (implicit clustering, Figure 1a); a
// BF-Tree indexes the date at a few pages, and probes at different hit
// rates show the trade-off of Figure 11: misses are nearly free, hits
// pay for the ~2400-tuple date partitions either way.
//
// Run with: go run ./examples/tpch
package main

import (
	"fmt"
	"log"

	"bftree/index"
	"bftree/internal/workload"
)

func main() {
	dataDev := index.NewDevice(index.SSD, 4096)
	tp, err := workload.GenerateTPCH(index.NewStore(dataDev, 0), 480000, 200, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lineitem: %d tuples over %d ship dates (≈%.0f per date), %d pages\n",
		tp.File.NumTuples(), len(tp.DateCards),
		float64(tp.File.NumTuples())/float64(len(tp.DateCards)), tp.File.NumPages())

	idxDev := index.NewDevice(index.SSD, 4096)
	idx, err := index.NewByField("bftree", index.NewStore(idxDev, 0), tp.File, "shipdate",
		index.Options{BFTree: index.BFTreeOptions{FPP: 1e-3}})
	if err != nil {
		log.Fatal(err)
	}
	bp, err := index.NewByField("bptree", index.NewStore(index.NewDevice(index.SSD, 4096), 0),
		tp.File, "shipdate", index.Options{DedupKeys: true})
	if err != nil {
		log.Fatal(err)
	}
	bfStats := idx.Stats()
	fmt.Printf("index: BF-Tree %d pages (height %d) vs B+-Tree %d pages\n",
		bfStats.Pages, bfStats.Height, bp.Stats().Pages)

	// A reporting query: all lineitems shipped on one date.
	probeDate := tp.MinDate + (tp.MaxDate-tp.MinDate)/2
	res, err := idx.Search(probeDate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shipdate=%d → %d lineitems from %d data pages (%d false)\n",
		probeDate, len(res.Tuples), res.Stats.DataPagesRead, res.Stats.FalseReads)

	// Miss probes (dates beyond the horizon) are answered from the index
	// alone — the BF-Tree's strength at low hit rates (Figure 11).
	idxDev.ResetStats()
	dataDev.ResetStats()
	for i := uint64(1); i <= 100; i++ {
		if _, err := idx.Search(tp.MaxDate + 10 + i); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("100 miss probes: %d data page reads, index time %v\n",
		dataDev.Stats().Reads(), idxDev.Stats().Elapsed)

	// Quarter report: a 90-day range scan.
	q, err := idx.RangeScan(probeDate, probeDate+89)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("90-day scan → %d lineitems from %d data pages\n",
		len(q.Tuples), q.Stats.DataPagesRead)
}
