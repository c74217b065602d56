// Monitoring: the smart-home scenario that motivates the paper
// (Figure 1b, Section 6.5). A stream of timestamped sensor readings with
// highly variable per-timestamp cardinality is stored in timestamp
// order; a BF-Tree indexes the timestamp at a fraction of a B+-Tree's
// size, and dashboard-style point and window queries run against it.
//
// Run with: go run ./examples/monitoring
package main

import (
	"fmt"
	"log"
	"maps"
	"slices"

	"bftree/index"
	"bftree/internal/workload"
)

func main() {
	// Readings land on an HDD cold-storage tier; the index fits on SSD.
	dataDev := index.NewDevice(index.HDD, 4096)
	dataStore := index.NewStore(dataDev, 0)
	shd, err := workload.GenerateSHD(dataStore, 300000, 2024)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("smart-home dataset: %d readings over %d timestamps (cardinality mean %.0f, max %d)\n",
		shd.File.NumTuples(), len(shd.Cards), shd.MeanCard, shd.MaxCard)

	idxDev := index.NewDevice(index.SSD, 4096)
	idx, err := index.NewByField("bftree", index.NewStore(idxDev, 0), shd.File, "timestamp",
		index.Options{BFTree: index.BFTreeOptions{FPP: 1e-3}})
	if err != nil {
		log.Fatal(err)
	}

	// The B+-Tree alternative, for the size comparison the paper makes:
	// one entry per distinct timestamp, the paper's baseline layout for
	// an ordered non-unique attribute.
	bp, err := index.NewByField("bptree", index.NewStore(index.NewDevice(index.SSD, 4096), 0),
		shd.File, "timestamp", index.Options{DedupKeys: true})
	if err != nil {
		log.Fatal(err)
	}
	bfPages, bpPages := idx.Stats().Pages, bp.Stats().Pages
	fmt.Printf("index footprint: BF-Tree %d pages vs B+-Tree %d pages (%.1fx smaller)\n",
		bfPages, bpPages, float64(bpPages)/float64(bfPages))

	// Point query: "what happened at this exact second?" — the median
	// timestamp, so every run probes the same one.
	stamps := slices.Sorted(maps.Keys(shd.Cards))
	probe := stamps[len(stamps)/2]
	res, err := idx.Search(probe)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("point query ts=%d → %d readings (%d data pages, %d false)\n",
		probe, len(res.Tuples), res.Stats.DataPagesRead, res.Stats.FalseReads)

	// Window query: "give me the five-minute window around it". The
	// scan reads the partitions inside the window whole and, at its two
	// boundaries, probes the Bloom filters per key to read only the
	// flagged pages (Section 7).
	lo, hi := probe-150, probe+150
	win, err := idx.RangeScan(lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("window [%d,%d] → %d readings from %d data pages\n",
		lo, hi, len(win.Tuples), win.Stats.DataPagesRead)

	// Aggregate over the window: per-client max aggregate energy.
	maxEnergy := make(map[uint64]uint64)
	for _, tup := range win.Tuples {
		client := workload.SHDSchema.Get(tup, 1)
		energy := workload.SHDSchema.Get(tup, 2)
		if energy > maxEnergy[client] {
			maxEnergy[client] = energy
		}
	}
	fmt.Printf("window covers %d distinct clients\n", len(maxEnergy))
	fmt.Printf("device time: index(SSD) %v, data(HDD) %v\n",
		idxDev.Stats().Elapsed, dataDev.Stats().Elapsed)
}
