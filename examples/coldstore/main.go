// Coldstore: the cold-storage scenario of Section 1.1 — immutable
// time-ordered archives on cheap dense media (Facebook-style cold flash
// or shingled disks), where the index must be small enough to keep in a
// tight memory budget. This example sweeps the fpp knob to show the
// capacity/accuracy dial of Section 4: for a fixed archive, how small
// can the index get before probes degrade?
//
// Run with: go run ./examples/coldstore
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"bftree/index"
)

func main() {
	// A 128 MB archive of 512-byte records keyed by record time.
	schema := index.Schema{
		TupleSize: 512,
		Fields: []index.Field{
			{Name: "archived_at", Offset: 0},
			{Name: "object_id", Offset: 8},
		},
	}
	dataDev := index.NewDevice(index.HDD, 4096)
	builder, err := index.NewRelationBuilder(index.NewStore(dataDev, 0), schema)
	if err != nil {
		log.Fatal(err)
	}
	tuple := make([]byte, schema.TupleSize)
	const n = 262144
	ts := uint64(1_700_000_000)
	for i := uint64(0); i < n; i++ {
		if i%3 == 0 {
			ts += 1 + i%5 // bursts: several objects per second, then gaps
		}
		binary.BigEndian.PutUint64(tuple[0:8], ts)
		binary.BigEndian.PutUint64(tuple[8:16], i)
		if err := builder.Append(tuple); err != nil {
			log.Fatal(err)
		}
	}
	file, err := builder.Finish()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archive: %d records, %.0f MB on cold HDD\n",
		file.NumTuples(), float64(file.SizeBytes())/(1<<20))
	fmt.Printf("%-10s %-12s %-12s %-16s %-14s\n",
		"fpp", "index-KB", "%of-data", "false-reads/probe", "avg-probe-time")

	lastTS := ts
	for _, fpp := range []float64{0.2, 0.01, 1e-4, 1e-8} {
		idxDev := index.NewDevice(index.Memory, 4096) // index pinned in memory
		idx, err := index.NewByField("bftree", index.NewStore(idxDev, 0), file, "archived_at",
			index.Options{BFTree: index.BFTreeOptions{FPP: fpp}})
		if err != nil {
			log.Fatal(err)
		}
		dataDev.ResetStats()
		idxDev.ResetStats()
		const probes = 400
		falseReads := 0
		for i := 0; i < probes; i++ {
			key := 1_700_000_000 + uint64(i)*(lastTS-1_700_000_000)/probes
			res, err := idx.Search(key)
			if err != nil {
				log.Fatal(err)
			}
			falseReads += res.Stats.FalseReads
		}
		avg := (dataDev.Stats().Elapsed + idxDev.Stats().Elapsed) / probes
		size := idx.Stats().SizeBytes
		fmt.Printf("%-10.0e %-12.0f %-12.4f %-16.2f %-14v\n",
			fpp, float64(size)/1024,
			100*float64(size)/float64(file.SizeBytes()),
			float64(falseReads)/probes, avg)
	}
	fmt.Println("\nreading the dial: each 10^-2 of fpp costs ~2x index size and buys ~100x fewer false reads;")
	fmt.Println("for an archive probed rarely, fpp=0.01 keeps the whole index smaller than one data extent.")
}
