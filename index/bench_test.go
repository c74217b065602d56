package index_test

import (
	"encoding/binary"
	"testing"

	"bftree/index"
)

// Micro-benchmarks of the BF-Tree's core operations through the public
// API: real CPU cost per operation, complementary to the harness's
// virtual I/O accounting.

func buildBenchIndex(b *testing.B, n int, fpp float64) (index.Index, *index.File) {
	b.Helper()
	schema := index.Schema{
		TupleSize: 64,
		Fields:    []index.Field{{Name: "k", Offset: 0}},
	}
	builder, err := index.NewRelationBuilder(index.NewStore(index.NewDevice(index.Memory, 4096), 0), schema)
	if err != nil {
		b.Fatal(err)
	}
	tup := make([]byte, 64)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(tup[:8], uint64(i))
		if err := builder.Append(tup); err != nil {
			b.Fatal(err)
		}
	}
	file, err := builder.Finish()
	if err != nil {
		b.Fatal(err)
	}
	ix, err := index.NewByField("bftree", index.NewStore(index.NewDevice(index.Memory, 4096), 0),
		file, "k", index.Options{BFTree: index.BFTreeOptions{FPP: fpp}})
	if err != nil {
		b.Fatal(err)
	}
	return ix, file
}

func BenchmarkBFTreeBulkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buildBenchIndex(b, 100000, 1e-3)
	}
}

func BenchmarkBFTreeSearchHit(b *testing.B) {
	ix, _ := buildBenchIndex(b, 100000, 1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ix.SearchFirst(uint64(i % 100000))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Tuples) != 1 {
			b.Fatal("miss")
		}
	}
}

func BenchmarkBFTreeSearchMiss(b *testing.B) {
	ix, _ := buildBenchIndex(b, 100000, 1e-3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(uint64(200000 + i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFTreeRangeScan1Pct(b *testing.B) {
	ix, _ := buildBenchIndex(b, 100000, 1e-4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := uint64(i%50) * 1000
		if _, err := ix.RangeScan(lo, lo+999); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBFTreeInsert(b *testing.B) {
	ix, file := buildBenchIndex(b, 100000, 1e-3)
	ins := ix.(index.Inserter)
	last := index.Ref{Page: file.PageOf(file.NumTuples() - 1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-inserting tail keys exercises the full descent + filter
		// update path without violating the ordering contract.
		if err := ins.Insert(99999, last); err != nil {
			b.Fatal(err)
		}
	}
}
