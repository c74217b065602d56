// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each benchmark runs
// the corresponding harness experiment at a reduced scale; run
// cmd/bfbench with -scale paper for full-size numbers. Reported ns/op is
// wall time of the whole experiment (dataset generation + index builds +
// probe batches), not a per-probe figure — per-probe virtual I/O times
// are in the experiment output itself.
package bench

import "testing"

func runExperiment(b *testing.B, name string) { runExperimentAt(b, name, tinyScale()) }

func runExperimentAt(b *testing.B, name string, s Scale) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tbl, err := Run(name, s)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", name)
		}
	}
}

// Figures and tables, one benchmark each.

func BenchmarkFig1aImplicitClusteringTPCH(b *testing.B) { runExperiment(b, "fig1a") }
func BenchmarkFig1bImplicitClusteringSHD(b *testing.B)  { runExperiment(b, "fig1b") }
func BenchmarkFig2StorageTradeoff(b *testing.B)         { runExperiment(b, "fig2") }
func BenchmarkFig4aAnalyticalCost(b *testing.B)         { runExperiment(b, "fig4a") }
func BenchmarkFig4bAnalyticalSize(b *testing.B)         { runExperiment(b, "fig4b") }
func BenchmarkTable2IndexSizes(b *testing.B)            { runExperiment(b, "table2") }
func BenchmarkTable3FalseReads(b *testing.B)            { runExperiment(b, "table3") }
func BenchmarkFig5aPKBFTree(b *testing.B)               { runExperiment(b, "fig5a") }
func BenchmarkFig5bPKBaselines(b *testing.B)            { runExperiment(b, "fig5b") }
func BenchmarkFig6BreakEvenPK(b *testing.B)             { runExperiment(b, "fig6") }
func BenchmarkFig7WarmCachePK(b *testing.B)             { runExperiment(b, "fig7") }
func BenchmarkFig8aATT1BFTree(b *testing.B)             { runExperiment(b, "fig8a") }
func BenchmarkFig8bATT1Baselines(b *testing.B)          { runExperiment(b, "fig8b") }
func BenchmarkFig9BreakEvenATT1(b *testing.B)           { runExperiment(b, "fig9") }
func BenchmarkFig10WarmCacheATT1(b *testing.B)          { runExperiment(b, "fig10") }
func BenchmarkFig11TPCHHitRate(b *testing.B)            { runExperiment(b, "fig11") }
func BenchmarkFig12aSHDCold(b *testing.B)               { runExperiment(b, "fig12a") }
func BenchmarkFig12bSHDWarm(b *testing.B)               { runExperiment(b, "fig12b") }
func BenchmarkFig13RangeScan(b *testing.B)              { runExperiment(b, "fig13") }
func BenchmarkFig14InsertDrift(b *testing.B)            { runExperiment(b, "fig14") }

// Concurrent probe engine: throughput and tail latency at 1..16 workers
// with real per-access device latency (see concurrent.go).

func BenchmarkConcurrentProbe(b *testing.B) { runExperiment(b, "concurrent-probe") }

// Mixed read/write: reader throughput at 1..8 workers while one writer
// streams inserts through the copy-on-write structural path (see
// mixedrw.go).

func BenchmarkMixedRW(b *testing.B) { runExperiment(b, "mixed-rw") }

// Multi-writer: aggregate in-place insert throughput at 1..8 writer
// goroutines over disjoint vs contended leaves, demonstrating leaf-level
// write latching (see multiwriter.go).

func BenchmarkMultiWriter(b *testing.B) { runExperiment(b, "multi-writer") }

// Churn: sustained insert+delete load on a self-maintaining tree —
// background limbo reclamation plus drift-triggered compaction holding
// the Equation 14 fpp under the configured threshold (see
// churn.go).

func BenchmarkChurn(b *testing.B) { runExperiment(b, "churn") }

// Streaming scans and batched probes: the pull-based Scanner cursor at
// LIMIT 1/10/100 vs the materialized RangeScan, and MultiSearch across
// batch sizes (see scanstream.go and batchedprobe.go;
// DESIGN.md section 6).

func BenchmarkScanStream(b *testing.B)   { runExperiment(b, "scan-stream") }
func BenchmarkBatchedProbe(b *testing.B) { runExperiment(b, "batched-probe") }

// Serving layer: the OLTP preset over real loopback HTTP connections
// against a served bftree, swept across connection counts (see
// serveload.go and DESIGN.md section 9). Reported ns/op
// is the whole sweep including server start/stop per backend.

func BenchmarkServeLoad(b *testing.B) {
	s := tinyScale()
	s.Index = "bftree"
	runExperimentAt(b, "serve-load", s)
}

// Ablations (DESIGN.md section 4).

func BenchmarkAblationBFGranularity(b *testing.B)   { runExperiment(b, "ablation-granularity") }
func BenchmarkAblationHashCount(b *testing.B)       { runExperiment(b, "ablation-hashes") }
func BenchmarkAblationParallelProbe(b *testing.B)   { runExperiment(b, "ablation-parallel") }
func BenchmarkAblationDeletes(b *testing.B)         { runExperiment(b, "ablation-deletes") }
func BenchmarkAblationBufferedInserts(b *testing.B) { runExperiment(b, "ablation-buffer") }
