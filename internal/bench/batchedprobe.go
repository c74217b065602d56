package bench

import (
	"fmt"
	"time"

	"bftree/index"
	"bftree/internal/device"
)

// BatchSizes is the batch sweep of the batched-probe experiment.
var BatchSizes = []int{1, 8, 64, 512}

// BatchedProbeResult is one (backend, batch size) cell: per-key cost of
// answering the PK probe set through MultiSearch at that batch size.
type BatchedProbeResult struct {
	Backend string
	Batch   int
	Keys    int
	// IndexReadsPerKey and DataReadsPerKey are the ProbeStats page
	// charges divided by the keys answered — the sharing the batch API
	// buys shows up as IndexReadsPerKey falling with the batch size.
	IndexReadsPerKey float64
	DataReadsPerKey  float64
	Throughput       float64 // keys per virtual second
	P50, P99         time.Duration
}

// batchedProbeBackends resolves which backends the experiment walks: a
// concrete -index selection runs alone; the default and "each" walk the
// whole registry, since the experiment is a comparison.
func batchedProbeBackends(scale Scale) []string {
	if scale.Index != "" && scale.Index != "each" {
		return []string{scale.Index}
	}
	return index.Backends()
}

// BatchedProbeSweep builds each backend's PK index on the SSD/SSD
// configuration and answers the same probe keys through MultiSearch at
// each batch size. Batching lets adjacent keys share leaf descents and
// dedup data-page reads, so index reads per key fall as the batch
// grows; batch 1 is the degenerate case costing a full descent per key.
func BatchedProbeSweep(scale Scale, backends []string, batches []int) ([]*BatchedProbeResult, error) {
	cfg := StorageConfig{Name: "SSD/SSD", Index: device.SSD, Data: device.SSD}
	var out []*BatchedProbeResult
	for _, backend := range backends {
		env, syn, err := syntheticEnv(cfg, scale, 0)
		if err != nil {
			return nil, err
		}
		ix, err := BuildIndex(backend, env, syn.File, 0, pointOpts(0, 1e-3))
		if err != nil {
			return nil, err
		}
		m, ok := ix.(index.MultiSearcher)
		if !ok {
			ix.Close()
			return nil, fmt.Errorf("bench: backend %q does not implement MultiSearcher", backend)
		}
		keys, err := pkProbes(syn, scale)
		if err != nil {
			ix.Close()
			return nil, err
		}
		for _, b := range batches {
			// Small probe budgets clamp the batch to what's available.
			step := b
			if step > len(keys) {
				step = len(keys)
			}
			total := len(keys) - len(keys)%step
			env.ResetIO()
			var idxReads, dataReads uint64
			var elapsedTotal time.Duration
			lats := make([]time.Duration, 0, total)
			for at := 0; at+step <= total; at += step {
				e0 := env.Elapsed()
				res, err := m.MultiSearch(keys[at : at+step])
				if err != nil {
					ix.Close()
					return nil, err
				}
				lat := env.Elapsed() - e0
				elapsedTotal += lat
				idxReads += uint64(res.Stats.IndexReads)
				dataReads += uint64(res.Stats.DataPagesRead)
				perKey := lat / time.Duration(step)
				for i := 0; i < step; i++ {
					lats = append(lats, perKey)
				}
			}
			p50, p99 := latencyQuantiles(lats)
			throughput := 0.0
			if elapsedTotal > 0 {
				throughput = float64(total) / elapsedTotal.Seconds()
			}
			out = append(out, &BatchedProbeResult{
				Backend:          backend,
				Batch:            b,
				Keys:             total,
				IndexReadsPerKey: float64(idxReads) / float64(total),
				DataReadsPerKey:  float64(dataReads) / float64(total),
				Throughput:       throughput,
				P50:              p50,
				P99:              p99,
			})
		}
		ix.Close()
	}
	return out, nil
}

// RunBatchedProbe is the `batched-probe` experiment: PK probes answered
// through MultiSearch at batch 1/8/64/512 on SSD/SSD, across the
// backend registry (or the -index selection). With -json it also writes
// BENCH_batch.json.
func RunBatchedProbe(scale Scale) (*Table, error) {
	results, err := BatchedProbeSweep(scale, batchedProbeBackends(scale), BatchSizes)
	if err != nil {
		return nil, err
	}
	return batchedProbeTable(scale, results)
}

// batchedProbeTable renders the batch sweep and writes its
// BENCH_batch.json records when scale.JSONDir is set.
func batchedProbeTable(scale Scale, results []*BatchedProbeResult) (*Table, error) {
	t := &Table{
		Title:  "Batched probes: PK MultiSearch on SSD/SSD",
		Header: []string{"backend", "batch", "keys", "idx reads/key", "data reads/key", "p50/key", "p99/key", "keys/s(virt)"},
		Notes: []string{
			"a batch is sorted once, then adjacent keys share leaf descents and",
			"Bloom probes and duplicate data-page reads collapse; batch 1 is the",
			"degenerate case paying a full descent per key",
		},
	}
	var records []Record
	for _, r := range results {
		t.AddRow(
			r.Backend,
			fmt.Sprint(r.Batch),
			fmt.Sprint(r.Keys),
			fmtF(r.IndexReadsPerKey),
			fmtF(r.DataReadsPerKey),
			r.P50.Round(time.Microsecond).String(),
			r.P99.Round(time.Microsecond).String(),
			fmtF(r.Throughput),
		)
		records = append(records, Record{
			Experiment:       "batched-probe",
			Backend:          r.Backend,
			Batch:            r.Batch,
			Throughput:       r.Throughput,
			P50:              r.P50.Seconds(),
			P99:              r.P99.Seconds(),
			IndexReadsPerKey: r.IndexReadsPerKey,
		})
	}
	if err := writeArtifact(scale, "batched-probe", records); err != nil {
		return nil, err
	}
	return t, nil
}
