package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// streamScale sizes the streaming/batching experiments for CI: big
// enough that ranges span many data pages and trees have real depth.
func streamScale() Scale {
	return Scale{
		SyntheticTuples: 30000,
		TPCHTuples:      12000,
		TPCHDates:       24,
		SHDTuples:       12000,
		Probes:          256,
		Seed:            7,
	}
}

// scanStreamShared and batchedProbeShared are the one scan-stream and
// batched-probe sweeps that the streaming tests check.
var (
	scanStreamShared = &shared[[]*ScanStreamResult]{run: func() ([]*ScanStreamResult, error) {
		return ScanStreamSweep(streamScale())
	}}
	batchedProbeShared = &shared[[]*BatchedProbeResult]{run: func() ([]*BatchedProbeResult, error) {
		scale := streamScale()
		return BatchedProbeSweep(scale, batchedProbeBackends(scale), BatchSizes)
	}}
)

// TestScanStreamLimitSavesPages pins the issue's acceptance bar: a
// LIMIT-10 streaming scan over a ~10%-selectivity range must read at
// least 10x fewer pages than the materialized RangeScan.
func TestScanStreamLimitSavesPages(t *testing.T) {
	results := scanStreamShared.get(t)
	byMode := map[string]*ScanStreamResult{}
	for _, r := range results {
		byMode[r.Mode] = r
	}
	mat, ok := byMode["materialized"]
	if !ok {
		t.Fatal("no materialized row")
	}
	limit10, ok := byMode["limit-10"]
	if !ok {
		t.Fatal("no limit-10 row")
	}
	if limit10.PagesPerOp*10 > mat.PagesPerOp {
		t.Errorf("limit-10 read %.1f pages/op, materialized %.1f — want at least 10x fewer",
			limit10.PagesPerOp, mat.PagesPerOp)
	}
	if limit10.TuplesPerOp != 10 {
		t.Errorf("limit-10 returned %.1f tuples/op, want 10", limit10.TuplesPerOp)
	}
	// The full stream and the materialized scan are the same drain.
	stream, ok := byMode["stream"]
	if !ok {
		t.Fatal("no stream row")
	}
	if stream.PagesPerOp != mat.PagesPerOp || stream.TuplesPerOp != mat.TuplesPerOp {
		t.Errorf("drained stream (%.1f pages, %.1f tuples) != materialized (%.1f pages, %.1f tuples)",
			stream.PagesPerOp, stream.TuplesPerOp, mat.PagesPerOp, mat.TuplesPerOp)
	}
	// Time to first tuple is where streaming shows up even without a
	// LIMIT: the drain produces its first tuple before reading the rest.
	if stream.FirstTuple >= mat.FirstTuple {
		t.Errorf("stream first tuple at %v, materialized at %v — streaming should answer earlier",
			stream.FirstTuple, mat.FirstTuple)
	}
}

// TestBatchedProbeSharesIndexReads pins the issue's acceptance bar on
// both tree backends: MultiSearch at batch 64 must charge measurably
// fewer index page reads per key than batch 1.
func TestBatchedProbeSharesIndexReads(t *testing.T) {
	results := batchedProbeShared.get(t)
	type cell map[int]*BatchedProbeResult
	byBackend := map[string]cell{}
	for _, r := range results {
		if byBackend[r.Backend] == nil {
			byBackend[r.Backend] = cell{}
		}
		byBackend[r.Backend][r.Batch] = r
	}
	for _, backend := range []string{"bftree", "bptree"} {
		c := byBackend[backend]
		if c == nil || c[1] == nil || c[64] == nil {
			t.Fatalf("%s: missing batch rows", backend)
		}
		if c[64].IndexReadsPerKey >= c[1].IndexReadsPerKey {
			t.Errorf("%s: batch 64 charged %.3f index reads/key, batch 1 %.3f — batching should share reads",
				backend, c[64].IndexReadsPerKey, c[1].IndexReadsPerKey)
		}
	}
}

// TestStreamingJSONRecords pins the BENCH_scan.json / BENCH_batch.json
// emission: rendering the scan-stream and batched-probe tables of the
// shared sweeps with a JSONDir writes well-formed record arrays with
// the documented schema fields populated.
func TestStreamingJSONRecords(t *testing.T) {
	scale := streamScale()
	scale.JSONDir = t.TempDir()
	scan, err := scanStreamTable(scale, scanStreamShared.get(t))
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "scan-stream", scan)
	checkRecords(t, scale.JSONDir, "BENCH_scan.json")
	batch, err := batchedProbeTable(scale, batchedProbeShared.get(t))
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "batched-probe", batch)
	checkRecords(t, scale.JSONDir, "BENCH_batch.json")
}

// checkRecords pins an experiment's JSON artifact: running it with a
// JSONDir writes a well-formed record array with the documented schema
// fields populated.
func checkRecords(t *testing.T, dir, name string) {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatalf("%s not written: %v", name, err)
	}
	var records []Record
	if err := json.Unmarshal(blob, &records); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(records) == 0 {
		t.Fatalf("%s: no records", name)
	}
	for _, r := range records {
		if r.Experiment == "" || r.Backend == "" {
			t.Errorf("%s: record missing experiment/backend: %+v", name, r)
		}
		if r.P99 < r.P50 {
			t.Errorf("%s: p99 %v < p50 %v", name, r.P99, r.P50)
		}
	}
}
