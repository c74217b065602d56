package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"bftree/index"
)

// serveScaleForTest mirrors the CI smoke scale of `bfbench -exp
// serve-load`: a small relation, a modest probe budget, real loopback
// connections.
func serveScaleForTest() Scale {
	s := DefaultScale()
	s.SyntheticTuples = 20000
	s.Probes = 128
	return s
}

// serveLoadShared is the one serve-load sweep, every backend at every
// connection level, that both serve-load tests check.
var serveLoadShared = &shared[[]*ServeLoadCell]{run: func() ([]*ServeLoadCell, error) {
	return ServeLoadSweep(serveScaleForTest(), index.Backends(), ServeLoadLevels)
}}

// TestServeLoadScalesWithConnections is the serving-layer acceptance
// gate: against the bftree backend, aggregate throughput at 64
// connections must be at least 4x the single-connection throughput.
// With real per-page device latency imposed during the measured
// window, one connection is latency-bound — it waits out every page
// read end to end — while 64 connections overlap those waits inside
// the server's handler pool, so the speedup holds even on one core.
// The one sweep runs every backend at every level.
func TestServeLoadScalesWithConnections(t *testing.T) {
	cells := serveLoadShared.get(t)
	backends := index.Backends()
	if want := len(backends) * len(ServeLoadLevels); len(cells) != want {
		t.Fatalf("expected %d cells, got %d", want, len(cells))
	}
	var one, many *ServeLoadCell
	for _, c := range cells {
		if c.Backend != "bftree" {
			continue
		}
		switch c.Conns {
		case 1:
			one = c
		case 64:
			many = c
		}
	}
	if one == nil || many == nil {
		t.Fatalf("bftree sweep lacks the 1- or 64-connection level")
	}
	if one.Result.Throughput <= 0 {
		t.Fatalf("1-connection throughput not measured: %+v", one.Result)
	}
	speedup := many.Result.Throughput / one.Result.Throughput
	if speedup < 4 {
		t.Errorf("64-connection speedup %.2fx < 4x: %.0f ops/s vs %.0f ops/s",
			speedup, many.Result.Throughput, one.Result.Throughput)
	}
}

// TestServeLoadExperimentRegistered checks the rendered table and the
// BENCH_serve.json artifact, as `bfbench -exp serve-load -json DIR`
// writes them, from the same sweep.
func TestServeLoadExperimentRegistered(t *testing.T) {
	cells := serveLoadShared.get(t)
	backends := index.Backends()
	scale := serveScaleForTest()
	scale.JSONDir = t.TempDir()
	tbl, err := serveLoadTable(scale, cells)
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "serve-load", tbl)
	if len(tbl.Rows) != len(cells) {
		t.Fatalf("expected %d rows (one per backend and connection level), got %d", len(cells), len(tbl.Rows))
	}
	blob, err := os.ReadFile(filepath.Join(scale.JSONDir, ArtifactFor("serve-load")))
	if err != nil {
		t.Fatal(err)
	}
	var records []Record
	if err := json.Unmarshal(blob, &records); err != nil {
		t.Fatal(err)
	}
	if len(records) != len(cells) {
		t.Fatalf("expected %d records, got %d", len(cells), len(records))
	}
	for i, r := range records {
		backend := backends[i/len(ServeLoadLevels)]
		if r.Experiment != "serve-load" || r.Backend != backend || r.Preset != "oltp" {
			t.Errorf("record %d mislabeled: %+v", i, r)
		}
		if want := ServeLoadLevels[i%len(ServeLoadLevels)]; r.Workers != want {
			t.Errorf("record %d: workers %d, want %d", i, r.Workers, want)
		}
		if r.Throughput <= 0 || r.P50 <= 0 || r.P99 < r.P50 {
			t.Errorf("record %d: implausible latency row: %+v", i, r)
		}
	}
}

// TestArtifactRegistryConsistent pins the contract between the
// Artifacts map, the experiment registry, and the flag table: every
// artifact belongs to a registered experiment that consumes -json,
// every json-consuming experiment owns exactly one artifact, and the
// filenames are unique and canonical (BENCH_<name>.json).
func TestArtifactRegistryConsistent(t *testing.T) {
	canonical := regexp.MustCompile(`^BENCH_[a-z]+\.json$`)
	seen := map[string]string{}
	for exp, name := range Artifacts {
		if _, ok := Experiments[exp]; !ok {
			t.Errorf("artifact %q belongs to unregistered experiment %q", name, exp)
		}
		consumesJSON := false
		for _, f := range ExperimentFlags(exp) {
			if f == "json" {
				consumesJSON = true
			}
		}
		if !consumesJSON {
			t.Errorf("experiment %q has artifact %q but does not declare the json flag", exp, name)
		}
		if !canonical.MatchString(name) {
			t.Errorf("artifact %q of %q is not canonical BENCH_<name>.json", name, exp)
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("artifact %q claimed by both %q and %q", name, prev, exp)
		}
		seen[name] = exp
	}
	// The reverse direction: declaring -json without an artifact would
	// make `bfbench -json DIR` silently write nothing for that
	// experiment.
	for exp, flags := range experimentFlags {
		for _, f := range flags {
			if f == "json" && ArtifactFor(exp) == "" {
				t.Errorf("experiment %q declares the json flag but has no artifact", exp)
			}
		}
	}
	if ArtifactFor("no-such-experiment") != "" {
		t.Error("ArtifactFor should return \"\" for unknown experiments")
	}
}
