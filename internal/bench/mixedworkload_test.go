package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bftree/index"
	"bftree/internal/workload"
)

// TestMixedWorkloadMatrix runs the mixed-workload experiment across the
// whole registry at a small scale and checks the BENCH_mixed.json rows:
// every preset × backend cell present, throughput measured, and the
// redistribution column reporting the delete fold on backends without a
// Deleter.
func TestMixedWorkloadMatrix(t *testing.T) {
	scale := DefaultScale()
	scale.SyntheticTuples = 16384
	scale.SHDTuples = 16384
	scale.Probes = 128
	scale.Index = "each"
	scale.JSONDir = t.TempDir()

	tbl, err := RunMixedWorkload(scale)
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "mixed-workload", tbl)
	blob, err := os.ReadFile(filepath.Join(scale.JSONDir, "BENCH_mixed.json"))
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	if err := json.Unmarshal(blob, &recs); err != nil {
		t.Fatal(err)
	}

	backends := index.Backends()
	presets := workload.MixNames()
	seen := map[string]bool{}
	for _, r := range recs {
		if r.Experiment != "mixed-workload" {
			t.Fatalf("record experiment %q, want mixed-workload", r.Experiment)
		}
		if r.Throughput <= 0 || r.Ops <= 0 {
			t.Fatalf("cell %s/%s/%s has no measurement: %+v", r.Backend, r.Preset, r.Dist, r)
		}
		if r.Workers != mixedWorkloadWorkers {
			t.Fatalf("cell %s/%s/%s ran %d workers, want %d", r.Backend, r.Preset, r.Dist, r.Workers, mixedWorkloadWorkers)
		}
		seen[r.Backend+"/"+r.Preset] = true
		// The no-Deleter backends must report the oltp delete fold.
		b, _ := index.Lookup(r.Backend)
		if r.Preset == "oltp" && !b.ConcurrentWriters && !strings.Contains(r.Moved, "delete") {
			if _, isDeleter := mustBuild(t, r.Backend).(index.Deleter); !isDeleter {
				t.Fatalf("cell %s/oltp moved %q, want a delete fold", r.Backend, r.Moved)
			}
		}
	}
	for _, b := range backends {
		for _, p := range presets {
			if !seen[b+"/"+p] {
				t.Fatalf("matrix missing cell %s/%s (have %d records)", b, p, len(recs))
			}
		}
	}
	// 3 presets × 2 dists + timeseries × 1 dist per backend.
	if want := len(backends) * 7; len(recs) != want {
		t.Fatalf("got %d records, want %d", len(recs), want)
	}
}

// mustBuild builds a tiny index of the named backend for capability
// inspection.
func mustBuild(t *testing.T, name string) index.Index {
	t.Helper()
	fx, err := mixedSyntheticFixture(Scale{SyntheticTuples: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ix := driverTestIndex(t, fx, name)
	t.Cleanup(func() { ix.Close() })
	return ix
}
