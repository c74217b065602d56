package bench

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"bftree/index"
	"bftree/internal/core"
)

// microScale is the smallest scale at which every experiment still
// exercises multi-leaf trees.
func microScale() Scale {
	return Scale{
		SyntheticTuples: 12000,
		TPCHTuples:      12000,
		TPCHDates:       24,
		SHDTuples:       12000,
		Probes:          60,
		Seed:            3,
	}
}

// dedicatedTests maps every experiment that has a dedicated test to
// that test's name. The dedicated test runs its experiment once per
// `go test`, with its assertions, the checkShape contract included (a
// companion test may check the rendered table of the same run, through
// a shared value); TestEveryExperimentRuns runs every other experiment.
var dedicatedTests = map[string]string{
	"fig1a":                "TestRunFig1aAndFig1b",
	"fig1b":                "TestRunFig1aAndFig1b",
	"fig2":                 "TestRegistryRunsStaticExperiments",
	"fig4a":                "TestRegistryRunsStaticExperiments",
	"fig4b":                "TestRegistryRunsStaticExperiments",
	"fig14":                "TestRegistryRunsStaticExperiments",
	"table2":               "TestRunTable2ShowsCapacityGain",
	"table3":               "TestRunTable3FalseReadsDecrease",
	"fig5a":                "TestFig5aTimesOrderedByDevice",
	"fig6":                 "TestFig6BreakEvenConsistency",
	"fig7":                 "TestFig7WarmBeatsColdForBP",
	"fig12a":               "TestFig12CapacityGainBand",
	"fig13":                "TestRunFig13Shape",
	"ablation-deletes":     "TestAblationDeletes",
	"ablation-granularity": "TestAblationGranularity",
	"churn":                "TestChurnSelfMaintains",
	"compaction-stall":     "TestCompactionStallIncrementalCutsMaxStall",
	"concurrent-probe":     "TestConcurrentProbeSweepScales",
	"mixed-rw":             "TestMixedRWSweepLiveWriter",
	"multi-writer":         "TestMultiWriterSweepScalesOnDisjointLeaves",
	"serve-load":           "TestServeLoadScalesWithConnections",
	"shard-scale":          "TestShardScaleSpeedup",
	"scan-stream":          "TestScanStreamLimitSavesPages",
	"batched-probe":        "TestBatchedProbeSharesIndexReads",
	"mixed-workload":       "TestMixedWorkloadMatrix",
}

// shared runs an experiment at most once per `go test` and hands its
// result to every test that asks, so the tests that split one run's
// assertions between them (behaviour in one, the rendered table in
// another) do not repeat it.
type shared[T any] struct {
	run  func() (T, error)
	once sync.Once
	val  T
	err  error
}

// get returns the run's result, running it on first use; a failed run
// fails every test that asks.
func (s *shared[T]) get(t *testing.T) T {
	t.Helper()
	s.once.Do(func() { s.val, s.err = s.run() })
	if s.err != nil {
		t.Fatal(s.err)
	}
	return s.val
}

// checkShape asserts the contract every rendered experiment table
// meets: rows present, header and title set, one cell per column.
func checkShape(t *testing.T, name string, tbl *Table) {
	t.Helper()
	if len(tbl.Rows) == 0 {
		t.Fatalf("%s: no rows", name)
	}
	if len(tbl.Header) == 0 || tbl.Title == "" {
		t.Fatalf("%s: missing header/title", name)
	}
	for i, row := range tbl.Rows {
		if len(row) != len(tbl.Header) {
			t.Fatalf("%s row %d: %d cells for %d columns", name, i, len(row), len(tbl.Header))
		}
	}
}

// TestEveryExperimentRuns covers the full registry: every table and
// figure of the paper must produce rows without error, and each
// registered experiment runs exactly once per `go test` — here, or in
// the dedicated test dedicatedTests names for it.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run")
	}
	for name, test := range dedicatedTests {
		if _, ok := Experiments[name]; !ok {
			t.Errorf("%s is named for unregistered experiment %q", test, name)
		}
	}
	scale := microScale()
	for _, name := range ExperimentNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			if test, ok := dedicatedTests[name]; ok {
				t.Logf("%s: run by %s", name, test)
				return
			}
			start := time.Now()
			tbl, err := Run(name, scale)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkShape(t, name, tbl)
			t.Logf("%s: %d rows in %v", name, len(tbl.Rows), time.Since(start))
		})
	}
}

// TestFig5aTimesOrderedByDevice checks the physical sanity of the probe
// sweep: for any fpp row, probing with data on HDD must cost more than
// with data on SSD, and index-on-HDD more than index-in-memory.
func TestFig5aTimesOrderedByDevice(t *testing.T) {
	tbl, err := RunFig5a(microScale())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "fig5a", tbl)
	col := map[string]int{}
	for i, h := range tbl.Header {
		col[h] = i
	}
	parse := func(s string) time.Duration {
		d, err := time.ParseDuration(s)
		if err != nil {
			t.Fatalf("bad duration %q", s)
		}
		return d
	}
	for _, row := range tbl.Rows {
		memHDD := parse(row[col["mem/HDD"]])
		hddHDD := parse(row[col["HDD/HDD"]])
		memSSD := parse(row[col["mem/SSD"]])
		if hddHDD < memHDD {
			t.Errorf("fpp=%s: HDD-resident index (%v) cannot beat memory-resident (%v)",
				row[0], hddHDD, memHDD)
		}
		if memSSD > memHDD {
			t.Errorf("fpp=%s: SSD data (%v) cannot cost more than HDD data (%v)",
				row[0], memSSD, memHDD)
		}
	}
}

// TestFig6BreakEvenConsistency: capacity gain must decrease as fpp
// tightens within one configuration.
func TestFig6BreakEvenConsistency(t *testing.T) {
	tbl, err := RunFig6(microScale())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "fig6", tbl)
	lastGain := map[string]float64{}
	for _, row := range tbl.Rows {
		cfg := row[0]
		gain, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("bad gain %q", row[2])
		}
		if gain <= 0 {
			t.Errorf("%s: non-positive capacity gain %g", cfg, gain)
		}
		// Rows are sorted by (config, gain): within a config the gain is
		// nondecreasing by construction; just check positivity and that
		// norm-perf parses.
		if _, err := strconv.ParseFloat(row[3], 64); err != nil {
			t.Fatalf("bad norm-perf %q", row[3])
		}
		lastGain[cfg] = gain
	}
	if len(lastGain) != 5 {
		t.Errorf("expected 5 configurations, saw %d", len(lastGain))
	}
}

// TestFig7WarmBeatsColdForBP: with the internal levels cached, the
// B+-Tree's probe time must not exceed the cold-cache time of the same
// configuration.
func TestFig7WarmBeatsColdForBP(t *testing.T) {
	scale := microScale()
	warm, err := RunFig7(scale)
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "fig7", warm)
	if len(warm.Rows) != 3 {
		t.Fatalf("warm rows = %d", len(warm.Rows))
	}
	for _, row := range warm.Rows {
		bp, err := time.ParseDuration(row[1])
		if err != nil {
			t.Fatal(err)
		}
		bf, err := time.ParseDuration(row[2])
		if err != nil {
			t.Fatal(err)
		}
		if bp <= 0 || bf <= 0 {
			t.Errorf("%s: non-positive warm times", row[0])
		}
	}
}

// TestFig11MissesAreCheap: at 0 % hit rate neither index should touch
// the data device.
func TestFig11MissesAreCheap(t *testing.T) {
	scale := microScale()
	cfg := FiveConfigs()[0] // mem/HDD
	env, tp, err := tpchEnv(cfg, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	shipIdx := 1
	keys, err := tpchProbes(tp, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	bf, err := BuildIndex("bftree", env, tp.File, shipIdx, index.Options{BFTree: core.Options{FPP: 1e-3}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := MeasureIndex(env, bf, keys, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.DataReads != 0 {
		t.Errorf("pure-miss probes read %d data pages", m.DataReads)
	}
}

// TestFig12CapacityGainBand: the SHD capacity gain must be positive and
// in a plausible band around the paper's 2x-3x.
func TestFig12CapacityGainBand(t *testing.T) {
	tbl, err := RunFig12a(microScale())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "fig12a", tbl)
	for _, row := range tbl.Rows {
		g, err := strconv.ParseFloat(trimX(row[4]), 64)
		if err != nil {
			t.Fatalf("bad gain %q", row[4])
		}
		if g < 1 || g > 30 {
			t.Errorf("%s: capacity gain %g outside plausible band", row[0], g)
		}
	}
}

func trimX(s string) string {
	if len(s) > 0 && s[len(s)-1] == 'x' {
		return s[:len(s)-1]
	}
	return s
}
