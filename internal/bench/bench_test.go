package bench

import (
	"strconv"
	"strings"
	"testing"

	"bftree/index"
	"bftree/internal/bptree"
	"bftree/internal/device"
	"bftree/internal/workload"
)

// tinyScale keeps unit-test experiment runs fast.
func tinyScale() Scale {
	return Scale{
		SyntheticTuples: 30000,
		TPCHTuples:      30000,
		TPCHDates:       50,
		SHDTuples:       30000,
		Probes:          200,
		Seed:            7,
	}
}

func TestFiveConfigs(t *testing.T) {
	cfgs := FiveConfigs()
	if len(cfgs) != 5 {
		t.Fatalf("want 5 configs, got %d", len(cfgs))
	}
	names := map[string]bool{}
	for _, c := range cfgs {
		names[c.Name] = true
	}
	for _, want := range []string{"mem/HDD", "SSD/HDD", "HDD/HDD", "mem/SSD", "SSD/SSD"} {
		if !names[want] {
			t.Errorf("missing config %s", want)
		}
	}
	if len(WarmConfigs()) != 3 {
		t.Error("warm configs must be 3")
	}
}

func TestScales(t *testing.T) {
	d := DefaultScale()
	p := PaperScale()
	if d.SyntheticTuples >= p.SyntheticTuples {
		t.Error("default scale should be smaller than paper scale")
	}
	if p.SyntheticTuples != 4194304 {
		t.Error("paper scale must be the 1GB relation")
	}
}

func TestMeasureIndexAcrossBackends(t *testing.T) {
	scale := tinyScale()
	cfg := StorageConfig{Name: "SSD/HDD", Index: device.SSD, Data: device.HDD}
	env, syn, err := syntheticEnv(cfg, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := pkProbes(syn, scale)
	if err != nil {
		t.Fatal(err)
	}
	// Every registered backend answers the PK probe batch with the same
	// tuple count through the one generic measurement path.
	tuples := map[string]int{}
	for _, name := range index.Backends() {
		ix, err := BuildIndex(name, env, syn.File, 0, pointOpts(0, 1e-3))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := MeasureIndex(env, ix, keys, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Tuples != len(keys) {
			t.Errorf("%s: PK probes found %d tuples for %d probes", name, m.Tuples, len(keys))
		}
		if m.AvgTime < 0 {
			t.Errorf("%s: negative avg time", name)
		}
		tuples[name] = m.Tuples
		if err := ix.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for name, n := range tuples {
		if n != tuples["bftree"] {
			t.Errorf("%s found %d tuples, bftree %d", name, n, tuples["bftree"])
		}
	}
}

func TestATT1ProbesHitRate(t *testing.T) {
	scale := tinyScale()
	cfg := StorageConfig{Name: "mem/mem", Index: device.Memory, Data: device.Memory}
	env, syn, err := syntheticEnv(cfg, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := att1Probes(syn, scale)
	if err != nil {
		t.Fatal(err)
	}
	present := make(map[uint64]bool, len(syn.ATT1Keys))
	for _, k := range syn.ATT1Keys {
		present[k] = true
	}
	hits := 0
	for _, k := range keys {
		if present[k] {
			hits++
		}
	}
	rate := float64(hits) / float64(len(keys))
	if rate < 0.10 || rate > 0.18 {
		t.Errorf("ATT1 hit rate %g, want ≈0.14", rate)
	}
	_ = env
}

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "T", Header: []string{"a", "bb"}}
	tb.AddRow("1", "2")
	tb.Notes = append(tb.Notes, "n")
	var sb strings.Builder
	tb.Render(&sb)
	out := sb.String()
	for _, want := range []string{"== T ==", "a", "bb", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryRunsStaticExperiments(t *testing.T) {
	for _, name := range []string{"fig2", "fig4a", "fig4b", "fig14"} {
		tb, err := Run(name, tinyScale())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s produced no rows", name)
		}
		checkShape(t, name, tb)
	}
	if _, err := Run("nope", tinyScale()); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(ExperimentNames()) < 20 {
		t.Errorf("registry too small: %v", ExperimentNames())
	}
}

func TestRunFig1aAndFig1b(t *testing.T) {
	scale := tinyScale()
	a, err := RunFig1a(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) == 0 {
		t.Error("fig1a has no rows")
	}
	checkShape(t, "fig1a", a)
	b, err := RunFig1b(scale)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Rows) == 0 {
		t.Error("fig1b has no rows")
	}
	checkShape(t, "fig1b", b)
	// Fig 1b note must report zero order violations.
	if !strings.Contains(strings.Join(b.Notes, " "), "violations: 0") {
		t.Errorf("fig1b notes: %v", b.Notes)
	}
}

func TestRunTable2ShowsCapacityGain(t *testing.T) {
	tb, err := RunTable2(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "table2", tb)
	if len(tb.Rows) != 5 { // B+ row + 4 fpp rows
		t.Fatalf("table2 rows = %d", len(tb.Rows))
	}
	// fpp=0.2 row must show a much larger gain than fpp=1e-15.
	parseGain := func(s string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
		if err != nil {
			t.Fatalf("bad gain %q", s)
		}
		return v
	}
	loose := parseGain(tb.Rows[1][4])
	tight := parseGain(tb.Rows[4][4])
	if loose <= tight {
		t.Errorf("gain at fpp=0.2 (%g) must exceed gain at 1e-15 (%g)", loose, tight)
	}
	if loose < 5 {
		t.Errorf("loose gain %g implausibly small", loose)
	}
	if tight < 1 {
		t.Errorf("even the tightest BF-Tree must be smaller than B+ (gain %g)", tight)
	}
}

func TestRunTable3FalseReadsDecrease(t *testing.T) {
	tb, err := RunTable3(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "table3", tb)
	first, err := strconv.ParseFloat(tb.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	last, err := strconv.ParseFloat(tb.Rows[len(tb.Rows)-1][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if last > first {
		t.Errorf("false reads must fall with fpp: %g → %g", first, last)
	}
	if first == 0 {
		t.Error("fpp=0.2 should cause false reads")
	}
}

func TestRunFig13Shape(t *testing.T) {
	tb, err := RunFig13(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "fig13", tb)
	// Last row (tightest fpp), widest range: overhead ≈1. Narrow ranges
	// at this test's tiny scale span less than one partition, so only
	// the wide-range column is scale-invariant.
	lastRow := tb.Rows[len(tb.Rows)-1]
	wide, err := strconv.ParseFloat(lastRow[len(lastRow)-1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if wide > 1.15 {
		t.Errorf("fpp=1e-12, 20%% range overhead %g should be negligible", wide)
	}
	// First row, smallest range: the worst case, must exceed the last
	// row's overhead.
	firstSmall, _ := strconv.ParseFloat(tb.Rows[0][1], 64)
	lastSmall, _ := strconv.ParseFloat(lastRow[1], 64)
	if firstSmall < lastSmall {
		t.Errorf("overhead should shrink with fpp: %g vs %g", firstSmall, lastSmall)
	}
}

func TestBuildPKEntriesSorted(t *testing.T) {
	cfg := StorageConfig{Name: "mem/mem", Index: device.Memory, Data: device.Memory}
	env, syn, err := syntheticEnv(cfg, tinyScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = env
	entries, err := bptree.PKEntries(syn.File, 0)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(entries)) != syn.File.NumTuples() {
		t.Fatalf("entries = %d, tuples = %d", len(entries), syn.File.NumTuples())
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key < entries[i-1].Key {
			t.Fatal("entries out of order")
		}
	}
}

func TestTPCHAndSHDProbes(t *testing.T) {
	scale := tinyScale()
	cfg := StorageConfig{Name: "mem/mem", Index: device.Memory, Data: device.Memory}
	env, tp, err := tpchEnv(cfg, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = env
	keys, err := tpchProbes(tp, scale, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for _, k := range keys {
		if tp.DateCards[k] > 0 {
			hits++
		}
	}
	rate := float64(hits) / float64(len(keys))
	if rate < 0.45 || rate > 0.55 {
		t.Errorf("tpch hit rate %g, want 0.5", rate)
	}

	env2, shd, err := shdEnv(cfg, scale, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = env2
	skeys, err := shdProbes(shd, scale)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range skeys {
		if shd.Cards[k] == 0 {
			t.Fatal("shd probes must be 100% hits")
		}
	}
}

func TestWarmIndexRequiresCache(t *testing.T) {
	env := NewEnv(StorageConfig{Name: "x", Index: device.SSD, Data: device.SSD}, 0)
	if err := WarmIndex(env, nil); err == nil {
		t.Error("warming an uncached env should fail")
	}
}

func TestAblationDeletes(t *testing.T) {
	tb, err := RunAblationDeletes(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "ablation-deletes", tb)
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Counting filter uses more pages than standard.
	stdPages, _ := strconv.Atoi(tb.Rows[0][1])
	cntPages, _ := strconv.Atoi(tb.Rows[1][1])
	if cntPages <= stdPages {
		t.Errorf("counting (%d pages) must exceed standard (%d)", cntPages, stdPages)
	}
}

func TestAblationGranularity(t *testing.T) {
	tb, err := RunAblationGranularity(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	checkShape(t, "ablation-granularity", tb)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Data reads grow with granularity.
	g1, _ := strconv.Atoi(tb.Rows[0][3])
	g16, _ := strconv.Atoi(tb.Rows[4][3])
	if g16 <= g1 {
		t.Errorf("granularity 16 data reads (%d) must exceed granularity 1 (%d)", g16, g1)
	}
}

func TestSyntheticATT1DomainSparse(t *testing.T) {
	// The ATT1 misses of Figure 8 must land inside the key domain.
	cfg := StorageConfig{Name: "mem/mem", Index: device.Memory, Data: device.Memory}
	_, syn, err := syntheticEnv(cfg, tinyScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	maxKey := syn.ATT1Keys[len(syn.ATT1Keys)-1]
	absent := workload.AbsentWithin(1, maxKey, syn.ATT1Keys, 100)
	if len(absent) < 50 {
		t.Errorf("ATT1 domain too dense: only %d absent keys", len(absent))
	}
}
