// Command perfbench is the repository benchmark. It runs one named
// workload against the public entry points users call — index.New
// in-process, or internal/server driven over loopback HTTP by
// internal/server/loadgen — checks every answer, and prints its
// metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the gated end-to-end metrics of
// BENCHMARK.json; with -trace 1 they are the per-layer metrics, taken
// from a traced run that follows an untraced one of equal length.
//
// Usage, from the repository root (perfbench/run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload serve-oltp --seed 1 --seconds 40 --trace 0
//
// The command exits non-zero, after printing the result, when any
// answer was wrong, and without a result when the run cannot be set up.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type config struct {
	seed    int64
	seconds int
	trace   bool
	// sleep is what one page access of the workload's device latency
	// really blocks for on this host (0 without device latency).
	sleep time.Duration
	// spansDir receives a traced run's spans; empty keeps them in memory.
	spansDir string
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the relation and the op streams")
	seconds := flag.Int("seconds", 40, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	spansDir := flag.String("spans-dir", "", "directory a traced run writes its spans to, as gzipped JSON lines")
	flag.Parse()

	spec, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds >= 1 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spansDir}
	if spec.latency > 0 {
		cfg.sleep = measureSleep(spec.latency)
	}
	printProvenance(spec, cfg)

	var (
		res *result
		err error
	)
	if cfg.trace {
		res, err = runTraced(spec, cfg)
	} else {
		res, err = runEndToEnd(spec, cfg)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", spec.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout, cfg.trace)
	if !res.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d ops failed; first: %v\n", spec.name, res.failed, res.attempted, res.firstErr)
		os.Exit(1)
	}
}

// result is one invocation's outcome.
type result struct {
	attempted, failed int
	firstErr          error
	values            map[string]measured
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// print writes one line per metric, with its sample count, then the
// JSON result line. Report-only end-to-end metrics appear in the lines
// but not in the JSON.
func (r *result) print(out io.Writer, traced bool) {
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	metrics := map[string]any{}
	for _, d := range defs {
		m := r.values[d.name]
		line := fmt.Sprintf("%-38s %14.6g %-6s n=%d", d.name, m.value, d.unit, m.n)
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		if d.reportOnly {
			line += "  [report only]"
		}
		if d.moves != "" {
			line += "  should move: " + d.moves
		}
		fmt.Fprintln(out, line)
		if !d.reportOnly {
			metrics[d.name] = map[string]any{"value": m.value, "unit": d.unit}
		}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	fmt.Fprintln(out, string(line))
}

// printProvenance records what produced the numbers: the build, the
// host, and the workload's inputs.
func printProvenance(spec *workloadSpec, cfg config) {
	commit := "unknown (built outside a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	sleep := "none"
	if spec.latency > 0 {
		sleep = fmt.Sprintf("%v per page access, measured %v", spec.latency, cfg.sleep.Round(time.Microsecond))
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%v\n", spec.name, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Printf("# commit=%s go=%s nproc=%d GOMAXPROCS=%d date=%s\n",
		commit, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0), time.Now().UTC().Format(time.RFC3339))
	fmt.Printf("# relation=%d tuples device latency: %s\n", spec.tuples, sleep)
	fmt.Printf("# why: %s\n", spec.why)
	if spec.defect != "" {
		fmt.Printf("# known defect, not in BENCHMARK.json: %s\n", spec.defect)
	}
}

// measureSleep is what the device's real-latency sleep of d actually
// blocks for on this host: the mean of repeated time.Sleep(d) calls.
func measureSleep(d time.Duration) time.Duration {
	start := time.Now()
	for i := 0; i < sleepSamples; i++ {
		time.Sleep(d)
	}
	return time.Since(start) / sleepSamples
}

const sleepSamples = 100

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
