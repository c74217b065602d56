package bench

import (
	"fmt"
	"net"
	"net/http"
	"time"

	"bftree/index"
	"bftree/internal/core"
	"bftree/internal/device"
	"bftree/internal/pagestore"
	"bftree/internal/server"
	"bftree/internal/server/loadgen"
	"bftree/internal/workload"
)

// The serve-load experiment is the serving layer under measurement:
// every backend is mounted behind a real HTTP server on a loopback
// listener, and the load generator drives the OLTP preset over 1, 8,
// 64 and 256 concurrent connections. The point is queue-depth overlap:
// with real per-page device latency imposed, a single connection is
// latency-bound (every probe waits out its page reads end to end),
// while N connections overlap their waits inside the server's handler
// pool — aggregate throughput climbs until the CPU, not the device,
// is the bottleneck. p50/p99 then show what that overlap costs each
// individual request.

const (
	// serveLoadLatency is the real blocking time per page access during
	// the measured window — the device the served indexes "run on". It
	// is deliberately higher than the in-process experiments' 50µs so
	// wall-clock overlap (not request parsing) dominates the sweep.
	serveLoadLatency = 200 * time.Microsecond

	// serveLoadWarmup ops per connection run off the clock: dials the
	// connections and faults the caches before the window opens.
	serveLoadWarmup = 2
)

// ServeLoadLevels are the concurrent-connection sweep points.
var ServeLoadLevels = []int{1, 8, 64, 256}

// serveLoadOps sizes one level's measured budget: the scale's probe
// count, floored so every connection gets at least a few measured ops.
func serveLoadOps(scale Scale, conns int) int {
	ops := scale.Probes
	if ops < conns*4 {
		ops = conns * 4
	}
	return ops
}

// ServeLoadCell is one measured (backend, connections) level.
type ServeLoadCell struct {
	Backend string
	Conns   int
	Result  *DriverResult
	// Backpressure counts the 429 rejections the client absorbed
	// (sleep-and-retry) during the level.
	Backpressure int64
}

// ServeLoadSweep mounts each named backend behind an HTTP server on a
// loopback listener and drives the OLTP preset through the load
// generator at every connection level. SerializeWrites follows the
// registry trait, exactly as cmd/bfserve wires it.
func ServeLoadSweep(scale Scale, names []string, levels []int) ([]*ServeLoadCell, error) {
	fx, err := mixedSyntheticFixture(scale)
	if err != nil {
		return nil, err
	}
	preset := workload.OLTPMix()

	var out []*ServeLoadCell
	for _, name := range names {
		b, ok := index.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("bench: serve-load: %w: %q", index.ErrUnknownBackend, name)
		}
		// A served index must drain its own drift: the OLTP preset's
		// writes push the fpp estimate toward the compaction threshold,
		// and the server's admission gate turns that drift into 429s.
		// Without a background maintainer those rejections would be
		// terminal — nothing ever compacts — so serve-load mounts every
		// backend exactly as cmd/bfserve does: auto maintenance on a
		// short reclaim tick (exact backends ignore the policy).
		opts := fx.opts
		opts.BFTree.Maintenance = core.MaintenancePolicy{
			Mode:             core.MaintenanceAuto,
			ReclaimInterval:  time.Millisecond,
			IncrementalBatch: 8,
		}
		idxDev := device.New(device.Memory, PageSize)
		ix, err := index.New(name, pagestore.New(idxDev), fx.file, fx.fieldIdx, opts)
		if err != nil {
			return nil, err
		}
		srv := server.New(ix, server.Options{
			SerializeWrites: !b.ConcurrentWriters,
			RetryAfter:      time.Millisecond,
		})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			ix.Close()
			return nil, err
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(ln)
		base := "http://" + ln.Addr().String()

		runLevels := func() error {
			for _, conns := range levels {
				// MaxRetries must outlast the longest backpressure
				// drain: at drift >= threshold every write rejects
				// until the maintainer compacts the estimate back
				// below the admission ramp.
				cl, err := loadgen.Dial(base, loadgen.Options{
					Connections: conns,
					MaxRetries:  10000,
				})
				if err != nil {
					return err
				}
				// Fold the preset against the *server's* capability
				// surface before any stream is built: the client type
				// has every method, so the in-driver redistribution
				// (keyed on the client) would never fold anything.
				folded, moves := preset.Redistribute(cl.WorkloadCaps())

				idxDev.SetRealLatency(serveLoadLatency)
				fx.dataDev.SetRealLatency(serveLoadLatency)
				res, derr := DriveMix(cl, MixConfig{
					Mix:            folded,
					Dist:           workload.DistUniform,
					NumKeys:        fx.numKeys,
					Seed:           scale.Seed,
					Workers:        conns,
					Ops:            serveLoadOps(scale, conns),
					Warmup:         serveLoadWarmup,
					RefOf:          fx.refOf,
					UseSearchFirst: fx.unique,
				})
				idxDev.SetRealLatency(0)
				fx.dataDev.SetRealLatency(0)
				bp := cl.BackpressureEvents()
				cl.Close()
				if derr != nil {
					return fmt.Errorf("bench: serve-load %s @%d conns: %w", name, conns, derr)
				}
				res.Moves = moves
				out = append(out, &ServeLoadCell{
					Backend:      name,
					Conns:        conns,
					Result:       res,
					Backpressure: bp,
				})
			}
			return nil
		}
		err = runLevels()
		hs.Close()
		if cerr := ix.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RunServeLoad is the `serve-load` experiment: the OLTP preset over
// real HTTP connections against every registered backend (`-index=each`
// or unset; a single name narrows it), swept across connection counts.
// `-json` also writes the rows as BENCH_serve.json.
func RunServeLoad(scale Scale) (*Table, error) {
	names := []string{scale.IndexBackend()}
	if scale.Index == "each" || scale.Index == "" {
		names = index.Backends()
	}
	cells, err := ServeLoadSweep(scale, names, ServeLoadLevels)
	if err != nil {
		return nil, err
	}
	return serveLoadTable(scale, cells)
}

// serveLoadTable renders the sweep and writes its BENCH_serve.json
// records when scale.JSONDir is set.
func serveLoadTable(scale Scale, cells []*ServeLoadCell) (*Table, error) {
	// Index 1-connection throughput per backend for the speedup column.
	base := map[string]float64{}
	for _, c := range cells {
		if c.Conns == 1 {
			base[c.Backend] = c.Result.Throughput
		}
	}

	t := &Table{
		Title: fmt.Sprintf("Latency under load: OLTP preset over HTTP, %v per page access",
			serveLoadLatency),
		Header: []string{"backend", "conns", "ops", "wall", "ops/s", "speedup", "p50", "p99", "429s"},
		Notes: []string{
			"every row drives the OLTP preset through the load generator over",
			"real loopback connections against an HTTP server mounting the",
			"backend (internal/server). One connection is latency-bound: each",
			"probe waits out its page reads end to end. N connections overlap",
			"those waits in the server's handler pool; speedup is ops/s over",
			"the backend's own 1-connection row. 429s counts backpressure",
			"rejections the client absorbed by sleep-and-retry.",
		},
	}
	var records []Record
	for _, c := range cells {
		r := c.Result
		speedup := "-"
		if b := base[c.Backend]; b > 0 && c.Conns > 1 {
			speedup = fmt.Sprintf("%.1fx", r.Throughput/b)
		}
		t.AddRow(
			c.Backend,
			fmt.Sprint(c.Conns),
			fmt.Sprint(r.Ops),
			r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.Throughput),
			speedup,
			r.P50.Round(10*time.Microsecond).String(),
			r.P99.Round(10*time.Microsecond).String(),
			fmt.Sprint(c.Backpressure),
		)
		records = append(records, Record{
			Experiment:   "serve-load",
			Backend:      c.Backend,
			Preset:       "oltp",
			Workers:      c.Conns,
			Ops:          r.Ops,
			Throughput:   r.Throughput,
			P50:          r.P50.Seconds(),
			P99:          r.P99.Seconds(),
			Moved:        mixedMovesLabel(r.Moves),
			Backpressure: c.Backpressure,
		})
	}
	if err := writeArtifact(scale, "serve-load", records); err != nil {
		return nil, err
	}
	return t, nil
}
