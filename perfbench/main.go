// Command perfbench is the repository benchmark. It runs one workload
// through the program's public entry points, checks the outputs, and
// prints its metrics; the last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
//	bash perfbench/run.sh --workload fleet-nff --seed 1 --seconds 30 --trace 0
//
// Workloads (README.md has the reasons and the per-layer expectations):
//
//	fleet-nff       E8-shaped Monte Carlo campaigns, no trace
//	fleet-warranty  E13-shaped traced campaigns feeding a warranty collector
//	grid-resume     16-component bayes grid runs in checkpoint/restore chunks
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// runs a fixed traced pass, alternating with the same pass untraced, and
// reports the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// setupReps is how many times set-up is repeated; setup_s is the median.
const setupReps = 5

// unitResult is the outcome of one timed unit.
type unitResult struct {
	attempted, failed int
	simS              float64
	chunkMS           []float64
	err               error
}

// runner is one workload after set-up.
type runner interface {
	// unit runs one timed unit and checks its outputs.
	unit(ctx context.Context) unitResult
	// finish makes the run-level checks once the timed loop has ended.
	finish(ctx context.Context) (unitResult, error)
	// pass runs the workload's fixed traced-pass inputs, with or without
	// observing the layers.
	pass(ctx context.Context, observe bool) (*pass, error)
}

var workloads = map[string]func(ctx context.Context, seed uint64) (runner, error){
	"fleet-nff": func(ctx context.Context, seed uint64) (runner, error) {
		r := newFleetRunner(false, seed)
		r.warm(ctx)
		return r, nil
	},
	"fleet-warranty": func(ctx context.Context, seed uint64) (runner, error) {
		r := newFleetRunner(true, seed)
		r.warm(ctx)
		return r, nil
	},
	"grid-resume": func(ctx context.Context, seed uint64) (runner, error) {
		return newGridRunner(ctx, seed)
	},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "fleet-nff, fleet-warranty or grid-resume")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured seconds")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	setup, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("usage: --workload fleet-nff|fleet-warranty|grid-resume --seed N --seconds S --trace 0|1")
	}
	ctx := context.Background()
	budget := time.Duration(*seconds * float64(time.Second))

	reps := setupReps
	if *traced == 1 {
		reps = 1
	}
	var r runner
	var setupS []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if r, err = setup(ctx, *seed); err != nil {
			return fmt.Errorf("%s set-up: %w", *name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}

	var res *result
	var errs []error
	defs := endToEnd
	if *traced == 1 {
		res, errs = measureLayers(ctx, r, budget)
		defs = perLayer
	} else {
		res, errs = measureEndToEnd(ctx, r, budget)
		res.Metrics["setup_s"] = metricValue{median(setupS), "s"}
	}
	for _, d := range defs {
		if _, ok := res.Metrics[d.name]; !ok {
			errs = append(errs, fmt.Errorf("metric %s missing", d.name))
		}
	}
	res.Correct = res.Correct && len(errs) == 0
	report(out, *name, defs, *traced == 1, res, errs)
	return json.NewEncoder(out).Encode(res)
}

// measureEndToEnd runs timed units until the budget is spent, then the
// run-level checks.
func measureEndToEnd(ctx context.Context, r runner, budget time.Duration) (*result, []error) {
	var chunkMS []float64
	var simS float64
	res := &result{Metrics: map[string]metricValue{}}
	var errs []error
	add := func(u unitResult) {
		res.Attempted += u.attempted
		res.Failed += u.failed
		if u.err != nil {
			errs = append(errs, u.err)
		}
	}

	runtime.GC()
	heap := startHeapSampler()
	a0, b0 := mallocs()
	start := time.Now()
	for time.Since(start) < budget {
		t0 := time.Now()
		u := r.unit(ctx)
		if u.chunkMS == nil {
			u.chunkMS = []float64{float64(time.Since(t0).Nanoseconds()) / 1e6}
		}
		chunkMS = append(chunkMS, u.chunkMS...)
		simS += u.simS
		add(u)
	}
	wall := time.Since(start).Seconds()
	a1, b1 := mallocs()
	heapLive := heap.Stop()

	u, err := r.finish(ctx)
	add(u)
	if err != nil {
		errs = append(errs, err)
	}
	res.Correct = len(errs) == 0 && res.Failed == 0 && simS > 0
	if simS == 0 {
		simS = 1 // every unit failed; keep the figures finite
	}
	res.Metrics["sim_s_per_host_s"] = metricValue{simS / wall, "sim_s/s"}
	res.Metrics["allocs_per_sim_s"] = metricValue{float64(a1-a0) / simS, "1/sim_s"}
	res.Metrics["alloc_mb_per_sim_s"] = metricValue{float64(b1-b0) / 1e6 / simS, "MB/sim_s"}
	// The 95th percentile of the samples: the maximum is one GC cycle's
	// figure and moved by 14 % from run to run, the 95th by 4 %.
	res.Metrics["heap_peak_mb"] = metricValue{percentile(heapLive, 0.95) / 1e6, "MB"}
	res.Metrics["chunk_ms_p50"] = metricValue{percentile(chunkMS, 0.5), "ms"}
	res.Metrics["chunk_ms_p90"] = metricValue{percentile(chunkMS, 0.9), "ms"}
	return res, errs
}

// measureLayers alternates the untraced and the traced pass until the
// budget is spent (at least once each). Work counters come from the first
// traced pass, and every later one must repeat them exactly; times are
// medians over the traced passes.
func measureLayers(ctx context.Context, r runner, budget time.Duration) (*result, []error) {
	res := &result{Metrics: map[string]metricValue{}}
	var traced []*pass
	var bareNS, tracedNS []float64
	var errs []error
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < budget {
		runtime.GC()
		bare, err := r.pass(ctx, false)
		if err != nil {
			errs = append(errs, err)
			break
		}
		runtime.GC()
		p, err := r.pass(ctx, true)
		if err != nil {
			errs = append(errs, err)
			break
		}
		if len(traced) > 0 {
			if err := checkRepeat(traced[0].counts, p.counts); err != nil {
				errs = append(errs, err)
			}
		}
		traced = append(traced, p)
		bareNS = append(bareNS, float64(bare.wallNS))
		tracedNS = append(tracedNS, float64(p.wallNS))
	}
	res.Attempted = len(bareNS) + len(traced)
	if len(traced) == 0 {
		res.Attempted, res.Failed = 1, 1
		return res, errs
	}
	res.Failed = len(errs)
	res.Correct = len(errs) == 0

	byName := map[string][]float64{}
	for _, p := range traced {
		for k, v := range p.layerMetrics() {
			byName[k] = append(byName[k], v)
		}
	}
	for _, d := range perLayer {
		if xs, ok := byName[d.name]; ok {
			res.Metrics[d.name] = metricValue{median(xs), d.unit}
		}
	}
	res.Metrics["trace_overhead_frac"] = metricValue{median(tracedNS)/median(bareNS) - 1, "frac"}
	return res, errs
}

// report prints the human-readable lines before the JSON result: every
// metric with its unit, per-layer metrics with what they are expected to
// move, the unit counts and every failed check.
func report(out io.Writer, name string, defs []metricDef, traced bool, res *result, errs []error) {
	fmt.Fprintf(out, "workload %s  trace=%v\n", name, traced)
	for _, d := range defs {
		v := res.Metrics[d.name]
		if traced {
			fmt.Fprintf(out, "  %-28s %14.6g %-13s moves: %s\n", d.name, v.Value, v.Unit, d.moves)
		} else {
			fmt.Fprintf(out, "  %-28s %14.6g %s\n", d.name, v.Value, v.Unit)
		}
	}
	frac := 0.0
	if res.Attempted > 0 {
		frac = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(out, "  %-28s %14.6g (%d of %d units)\n", "failed_frac", frac, res.Failed, res.Attempted)
	for _, err := range errs {
		fmt.Fprintln(out, "  check failed:", err)
	}
	fmt.Fprintf(out, "  correct %v\n", res.Correct)
}
