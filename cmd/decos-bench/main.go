// Command decos-bench regenerates the paper's figures as measurements:
// experiments E1–E8 (one per figure, see DESIGN.md) and the ablations
// A1–A4.
//
// Usage:
//
//	decos-bench [-experiment E1|...|A4|all] [-seed N] [-cpuprofile F] [-memprofile F] [-metrics D]
//
// The profile flags write pprof data covering the experiment run itself
// (not flag parsing or output formatting), for `go tool pprof`.
//
// -metrics D (a duration, e.g. 2s) dumps a one-line JSON telemetry
// snapshot to stderr every D while experiments run, plus a final one on
// exit: per-experiment wall-time distribution and completion counters.
// The registry is purely atomic, so the periodic dumper never races the
// experiment goroutine; with the flag off nothing is instrumented.
//
// -emit-corpus F switches to corpus mode: instead of running experiments,
// a deterministic cluster.LoadGen fleet trace is written to F in the
// chosen -trace-format (ndjson or binary) — the input generator for
// ingest benchmarks and manual decos-replay / fleetd experiments.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"decos/internal/cluster"
	"decos/internal/experiments"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/telemetry"
	"decos/internal/trace"
)

func main() {
	which := flag.String("experiment", "all", "experiment id (E1..E8, A1..A4) or 'all'")
	seed := flag.Uint64("seed", 20050404, "master seed")
	cpuprofile := flag.String("cpuprofile", "", "write CPU profile to file")
	memprofile := flag.String("memprofile", "", "write allocation profile to file on exit")
	metricsEvery := flag.Duration("metrics", 0, "dump a telemetry snapshot to stderr every interval (0 = off)")
	scenarioPath := flag.String("scenario", "", "score a scenario pack (conformance against every classifier) instead of running experiments")
	classifier := flag.String("classifier", "", "with -scenario: score only this classifier leg (decos, obd or bayes; empty = all)")
	emitCorpus := flag.String("emit-corpus", "", "write a deterministic loadgen fleet trace to `FILE` and exit")
	corpusVehicles := flag.Int("corpus-vehicles", 100, "corpus mode: vehicles in the fleet")
	corpusEvents := flag.Int("corpus-events", 64, "corpus mode: events per vehicle")
	corpusSeed := flag.Uint64("corpus-seed", 1, "corpus mode: loadgen seed")
	traceFormat := flag.String("trace-format", "binary", "corpus mode: trace encoding, ndjson or binary")
	flag.Parse()

	if *scenarioPath != "" {
		if err := scorePack(*scenarioPath, *classifier); err != nil {
			fmt.Fprintf(os.Stderr, "decos-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *emitCorpus != "" {
		if err := emitCorpusFile(*emitCorpus, *corpusVehicles, *corpusEvents, *corpusSeed, *traceFormat); err != nil {
			fmt.Fprintf(os.Stderr, "decos-bench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "decos-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "decos-bench: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	var metrics *telemetry.Registry
	if *metricsEvery > 0 {
		metrics = telemetry.New()
		done := make(chan struct{})
		defer close(done)
		go func() {
			tick := time.NewTicker(*metricsEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					_ = metrics.WriteJSON(os.Stderr)
				case <-done:
					return
				}
			}
		}()
		defer func() { _ = metrics.WriteJSON(os.Stderr) }()
	}

	run(*which, *seed, metrics)

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "decos-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		runtime.GC() // up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "decos-bench: %v\n", err)
			os.Exit(1)
		}
	}
}

// scorePack loads one scenario pack and scores it through the
// conformance runner, timing the run. A named classifier restricts the
// scoring to that leg (the others are not simulated).
func scorePack(path, classifier string) error {
	m, err := pack.Load(path)
	if err != nil {
		return err
	}
	var clss []string
	if classifier != "" {
		found := false
		for _, cls := range pack.Classifiers {
			if cls == classifier {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("unknown classifier %q; pick one of: %s",
				classifier, strings.Join(pack.Classifiers, " "))
		}
		clss = []string{classifier}
	}
	start := time.Now()
	pr := scenario.Conform(context.Background(), m, clss...)
	rep := &pack.Report{Version: pack.Version}
	rep.Add(pr)
	fmt.Print(rep.Format())
	fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Millisecond))
	if !pr.Pass {
		return fmt.Errorf("pack %s failed conformance", m.Name)
	}
	return nil
}

// emitCorpusFile streams a whole loadgen fleet through one sink, so a
// binary corpus carries a single stream header however many vehicles it
// covers — concatenating per-vehicle binary blobs would not be a valid
// stream.
func emitCorpusFile(path string, vehicles, events int, seed uint64, formatName string) error {
	format, err := trace.ParseFormat(formatName)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	sink := trace.NewSink(bw, format)
	g := cluster.LoadGen{Seed: seed, EventsPerVehicle: events}
	for v := 1; v <= vehicles; v++ {
		if err := g.EmitVehicle(v, sink); err != nil {
			return fmt.Errorf("vehicle %d: %w", v, err)
		}
	}
	if err := sink.Close(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, _ := os.Stat(path)
	fmt.Printf("corpus: %d vehicles x %d events (%s, seed %d) -> %s (%d bytes)\n",
		vehicles, events, format, seed, path, st.Size())
	return nil
}

func run(which string, seed uint64, metrics *telemetry.Registry) {
	// The nil-safe handles cost one branch per experiment when metrics are
	// off — the experiments themselves are never instrumented from here.
	count := metrics.Counter("bench.experiments")
	wallNS := metrics.Histogram("bench.experiment_ns")
	timed := func(id string, f func() *experiments.Result) *experiments.Result {
		start := time.Now()
		r := f()
		elapsed := time.Since(start).Nanoseconds()
		wallNS.Observe(elapsed)
		count.Inc()
		metrics.Gauge("bench.last_ns." + id).Set(elapsed)
		return r
	}

	if strings.EqualFold(which, "all") {
		for _, id := range experiments.Names() {
			id := id
			r := timed(id, func() *experiments.Result {
				res, _ := experiments.ByID(id, seed)
				return res
			})
			fmt.Println(r)
		}
		return
	}
	var ok bool
	r := timed(which, func() *experiments.Result {
		var res *experiments.Result
		res, ok = experiments.ByID(which, seed)
		return res
	})
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; valid experiments:\n  %s\n  all\n",
			which, strings.Join(experiments.Names(), " "))
		os.Exit(2)
	}
	fmt.Println(r)
}
