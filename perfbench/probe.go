package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/sim"
	"decos/internal/trace"
)

// mallocs returns the process's cumulative heap allocation count and
// bytes. runtime.ReadMemStats stops the world and flushes the per-P
// caches, so the counts are exact; runtime/metrics counts whole spans
// when a cache refills and would smear a short span's figure by hundreds.
func mallocs() (objects, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// heapSampler samples the live heap — the bytes the last garbage
// collection found reachable — every 2 ms through runtime/metrics, which
// does not stop the world. Live rather than allocated bytes keep the
// figure free of the collector's pacing.
type heapSampler struct {
	stop, done chan struct{}
	samples    []float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the samples.
func (h *heapSampler) Stop() []float64 {
	close(h.stop)
	<-h.done
	return h.samples
}

// gcStats reads the runtime's GC CPU time, total CPU time and cycle count.
func gcStats() (gcCPU, totalCPU float64, cycles uint64) {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64(), s[2].Value.Uint64()
}

// percentile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks. xs is sorted in place.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 0.5) }

// span accumulates one layer's wall time and allocation count.
type span struct {
	ns     int64
	allocs uint64
}

// timeSpan runs f and adds its wall time and allocations to s.
func (s *span) timeSpan(f func()) {
	a0, _ := mallocs()
	t0 := time.Now()
	f()
	s.ns += time.Since(t0).Nanoseconds()
	a1, _ := mallocs()
	s.allocs += a1 - a0
}

// counts are the program's own work counters, summed over a traced pass.
// They are functions of the inputs alone, so two traced passes over the
// same inputs must produce equal counts.
type counts struct {
	EventsFired     int64
	FramesOK        int64
	FramesCorrupted int64
	FramesOmitted   int64
	FramesTiming    int64
	GuardianBlocks  int64
	CRCFailures     int64
	DecodeErrors    int64
	FrameMisses     int64
	Overflows       int64
	SeqGaps         int64
	Epochs          int64
	Symptoms        int64
	Verdicts        int64
	TraceEvents     int64
	TraceBytes      int64
	WarrantyEvents  int64
	WarrantyCorrupt int64
	CkptBytes       int64
}

// pass is the per-layer record of one traced pass, measured from outside
// the program: spans around the calls into each layer, plus the attach
// points the program already offers (round hooks, stage timing, symptom
// and verdict hooks, the trace sink interface).
type pass struct {
	traced bool
	start  time.Time
	wallNS int64
	simS   float64

	build, restore, run, ckptEnc span
	audit, decode, fold, summary span

	collectNS, classifyNS, adviseNS int64
	recordNS, recordInRunNS         int64
	// The trace recorder's symptom and verdict hooks run inside the
	// collect and advise stages, so OnStageTiming's figures include the
	// time those records take.
	recordSymptomNS, recordVerdictNS int64
	roundUS                          []float64

	gcCPU, totalCPU float64
	gcCycles        uint64

	counts
}

// do runs f, inside span s when the pass is traced.
func (p *pass) do(s *span, f func()) {
	if !p.traced {
		f()
		return
	}
	s.timeSpan(f)
}

// advance runs f, which steps engine e. On a traced pass it first attaches
// the round, stage and evidence hooks to e (hooks cannot be removed; every
// engine a pass builds or restores is stepped once and dropped), times f
// as the engine.run span and adds the round-loop counters f moved.
func (p *pass) advance(e *engine.Engine, f func() error) error {
	if !p.traced {
		return f()
	}
	cl := e.Cluster
	var last time.Time
	cl.OnRound(func(int64, sim.Time) {
		now := time.Now()
		p.roundUS = append(p.roundUS, float64(now.Sub(last).Nanoseconds())/1e3)
		last = now
	})
	a := e.Diag.Assessor
	a.OnStageTiming(func(st diagnosis.Stage, ns int64) {
		switch st {
		case diagnosis.StageCollect:
			p.collectNS += ns
		case diagnosis.StageClassify:
			p.classifyNS += ns
		case diagnosis.StageAdvise:
			p.adviseNS += ns
			p.Epochs++
		}
	})
	a.OnSymptom(func(diagnosis.Symptom) { p.Symptoms++ })
	a.OnVerdict(func(diagnosis.Verdict) { p.Verdicts++ })

	st0, fc0, pt0 := cl.Sched.Stats(), cl.Bus.FrameCounts(), cl.Fabric.Totals()
	rec0 := p.recordNS
	var err error
	p.run.timeSpan(func() {
		last = time.Now()
		err = f()
	})
	p.recordInRunNS += p.recordNS - rec0
	st, fc, pt := cl.Sched.Stats(), cl.Bus.FrameCounts(), cl.Fabric.Totals()
	p.EventsFired += int64(st.Fired - st0.Fired)
	p.FramesOK += fc.OK - fc0.OK
	p.FramesCorrupted += fc.Corrupted - fc0.Corrupted
	p.FramesOmitted += fc.Omitted - fc0.Omitted
	p.FramesTiming += fc.Timing - fc0.Timing
	p.GuardianBlocks += fc.GuardianBlocks - fc0.GuardianBlocks
	p.CRCFailures += pt.CRCFailures - pt0.CRCFailures
	p.DecodeErrors += pt.DecodeErrors - pt0.DecodeErrors
	p.FrameMisses += pt.FrameMisses - pt0.FrameMisses
	p.Overflows += pt.Overflows - pt0.Overflows
	p.SeqGaps += pt.SeqGaps - pt0.SeqGaps
	return err
}

// timedSink wraps the trace sink handed to engine.WithSink, timing and
// counting every record.
type timedSink struct {
	trace.Sink
	p *pass
}

func (s *timedSink) Record(e *trace.Event) error {
	t0 := time.Now()
	err := s.Sink.Record(e)
	ns := time.Since(t0).Nanoseconds()
	s.p.recordNS += ns
	switch e.Kind {
	case "symptom":
		s.p.recordSymptomNS += ns
	case "verdict":
		s.p.recordVerdictNS += ns
	}
	s.p.TraceEvents++
	return err
}

// begin and end bracket a pass, reading the runtime's GC figures. The
// round-time buffer is sized up front so that appending to it does not
// allocate inside the engine.run span.
func (p *pass) begin(expectedRounds int) {
	if p.traced {
		p.roundUS = make([]float64, 0, expectedRounds)
	}
	p.gcCPU, p.totalCPU, p.gcCycles = gcStats()
	p.start = time.Now()
}

func (p *pass) end() {
	p.wallNS = time.Since(p.start).Nanoseconds()
	g, t, c := gcStats()
	p.gcCPU, p.totalCPU, p.gcCycles = g-p.gcCPU, t-p.totalCPU, c-p.gcCycles
}

// layerMetrics turns one pass into the per-layer metrics: times in ms and
// counts per simulated second, round percentiles in µs, fractions and
// each layer's share of the pass's wall time and allocations. Stage times
// exclude the trace records made inside them, so that each nanosecond
// counts in one layer only.
func (p *pass) layerMetrics() map[string]float64 {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / p.simS }
	per := func(n int64) float64 { return float64(n) / p.simS }
	collectNS := p.collectNS - p.recordSymptomNS
	adviseNS := p.adviseNS - p.recordVerdictNS
	diagNS := collectNS + p.classifyNS + adviseNS
	selfNS := p.run.ns - diagNS - p.recordInRunNS
	m := map[string]float64{
		"engine.build_ms":         ms(p.build.ns),
		"engine.build_allocs":     per(int64(p.build.allocs)),
		"engine.run_ms":           ms(p.run.ns),
		"engine.run_allocs":       per(int64(p.run.allocs)),
		"engine.restore_ms":       ms(p.restore.ns),
		"engine.restore_allocs":   per(int64(p.restore.allocs)),
		"component.round_us_p50":  percentile(p.roundUS, 0.5),
		"component.round_us_p90":  percentile(p.roundUS, 0.9),
		"component.round_self_ms": ms(selfNS),
		"sim.events_fired":        per(p.EventsFired),
		"tt.frames_ok":            per(p.FramesOK),
		"tt.frames_corrupted":     per(p.FramesCorrupted),
		"tt.frames_omitted":       per(p.FramesOmitted),
		"tt.frames_timing":        per(p.FramesTiming),
		"tt.guardian_blocks":      per(p.GuardianBlocks),
		"vnet.crc_failures":       per(p.CRCFailures),
		"vnet.decode_errors":      per(p.DecodeErrors),
		"vnet.frame_misses":       per(p.FrameMisses),
		"vnet.overflows":          per(p.Overflows),
		"vnet.seq_gaps":           per(p.SeqGaps),
		"diagnosis.collect_ms":    ms(collectNS),
		"diagnosis.classify_ms":   ms(p.classifyNS),
		"diagnosis.advise_ms":     ms(adviseNS),
		"diagnosis.epochs":        per(p.Epochs),
		"diagnosis.symptoms":      per(p.Symptoms),
		"diagnosis.verdicts":      per(p.Verdicts),
		"trace.record_ms":         ms(p.recordNS),
		"trace.events":            per(p.TraceEvents),
		"trace.bytes":             per(p.TraceBytes),
		"trace.decode_ms":         ms(p.decode.ns),
		"warranty.fold_ms":        ms(p.fold.ns),
		"warranty.events":         per(p.WarrantyEvents),
		"warranty.corrupt":        per(p.WarrantyCorrupt),
		"warranty.summary_ms":     ms(p.summary.ns),
		"ckpt.encode_ms":          ms(p.ckptEnc.ns),
		"ckpt.encode_allocs":      per(int64(p.ckptEnc.allocs)),
		"ckpt.bytes":              per(p.CkptBytes),
		"runtime.gc_cycles":       per(int64(p.gcCycles)),
		"runtime.gc_cpu_frac":     p.gcCPU / max(p.totalCPU, 1e-9),
	}

	// Wall-time shares. The audit block is trace recording outside the
	// round loop; its record time is inside p.recordNS already.
	wall := float64(p.wallNS)
	timeShare := map[string]int64{
		"engine":    p.build.ns + p.restore.ns,
		"component": selfNS,
		"diagnosis": diagNS,
		"trace":     p.recordNS + p.decode.ns,
		"warranty":  p.fold.ns + p.summary.ns,
		"ckpt":      p.ckptEnc.ns,
	}
	rest := p.wallNS
	for k, ns := range timeShare {
		m["share_time."+k] = float64(ns) / wall
		rest -= ns
	}
	m["share_time.other"] = float64(rest) / wall

	// Allocation shares. Component, diagnosis and trace recording all
	// allocate inside the round loop, which outside spans cannot split:
	// they share engine_run.
	allocShare := map[string]uint64{
		"engine_build":   p.build.allocs,
		"engine_restore": p.restore.allocs,
		"engine_run":     p.run.allocs,
		"ckpt":           p.ckptEnc.allocs,
		"trace":          p.audit.allocs + p.decode.allocs,
		"warranty":       p.fold.allocs + p.summary.allocs,
	}
	var sum uint64
	for _, n := range allocShare {
		sum += n
	}
	for k, n := range allocShare {
		m["share_allocs."+k] = float64(n) / float64(sum)
	}
	return m
}
