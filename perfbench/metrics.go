package main

// metricDef names one reported metric. moves says which end-to-end metric
// a per-layer metric is expected to move, and on which workload.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd are measured with tracing off, on every workload. A chunk is
// the timed unit: R replicates of 8 vehicles on fleet-nff, one 8-vehicle
// traced campaign plus its warranty summary on fleet-warranty, and
// restore + run + checkpoint on grid-resume.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "sim_s_per_host_s", unit: "sim_s/s", better: "higher"},
	{name: "allocs_per_sim_s", unit: "1/sim_s", better: "lower"},
	{name: "alloc_mb_per_sim_s", unit: "MB/sim_s", better: "lower"},
	{name: "heap_peak_mb", unit: "MB", better: "lower"},
	{name: "chunk_ms_p50", unit: "ms", better: "lower"},
	{name: "chunk_ms_p90", unit: "ms", better: "lower"},
}

const (
	movesEngine    = "sim_s_per_host_s and allocs_per_sim_s on fleet-nff and grid-resume"
	movesRoundLoop = "sim_s_per_host_s on fleet-nff most, on grid-resume more per round; not fleet-warranty's trace/warranty share"
	movesDiagnosis = "sim_s_per_host_s on grid-resume (bayes); only slightly on fleet-nff"
	movesTrace     = "sim_s_per_host_s and alloc_mb_per_sim_s on fleet-warranty only"
	movesWarranty  = "sim_s_per_host_s on fleet-warranty only"
	movesCkpt      = "chunk_ms_p50 and sim_s_per_host_s on grid-resume only"
	movesRuntime   = "sim_s_per_host_s on every workload; GC cost follows alloc_mb_per_sim_s"
	movesNone      = "none: where the traced run's time or allocations went"
)

// perLayer are measured by the traced run. Times and counts are per
// simulated second.
var perLayer = []metricDef{
	{"engine.build_ms", "ms/sim_s", "lower", movesEngine},
	{"engine.build_allocs", "allocs/sim_s", "lower", movesEngine},
	{"engine.run_ms", "ms/sim_s", "lower", movesEngine},
	{"engine.run_allocs", "allocs/sim_s", "lower", movesEngine},
	{"component.round_us_p50", "us", "lower", movesRoundLoop},
	{"component.round_us_p90", "us", "lower", movesRoundLoop},
	{"component.round_self_ms", "ms/sim_s", "lower", movesRoundLoop},
	{"sim.events_fired", "1/sim_s", "lower", movesRoundLoop},
	{"tt.frames_ok", "1/sim_s", "higher", movesRoundLoop},
	{"tt.frames_corrupted", "1/sim_s", "lower", movesRoundLoop},
	{"tt.frames_omitted", "1/sim_s", "lower", movesRoundLoop},
	{"tt.frames_timing", "1/sim_s", "lower", movesRoundLoop},
	{"tt.guardian_blocks", "1/sim_s", "lower", movesRoundLoop},
	{"vnet.crc_failures", "1/sim_s", "lower", movesRoundLoop},
	{"vnet.decode_errors", "1/sim_s", "lower", movesRoundLoop},
	{"vnet.frame_misses", "1/sim_s", "lower", movesRoundLoop},
	{"vnet.overflows", "1/sim_s", "lower", movesRoundLoop},
	{"vnet.seq_gaps", "1/sim_s", "lower", movesRoundLoop},
	{"diagnosis.collect_ms", "ms/sim_s", "lower", movesDiagnosis},
	{"diagnosis.classify_ms", "ms/sim_s", "lower", movesDiagnosis},
	{"diagnosis.advise_ms", "ms/sim_s", "lower", movesDiagnosis},
	{"diagnosis.epochs", "1/sim_s", "lower", movesDiagnosis},
	{"diagnosis.symptoms", "1/sim_s", "lower", movesDiagnosis},
	{"diagnosis.verdicts", "1/sim_s", "lower", movesDiagnosis},
	{"trace.record_ms", "ms/sim_s", "lower", movesTrace},
	{"trace.events", "1/sim_s", "lower", movesTrace},
	{"trace.bytes", "B/sim_s", "lower", movesTrace},
	{"trace.decode_ms", "ms/sim_s", "lower", movesTrace},
	{"warranty.fold_ms", "ms/sim_s", "lower", movesWarranty},
	{"warranty.events", "1/sim_s", "lower", movesWarranty},
	{"warranty.corrupt", "1/sim_s", "lower", movesWarranty},
	{"warranty.summary_ms", "ms/sim_s", "lower", movesWarranty},
	{"ckpt.encode_ms", "ms/sim_s", "lower", movesCkpt},
	{"ckpt.encode_allocs", "allocs/sim_s", "lower", movesCkpt},
	{"ckpt.bytes", "B/sim_s", "lower", movesCkpt},
	{"engine.restore_ms", "ms/sim_s", "lower", movesCkpt},
	{"engine.restore_allocs", "allocs/sim_s", "lower", movesCkpt},
	{"runtime.gc_cpu_frac", "frac", "lower", movesRuntime},
	{"runtime.gc_cycles", "1/sim_s", "lower", movesRuntime},
	{"trace_overhead_frac", "frac", "lower", "none: the cost of this benchmark's own tracing"},
	{"share_time.engine", "frac", "lower", movesNone},
	{"share_time.component", "frac", "lower", movesNone},
	{"share_time.diagnosis", "frac", "lower", movesNone},
	{"share_time.trace", "frac", "lower", movesNone},
	{"share_time.warranty", "frac", "lower", movesNone},
	{"share_time.ckpt", "frac", "lower", movesNone},
	{"share_time.other", "frac", "lower", movesNone},
	{"share_allocs.engine_build", "frac", "lower", movesNone},
	{"share_allocs.engine_restore", "frac", "lower", movesNone},
	{"share_allocs.engine_run", "frac", "lower", movesNone},
	{"share_allocs.ckpt", "frac", "lower", movesNone},
	{"share_allocs.trace", "frac", "lower", movesNone},
	{"share_allocs.warranty", "frac", "lower", movesNone},
}
