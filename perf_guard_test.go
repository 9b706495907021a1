package decos

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"

	"decos/internal/bayes"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/experiments"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/telemetry"
	"decos/internal/trace"
	"decos/internal/tt"
)

// Allocation guards for the simulator hot paths. The zero-allocation
// contract (scratch reuse, event pooling, dense bus state) is what the
// perf trajectory in BENCH_pr2.json is built on; these tests fail loudly
// when a change reintroduces per-slot or per-epoch garbage.

// nullController is the cheapest possible TT controller: a fixed frame, no
// reaction to traffic.
type nullController struct{ payload []byte }

func (c *nullController) BuildFrame(round int64, slot int) []byte { return c.payload }
func (c *nullController) OnSlot(f tt.Frame, st tt.FrameStatus)    {}
func (c *nullController) OnRoundEnd(round int64)                  {}

// TestAllocGuardBusSlot drives a bare 4-node bus and requires at most 2
// allocations per TDMA slot in steady state (the pooled slot event and the
// bus scratch make the expected count 0).
func TestAllocGuardBusSlot(t *testing.T) {
	sched := sim.NewScheduler()
	cfg := tt.UniformSchedule(4, 250*sim.Microsecond, 32)
	bus := tt.NewBus(cfg, sched)
	for i := 0; i < 4; i++ {
		bus.Attach(tt.NodeID(i), &nullController{payload: []byte{byte(i)}})
	}
	bus.Start()

	const roundsPerRun = 512
	slotsPerRun := roundsPerRun * len(cfg.Slots)
	roundUS := cfg.RoundDuration().Micros()
	var until sim.Time
	run := func() {
		until += sim.Time(roundsPerRun * roundUS)
		sched.RunUntil(context.Background(), until)
	}
	run() // warm the event pool and bus scratch

	allocs := testing.AllocsPerRun(5, run)
	perSlot := allocs / float64(slotsPerRun)
	t.Logf("bus slot: %.4f allocs/slot", perSlot)
	if perSlot > 2 {
		t.Errorf("bus slot allocates %.2f objects/slot, want <= 2", perSlot)
	}
}

// TestAllocGuardAssessorEpoch bounds one ONA-suite evaluation over a loaded
// history (active connector fault, symptom traffic flowing). The epoch
// scratch (EvalContext, finding map, sort buffers) is reused; what remains
// is the per-epoch trust-history growth and emitted findings (measured ~3).
func TestAllocGuardAssessorEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster warm-up in -short mode")
	}
	sys := scenario.Fig10(20050404, diagnosis.Options{})
	sys.Injector.ConnectorTx(0, 0, 0, 0.3)
	sys.Run(2000)
	a := sys.Diag.Assessor

	granule := int64(2000)
	var now sim.Time
	run := func() {
		granule++
		now++
		a.EvaluateNow(granule, now)
	}
	run() // warm the epoch scratch

	allocs := testing.AllocsPerRun(50, run)
	t.Logf("assessor epoch: %.1f allocs/epoch", allocs)
	if allocs > 16 {
		t.Errorf("assessor epoch allocates %.1f objects, want <= 16", allocs)
	}
}

// TestAllocGuardBayesEpoch bounds one Bayesian classification epoch over
// the same loaded history: the stage's window scans (observer and episode
// queries) append into scratch the classifier owns (measured 1 alloc/epoch;
// 16 when the scans returned fresh slices).
func TestAllocGuardBayesEpoch(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster warm-up in -short mode")
	}
	sys := scenario.Fig10(20050404, diagnosis.Options{}, engine.WithClassifier(bayes.New()))
	sys.Injector.ConnectorTx(0, 0, 0, 0.3)
	sys.Run(2000)
	a := sys.Diag.Assessor

	granule := int64(2000)
	var now sim.Time
	run := func() {
		granule++
		now++
		a.EvaluateNow(granule, now)
	}
	run() // warm the epoch scratch

	allocs := testing.AllocsPerRun(50, run)
	t.Logf("bayes epoch: %.1f allocs/epoch", allocs)
	if allocs > 4 {
		t.Errorf("bayes epoch allocates %.1f objects, want <= 4", allocs)
	}
}

// TestAllocGuardTelemetryRound is the zero-overhead contract of the
// telemetry subsystem, measured: a Fig. 10 cluster round with a nil
// registry must allocate exactly what an entirely un-optioned cluster
// allocates (the disabled path installs no hooks at all), and an enabled
// registry may add at most 2 allocations per round on top.
func TestAllocGuardTelemetryRound(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster warm-up in -short mode")
	}
	perRound := func(extra ...engine.Option) float64 {
		sys := scenario.Fig10(20050404, diagnosis.Options{}, extra...)
		sys.Run(200) // warm pools, scratch and trust histories
		const roundsPerRun = 64
		allocs := testing.AllocsPerRun(5, func() { sys.Run(roundsPerRun) })
		return allocs / roundsPerRun
	}

	base := perRound()
	nilReg := perRound(engine.WithTelemetry(nil))
	enabled := perRound(engine.WithTelemetry(telemetry.New()))
	t.Logf("allocs/round: base %.3f, nil registry %.3f, enabled %.3f", base, nilReg, enabled)

	if nilReg != base {
		t.Errorf("nil-registry round allocates %.3f objects, baseline %.3f — disabled telemetry must be free", nilReg, base)
	}
	if enabled > base+2 {
		t.Errorf("enabled-registry round allocates %.3f objects, want <= baseline + 2 (%.3f)", enabled, base+2)
	}
}

// TestAllocGuardBayesOffRound pins the bayes-off contract: a default
// Fig. 10 cluster round (DECOS classification stage, no bayes option)
// must stay allocation-free in steady state (measured 0.031 allocs/round,
// down from 2.98 before the virtual-network receive path recycled its
// payload buffers). The Bayesian stage is pay-for-use — installing it may
// cost more per round, but not installing it must cost nothing.
func TestAllocGuardBayesOffRound(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster warm-up in -short mode")
	}
	sys := scenario.Fig10(20050404, diagnosis.Options{})
	sys.Run(200) // warm pools, scratch and trust histories
	const roundsPerRun = 64
	allocs := testing.AllocsPerRun(5, func() { sys.Run(roundsPerRun) })
	perRound := allocs / roundsPerRun
	t.Logf("bayes-off cluster round: %.3f allocs/round", perRound)
	if perRound > 0.1 {
		t.Errorf("default cluster round allocates %.3f objects/round, want <= 0.1", perRound)
	}
}

// TestAllocGuardE8 is the end-to-end allocation budget of the headline
// experiment: the E8 NFF campaign at the canonical seed (150 vehicles,
// 3000 rounds each, build and audit included), per vehicle. The round-level
// guards above cannot see build-time or per-vehicle garbage; this one
// does. Measured 1,598 allocs/vehicle (12.9k before the receive path
// stopped allocating per delivery); the budget is that plus 10 %.
func TestAllocGuardE8(t *testing.T) {
	if testing.Short() {
		t.Skip("full E8 campaign in -short mode")
	}
	const vehicles, budget = 150, 1758
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := experiments.E8NFF(20050404)
	runtime.ReadMemStats(&after)
	if r.Metrics["decos_action_acc"] <= r.Metrics["obd_action_acc"] {
		t.Fatal("E8 NFF comparison inverted")
	}
	perVehicle := float64(after.Mallocs-before.Mallocs) / vehicles
	t.Logf("E8: %.0f allocs/vehicle", perVehicle)
	if perVehicle > budget {
		t.Errorf("E8 allocates %.0f objects/vehicle, want <= %d", perVehicle, budget)
	}
}

// TestAllocGuardTraceCodec pins the binary trace codec's zero-allocation
// contract on both sides of the wire: encoding events into a sink and
// decoding them back must allocate nothing per event in steady state
// (pooled encode scratch, reused payload buffer, interned strings,
// pointer-field scratch). This is what makes the ≥5x ingest speedup in
// BENCH_pr7.json structural rather than incidental.
func TestAllocGuardTraceCodec(t *testing.T) {
	events := syntheticFleetEvents(64, 256)

	sink := trace.NewBinarySink(io.Discard)
	encodeRun := func() {
		for i := range events {
			if err := sink.Record(&events[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	encodeRun() // warm the scratch pool before measuring
	if allocs := testing.AllocsPerRun(5, encodeRun); allocs != 0 {
		t.Errorf("binary encode allocates %.0f times per %d events, want 0", allocs, len(events))
	}

	blob := encodeTraceBlob(t, events, trace.FormatBinary)
	rd := trace.NewBinaryReader(bytes.NewReader(blob))
	const perRun = 1024
	decodeRun := func() {
		for i := 0; i < perRun; i++ {
			if _, err := rd.Next(); err != nil {
				t.Fatalf("event %d: %v", rd.Records(), err)
			}
		}
	}
	decodeRun()                    // warm the intern table and payload scratch
	runs := len(events)/perRun - 2 // stay clear of EOF
	if allocs := testing.AllocsPerRun(runs, decodeRun); allocs != 0 {
		t.Errorf("binary decode allocates %.0f times per %d events, want 0", allocs, perRun)
	}
}
