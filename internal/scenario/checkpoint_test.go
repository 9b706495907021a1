package scenario

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"decos/internal/bayes"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/sim"
	"decos/internal/trace"
)

// builder assembles one system tracing into w, plus extra engine options
// (a restore source).
type builder func(w *bytes.Buffer, extra ...engine.Option) *System

// wholeAndSplit runs total rounds twice: once in one call, and once cut at
// seeded random rounds, where about half the cuts checkpoint the engine and
// rebuild the rest of the run from the checkpoint (engine.WithRestore).
// The trace buffer is shared by every engine of the split run, so the
// stream continues across restores. It returns both final systems, their
// traces, and a description of the cuts for failure messages.
func wholeAndSplit(t *testing.T, rng *sim.RNG, total int64, build builder) (whole, split *System, wholeTrace, splitTrace *bytes.Buffer, cuts string) {
	t.Helper()
	wholeTrace, splitTrace = &bytes.Buffer{}, &bytes.Buffer{}
	whole = build(wholeTrace)
	whole.Run(total)

	var desc strings.Builder
	split = build(splitTrace)
	for ran := int64(0); ran < total; {
		n := min(1+int64(rng.Intn(int(total/3))), total-ran)
		split.Run(n)
		ran += n
		fmt.Fprintf(&desc, " %d", ran)
		if ran < total && rng.Bool(0.5) {
			desc.WriteString("(restored)")
			split = build(splitTrace, engine.WithRestore(bytes.NewReader(checkpointOf(t, split))))
		}
	}
	return whole, split, wholeTrace, splitTrace, desc.String()
}

func checkpointOf(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Engine.Checkpoint(&buf); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	return buf.Bytes()
}

// requireSame compares the final checkpoints (clock included) and traces of
// a whole and a split run.
func requireSame(t *testing.T, name, cuts string, whole, split *System, wholeTrace, splitTrace *bytes.Buffer) {
	t.Helper()
	if !bytes.Equal(checkpointOf(t, whole), checkpointOf(t, split)) {
		t.Errorf("%s cut at%s: final checkpoint differs from the whole run's (clock %v vs %v)",
			name, cuts, split.Engine.Now(), whole.Engine.Now())
	}
	if !bytes.Equal(wholeTrace.Bytes(), splitTrace.Bytes()) {
		t.Errorf("%s cut at%s: trace differs from the whole run's (%d vs %d bytes)",
			name, cuts, splitTrace.Len(), wholeTrace.Len())
	}
}

// TestSplitAndRestoredRunsEqualWholeRun is the restore oracle: a run cut
// at random rounds, and rebuilt from a checkpoint at a random subset of the
// cuts, ends in the same state — final checkpoint bytes, clock included —
// and writes the same trace bytes as one uninterrupted run.
func TestSplitAndRestoredRunsEqualWholeRun(t *testing.T) {
	rng := sim.NewRNG(20050404)

	// Fig. 10 vehicles with two faults each, and one fault-free vehicle,
	// traced the way a campaign traces them, end-of-run audit block
	// included: the audit records the ground-truth ledger and both
	// advisors' advice per hardware FRU, which is everything a campaign
	// result is computed from.
	kinds := AllKinds()
	const vehicleRounds = 300
	horizon := sim.Time(vehicleRounds) * sim.Time(sim.Millisecond)
	for v := 1; v <= 3; v++ {
		seed := rng.Uint64()
		perm := rng.Perm(len(kinds))
		var plan []InjectPlan
		if v < 3 {
			plan = []InjectPlan{
				{Kind: kinds[perm[0]], At: sim.Time(float64(horizon) * (0.1 + 0.3*rng.Float64())), Horizon: horizon},
				{Kind: kinds[perm[1]], At: sim.Time(float64(horizon) * (0.1 + 0.3*rng.Float64())), Horizon: horizon},
			}
		}
		fig10 := func(w *bytes.Buffer, extra ...engine.Option) *System {
			return Fig10Faulted(seed, diagnosis.Options{}, plan, append([]engine.Option{
				engine.WithTraceWriter(w, trace.Options{TrustEveryEpochs: 5, Vehicle: v}),
			}, extra...)...)
		}
		whole, split, wt, st, cuts := wholeAndSplit(t, rng, vehicleRounds, fig10)
		for _, sys := range []*System{whole, split} {
			sys.Engine.Recorder.WriteAudit(horizon, plan == nil, sys.Injector.Ledger(),
				[]trace.Advisor{{Name: "decos", Adv: sys.Diag}, {Name: "obd", Adv: sys.OBD}},
				hardwareFRUs(sys))
		}
		name := fmt.Sprintf("vehicle %d (faults %v)", v, plan)
		requireSame(t, name, cuts, whole, split, wt, st)
	}

	// A grid under the Bayesian stage with a connector fault: the posterior
	// and accusation graph must survive every restore float for float.
	const gridRounds = 400
	grid := func(w *bytes.Buffer, extra ...engine.Option) *System {
		return GridWith(6, 7, diagnosis.Options{}, append([]engine.Option{
			engine.WithClassifier(bayes.New()),
			engine.WithFaults(func(inj *faults.Injector) {
				inj.ConnectorTx(1, sim.Time(40*sim.Millisecond), 0, 0.4)
			}),
			engine.WithTraceWriter(w, trace.Options{TrustEveryEpochs: 5}),
		}, extra...)...)
	}
	whole, split, wt, st, cuts := wholeAndSplit(t, rng, gridRounds, grid)
	if len(whole.Diag.Assessor.CurrentAll()) == 0 {
		t.Fatal("grid: the Bayesian stage emitted no verdict; the comparison would be vacuous")
	}
	requireSame(t, "bayes grid", cuts, whole, split, wt, st)
}
