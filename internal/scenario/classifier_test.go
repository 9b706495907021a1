package scenario

import (
	"testing"

	"decos/internal/baseline"
	"decos/internal/bayes"
	"decos/internal/ckpt"
	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/sim"
)

// All three first-class diagnosers satisfy the pipeline's
// classification-stage contract; the Bayesian stage additionally
// checkpoints its posterior and ranks verdicts.
var (
	_ diagnosis.Classifier = (*diagnosis.FaultModelClassifier)(nil)
	_ diagnosis.Classifier = (*baseline.OBD)(nil)
	_ diagnosis.Classifier = (*bayes.Classifier)(nil)
	_ ckpt.Snapshotter     = (*bayes.Classifier)(nil)
	_ diagnosis.Ranker     = (*bayes.Classifier)(nil)
)

// TestClassifiersInterchangeable is the contract test of the staged
// pipeline: the DECOS fault-model classifier, the OBD baseline and the
// Bayesian posterior stage plug into the same Collector → Classifier →
// Adviser pipeline, and for a fault all three can see — a permanent
// fail-silent component, well past the OBD 500 ms DTC threshold — each
// drives a verdict through the identical downstream surface
// (VerdictOf / Advise), with the maintenance action derived by the
// shared adviser rule.
func TestClassifiersInterchangeable(t *testing.T) {
	const seed = 20050404
	run := func(extra ...engine.Option) *System {
		sys := Fig10(seed, diagnosis.Options{}, extra...)
		// Kill component 2 early so the failure persists far beyond the
		// OBD recording threshold.
		sys.Injector.PermanentFailSilent(2, sim.Time(50*sim.Millisecond))
		sys.Run(4000)
		return sys
	}

	decos := run()
	obd := run(engine.WithOBDClassifier())
	bayesian := run(engine.WithClassifier(bayes.New()))

	if name := decos.Diag.Assessor.Classifier().Name(); name != "decos" {
		t.Fatalf("default classifier = %q, want decos", name)
	}
	if name := obd.Diag.Assessor.Classifier().Name(); name != "obd" {
		t.Fatalf("selected classifier = %q, want obd", name)
	}
	if name := bayesian.Diag.Assessor.Classifier().Name(); name != "bayes" {
		t.Fatalf("selected classifier = %q, want bayes", name)
	}

	fru := core.HardwareFRU(2)
	for _, sys := range []*System{decos, obd, bayesian} {
		name := sys.Diag.Assessor.Classifier().Name()

		v, ok := sys.Diag.VerdictOf(fru)
		if !ok {
			t.Fatalf("%s: no verdict for the dead component", name)
		}
		if v.Class != core.ComponentInternal {
			t.Errorf("%s: class = %v, want ComponentInternal", name, v.Class)
		}
		// The action comes from the shared adviser stage, so it must agree
		// with the Fig. 11 derivation rule for the diagnosed class.
		wantClass, wantAction := diagnosis.DeriveAction(v.Class, false)
		if v.Action != wantAction || v.Class != wantClass {
			t.Errorf("%s: verdict %v/%v disagrees with DeriveAction → %v/%v",
				name, v.Class, v.Action, wantClass, wantAction)
		}

		// The maintenance.Advisor surface is the same code path on both.
		action, class, found := sys.Diag.Advise(fru)
		if !found || action != v.Action || class != v.Class {
			t.Errorf("%s: Advise = (%v, %v, %v), want verdict (%v, %v, true)",
				name, action, class, found, v.Action, v.Class)
		}

		// Healthy components stay unaccused under either classifier.
		if hv, ok := sys.Diag.VerdictOf(core.HardwareFRU(1)); ok {
			t.Errorf("%s: healthy component 1 accused: %+v", name, hv)
		}
	}

	// The OBD path must also agree with its own standalone advisory view —
	// the baseline's Advise routes through the same shared derivation.
	action, class, found := obd.OBD.Advise(fru)
	if !found || class != core.ComponentInternal || action != core.ActionReplaceComponent {
		t.Errorf("OBD.Advise = (%v, %v, %v), want (replace-component, ComponentInternal, true)",
			action, class, found)
	}
}
