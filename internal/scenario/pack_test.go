package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/pack"
	"decos/internal/sim"
	"decos/internal/trace"
)

// TestCampaignKindsContract pins pack.CampaignKinds — the names a
// manifest's campaign mix may weight — to the FaultKind enum. The pack
// package cannot import scenario, so it carries its own copy of the
// list; this test is what keeps the two in lockstep.
func TestCampaignKindsContract(t *testing.T) {
	var want []string
	for _, k := range AllKinds() {
		want = append(want, k.String())
	}
	if !reflect.DeepEqual(pack.CampaignKinds, want) {
		t.Fatalf("pack.CampaignKinds out of sync with scenario.AllKinds:\npack:     %v\nscenario: %v",
			pack.CampaignKinds, want)
	}
	for _, k := range AllKinds() {
		got, ok := ParseKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseKind("gremlin"); ok {
		t.Error("ParseKind accepted an unknown kind")
	}
}

// traceOf runs a freshly built engine for n rounds and returns its
// binary trace bytes.
func traceOf(t *testing.T, n int64, build func(w *bytes.Buffer) *engine.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	eng := build(&buf)
	eng.RunRounds(n)
	return buf.Bytes()
}

var traceOpts = trace.Options{AllFrames: true, TrustEveryEpochs: 2}

// TestManifestFig10ByteIdentical is the refactor's core guarantee: a
// manifest declaring the Fig. 10 topology drives the engine through the
// exact option composition the Go constructor produces, so the two runs
// emit byte-identical traces — RNG draws, frame payloads, verdict
// timing and all. The fault list exercises the manifest's injector
// mapping against hand-written injections of the same primitives.
func TestManifestFig10ByteIdentical(t *testing.T) {
	const (
		seed   = 20050404
		rounds = 600
	)
	goAPI := traceOf(t, rounds, func(w *bytes.Buffer) *engine.Engine {
		sys := Fig10(seed, diagnosis.Options{},
			engine.WithFaults(func(inj *faults.Injector) {
				inj.DefectiveQuartz(1, sim.Time(200*sim.Millisecond), 90_000)
				cl := inj.Cluster()
				inj.SensorStuck(cl.DAS("A").JobNamed("A1"), sim.Time(300*sim.Millisecond), 42.5)
			}),
			engine.WithTraceWriter(w, traceOpts))
		return sys.Engine
	})

	manifest := traceOf(t, rounds, func(w *bytes.Buffer) *engine.Engine {
		m, err := pack.Parse([]byte(fmt.Sprintf(`pack = 1
name = "round-trip"
seed = %d
rounds = %d
[topology]
kind = "fig10"
[[faults]]
kind = "quartz"
component = 1
at_ms = 200
drift_ppm = 90000
[[faults]]
kind = "sensor-stuck"
job = "A/A1"
at_ms = 300
value = 42.5
`, seed, rounds)), "round-trip.toml")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := m.Engine(engine.WithTraceWriter(w, traceOpts))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	})

	if len(goAPI) == 0 {
		t.Fatal("Go API run produced no trace")
	}
	if !bytes.Equal(goAPI, manifest) {
		t.Fatalf("manifest run diverges from the Go constructor: %d vs %d trace bytes",
			len(manifest), len(goAPI))
	}
}

// TestManifestGridByteIdentical is the same round-trip over the
// scalability grid topology.
func TestManifestGridByteIdentical(t *testing.T) {
	const (
		seed   = 1234
		nodes  = 6
		rounds = 400
	)
	goAPI := traceOf(t, rounds, func(w *bytes.Buffer) *engine.Engine {
		sys := GridWith(nodes, seed, diagnosis.Options{},
			engine.WithTraceWriter(w, traceOpts))
		return sys.Engine
	})
	manifest := traceOf(t, rounds, func(w *bytes.Buffer) *engine.Engine {
		m, err := pack.Parse([]byte(fmt.Sprintf(`pack = 1
name = "grid-round-trip"
seed = %d
rounds = %d
[topology]
kind = "grid"
nodes = %d
`, seed, rounds, nodes)), "grid-round-trip.toml")
		if err != nil {
			t.Fatal(err)
		}
		eng, err := m.Engine(engine.WithTraceWriter(w, traceOpts))
		if err != nil {
			t.Fatal(err)
		}
		return eng
	})
	if len(goAPI) == 0 {
		t.Fatal("Go API run produced no trace")
	}
	if !bytes.Equal(goAPI, manifest) {
		t.Fatalf("manifest run diverges from the Go constructor: %d vs %d trace bytes",
			len(manifest), len(goAPI))
	}
}

// TestShippedPacksConform is the conformance contract: every manifest
// shipped under packs/ parses, validates, runs against both classifiers
// and meets its own expectations — and scoring it twice produces the
// identical result (packs are pure functions of their manifests). One
// subtest per pack, so a regression names the pack that broke.
func TestShippedPacksConform(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir, ok := pack.FindPacksDir(wd)
	if !ok {
		t.Fatal("no packs/ directory above the test")
	}
	files, err := pack.Discover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("pack library shrank to %d manifests, want ≥ 10", len(files))
	}
	ctx := context.Background()
	for _, path := range files {
		m, err := pack.Load(path)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			first := Conform(ctx, m)
			if first.Error != "" {
				t.Fatalf("conformance error: %s", first.Error)
			}
			if !first.Pass {
				for _, cs := range first.Classifiers {
					for _, c := range cs.Checks {
						if !c.Pass {
							t.Errorf("%s: %s — %s", cs.Classifier, c.Desc, c.Detail)
						}
					}
				}
				t.Fatal("pack does not meet its own expectations")
			}
			if len(first.Classifiers) == 0 {
				t.Fatal("pack scored no classifiers")
			}
			for _, cs := range first.Classifiers {
				if cs.Classifier == pack.ClassifierDECOS && cs.Total == 0 {
					t.Error("pack carries no DECOS expectations — a vacuous 1.0 score")
				}
			}
			second := Conform(ctx, m)
			a, _ := json.Marshal(stripWallClock(first))
			b, _ := json.Marshal(stripWallClock(second))
			if !bytes.Equal(a, b) {
				t.Fatalf("conformance is not deterministic:\nfirst:  %s\nsecond: %s", a, b)
			}
		})
	}
}

// stripWallClock zeroes the per-leg wall-clock before the determinism
// comparison: timing is the one report field allowed to vary between
// otherwise identical runs.
func stripWallClock(pr *pack.PackResult) *pack.PackResult {
	out := *pr
	out.Classifiers = append([]pack.ClassifierScore(nil), pr.Classifiers...)
	for i := range out.Classifiers {
		out.Classifiers[i].WallClockMS = 0
	}
	return &out
}
