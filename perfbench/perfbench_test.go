package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"decos/internal/fleet"
	"decos/internal/scenario"
	"decos/internal/warranty"
)

// The benchmark runs from the repository root, where the golden snapshot
// and BENCHMARK.json live; so do its tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestInputsDeterministic(t *testing.T) {
	draw := func(seed uint64) ([]scenario.Campaign, []gridPlan, []vehiclePlan) {
		in := newInputs(seed)
		var cs []scenario.Campaign
		for i := 0; i < 4; i++ {
			cs = append(cs, in.campaign())
		}
		return cs, newInputs(seed).gridPlans(), vehicles(cs[0])
	}
	c1, p1, v1 := draw(7)
	c2, p2, v2 := draw(7)
	if !reflect.DeepEqual(c1, c2) || !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(v1, v2) {
		t.Fatal("same seed drew different inputs")
	}
	c3, p3, _ := draw(8)
	if reflect.DeepEqual(c1, c3) || reflect.DeepEqual(p1, p3) {
		t.Fatal("different seeds drew the same inputs")
	}
}

// A deck's worth of campaigns carries E8's mix exactly.
func TestCampaignsDealTheDeck(t *testing.T) {
	in := newInputs(9)
	got := map[card]int{}
	for i := 0; i < deckSize/fleetVehicles; i++ {
		for _, v := range vehicles(in.campaign()) {
			c := card{faultFree: v.FaultFree}
			if !v.FaultFree {
				c.kind = v.Plan[0].Kind
			}
			got[c]++
		}
	}
	if got[card{faultFree: true}] != 20 {
		t.Fatalf("%d fault-free vehicles in a deck, want 20", got[card{faultFree: true}])
	}
	mix := scenario.DefaultMix()
	kinds, total := mixKinds(mix)
	sum := 0
	for _, k := range kinds {
		n, want := got[card{kind: k}], 80*mix[k]/total
		if float64(n) < want-1 || float64(n) > want+1 {
			t.Errorf("%v: %d vehicles in a deck, want %.1f", k, n, want)
		}
		sum += n
	}
	if sum != 80 {
		t.Fatalf("%d faulty vehicles in a deck, want 80", sum)
	}
}

// The traced pass re-draws the campaign's vehicles; it must draw the ones
// the campaign runs.
func TestVehiclesMatchCampaign(t *testing.T) {
	c := scenario.Campaign{Vehicles: 6, Rounds: 400, Seed: 12345, FaultFreeShare: fleetFaultFree, Workers: 1}
	res := c.Run()
	faults, incidents := 0, 0
	for _, vp := range vehicles(c) {
		sys := scenario.Fig10Faulted(vp.Seed, c.Opts, vp.Plan)
		sys.Run(c.Rounds)
		if !vp.FaultFree {
			faults += len(sys.Injector.Ledger())
		}
		for _, vd := range sys.Diag.Assessor.Emitted() {
			if fleet.Relevant(vd.Class) {
				incidents++
			}
		}
	}
	if faults != res.DECOS.Total || incidents != res.Fleet.Incidents() {
		t.Fatalf("one-by-one vehicles: %d faults, %d incidents; campaign: %d, %d",
			faults, incidents, res.DECOS.Total, res.Fleet.Incidents())
	}
}

func TestCheckRejectsFlippedTraceByte(t *testing.T) {
	r := newFleetRunner(true, 3)
	r.traced = r.traced[:1]
	var blob []byte
	c := r.in.campaign()
	c.Vehicles = 1
	c.RunTraced(func(_ int, ndjson []byte) { blob = append([]byte(nil), ndjson...) })
	if _, corrupt, err := decodeAll(blob); err != nil || checkTraceClean(corrupt) != nil {
		t.Fatalf("clean trace rejected: corrupt %d, err %v", corrupt, err)
	}
	blob[0] ^= 0xff
	_, corrupt, _ := decodeAll(blob)
	if checkTraceClean(corrupt) == nil {
		t.Fatal("trace with a flipped byte passed the check")
	}
	col := warranty.NewCollector(0)
	if _, corrupt, _ := col.IngestStream(bytes.NewReader(blob), 0); checkTraceClean(corrupt) == nil {
		t.Fatal("collector ingest of a flipped byte passed the check")
	}
}

func TestCheckRejectsTruncatedCheckpoint(t *testing.T) {
	ctx := context.Background()
	p := newInputs(5).gridPlans()[0]
	ref, err := reference(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := resume(ctx, p, &pass{})
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResume(got, ref); err != nil {
		t.Fatalf("restored run rejected: %v", err)
	}
	cut := got
	cut.ckpt = got.ckpt[:len(got.ckpt)-1]
	if checkResume(cut, ref) == nil {
		t.Fatal("truncated checkpoint passed the check")
	}
	if _, err := restoreGrid(p, cut.ckpt); err == nil {
		t.Fatal("restoring a truncated checkpoint did not fail")
	}
	fewer := got
	fewer.verdicts = got.verdicts[:len(got.verdicts)-1]
	if len(got.verdicts) > 0 && checkResume(fewer, ref) == nil {
		t.Fatal("missing verdict passed the check")
	}
}

func TestCheckRejectsMismatchedAudit(t *testing.T) {
	c := newInputs(11).campaign()
	col := warranty.NewCollector(0)
	res := c.RunTraced(func(_ int, ndjson []byte) { col.IngestStream(bytes.NewReader(ndjson), 0) })
	s := col.Summary(0)
	if err := checkAgreement(s, res, c.Vehicles); err != nil {
		t.Fatalf("matching audit rejected: %v", err)
	}
	res.DECOS.Cost += 800
	if checkAgreement(s, res, c.Vehicles) == nil {
		t.Fatal("audit with an extra removal passed the check")
	}
	res.DECOS.Cost -= 800
	if checkAgreement(s, res, c.Vehicles+1) == nil {
		t.Fatal("summary missing a vehicle passed the check")
	}
}

func TestCheckRejectsFleetClaimLoss(t *testing.T) {
	stat := func(m float64) scenario.Stat { return scenario.Stat{Mean: m, N: 1} }
	win := &scenario.MonteCarloResult{Replicates: 1, Completed: 1,
		PipelineNFF: stat(0), BaselineNFF: stat(0.2), PipelineAccuracy: stat(1), BaselineAccuracy: stat(0.1)}
	if err := checkFleetClaim([]*scenario.MonteCarloResult{win}); err != nil {
		t.Fatal(err)
	}
	loss := *win
	loss.PipelineNFF = stat(0.5)
	if checkFleetClaim([]*scenario.MonteCarloResult{win, &loss, &loss}) == nil {
		t.Fatal("DECOS with the higher NFF ratio passed the check")
	}
	partial := *win
	partial.Completed, partial.Partial = 0, true
	if checkReplicates(&partial, 1) == nil {
		t.Fatal("incomplete replicate passed the check")
	}
}

func TestCheckRejectsGoldenDrift(t *testing.T) {
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(string(want), string(want)); err != nil {
		t.Fatal(err)
	}
	drift := strings.Replace(string(want), "122", "121", 1)
	if checkGolden(drift, string(want)) == nil {
		t.Fatal("drifted E8 report passed the check")
	}
}

func TestTracedCountersRepeat(t *testing.T) {
	ctx := context.Background()
	nff := newFleetRunner(false, 2)
	nff.traced = nff.traced[:4]
	war := newFleetRunner(true, 2)
	war.traced = war.traced[:4]
	grid, err := newGridRunner(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]runner{"fleet-nff": nff, "fleet-warranty": war, "grid-resume": grid} {
		a, err := r.pass(ctx, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := r.pass(ctx, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := checkRepeat(a.counts, b.counts); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if a.EventsFired == 0 || a.FramesOK == 0 || a.Epochs == 0 {
			t.Errorf("%s: round-loop counters are zero: %+v", name, a.counts)
		}
	}
}

func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(got []metric, want []metricDef) bool {
		if len(got) != len(want) {
			return false
		}
		for i, d := range want {
			if got[i] != (metric{d.name, d.unit, d.better}) {
				return false
			}
		}
		return true
	}
	if !same(b.EndToEnd, endToEnd) || !same(b.PerLayer, perLayer) {
		t.Fatal("BENCHMARK.json metrics differ from the ones the benchmark reports")
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Fatalf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
}

// A short run of each workload prints every metric of its mode and a
// passing check as the last line.
func TestRunPrintsResult(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range []string{"fleet-nff", "fleet-warranty", "grid-resume"} {
		for _, mode := range []string{"0", "1"} {
			var out bytes.Buffer
			if err := run([]string{"--workload", name, "--seed", "4", "--seconds", "0.2", "--trace", mode}, &out); err != nil {
				t.Fatalf("%s trace %s: %v", name, mode, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: last line: %v", name, mode, err)
			}
			defs := endToEnd
			if mode == "1" {
				defs = perLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 || len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace %s: %s", name, mode, out.String())
			}
		}
	}
	if err := run([]string{"--workload", "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
