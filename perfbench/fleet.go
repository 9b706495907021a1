package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/experiments"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/trace"
	"decos/internal/warranty"
)

// nffReplicates is the Monte Carlo replicates one fleet-nff unit runs.
// One keeps units short enough for a timed run to hold the hundred units
// chunk_ms_p90 needs; a run's R replicates are its units.
const nffReplicates = 1

// goldenPath is the E8 snapshot the fleet-nff reference replicate must
// reproduce, relative to the repository root.
const goldenPath = "internal/engine/testdata/E8_seed20050404.golden"

// fleetRunner drives fleet-nff (warranty false) and fleet-warranty
// (warranty true).
type fleetRunner struct {
	warranty bool
	in       *inputs
	// traced is the fixed vehicle set of every traced pass.
	traced []vehiclePlan
	// nff collects fleet-nff's per-unit Monte Carlo means for the
	// fleet-level claim checked once the timed loop ends.
	nff []*scenario.MonteCarloResult
}

func newFleetRunner(warranty bool, seed uint64) *fleetRunner {
	r := &fleetRunner{warranty: warranty, in: newInputs(seed)}
	for len(r.traced) < tracedVehicles {
		r.traced = append(r.traced, vehicles(r.in.campaign())...)
	}
	return r
}

// warmUnits is the number of untimed units set-up runs.
const warmUnits = 4

// warm runs untimed units on fixed campaigns, so that lazy initialisation
// and the first heap growth happen in set-up and set-up costs the same
// whatever the seed. Their checks are left to the timed units, which
// count a failure against the run instead of aborting it.
func (r *fleetRunner) warm(ctx context.Context) {
	in := r.in
	r.in = newInputs(goldenSeed)
	for i := 0; i < warmUnits; i++ {
		r.unit(ctx)
	}
	r.in, r.nff = in, nil
}

// unit runs one timed fleet unit: a Monte Carlo replicate of a campaign
// (fleet-nff), or one campaign whose traces feed a warranty collector from
// the sink callback, followed by one summary (fleet-warranty).
func (r *fleetRunner) unit(ctx context.Context) unitResult {
	c := r.in.campaign()
	if !r.warranty {
		mc := c.MonteCarlo(ctx, nffReplicates)
		n := nffReplicates * c.Vehicles
		if err := checkReplicates(mc, nffReplicates); err != nil {
			return unitResult{attempted: n, failed: n, err: err}
		}
		r.nff = append(r.nff, mc)
		return unitResult{attempted: n, simS: vehicleSimS(n)}
	}
	col := warranty.NewCollector(0)
	var mu sync.Mutex
	var corrupt int
	var ingestErr error
	res := c.RunTracedContext(ctx, func(v int, ndjson []byte) {
		_, bad, err := col.IngestStream(bytes.NewReader(ndjson), 0)
		mu.Lock()
		corrupt += bad
		ingestErr = errors.Join(ingestErr, err)
		mu.Unlock()
	})
	s := col.Summary(0)
	err := errors.Join(ingestErr, checkTraceClean(corrupt), checkAgreement(s, res, c.Vehicles))
	if err != nil {
		return unitResult{attempted: c.Vehicles, failed: c.Vehicles, err: err}
	}
	return unitResult{attempted: c.Vehicles, simS: vehicleSimS(c.Vehicles)}
}

// finish makes the fleet-level checks after the timed loop: on fleet-nff,
// the DECOS pipeline is no worse than the OBD baseline over the run's
// replicates, and the 150-vehicle reference replicate reproduces the E8
// golden snapshot.
func (r *fleetRunner) finish(ctx context.Context) (unitResult, error) {
	if r.warranty {
		return unitResult{}, nil
	}
	claim := checkFleetClaim(r.nff)
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		return unitResult{}, fmt.Errorf("read golden: %w", err)
	}
	res := unitResult{attempted: goldenVehicles}
	got, ok := experiments.ByID("E8", goldenSeed)
	if !ok {
		return unitResult{}, errors.New("experiment E8 not registered")
	}
	if err := checkGolden(got.String(), string(want)); err != nil {
		res.failed, res.err = goldenVehicles, err
	}
	return res, claim
}

// vehicleSimS is the simulated time of n E8 vehicles.
func vehicleSimS(n int) float64 {
	return float64(n) * float64(fleetRounds) * float64(fig10Round) / float64(sim.Second)
}

// pass drives the fixed traced vehicle set one at a time through
// scenario.Fig10Faulted, with the campaign's parameters and fault draw.
// With observe set it records every layer; without, it runs the same
// work bare, as the reference for the tracing overhead.
func (r *fleetRunner) pass(ctx context.Context, observe bool) (*pass, error) {
	p := &pass{traced: observe, simS: vehicleSimS(len(r.traced))}
	p.begin(len(r.traced) * fleetRounds)
	defer p.end()
	horizon := sim.Time(fleetRounds * int64(fig10Round))
	col := warranty.NewCollector(0)
	for v, vp := range r.traced {
		var buf bytes.Buffer
		var extra []engine.Option
		if r.warranty {
			var sink trace.Sink = trace.NewNDJSONSink(&buf)
			if observe {
				sink = &timedSink{Sink: sink, p: p}
			}
			extra = append(extra, engine.WithSink(sink, trace.Options{TrustEveryEpochs: 5, Vehicle: v + 1}))
		}
		var sys *scenario.System
		p.do(&p.build, func() { sys = scenario.Fig10Faulted(vp.Seed, diagnosis.Options{}, vp.Plan, extra...) })
		if err := p.advance(sys.Engine, func() error { return sys.RunCtx(ctx, fleetRounds) }); err != nil {
			return nil, err
		}
		if !r.warranty {
			continue
		}
		p.do(&p.audit, func() {
			sys.Engine.Recorder.WriteAudit(horizon, vp.FaultFree, sys.Injector.Ledger(),
				[]trace.Advisor{{Name: "decos", Adv: sys.Diag}, {Name: "obd", Adv: sys.OBD}},
				hardwareFRUs(sys))
		})
		p.TraceBytes += int64(buf.Len())
		var events []trace.Event
		var corrupt int
		var err error
		p.do(&p.decode, func() { events, corrupt, err = decodeAll(buf.Bytes()) })
		if err != nil {
			return nil, fmt.Errorf("vehicle %d: decode trace: %w", v+1, err)
		}
		p.do(&p.fold, func() {
			for _, e := range events {
				col.Ingest(e)
			}
		})
		p.WarrantyEvents += int64(len(events))
		p.WarrantyCorrupt += int64(corrupt)
	}
	if r.warranty {
		var s *warranty.Summary
		p.do(&p.summary, func() { s = col.Summary(0) })
		if err := checkTraceClean(int(p.WarrantyCorrupt)); err != nil {
			return nil, err
		}
		if s.Vehicles != len(r.traced) {
			return nil, fmt.Errorf("warranty summary has %d vehicles, want %d", s.Vehicles, len(r.traced))
		}
	}
	return p, nil
}

// decodeAll reads a whole trace through trace.OpenReader/Next.
func decodeAll(blob []byte) ([]trace.Event, int, error) {
	rd, _ := trace.OpenReader(bytes.NewReader(blob))
	var events []trace.Event
	for {
		e, err := rd.Next()
		if err == io.EOF {
			return events, rd.Corrupt(), nil
		}
		if err != nil {
			return events, rd.Corrupt(), err
		}
		events = append(events, e)
	}
}

// hardwareFRUs lists a system's hardware FRUs, which the audit block
// interrogates both advisors about.
func hardwareFRUs(sys *scenario.System) []core.FRU {
	var out []core.FRU
	for _, c := range sys.Cluster.Components() {
		out = append(out, core.HardwareFRU(int(c.ID)))
	}
	return out
}
