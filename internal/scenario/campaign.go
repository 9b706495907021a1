package scenario

import (
	"bytes"
	"context"
	"fmt"
	"sync"

	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/fleet"
	"decos/internal/maintenance"
	"decos/internal/pack"
	"decos/internal/sim"
	"decos/internal/trace"
	"decos/internal/tt"
)

// FaultKind enumerates the injectable fault types of a campaign, covering
// every class of the maintenance-oriented fault model.
type FaultKind int

const (
	KindEMI FaultKind = iota
	KindSEU
	KindConnectorTx
	KindConnectorRx
	KindWearout
	KindIntermittent
	KindPermanent
	KindQuartz
	KindConfig
	KindBohrbug
	KindHeisenbug
	KindJobCrash
	KindSensorStuck
	KindSensorDrift
	KindPowerDip

	numKinds
)

func (k FaultKind) String() string {
	names := [...]string{
		"emi", "seu", "connector-tx", "connector-rx", "wearout",
		"intermittent", "permanent", "quartz", "config", "bohrbug",
		"heisenbug", "job-crash", "sensor-stuck", "sensor-drift",
		"power-dip",
	}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// AllKinds returns every fault kind.
func AllKinds() []FaultKind {
	out := make([]FaultKind, numKinds)
	for i := range out {
		out[i] = FaultKind(i)
	}
	return out
}

// DefaultMix approximates the field distributions the paper cites: external
// transients dominate (high transient FIT), connector problems account for
// a large share of electrical failures (~30 %, Swingler), internal
// permanents are rare (100 FIT), and software/configuration faults follow
// the 20-80 observation.
func DefaultMix() map[FaultKind]float64 {
	return map[FaultKind]float64{
		KindEMI:          0.16,
		KindSEU:          0.14,
		KindConnectorTx:  0.14,
		KindConnectorRx:  0.08,
		KindWearout:      0.07,
		KindIntermittent: 0.07,
		KindPermanent:    0.05,
		KindQuartz:       0.04,
		KindConfig:       0.07,
		KindBohrbug:      0.05,
		KindHeisenbug:    0.05,
		KindJobCrash:     0.02,
		KindSensorStuck:  0.03,
		KindSensorDrift:  0.03,
		KindPowerDip:     0.06,
	}
}

// Inject performs one randomized injection of the given kind on a Fig. 10
// system. at is the activation instant; horizon the vehicle's total
// simulated span (used to bound open windows). It returns the ledger entry.
//
// Hardware fault targets are restricted to components 0..2 so the analysis
// stage of the diagnostic DAS (component 3) stays operational; in a
// production deployment the diagnostic DAS is itself replicated.
func (s *System) Inject(kind FaultKind, at sim.Time, horizon sim.Time) *faults.Activation {
	return s.InjectWith(s.Injector, kind, at, horizon)
}

// InjectWith is Inject against an explicit injector. It exists for the
// two call sites that cannot use the system's own injector field: fault
// manifests (engine.WithFaults hooks run before the System struct is
// wired, see Fig10Faulted) and counterfactual replay (decos-whatif
// injects hypotheses into a restored engine).
func (s *System) InjectWith(inj *faults.Injector, kind FaultKind, at sim.Time, horizon sim.Time) *faults.Activation {
	comp := tt.NodeID(inj.Cluster().Streams.Stream("campaign").Intn(3))
	return s.inject(inj, kind, comp, at)
}

// InjectAt is InjectWith with the hardware target pinned to an explicit
// component instead of drawn from the campaign stream. It exists for
// counterfactual replay (decos-whatif's wrong-FRU hypothesis: the same
// fault kind manifesting on a different component); kinds without a
// component target — EMI, software and configuration faults — fall back
// to InjectWith's randomized targeting.
func (s *System) InjectAt(inj *faults.Injector, kind FaultKind, comp tt.NodeID, at sim.Time, horizon sim.Time) *faults.Activation {
	switch kind {
	case KindEMI, KindConfig, KindBohrbug, KindHeisenbug, KindJobCrash, KindSensorStuck, KindSensorDrift:
		return s.InjectWith(inj, kind, at, horizon)
	}
	return s.inject(inj, kind, comp, at)
}

// inject applies one fault of the given kind at at, on component comp
// where the kind has a hardware target; any further randomized parameter
// draws from the campaign stream.
func (s *System) inject(inj *faults.Injector, kind FaultKind, comp tt.NodeID, at sim.Time) *faults.Activation {
	rng := inj.Cluster().Streams.Stream("campaign")
	switch kind {
	case KindEMI:
		// Epicenter near a random pair of proximate components.
		x := []float64{0.5, 5.5}[rng.Intn(2)]
		return inj.EMIBurst(at, x, 0, 2, faults.EMIBurstDuration, 4)
	case KindSEU:
		return inj.SEU(at, comp)
	case KindConnectorTx:
		return inj.ConnectorTx(comp, at, 0, 0.2+0.3*rng.Float64())
	case KindConnectorRx:
		return inj.ConnectorRx(comp, at, 0, 0.2+0.3*rng.Float64())
	case KindWearout:
		acc := faults.WearoutAcceleration{
			Onset:           at,
			Tau:             400 * sim.Millisecond,
			BaseRatePerHour: 3600 * 4,
			MaxFactor:       40,
		}
		return inj.Wearout(comp, acc, 3600*20)
	case KindIntermittent:
		return inj.IntermittentInternal(comp, at, 3600*6, 0)
	case KindPermanent:
		return inj.PermanentFailSilent(comp, at)
	case KindQuartz:
		return inj.DefectiveQuartz(comp, at, 50_000+rng.Float64()*100_000)
	case KindConfig:
		return inj.MisconfigureQueue(s.Sink, ChLoad, 1)
	case KindBohrbug:
		return inj.Bohrbug(s.Sensor, ChSpeed,
			func(v float64, now sim.Time) bool { return now >= at && v > 55 }, 400)
	case KindHeisenbug:
		return inj.Heisenbug(s.Sensor, ChSpeed, 0.04, 500, false)
	case KindJobCrash:
		return inj.JobCrash(s.Sensor, at)
	case KindSensorStuck:
		return inj.SensorStuck(s.Sensor, at, 60)
	case KindSensorDrift:
		return inj.SensorDrift(s.Sensor, at, 3600*50)
	case KindPowerDip:
		return inj.PowerDip(comp, at, faults.TransientOutage)
	default:
		panic("scenario: unknown fault kind")
	}
}

// Campaign describes a fleet-scale fault-injection experiment: Vehicles
// independent Fig. 10 systems, each running Rounds TDMA rounds with one
// fault drawn from Mix (a share of vehicles stays fault-free to measure
// false alarms).
type Campaign struct {
	Vehicles int
	Rounds   int64
	Seed     uint64
	// Mix weights fault kinds; nil uses DefaultMix.
	Mix map[FaultKind]float64
	// FaultFreeShare is the fraction of vehicles without any fault.
	FaultFreeShare float64
	// FaultsPerVehicle is the number of simultaneous faults injected into
	// each faulty vehicle (distinct kinds; default 1). Higher values
	// stress the classification: overlapping manifestations are the hard
	// case of FRU-level diagnosis.
	FaultsPerVehicle int
	// Workers bounds the number of vehicles simulated concurrently.
	// Vehicles are fully independent simulations, so the campaign is
	// embarrassingly parallel; results are identical for any worker
	// count (all randomness is pre-drawn sequentially). 0 or 1 runs
	// sequentially.
	Workers int
	// Classifier selects the diagnostic pipeline's classification stage
	// for every vehicle: "" or "decos" keeps the DECOS rule engine, "obd"
	// swaps the threshold baseline into the pipeline, "bayes" installs
	// the Bayesian posterior stage (a fresh posterior per vehicle —
	// vehicles are independent realizations). The OBD baseline advisor
	// stays attached alongside regardless, so CampaignResult.OBD always
	// reports the baseline while CampaignResult.DECOS reports whatever
	// stage runs in the pipeline.
	Classifier string
	// Opts tunes the diagnostic subsystem.
	Opts diagnosis.Options
}

// CampaignResult carries the audited comparison of both diagnosers plus
// false-alarm statistics.
type CampaignResult struct {
	DECOS *maintenance.Report
	OBD   *maintenance.Report
	// FalseAlarms counts hardware-removal recommendations for FRUs that
	// were never a culprit, per diagnoser, across fault-free vehicles.
	DECOSFalseAlarms int
	OBDFalseAlarms   int
	FaultFreeCount   int
	// Fleet tallies every job-inherent verdict across the fleet (Section
	// V-C): the 20-80 concentration and systematic-fault separation.
	Fleet *fleet.Tally
	// Partial flags a result cut short by context cancellation: only
	// Completed vehicles are merged; in-flight vehicles are discarded
	// whole, so the numbers that are present remain exact.
	Partial   bool
	Completed int
}

// vehiclePlan is one vehicle's pre-drawn randomness, fixed before any
// concurrent work starts so the campaign result is independent of the
// worker count.
type vehiclePlan struct {
	seed      uint64
	faultFree bool
	kinds     []FaultKind
	atFrac    []float64
}

// vehicleOutcome is one simulated vehicle's audit material.
type vehicleOutcome struct {
	faultFree        bool
	decosFalseAlarms int
	obdFalseAlarms   int
	acts             []*faults.Activation
	diag             maintenance.Advisor
	obd              maintenance.Advisor
	incidents        []fleet.Incident
}

// TraceSink receives one vehicle's complete NDJSON trace, audit block
// included. Vehicles are 1-based. It is invoked from worker goroutines:
// implementations must be safe for concurrent use.
type TraceSink func(vehicle int, ndjson []byte)

// Run executes the campaign — in parallel when Workers > 1 — and audits
// both diagnosers against the shared ground truth.
func (c Campaign) Run() *CampaignResult { return c.run(context.Background(), nil) }

// RunContext is Run under a context: cancellation stops feeding vehicles,
// aborts in-flight simulations at the next scheduler poll, and returns a
// partial result (Partial=true) merging only the vehicles that completed.
// Workers exit before RunContext returns — no goroutines are leaked.
func (c Campaign) RunContext(ctx context.Context) *CampaignResult { return c.run(ctx, nil) }

// RunTraced is Run doubling as the fleet load generator: every vehicle
// additionally records a JSON-lines trace (failed frames, symptoms,
// verdicts, trust samples, injections, end-of-run audit) and hands it to
// sink — the off-line warranty-analysis interface of Section V-B at fleet
// scale. Recording only observes, so the returned result is bit-identical
// to Run's for the same seeds.
func (c Campaign) RunTraced(sink TraceSink) *CampaignResult {
	return c.RunTracedContext(context.Background(), sink)
}

// RunTracedContext is RunTraced under a context, with RunContext's
// partial-result semantics; cancelled vehicles hand nothing to sink.
func (c Campaign) RunTracedContext(ctx context.Context, sink TraceSink) *CampaignResult {
	return c.run(ctx, sink)
}

func (c Campaign) run(ctx context.Context, sink TraceSink) *CampaignResult {
	mix := c.Mix
	if mix == nil {
		mix = DefaultMix()
	}
	kinds, weights := normalizeMix(mix)
	perVehicle := c.FaultsPerVehicle
	if perVehicle <= 0 {
		perVehicle = 1
	}

	// Draw all randomness up front, sequentially.
	pickRNG := sim.NewRNG(c.Seed ^ 0xcafef00d)
	plans := make([]vehiclePlan, c.Vehicles)
	for v := range plans {
		p := vehiclePlan{
			seed:      c.Seed + uint64(v)*7919,
			faultFree: pickRNG.Bool(c.FaultFreeShare),
		}
		if !p.faultFree {
			used := map[FaultKind]bool{}
			for len(p.kinds) < perVehicle && len(used) < len(kinds) {
				kind := kinds[sample(pickRNG, weights)]
				if used[kind] {
					continue
				}
				used[kind] = true
				p.kinds = append(p.kinds, kind)
				p.atFrac = append(p.atFrac, 0.1+0.3*pickRNG.Float64())
			}
		}
		plans[v] = p
	}

	outcomes := make([]vehicleOutcome, c.Vehicles)
	done := make([]bool, c.Vehicles)
	// runOne simulates vehicle v end to end and reports whether it
	// completed. A cancelled vehicle is discarded whole — no partial
	// outcome, no trace handed to sink — so merged numbers stay exact.
	runOne := func(v int) bool {
		if ctx.Err() != nil {
			return false
		}
		p := plans[v]
		// Each vehicle gets its own classifier instance (the Bayesian
		// stage is stateful; posteriors must not leak across vehicles).
		extra := pack.ClassifierOptions(c.Classifier)
		var buf bytes.Buffer
		if sink != nil {
			extra = append(extra, engine.WithTraceWriter(&buf,
				trace.Options{TrustEveryEpochs: 5, Vehicle: v + 1}))
		}
		// The injections ride in the fault manifest (Fig10Faulted), not as
		// post-build calls: a manifest is what a checkpoint restore can
		// reconstruct.
		horizon := sim.Time(c.Rounds * tt.UniformSchedule(4, 250*sim.Microsecond, 256).RoundDuration().Micros())
		plan := make([]InjectPlan, 0, len(p.kinds))
		for i, kind := range p.kinds {
			plan = append(plan, InjectPlan{
				Kind: kind, At: sim.Time(float64(horizon) * p.atFrac[i]), Horizon: horizon,
			})
		}
		sys := Fig10Faulted(p.seed, c.Opts, plan, extra...)
		if err := sys.RunCtx(ctx, c.Rounds); err != nil {
			return false
		}
		rec := sys.Engine.Recorder
		out := vehicleOutcome{
			faultFree: p.faultFree, diag: sys.Diag, obd: sys.OBD,
			acts: sys.Injector.Ledger(),
		}
		if p.faultFree {
			out.decosFalseAlarms = countRemovalAdvice(sys, sys.Diag)
			out.obdFalseAlarms = countRemovalAdvice(sys, sys.OBD)
		}
		for _, vd := range sys.Diag.Assessor.Emitted() {
			if fleet.Relevant(vd.Class) {
				out.incidents = append(out.incidents, fleet.Incident{
					Vehicle: v + 1, Job: vd.FRU.Job, Class: vd.Class, Pattern: vd.Pattern,
				})
			}
		}
		if rec != nil {
			rec.WriteAudit(horizon, p.faultFree, out.acts,
				[]trace.Advisor{{Name: "decos", Adv: sys.Diag}, {Name: "obd", Adv: sys.OBD}},
				hardwareFRUs(sys))
			sink(v+1, buf.Bytes())
		}
		outcomes[v] = out
		return true
	}

	if c.Workers > 1 {
		var wg sync.WaitGroup
		work := make(chan int)
		for w := 0; w < c.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for v := range work {
					done[v] = runOne(v)
				}
			}()
		}
	feed:
		for v := 0; v < c.Vehicles; v++ {
			select {
			case work <- v:
			case <-ctx.Done():
				break feed
			}
		}
		close(work)
		wg.Wait()
	} else {
		for v := 0; v < c.Vehicles && ctx.Err() == nil; v++ {
			done[v] = runOne(v)
		}
	}

	// Merge in vehicle order: deterministic regardless of Workers. Only
	// completed vehicles contribute.
	res := &CampaignResult{Fleet: fleet.NewTally()}
	var decosLedger, obdLedger []auditPair
	for v, out := range outcomes {
		if !done[v] {
			continue
		}
		res.Completed++
		for _, inc := range out.incidents {
			res.Fleet.Observe(inc.Vehicle, inc.Job)
		}
		if out.faultFree {
			res.FaultFreeCount++
			res.DECOSFalseAlarms += out.decosFalseAlarms
			res.OBDFalseAlarms += out.obdFalseAlarms
			continue
		}
		for _, act := range out.acts {
			decosLedger = append(decosLedger, auditPair{act: act, adv: out.diag})
			obdLedger = append(obdLedger, auditPair{act: act, adv: out.obd})
		}
	}
	res.DECOS = evaluatePairs(decosLedger)
	res.OBD = evaluatePairs(obdLedger)
	res.Partial = ctx.Err() != nil && res.Completed < c.Vehicles
	return res
}

type auditPair struct {
	act *faults.Activation
	adv maintenance.Advisor
}

// evaluatePairs audits activations that live on different advisor
// instances (one per vehicle), through the same arm-audit accumulation
// the trace-fed warranty engine runs.
func evaluatePairs(pairs []auditPair) *maintenance.Report {
	audit := maintenance.ArmAudit{
		Report: maintenance.Report{Confusion: map[core.FaultClass]map[core.FaultClass]int{}},
	}
	for _, p := range pairs {
		audit.Audit(p.act, p.adv)
	}
	return &audit.Report
}

// hardwareFRUs lists the hardware FRUs of a system (the audit block
// interrogates advisors about each so false alarms are trace-visible).
func hardwareFRUs(sys *System) []core.FRU {
	var out []core.FRU
	for _, c := range sys.Cluster.Components() {
		out = append(out, core.HardwareFRU(int(c.ID)))
	}
	return out
}

// countRemovalAdvice counts hardware FRUs the advisor would remove on a
// fault-free vehicle, folding each recommendation through the shared
// arm audit (every removal there is a false alarm).
func countRemovalAdvice(sys *System, adv maintenance.Advisor) int {
	var audit maintenance.ArmAudit
	for _, c := range sys.Cluster.Components() {
		if action, _, ok := adv.Advise(core.HardwareFRU(int(c.ID))); ok {
			audit.HealthyAdvice(action)
		}
	}
	return audit.FalseAlarms
}

func normalizeMix(mix map[FaultKind]float64) ([]FaultKind, []float64) {
	var kinds []FaultKind
	for _, k := range AllKinds() {
		if mix[k] > 0 {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) == 0 {
		// A mix without any positive weight (empty map, or all entries
		// zero/negative) would leave sample() choosing from nothing and
		// index kinds[-1]; treat it like a nil Mix and fall back to the
		// default field distribution.
		return normalizeMix(DefaultMix())
	}
	total := 0.0
	for _, k := range kinds {
		total += mix[k]
	}
	weights := make([]float64, len(kinds))
	for i, k := range kinds {
		weights[i] = mix[k] / total
	}
	return kinds, weights
}

func sample(rng *sim.RNG, weights []float64) int {
	u := rng.Float64()
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}
