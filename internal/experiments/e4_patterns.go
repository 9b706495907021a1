package experiments

import (
	"fmt"

	"decos/internal/diagnosis"
	"decos/internal/faults"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/tt"
)

type ttNodeID = tt.NodeID

// E4Patterns measures the fault-pattern table of the paper's Fig. 8 from
// simulation: for wearout, massive transient and connector faults, the
// characteristic manifestation in the time, space and value dimensions of
// the distributed state.
func E4Patterns(seed uint64) *Result {
	opts := diagnosis.Options{RetainGranules: 10_000, WindowGranules: 3000}
	metrics := map[string]float64{}
	t := newTable("fault", "time dimension", "space dimension", "value dimension")

	// --- Wearout: increasing frequency, one component, rising deviation.
	{
		sys := scenario.Fig10(seed, opts)
		acc := faults.WearoutAcceleration{
			Onset: sim.Time(200 * sim.Millisecond), Tau: 500 * sim.Millisecond,
			BaseRatePerHour: 3600 * 3, MaxFactor: 40,
		}
		sys.Injector.Wearout(0, acc, 3600*20)
		sys.Run(3000)
		hist := sys.Diag.Assessor.Hist
		hw0, _ := sys.Diag.Reg.HardwareIndex(0)
		g := hist.Latest()
		firstHalf := hist.ActiveGranuleCount(hw0, 0, g/2, diagnosis.KindIn(diagnosis.SymCorruption))
		secondHalf := hist.ActiveGranuleCount(hw0, g/2+1, g, diagnosis.KindIn(diagnosis.SymCorruption))
		affected := corruptedComponents(sys, g)
		devEarly := maxJobDeviation(sys, 0, 0, g/2)
		devLate := maxJobDeviation(sys, 0, g/2+1, g)
		rise := ratio(secondHalf, firstHalf)
		t.row("wearout",
			fmt.Sprintf("episode granules %d→%d (×%.1f rising)", firstHalf, secondHalf, rise),
			fmt.Sprintf("%d component(s)", affected),
			fmt.Sprintf("deviation %.2f→%.2f (increasing)", devEarly, devLate))
		metrics["wearout_rise"] = rise
		metrics["wearout_components"] = float64(affected)
		metrics["wearout_dev_increasing"] = b2f(devLate > devEarly)
	}

	// --- Massive transient: simultaneous, spatially proximate, multi-bit.
	{
		sys := scenario.Fig10(seed+1, opts)
		sys.Injector.EMIBurst(sim.Time(500*sim.Millisecond), 0.5, 0, 2, 10*sim.Millisecond, 4)
		sys.Run(2000)
		hist := sys.Diag.Assessor.Hist
		g := hist.Latest()
		var spanMin, spanMax int64 = 1 << 62, -1
		comps := 0
		maxBits := 0.0
		for _, hw := range sys.Diag.Reg.HardwareFRUs() {
			gs := hist.AppendActiveGranules(nil, hw, 0, g, diagnosis.KindIn(diagnosis.SymCorruption))
			if len(gs) == 0 {
				continue
			}
			comps++
			if gs[0] < spanMin {
				spanMin = gs[0]
			}
			if gs[len(gs)-1] > spanMax {
				spanMax = gs[len(gs)-1]
			}
			if d := hist.MaxDeviation(hw, 0, g, diagnosis.KindIn(diagnosis.SymCorruption)); d > maxBits {
				maxBits = d
			}
		}
		span := spanMax - spanMin
		t.row("massive transient",
			fmt.Sprintf("all within %d ms window", span),
			fmt.Sprintf("%d proximate components", comps),
			fmt.Sprintf("multi-bit flips (max %.0f bits)", maxBits))
		metrics["emi_span_granules"] = float64(span)
		metrics["emi_components"] = float64(comps)
		metrics["emi_max_bits"] = maxBits
	}

	// --- Connector: arbitrary times, one component, omissions.
	{
		sys := scenario.Fig10(seed+2, opts)
		sys.Injector.ConnectorTx(0, sim.Time(200*sim.Millisecond), 0, 0.25)
		sys.Run(3000)
		hist := sys.Diag.Assessor.Hist
		g := hist.Latest()
		hw0, _ := sys.Diag.Reg.HardwareIndex(0)
		omit := hist.ActiveGranuleCount(hw0, 0, g, diagnosis.KindIn(diagnosis.SymOmission))
		comps := 0
		for _, hw := range sys.Diag.Reg.HardwareFRUs() {
			if hist.ActiveGranuleCount(hw, 0, g, diagnosis.KindIn(diagnosis.SymOmission)) > 0 {
				comps++
			}
		}
		duty := float64(omit) / float64(g-200+1)
		corr := hist.Count(hw0, 0, g, diagnosis.KindIn(diagnosis.SymCorruption))
		t.row("connector",
			fmt.Sprintf("arbitrary, duty %.0f%% of granules", 100*duty),
			fmt.Sprintf("%d component(s)", comps),
			fmt.Sprintf("omissions on channel (%d granules; %d corruptions)", omit, corr))
		metrics["connector_duty"] = duty
		metrics["connector_components"] = float64(comps)
		metrics["connector_omission_granules"] = float64(omit)
	}

	return &Result{
		ID:      "E4",
		Figure:  "Fig. 8 — fault patterns in time/space/value, measured",
		Table:   t.String(),
		Metrics: metrics,
	}
}

func corruptedComponents(sys *scenario.System, g int64) int {
	n := 0
	for _, hw := range sys.Diag.Reg.HardwareFRUs() {
		if sys.Diag.Assessor.Hist.ActiveGranuleCount(hw, 0, g, diagnosis.KindIn(diagnosis.SymCorruption)) > 0 {
			n++
		}
	}
	return n
}

func maxJobDeviation(sys *scenario.System, node int, from, to int64) float64 {
	max := 0.0
	hw, _ := sys.Diag.Reg.HardwareIndex(ttNode(node))
	for _, sw := range sys.Diag.Reg.JobsOn(hw) {
		d := sys.Diag.Assessor.Hist.MaxDeviation(sw, from, to,
			diagnosis.KindIn(diagnosis.SymDeviation, diagnosis.SymValue))
		if d > max {
			max = d
		}
	}
	return max
}

func ttNode(n int) ttNodeID { return ttNodeID(n) }

func ratio(a, b int) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return float64(a)
	}
	return float64(a) / float64(b)
}
