// Condition-based maintenance: the paper's Section III-E argues that the
// increase of transient failures is the wearout indicator for electronics —
// the electronic analogue of measuring a brake pad. This example ages one
// component with an accelerating transient-failure process, watches its
// trust level decline (Fig. 9 trajectory A), and shows the wearout pattern
// being recognized while a second component that only suffers external
// disturbances keeps its trust (trajectory B).
//
// Run with: go run ./examples/wearout
package main

import (
	"fmt"

	"decos/internal/core"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/maintenance"
	"decos/internal/scenario"
	"decos/internal/sim"
)

func main() {
	// Both ageing processes are declared up front in the engine's fault
	// manifest. Component 0 wears out: transient episodes whose rate
	// grows exponentially (doubling roughly every 350 ms of simulated
	// time — compressed from years to seconds so the run stays short),
	// plus a slow output drift toward the spec boundary. Component 2 is
	// healthy but sits in an EMI-exposed location.
	sys := scenario.Fig10(11, diagnosis.Options{},
		engine.WithFaults(func(inj *faults.Injector) {
			acc := faults.WearoutAcceleration{
				Onset:           sim.Time(400 * sim.Millisecond),
				Tau:             500 * sim.Millisecond,
				BaseRatePerHour: 3600 * 4,
				MaxFactor:       40,
			}
			inj.Wearout(0, acc, 3600*20)
			inj.EMIBurst(sim.Time(800*sim.Millisecond), 5.5, 0, 1.2, 10*sim.Millisecond, 4)
		}))

	sys.Engine.RunRounds(4000)

	hwA, _ := sys.Diag.Reg.HardwareIndex(0)
	hwB, _ := sys.Diag.Reg.HardwareIndex(2)
	histA := sys.Diag.Assessor.TrustHistory(hwA)
	histB := sys.Diag.Assessor.TrustHistory(hwB)

	fmt.Println("trust trajectories (A = wearing out, B = EMI-disturbed):")
	fmt.Println("time       A                    B")
	step := len(histA) / 16
	if step == 0 {
		step = 1
	}
	for i := 0; i < len(histA); i += step {
		fmt.Printf("%-9s  %-20s %s\n", histA[i].At,
			bar(float64(histA[i].Trust)), bar(float64(histB[i].Trust)))
	}

	fmt.Println()
	if v, ok := sys.Diag.VerdictOf(core.HardwareFRU(0)); ok {
		fmt.Printf("component 0 verdict: %s (pattern %q) → %s\n", v.Class, v.Pattern, v.Action)
	}
	if v, ok := sys.Diag.VerdictOf(core.HardwareFRU(2)); ok {
		fmt.Printf("component 2 verdict: %s (pattern %q) → %s\n", v.Class, v.Pattern, v.Action)
	}

	fmt.Println("\ncondition-based maintenance schedule:")
	recs := maintenance.DefaultPreventivePolicy().Evaluate(sys.Diag)
	if len(recs) == 0 {
		fmt.Println("  nothing due")
	}
	for _, r := range recs {
		fmt.Printf("  %s\n", r)
	}
	trend := sys.Diag.Assessor.Trend(hwA)
	fmt.Printf("\nwearout indicator on component 0: episode duty %.2f → %.2f (×%.1f)\n",
		trend.EarlyRate, trend.LateRate, trend.Growth)
	fmt.Println()
	fmt.Println("Condition-based maintenance: the wearing component is scheduled for")
	fmt.Println("replacement before it fails permanently; the EMI-hit component is NOT")
	fmt.Println("replaced — avoiding a no-fault-found removal that would have been")
	fmt.Println("booked at $800.")
}

func bar(v float64) string {
	n := int(v*20 + 0.5)
	out := make([]byte, 20)
	for i := range out {
		if i < n {
			out[i] = '#'
		} else {
			out[i] = '.'
		}
	}
	return string(out)
}
