// Garage: the repair loop from the paper's opening question — "whether a
// replacement of a particular component will put an end to spurious system
// malfunctions". A car with an intermittent connector fault visits two
// workshops. The conventional one reads out DTCs, finds nothing (the
// intermittent never crosses the 500 ms recording threshold), and sends
// the customer home; on a second visit it swaps the ECU for $800 — and the
// car still fails. The DECOS workshop reads the diagnostic DAS's verdict,
// re-seats the connector, and the malfunction is gone.
//
// Run with: go run ./examples/garage
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
	fmt.Println("=== conventional workshop (OBD) ===")
	conventional()
	fmt.Println("\n=== DECOS workshop (integrated diagnostic architecture) ===")
	decosShop()
}

// faultyCar builds the Fig. 10 vehicle with its fretting connector
// declared in the engine's fault manifest.
func faultyCar() (*scenario.System, *faults.Activation) {
	var act *faults.Activation
	sys := scenario.Fig10(101, diagnosis.Options{},
		engine.WithFaults(func(inj *faults.Injector) {
			act = inj.ConnectorTx(0, sim.Time(100*sim.Millisecond), 0, 0.3)
		}))
	return sys, act
}

func drive(sys *scenario.System, rounds int64) int {
	before := sys.Diag.Assessor.SymptomsReceived
	sys.Engine.RunRounds(rounds)
	return sys.Diag.Assessor.SymptomsReceived - before
}

func conventional() {
	sys, act := faultyCar()
	bad := drive(sys, 3000)
	fmt.Printf("customer complaint: spurious malfunctions (%d deviations observed on the bus)\n", bad)

	// Visit 1: read DTC memory.
	if dtcs := sys.OBD.DTCs(); len(dtcs) == 0 {
		fmt.Println("visit 1: no stored trouble codes — 'no trouble found', customer sent home")
	}
	bad = drive(sys, 2000)
	fmt.Printf("customer returns: still failing (%d deviations)\n", bad)

	// Visit 2: desperate measure — swap the ECU anyway.
	fmt.Println("visit 2: ECU replaced on suspicion ($800)")
	fixed := maintenance.Apply(act, core.ActionReplaceComponent)
	fmt.Printf("did the swap fix the connector fault? %v (the removed ECU will retest OK — a no-fault-found removal)\n", fixed)
	sys.OBD.Clear(0)
	drive(sys, 500) // settle
	bad = drive(sys, 2000)
	fmt.Printf("customer returns again: %d deviations — the loom-side connector is still fretting\n", bad)
}

func decosShop() {
	sys, act := faultyCar()
	bad := drive(sys, 3000)
	fmt.Printf("customer complaint: spurious malfunctions (%d deviations observed on the bus)\n", bad)

	v, ok := sys.Diag.VerdictOf(core.HardwareFRU(0))
	if !ok {
		fmt.Println("no verdict — unexpected")
		return
	}
	fmt.Printf("diagnostic DAS verdict: %s (pattern %q, confidence %.2f)\n", v.Class, v.Pattern, v.Confidence)
	fmt.Printf("advised action: %s ($0 in parts)\n", v.Action)

	fixed := maintenance.Apply(act, v.Action)
	fmt.Printf("connector re-seated/replaced: fault eliminated = %v\n", fixed)
	if idx, ok := sys.Diag.Reg.Index(core.HardwareFRU(0)); ok {
		sys.Diag.Assessor.ClearVerdict(idx)
	}
	drive(sys, 500) // settle
	bad = drive(sys, 2000)
	fmt.Printf("after service: %d deviations — the malfunction is gone, no hardware was removed\n", bad)
}
