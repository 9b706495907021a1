package main

import (
	"bytes"
	"errors"
	"fmt"
	"strings"

	"decos/internal/scenario"
	"decos/internal/warranty"
)

// checkReplicates requires every Monte Carlo replicate to have completed.
func checkReplicates(mc *scenario.MonteCarloResult, n int) error {
	if mc.Partial || mc.Completed != n {
		return fmt.Errorf("monte carlo: %d of %d replicates completed", mc.Completed, n)
	}
	return nil
}

// checkFleetClaim checks the paper's headline claim over every replicate
// a fleet-nff run made: the DECOS pipeline is no worse than the OBD
// baseline on mean no-fault-found ratio and mean classification accuracy.
// A short run can hold no NFF removal, or only faults both classify
// right, so the win is strict only on the golden replicate (NFF 0.0 %
// against 16.7 %, accuracy 100 % against 12.3 %).
func checkFleetClaim(units []*scenario.MonteCarloResult) error {
	if len(units) == 0 {
		return errors.New("fleet claim: no replicate completed")
	}
	var pNFF, bNFF, pAcc, bAcc float64
	for _, mc := range units {
		pNFF += mc.PipelineNFF.Mean
		bNFF += mc.BaselineNFF.Mean
		pAcc += mc.PipelineAccuracy.Mean
		bAcc += mc.BaselineAccuracy.Mean
	}
	if pNFF > bNFF || pAcc < bAcc {
		n := float64(len(units))
		return fmt.Errorf("fleet claim: DECOS NFF %.3f accuracy %.3f vs OBD NFF %.3f accuracy %.3f",
			pNFF/n, pAcc/n, bNFF/n, bAcc/n)
	}
	return nil
}

// checkGolden compares the reference replicate's E8 report with the
// committed snapshot.
func checkGolden(got, want string) error {
	if got == want {
		return nil
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range w {
		if i >= len(g) || g[i] != w[i] {
			line := ""
			if i < len(g) {
				line = g[i]
			}
			return fmt.Errorf("E8 golden: line %d is %q, want %q", i+1, line, w[i])
		}
	}
	return fmt.Errorf("E8 golden: %d extra lines", len(g)-len(w))
}

// checkTraceClean requires every trace record to have decoded.
func checkTraceClean(corrupt int) error {
	if corrupt != 0 {
		return fmt.Errorf("trace: %d corrupt records", corrupt)
	}
	return nil
}

// checkAgreement is E13's exact-agreement conjunction: the warranty
// summary built from the ingested traces alone reproduces the campaign's
// in-process audit. The summary only has an arm for an advisor that gave
// advice somewhere in the fleet; in an 8-vehicle campaign the OBD baseline
// often gives none, so a missing arm is compared as an empty one.
func checkAgreement(s *warranty.Summary, res *scenario.CampaignResult, vehicles int) error {
	if res.Partial || res.Completed != vehicles || s.Vehicles != vehicles {
		return fmt.Errorf("warranty: %d vehicles completed, %d ingested, want %d", res.Completed, s.Vehicles, vehicles)
	}
	decos, obd := s.Arms["decos"], s.Arms["obd"]
	if decos == nil {
		decos = &warranty.Arm{}
	}
	if obd == nil {
		obd = &warranty.Arm{}
	}
	agree := decos.NFFRatio == res.DECOS.NFFRatio() &&
		obd.NFFRatio == res.OBD.NFFRatio() &&
		decos.Cost == res.DECOS.Cost &&
		obd.Cost == res.OBD.Cost &&
		decos.Missed == res.DECOS.Missed &&
		decos.FalseAlarms == res.DECOSFalseAlarms &&
		obd.FalseAlarms == res.OBDFalseAlarms &&
		s.Fleet.Pareto20 == res.Fleet.Pareto(0.2) &&
		s.Fleet.Incidents == res.Fleet.Incidents()
	if !agree {
		return fmt.Errorf("warranty: trace-fed summary disagrees with the in-process audit "+
			"(decos NFF %v/%v cost %v/%v, obd NFF %v/%v cost %v/%v, incidents %d/%d)",
			decos.NFFRatio, res.DECOS.NFFRatio(), decos.Cost, res.DECOS.Cost,
			obd.NFFRatio, res.OBD.NFFRatio(), obd.Cost, res.OBD.Cost,
			s.Fleet.Incidents, res.Fleet.Incidents())
	}
	return nil
}

// checkResume compares a chunked, restored run with its reference.
func checkResume(got, want resumed) error {
	if !bytes.Equal(got.ckpt, want.ckpt) {
		return fmt.Errorf("resume: final checkpoint differs from the reference (%d vs %d bytes)", len(got.ckpt), len(want.ckpt))
	}
	if len(got.verdicts) != len(want.verdicts) {
		return fmt.Errorf("resume: %d verdicts, reference has %d", len(got.verdicts), len(want.verdicts))
	}
	for i := range got.verdicts {
		if got.verdicts[i] != want.verdicts[i] {
			return fmt.Errorf("resume: verdict %d is %+v, reference has %+v", i, got.verdicts[i], want.verdicts[i])
		}
	}
	return nil
}

// checkRepeat requires a later traced pass over the same inputs to count
// exactly the work the first one did.
func checkRepeat(first, again counts) error {
	if first != again {
		return fmt.Errorf("traced pass counters did not repeat: %+v then %+v", first, again)
	}
	return nil
}
