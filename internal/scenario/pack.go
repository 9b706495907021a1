package scenario

import (
	"context"
	"fmt"
	"time"

	"decos/internal/pack"
)

// ParseKind maps a campaign-mix kind name from a scenario pack onto the
// FaultKind enum. The name set is pinned to pack.CampaignKinds by a
// contract test (pack cannot import scenario, so it carries its own
// copy of the list for validation).
func ParseKind(name string) (FaultKind, bool) {
	for _, k := range AllKinds() {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// CampaignFromManifest maps a validated campaign pack onto the fleet
// campaign driver. The pack's seed, rounds and diagnosis overrides
// carry over; an empty mix falls back to the paper's default field
// distribution, exactly like a nil Campaign.Mix.
func CampaignFromManifest(m *pack.Manifest) Campaign {
	cs := m.Campaign
	if cs == nil {
		panic("scenario: CampaignFromManifest on a single-vehicle pack")
	}
	c := Campaign{
		Vehicles:         cs.Vehicles,
		Rounds:           m.Rounds,
		Seed:             m.Seed,
		FaultFreeShare:   cs.FaultFreeShare,
		FaultsPerVehicle: cs.FaultsPerVehicle,
		Classifier:       m.Classifier,
		Opts:             m.Diagnosis.Options(),
	}
	if len(cs.Mix) > 0 {
		mix := make(map[FaultKind]float64, len(cs.Mix))
		for name, w := range cs.Mix {
			k, ok := ParseKind(name)
			if !ok {
				// Validation pins mix keys to pack.CampaignKinds.
				panic(fmt.Sprintf("scenario: campaign mix kind %q (validate first)", name))
			}
			mix[k] = w
		}
		c.Mix = mix
	}
	return c
}

// Conform scores one pack against every classifier: single-vehicle
// packs run through the pack conformance runner; campaign packs run the
// fleet twice — one pass with the DECOS pipeline (which audits the OBD
// baseline alongside, yielding two legs for one run cost) and one pass
// with the Bayesian pipeline. The pack's own classifier selection is
// ignored: conformance always pins the stage per leg. Naming classifiers
// restricts the run to them (no names means all of pack.Classifiers);
// campaign legs that are not asked for are not simulated.
func Conform(ctx context.Context, m *pack.Manifest, classifiers ...string) *pack.PackResult {
	if len(classifiers) == 0 {
		classifiers = pack.Classifiers
	}
	if m.Campaign == nil {
		pr := &pack.PackResult{Name: m.Name, Source: m.Source, Seed: m.Seed, Rounds: m.Rounds, Pass: true}
		for _, cls := range classifiers {
			cs, err := pack.ConformClassifier(ctx, m, cls)
			if err != nil {
				pr.Error, pr.Pass = err.Error(), false
				return pr
			}
			pr.Classifiers = append(pr.Classifiers, *cs)
			pr.Pass = pr.Pass && cs.Pass
		}
		return pr
	}
	want := map[string]bool{}
	for _, cls := range classifiers {
		want[cls] = true
	}
	legs := map[string]pack.CampaignLeg{}
	partial := false
	if want[pack.ClassifierDECOS] || want[pack.ClassifierOBD] {
		base := CampaignFromManifest(m)
		base.Classifier = ""
		start := time.Now()
		res := base.RunContext(ctx)
		baseMS := float64(time.Since(start).Microseconds()) / 1e3
		partial = partial || res.Partial
		if want[pack.ClassifierDECOS] {
			legs[pack.ClassifierDECOS] = pack.CampaignLeg{
				Report: res.DECOS, FalseAlarms: res.DECOSFalseAlarms, WallClockMS: baseMS}
		}
		if want[pack.ClassifierOBD] {
			legs[pack.ClassifierOBD] = pack.CampaignLeg{
				Report: res.OBD, FalseAlarms: res.OBDFalseAlarms, WallClockMS: baseMS}
		}
	}
	if want[pack.ClassifierBayes] {
		bc := CampaignFromManifest(m)
		bc.Classifier = pack.ClassifierBayes
		start := time.Now()
		bres := bc.RunContext(ctx)
		partial = partial || bres.Partial
		legs[pack.ClassifierBayes] = pack.CampaignLeg{
			Report: bres.DECOS, FalseAlarms: bres.DECOSFalseAlarms,
			WallClockMS: float64(time.Since(start).Microseconds()) / 1e3}
	}
	pr := pack.ScoreCampaign(m, legs)
	if partial {
		pr.Error = "campaign cancelled before all vehicles completed"
		pr.Pass = false
	}
	return pr
}

// ConformAll scores every pack in sequence into one report.
func ConformAll(ctx context.Context, ms []*pack.Manifest) *pack.Report {
	rep := &pack.Report{Version: pack.Version}
	for _, m := range ms {
		rep.Add(Conform(ctx, m))
	}
	return rep
}
