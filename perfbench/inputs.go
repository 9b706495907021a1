package main

import (
	"math"
	"math/rand/v2"

	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/tt"
)

// Workload sizes. They are fixed across seeds: a seed changes which faults
// are drawn, never how much work a unit is, so figures from different seeds
// are comparable.
const (
	// fleetVehicles is the size of one campaign replicate (fleet-nff) or
	// one traced campaign (fleet-warranty): the timed unit of both fleet
	// workloads. Two keeps a unit near 70 ms, so a timed run holds
	// hundreds of units for chunk_ms_p90, and keeps the search for a
	// campaign seed that deals a given hand short.
	fleetVehicles = 2
	// deckSize is the vehicle count over which a fleet run's fault mix is
	// exactly E8's: fault-free share and DefaultMix weights.
	deckSize = 100
	// fleetWorkers is the campaign worker count. The host has two CPUs;
	// one worker leaves the other to the garbage collector and measured
	// a smaller run-to-run spread than two (see README.md).
	fleetWorkers = 1
	// fleetRounds is the E8 vehicle length: 3000 Fig. 10 rounds, 3 s
	// simulated.
	fleetRounds = 3000
	// fleetFaultFree is E8's fault-free share.
	fleetFaultFree = 0.2
	// tracedVehicles is the fixed vehicle count of one traced pass.
	tracedVehicles = 16

	// gridNodes is the grid-resume cluster size: every broadcast has 15
	// receivers instead of Fig. 10's 3.
	gridNodes = 16
	// gridChunkRounds is the rounds per chunk (restore + run + checkpoint).
	gridChunkRounds = 200
	// gridChunks is the chunks per long-horizon run: 2000 rounds, 8 s
	// simulated.
	gridChunks = 10
	// gridPlans is the number of distinct fault manifests the timed loop
	// cycles through (see gridPlans); each has a reference built in
	// set-up.
	gridPlans = 8

	// goldenSeed and goldenVehicles pin the fleet-nff reference replicate
	// to internal/engine/testdata/E8_seed20050404.golden.
	goldenSeed     = 20050404
	goldenVehicles = 150
)

// fig10Round is the simulated length of one Fig. 10 TDMA round (1 ms).
var fig10Round = sim.Duration(tt.UniformSchedule(4, 250*sim.Microsecond, 256).RoundDuration().Micros())

// gridRound is the simulated length of one grid round (gridNodes slots).
var gridRound = sim.Duration(tt.UniformSchedule(gridNodes, 250*sim.Microsecond, 160).RoundDuration().Micros())

// inputs is everything a workload hands the program, drawn from one seed.
type inputs struct {
	rng  *rand.Rand
	deck []card // the undealt rest of the current fleet deck
}

func newInputs(seed uint64) *inputs {
	return &inputs{rng: rand.New(rand.NewPCG(seed, 0x5eed_dec05))}
}

// card is one vehicle's fault: a fault kind, or none.
type card struct {
	faultFree bool
	kind      scenario.FaultKind
}

// newDeck deals deckSize cards in E8's proportions — the fault-free share,
// then DefaultMix's weights over the rest by largest remainder — in a
// seeded order. Campaign draws each vehicle's fault at random, so a run of
// a few hundred vehicles would see the rare, trace-heavy kinds (permanent,
// quartz, wearout) a seed-dependent number of times; dealing from decks
// holds every run to the same mix and leaves the seed to choose the order,
// targets and instants.
func (in *inputs) newDeck() []card {
	mix := scenario.DefaultMix()
	kinds, total := mixKinds(mix)
	free := int(math.Round(deckSize * fleetFaultFree))
	deck := make([]card, free, deckSize)
	for i := range deck {
		deck[i].faultFree = true
	}
	faulty := deckSize - free
	n := make([]int, len(kinds))
	rem := make([]float64, len(kinds))
	left := faulty
	for i, k := range kinds {
		share := float64(faulty) * mix[k] / total
		n[i] = int(share)
		rem[i] = share - float64(n[i])
		left -= n[i]
	}
	for ; left > 0; left-- {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		n[best]++
		rem[best] = -1
	}
	for i, k := range kinds {
		for j := 0; j < n[i]; j++ {
			deck = append(deck, card{kind: k})
		}
	}
	in.rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// campaign draws the next fleet unit: an E8-shaped campaign whose vehicles
// carry the next fleetVehicles cards of the deck. It searches seeded
// campaign seeds until Campaign's own draw deals that hand (in any order);
// a two-vehicle hand takes about a hundred tries.
func (in *inputs) campaign() scenario.Campaign {
	if len(in.deck) < fleetVehicles {
		in.deck = in.newDeck()
	}
	hand := in.deck[:fleetVehicles]
	in.deck = in.deck[fleetVehicles:]
	c := scenario.Campaign{
		Vehicles:       fleetVehicles,
		Rounds:         fleetRounds,
		FaultFreeShare: fleetFaultFree,
		Workers:        fleetWorkers,
	}
	for {
		c.Seed = in.rng.Uint64() >> 16
		if sameHand(vehicles(c), hand) {
			return c
		}
	}
}

// sameHand reports whether the vehicles carry exactly the hand's faults.
func sameHand(vs []vehiclePlan, hand []card) bool {
	used := make([]bool, len(hand))
next:
	for _, v := range vs {
		got := card{faultFree: v.FaultFree}
		if !v.FaultFree {
			got.kind = v.Plan[0].Kind
		}
		for i, c := range hand {
			if !used[i] && c == got {
				used[i] = true
				continue next
			}
		}
		return false
	}
	return true
}

// gridPlan is one grid-resume run: the cluster seed and a connector fault
// manifest (kind, target, activation instant, drop probability).
type gridPlan struct {
	Seed     uint64
	Rx       bool
	Comp     tt.NodeID
	At       sim.Time
	DropProb float64
}

// gridPlans draws the grid runs: connector faults, alternately outbound
// and inbound, on any component but the last (which hosts the diagnostic
// DAS's analysis stage). Onset (10–40 % of the horizon) and drop
// probability (0.2–0.5) are Latin-hypercube samples, one stratum of each
// per plan: an early, heavy fault keeps more diagnosis state, so checkpoint
// and restore bytes range over nearly 2× between plans, and drawing the
// plans freely made a seed's allocation figures swing by ±15 %.
func (in *inputs) gridPlans() []gridPlan {
	horizon := float64(gridChunks * gridChunkRounds * int64(gridRound))
	onset, drop := in.rng.Perm(gridPlans), in.rng.Perm(gridPlans)
	strat := func(k int) float64 { return (float64(k) + in.rng.Float64()) / gridPlans }
	plans := make([]gridPlan, gridPlans)
	for i := range plans {
		plans[i] = gridPlan{
			Seed:     in.rng.Uint64() >> 16,
			Rx:       i%2 == 1,
			Comp:     tt.NodeID(in.rng.IntN(gridNodes - 1)),
			At:       sim.Time(horizon * (0.1 + 0.3*strat(onset[i]))),
			DropProb: 0.2 + 0.3*strat(drop[i]),
		}
	}
	return plans
}

// vehiclePlan is one vehicle of a campaign, as Campaign draws it.
type vehiclePlan struct {
	Seed      uint64
	FaultFree bool
	Plan      []scenario.InjectPlan
}

// vehicles expands a campaign into its per-vehicle plans with the draw
// Campaign.Run makes internally (vehicle seeds Seed+v·7919, fault-free and
// kind draws from the Seed^0xcafef00d stream, activation at 10–40 % of the
// horizon). The traced pass drives these vehicles one at a time, because a
// campaign does not expose its per-vehicle engines.
func vehicles(c scenario.Campaign) []vehiclePlan {
	mix := scenario.DefaultMix()
	kinds, total := mixKinds(mix)
	horizon := sim.Time(c.Rounds * int64(fig10Round))
	rng := sim.NewRNG(c.Seed ^ 0xcafef00d)
	out := make([]vehiclePlan, c.Vehicles)
	for v := range out {
		p := vehiclePlan{Seed: c.Seed + uint64(v)*7919, FaultFree: rng.Bool(c.FaultFreeShare)}
		if !p.FaultFree {
			u, acc := rng.Float64(), 0.0
			kind := kinds[len(kinds)-1]
			for _, k := range kinds {
				acc += mix[k] / total
				if u < acc {
					kind = k
					break
				}
			}
			at := sim.Time(float64(horizon) * (0.1 + 0.3*rng.Float64()))
			p.Plan = []scenario.InjectPlan{{Kind: kind, At: at, Horizon: horizon}}
		}
		out[v] = p
	}
	return out
}

// mixKinds lists a mix's kinds with positive weight, in AllKinds order, and
// their total weight.
func mixKinds(mix map[scenario.FaultKind]float64) ([]scenario.FaultKind, float64) {
	var kinds []scenario.FaultKind
	total := 0.0
	for _, k := range scenario.AllKinds() {
		if mix[k] > 0 {
			kinds = append(kinds, k)
			total += mix[k]
		}
	}
	return kinds, total
}
