package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"decos/internal/bayes"
	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/pack"
	"decos/internal/scenario"
	"decos/internal/sim"
)

// resumed is what a grid-resume run is checked on: the final checkpoint
// and every verdict the diagnosis emitted.
type resumed struct {
	ckpt     []byte
	verdicts []diagnosis.Verdict
}

// gridRunner drives grid-resume: long-horizon bayes runs of a 16-component
// grid, in chunks joined by Engine.Checkpoint and engine.WithRestore.
type gridRunner struct {
	plans []gridPlan
	refs  []resumed
	next  int
}

// newGridRunner draws the fault manifests and builds each one's reference
// run, stepped through the same chunk boundaries without restoring. The
// boundaries must match: the scheduler's clock depends on how a run is
// split into Run calls (see README.md), so a reference run in one piece
// would differ in its checkpoint's clock field.
func newGridRunner(ctx context.Context, seed uint64) (*gridRunner, error) {
	r := &gridRunner{plans: newInputs(seed).gridPlans()}
	for _, p := range r.plans {
		ref, err := reference(ctx, p)
		if err != nil {
			return nil, err
		}
		r.refs = append(r.refs, ref)
	}
	return r, nil
}

// gridExtra is a plan's engine options beyond the grid topology: the
// Bayesian classifier (a fresh posterior per engine; a restore overwrites
// it from the checkpoint) and the connector fault manifest.
func gridExtra(p gridPlan) []engine.Option {
	return []engine.Option{
		engine.WithClassifier(bayes.New()),
		engine.WithFaults(func(inj *faults.Injector) {
			if p.Rx {
				inj.ConnectorRx(p.Comp, p.At, 0, p.DropProb)
			} else {
				inj.ConnectorTx(p.Comp, p.At, 0, p.DropProb)
			}
		}),
	}
}

func buildGrid(p gridPlan) *engine.Engine {
	return scenario.GridWith(gridNodes, p.Seed, diagnosis.Options{}, gridExtra(p)...).Engine
}

func restoreGrid(p gridPlan, ckpt []byte) (*engine.Engine, error) {
	topo := pack.GridTopology(gridNodes)
	opts := append(topo.Options(p.Seed, diagnosis.Options{}, nil), gridExtra(p)...)
	return engine.New(append(opts, engine.WithRestore(bytes.NewReader(ckpt)))...)
}

func checkpoint(e *engine.Engine) ([]byte, error) {
	var b bytes.Buffer
	err := e.Checkpoint(&b)
	return b.Bytes(), err
}

func finalState(e *engine.Engine, ckpt []byte) resumed {
	return resumed{ckpt: ckpt, verdicts: append([]diagnosis.Verdict(nil), e.Diag.Assessor.Emitted()...)}
}

// reference runs plan p on one engine, one Run call per chunk.
func reference(ctx context.Context, p gridPlan) (resumed, error) {
	e := buildGrid(p)
	for k := 0; k < gridChunks; k++ {
		if err := e.Run(ctx, gridChunkRounds); err != nil {
			return resumed{}, err
		}
	}
	ck, err := checkpoint(e)
	return finalState(e, ck), err
}

// resume runs plan p in chunks: build (first chunk) or restore from the
// previous chunk's checkpoint, run, checkpoint. It returns the final state
// and the wall time in ms of each chunk that completed.
func resume(ctx context.Context, p gridPlan, ps *pass) (resumed, []float64, error) {
	var e *engine.Engine
	var ck []byte
	var err error
	chunkMS := make([]float64, 0, gridChunks)
	for k := 0; k < gridChunks; k++ {
		t0 := time.Now()
		if k == 0 {
			ps.do(&ps.build, func() { e = buildGrid(p) })
		} else {
			ps.do(&ps.restore, func() { e, err = restoreGrid(p, ck) })
			if err != nil {
				return resumed{}, chunkMS, fmt.Errorf("chunk %d: restore: %w", k, err)
			}
		}
		if err := ps.advance(e, func() error { return e.Run(ctx, gridChunkRounds) }); err != nil {
			return resumed{}, chunkMS, fmt.Errorf("chunk %d: run: %w", k, err)
		}
		ps.do(&ps.ckptEnc, func() { ck, err = checkpoint(e) })
		if err != nil {
			return resumed{}, chunkMS, fmt.Errorf("chunk %d: checkpoint: %w", k, err)
		}
		ps.CkptBytes += int64(len(ck))
		chunkMS = append(chunkMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return finalState(e, ck), chunkMS, nil
}

// runSimS is the simulated time of one grid-resume run.
func runSimS() float64 {
	return float64(gridChunks*gridChunkRounds) * float64(gridRound) / float64(sim.Second)
}

// unit runs the next plan's chunked run and checks it against the plan's
// reference. A failed check fails all of the run's chunks.
func (r *gridRunner) unit(ctx context.Context) unitResult {
	i := r.next % len(r.plans)
	r.next++
	got, chunkMS, err := resume(ctx, r.plans[i], &pass{})
	if err == nil {
		err = checkResume(got, r.refs[i])
	}
	if err != nil {
		return unitResult{attempted: gridChunks, failed: gridChunks, err: err, chunkMS: chunkMS}
	}
	return unitResult{attempted: gridChunks, simS: runSimS(), chunkMS: chunkMS}
}

func (r *gridRunner) finish(context.Context) (unitResult, error) { return unitResult{}, nil }

// pass runs every plan once; a traced pass also checks that observing
// left the final state equal to the reference.
func (r *gridRunner) pass(ctx context.Context, observe bool) (*pass, error) {
	ps := &pass{traced: observe, simS: runSimS() * float64(len(r.plans))}
	ps.begin(len(r.plans) * gridChunks * gridChunkRounds)
	defer ps.end()
	for i, p := range r.plans {
		got, _, err := resume(ctx, p, ps)
		if err == nil {
			err = checkResume(got, r.refs[i])
		}
		if err != nil {
			return nil, fmt.Errorf("plan %d: %w", i, err)
		}
	}
	return ps, nil
}
