package engine_test

import (
	"bytes"
	"context"
	"testing"

	"decos/internal/diagnosis"
	"decos/internal/engine"
	"decos/internal/faults"
	"decos/internal/scenario"
	"decos/internal/sim"
	"decos/internal/trace"
)

// richManifest exercises every phase-carrying fault mechanism at once:
// connector drop hooks, an EMI burst window, a pending SEU, intermittent
// episode timers, a babbling idiot and a sensor value fault — so a
// checkpoint taken mid-run carries pending timers, installed bus hooks,
// phase flags and a deactivation in one stream.
func richManifest(inj *faults.Injector) {
	cl := inj.Cluster()
	inj.ConnectorTx(0, sim.Time(2000), sim.Time(90000), 0.3)
	inj.EMIBurst(sim.Time(10000), 0.5, 0, 2.0, 3*sim.Millisecond, 64)
	inj.SEU(sim.Time(30000), 2)
	inj.IntermittentInternal(2, sim.Time(5000), 2e7, sim.Time(110000))
	inj.PermanentBabbling(3, sim.Time(55000))
	inj.SensorStuck(cl.Component(0).JobNamed("A1"), sim.Time(20000), 42)
}

// fig10Ckpt assembles the Fig. 10 system with the rich manifest, tracing
// into w, plus any extra options (a checkpoint sink or a restore source).
func fig10Ckpt(w *bytes.Buffer, extra ...engine.Option) *scenario.System {
	opts := append([]engine.Option{
		engine.WithFaults(richManifest),
		engine.WithTraceWriter(w, trace.Options{AllFrames: true, TrustEveryEpochs: 2}),
	}, extra...)
	return scenario.Fig10(20050404, diagnosis.Options{}, opts...)
}

func checkpointBytes(t *testing.T, e *engine.Engine) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	return buf.Bytes()
}

// TestRestoreByteIdentical is the core determinism contract: a run
// restored from a mid-run checkpoint finishes in byte-identical state —
// same final checkpoint encoding, same trace suffix — as the
// uninterrupted run, for every checkpoint cadence point.
func TestRestoreByteIdentical(t *testing.T) {
	const total = 120

	// Golden: uninterrupted run, no checkpointing at all.
	var goldTrace bytes.Buffer
	gold := fig10Ckpt(&goldTrace)
	gold.Engine.Run(context.Background(), total)
	goldFinal := checkpointBytes(t, gold.Engine)

	// Checkpointing run: same seed, sink every 40 rounds.
	type point struct {
		round    int64
		data     []byte
		traceLen int
	}
	var points []point
	var ckptTrace bytes.Buffer
	sink := func(round int64, data []byte) error {
		points = append(points, point{round, data, ckptTrace.Len()})
		return nil
	}
	run2 := fig10Ckpt(&ckptTrace, engine.WithCheckpointSink(sink, 40))
	run2.Engine.Run(context.Background(), total)
	if run2.Engine.CkptErr != nil {
		t.Fatalf("checkpoint sink error: %v", run2.Engine.CkptErr)
	}
	if len(points) != 3 {
		t.Fatalf("sink fired %d times over %d rounds at cadence 40, want 3", len(points), total)
	}
	for i, p := range points {
		if want := int64(40*(i+1) - 1); p.round != want {
			t.Errorf("checkpoint %d taken at round %d, want %d", i, p.round, want)
		}
	}
	if v := run2.Engine.StateVersion(); v != total {
		t.Errorf("StateVersion = %d after %d rounds, want %d", v, total, total)
	}

	// Checkpointing must not perturb the run.
	if !bytes.Equal(ckptTrace.Bytes(), goldTrace.Bytes()) {
		t.Fatal("trace of checkpointing run differs from uninterrupted run")
	}
	if got := checkpointBytes(t, run2.Engine); !bytes.Equal(got, goldFinal) {
		t.Fatal("final state of checkpointing run differs from uninterrupted run")
	}

	// Restore from every cadence point and run to the end.
	for _, p := range points {
		var resTrace bytes.Buffer
		res := fig10Ckpt(&resTrace,
			engine.WithRestore(bytes.NewReader(p.data)),
			engine.WithCheckpointSink(func(int64, []byte) error { return nil }, 40))
		if v, want := res.Engine.StateVersion(), p.round+1; v != want {
			t.Errorf("restored StateVersion = %d, want %d", v, want)
		}
		res.Cluster.RunRounds(context.Background(), total-res.Cluster.Completed())
		if got := checkpointBytes(t, res.Engine); !bytes.Equal(got, goldFinal) {
			t.Errorf("run restored from round %d: final state differs from uninterrupted run", p.round)
			continue
		}
		if want := goldTrace.Bytes()[p.traceLen:]; !bytes.Equal(resTrace.Bytes(), want) {
			t.Errorf("run restored from round %d: trace suffix differs (%d vs %d bytes)",
				p.round, resTrace.Len(), len(want))
		}
		if v := res.Engine.StateVersion(); v != total {
			t.Errorf("restored StateVersion = %d after finish, want %d", v, total)
		}
	}
}

// TestRestoreAtBoot: a checkpoint taken before any round ran (pending
// manifest timers only) restores and replays the full run identically.
func TestRestoreAtBoot(t *testing.T) {
	var goldTrace bytes.Buffer
	gold := fig10Ckpt(&goldTrace)
	boot := checkpointBytes(t, gold.Engine)
	gold.Engine.Run(context.Background(), 60)
	goldFinal := checkpointBytes(t, gold.Engine)

	var resTrace bytes.Buffer
	res := fig10Ckpt(&resTrace, engine.WithRestore(bytes.NewReader(boot)))
	if v := res.Engine.StateVersion(); v != 0 {
		t.Errorf("StateVersion = %d at boot restore, want 0", v)
	}
	res.Engine.Run(context.Background(), 60)
	if got := checkpointBytes(t, res.Engine); !bytes.Equal(got, goldFinal) {
		t.Fatal("run restored from boot checkpoint differs from direct run")
	}
	if !bytes.Equal(resTrace.Bytes(), goldTrace.Bytes()) {
		t.Fatal("trace of boot-restored run differs from direct run")
	}
}

// TestRestoreValidatesOptions: topology and seed mismatches are refused
// up front (a mismatched manifest reconstruction would silently diverge).
func TestRestoreValidatesOptions(t *testing.T) {
	var w bytes.Buffer
	sys := fig10Ckpt(&w)
	data := checkpointBytes(t, sys.Engine)

	if _, err := engine.New(engine.WithRestore(bytes.NewReader(data)),
		engine.WithTopology(5, 250*sim.Microsecond, 256),
		engine.WithSeed(20050404)); err == nil {
		t.Error("restore with mismatched topology should fail")
	}
	if _, err := engine.New(engine.WithRestore(bytes.NewReader(data)),
		engine.WithTopology(4, 250*sim.Microsecond, 256),
		engine.WithSeed(99)); err == nil {
		t.Error("restore with mismatched seed should fail")
	}
	if _, err := engine.New(engine.WithRestore(bytes.NewReader([]byte("not a checkpoint"))),
		engine.WithTopology(4, 250*sim.Microsecond, 256)); err == nil {
		t.Error("restore from garbage should fail")
	}
}
