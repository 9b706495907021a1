package engine

import (
	"fmt"
	"io"

	"decos/internal/ckpt"
	"decos/internal/component"
	"decos/internal/diagnosis"
	"decos/internal/sim"
	"decos/internal/vnet"
)

// Engine checkpoints (DESIGN §12). A checkpoint captures the entire
// cluster state at a round boundary — scheduler clock, RNG stream
// states, bus membership and hook-id horizon, virtual-network queues and
// port statistics, job-private state, environment actuations, the full
// diagnostic pipeline (histories, α-counts, trust records, verdicts) and
// the fault injector's phase — as one canonical ckpt stream, such that a
// run restored from the checkpoint is byte-identical to the uninterrupted
// run from the same seed.
//
// Restore works by reconstruction: the engine is rebuilt from the same
// Options (the build pipeline re-executes deterministically at t=0,
// recreating every closure — job implementations, fault role handlers,
// trace hooks), then every subsystem's numeric state is overwritten from
// the stream, pending fault timers are re-armed in original arm order,
// and the TDMA slot chain is re-armed last so same-instant events keep
// their original queue order.

// CheckpointSink receives encoded checkpoints at the configured round
// cadence. The byte slice is freshly allocated per call; the sink owns
// it. A sink error latches into Engine.CkptErr and stops checkpointing.
type CheckpointSink func(round int64, encoded []byte) error

// WithCheckpointSink enables periodic checkpointing: after every
// everyRounds-th completed round the engine encodes its full state and
// hands it to sink. A nil sink or non-positive cadence installs no hook
// at all — the hot path keeps its zero-allocation contract, exactly like
// the no-op trace sink and the nil telemetry registry.
func WithCheckpointSink(sink CheckpointSink, everyRounds int64) Option {
	return func(c *Config) { c.ckptSink, c.ckptEvery = sink, everyRounds }
}

// WithRestore makes New restore the engine from the checkpoint stream on
// r instead of starting fresh. The remaining options must describe the
// same system the checkpoint was taken from (same topology, seed, build
// hooks and fault manifest); the meta section is validated against them.
func WithRestore(r io.Reader) Option {
	return func(c *Config) { c.restore = r }
}

// Checkpoint encodes the engine's complete state into w. Valid at round
// boundaries only: after New (round -1), between Run calls, or inside a
// checkpoint sink. Mid-round state (in-flight slots) is deliberately not
// serializable.
func (e *Engine) Checkpoint(w io.Writer) error {
	enc := ckpt.NewEncoder()
	e.encode(enc)
	_, err := enc.WriteTo(w)
	return err
}

func (e *Engine) installCheckpointHook() {
	if e.cfg.ckptSink == nil || e.cfg.ckptEvery <= 0 {
		return
	}
	e.Cluster.Bus.OnRound(func(round int64) {
		if e.CkptErr != nil || e.rounds%e.cfg.ckptEvery != 0 {
			return
		}
		enc := ckpt.NewEncoder()
		e.encode(enc)
		if err := e.cfg.ckptSink(round, enc.Bytes()); err != nil {
			e.CkptErr = err
		}
	})
}

// section is one entry of the engine checkpoint's section table.
type section struct {
	name string
	snap ckpt.Snapshotter
	// present reports whether this engine carries the subsystem; absent
	// sections are neither written nor read.
	present bool
	// optional sections may be missing from a stream on restore.
	optional bool
}

// numSections is the length of the section table.
const numSections = 13

// sections returns the section table: the order sections are written in
// and, because restore walks the same table, the restore order. That
// order is an invariant (DESIGN §12): the scheduler first (drops every
// event the reconstruction armed, including the initial slot event, and
// sets the clock), plain state next, the injector last (reinstalls bus
// hooks — needs the bus's restored hook-id horizon — and re-arms pending
// timers in original arm order); Bus.Rearm follows the table, so the next
// slot event queues behind same-instant fault timers, as it did in the
// uninterrupted run. An array, not a slice, keeps the per-checkpoint walk
// allocation-free.
func (e *Engine) sections() [numSections]section {
	cl := e.Cluster
	cls := e.classifierSnapshotter()
	return [numSections]section{
		{name: "sched", snap: cl.Sched, present: true},
		{name: "streams", snap: cl.Streams, present: true},
		{name: "clock", snap: cl.Bus.Clocks, present: cl.Bus.Clocks != nil},
		{name: "tt", snap: cl.Bus, present: true},
		{name: "vnet", snap: fabricNetworks{cl.Fabric}, present: true},
		{name: "fabric", snap: cl.Fabric, present: true},
		{name: "jobs", snap: clusterJobs{cl}, present: true},
		{name: "env", snap: cl.Env, present: true},
		{name: "diag", snap: e.Diag, present: e.Diag != nil},
		{name: "obd", snap: e.OBD, present: e.OBD != nil},
		{name: "cls", snap: cls, present: cls != nil, optional: true},
		{name: "trace", snap: e.Recorder, present: e.Recorder != nil},
		{name: "faults", snap: e.Injector, present: true},
	}
}

func (e *Engine) encode(enc *ckpt.Encoder) {
	cl := e.Cluster
	enc.Begin("meta")
	enc.Varint(e.rounds)
	enc.Int(e.cfg.Nodes)
	enc.Varint(int64(e.cfg.SlotLen))
	enc.Int(e.cfg.SlotBytes)
	enc.Uint64(e.cfg.Seed)
	enc.Bool(cl.Bus.Clocks != nil)
	enc.Bool(e.Diag != nil)
	enc.Bool(e.OBD != nil)
	enc.Bool(e.Recorder != nil)
	enc.End()
	for _, sec := range e.sections() {
		if sec.present {
			enc.Begin(sec.name)
			sec.snap.Snapshot(enc)
			enc.End()
		}
	}
}

// restoreEngine is the WithRestore build path: parse, validate the meta
// fingerprint, reconstruct, overwrite state, re-arm.
func restoreEngine(cfg Config) (e *Engine, err error) {
	// Subsystem Restore methods validate lengths, ids and enum ranges,
	// but a corrupted stream can still trip invariants that panic by
	// design on programmer error (hook-id horizons, scheduling in the
	// past). Arbitrary bytes reach this path — checkpoint files travel
	// through disks and pipelines — so panics degrade to errors here: a
	// corrupt checkpoint must never take the process down.
	defer func() {
		if p := recover(); p != nil {
			e, err = nil, fmt.Errorf("engine: restore: corrupt checkpoint: %v", p)
		}
	}()
	var data []byte
	if data, err = io.ReadAll(cfg.restore); err != nil {
		return nil, fmt.Errorf("engine: restore: read checkpoint: %w", err)
	}
	var d *ckpt.Decoder
	if d, err = ckpt.NewDecoder(data); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	if err := d.Need("meta"); err != nil {
		return nil, fmt.Errorf("engine: restore: %w", err)
	}
	rounds := d.Varint()
	nodes, slotLen, slotBytes := d.Int(), sim.Duration(d.Varint()), d.Int()
	seed := d.Uint64()
	hasClocks, hasDiag, hasOBD, hasTrace := d.Bool(), d.Bool(), d.Bool(), d.Bool()
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("engine: restore: meta: %w", err)
	}
	if err := unread(d, "meta"); err != nil {
		return nil, err
	}
	if nodes != cfg.Nodes || slotLen != cfg.SlotLen || slotBytes != cfg.SlotBytes {
		return nil, fmt.Errorf("engine: restore: checkpoint topology %d nodes %v/%dB, options say %d nodes %v/%dB",
			nodes, slotLen, slotBytes, cfg.Nodes, cfg.SlotLen, cfg.SlotBytes)
	}
	if seed != cfg.Seed {
		return nil, fmt.Errorf("engine: restore: checkpoint seed %d, options say %d — the manifest reconstruction would diverge", seed, cfg.Seed)
	}

	if e, err = build(cfg, true); err != nil {
		return nil, err
	}
	cl := e.Cluster
	if hasClocks != (cl.Bus.Clocks != nil) || hasDiag != (e.Diag != nil) || hasOBD != (e.OBD != nil) || hasTrace != (e.Recorder != nil) {
		return nil, fmt.Errorf("engine: restore: checkpoint attachments (clocks=%v diag=%v obd=%v trace=%v) do not match options (clocks=%v diag=%v obd=%v trace=%v)",
			hasClocks, hasDiag, hasOBD, hasTrace,
			cl.Bus.Clocks != nil, e.Diag != nil, e.OBD != nil, e.Recorder != nil)
	}

	for _, sec := range e.sections() {
		if !sec.present || (sec.optional && !d.Has(sec.name)) {
			continue
		}
		if err := d.Need(sec.name); err != nil {
			return nil, fmt.Errorf("engine: restore: %w", err)
		}
		if err := sec.snap.Restore(d); err != nil {
			return nil, fmt.Errorf("engine: restore %s: %w", sec.name, err)
		}
		if err := unread(d, sec.name); err != nil {
			return nil, err
		}
	}
	cl.Bus.Rearm()
	e.rounds = rounds
	e.installCheckpointHook()
	return e, nil
}

// unread rejects a section the restore did not consume to its end: a
// leftover byte means encoder and restore disagree on the section layout.
func unread(d *ckpt.Decoder, name string) error {
	if n := d.Remaining(); n != 0 {
		return fmt.Errorf("engine: restore %s: %d unread bytes at end of section", name, n)
	}
	return nil
}

// classifierSnapshotter returns the active classification stage as a
// Snapshotter when it carries its own run state (the Bayesian stage's
// posterior). Nil for the stateless DECOS default — default runs keep
// their exact pre-existing checkpoint bytes — and nil for the OBD
// stage, whose state the "obd" section already carries.
func (e *Engine) classifierSnapshotter() ckpt.Snapshotter {
	if e.Diag == nil {
		return nil
	}
	cls := e.Diag.Assessor.Classifier()
	if e.OBD != nil && cls == diagnosis.Classifier(e.OBD) {
		return nil
	}
	s, _ := cls.(ckpt.Snapshotter)
	return s
}

// clusterJobs adapts the cluster's job-state snapshot methods to the
// Snapshotter shape used by the section table.
type clusterJobs struct{ cl *component.Cluster }

func (j clusterJobs) Snapshot(e *ckpt.Encoder)      { j.cl.SnapshotJobs(e) }
func (j clusterJobs) Restore(d *ckpt.Decoder) error { return j.cl.RestoreJobs(d) }

// fabricNetworks adapts the fabric's virtual networks, stored as one
// counted list, to the Snapshotter shape used by the section table.
type fabricNetworks struct{ f *vnet.Fabric }

func (v fabricNetworks) Snapshot(e *ckpt.Encoder) {
	nets := v.f.Networks()
	e.Int(len(nets))
	for _, n := range nets {
		n.Snapshot(e)
	}
}

func (v fabricNetworks) Restore(d *ckpt.Decoder) error {
	nets := v.f.Networks()
	if n := d.Len(1 << 16); n != len(nets) && d.Err() == nil {
		return fmt.Errorf("checkpoint has %d networks, build made %d", n, len(nets))
	}
	for _, n := range nets {
		if err := n.Restore(d); err != nil {
			return err
		}
	}
	return nil
}
