package component

import (
	"fmt"
	"sort"

	"decos/internal/ckpt"
	"decos/internal/sim"
)

// Checkpointing of the application layer. The deployment (components,
// DASs, jobs, ports, specs) is configuration rebuilt by the engine's
// build path; a checkpoint carries the mutable per-job run state and the
// environment's actuator history. Jobs whose implementation holds state
// between rounds implement ckpt.Snapshotter; the standard jobs below do.
// The fault filters (OutFault/SensorFault) are closures owned by the
// fault injector and restored by it.

// SnapshotJobs serializes every job's instance state (component id order,
// partition order within a component) plus any implementation state.
func (cl *Cluster) SnapshotJobs(e *ckpt.Encoder) {
	comps := cl.Components()
	e.Int(len(comps))
	for _, c := range comps {
		e.Int(int(c.ID))
		e.Int(len(c.Jobs))
		for _, j := range c.Jobs {
			e.Bool(j.Halted)
			e.Int(j.Steps)
			if s, ok := j.Impl.(ckpt.Snapshotter); ok {
				e.Bool(true)
				s.Snapshot(e)
			} else {
				e.Bool(false)
			}
		}
	}
}

// RestoreJobs overwrites a freshly built cluster's job state. The job
// topology is structural, so any mismatch is corruption.
func (cl *Cluster) RestoreJobs(d *ckpt.Decoder) error {
	comps := cl.Components()
	n := d.Len(1 << 16)
	if d.Err() == nil && n != len(comps) {
		return fmt.Errorf("component: checkpoint has %d components, cluster has %d", n, len(comps))
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		c := comps[i]
		if id := d.Int(); d.Err() == nil && id != int(c.ID) {
			return fmt.Errorf("component: checkpoint component %d is node %d, cluster has %d", i, id, c.ID)
		}
		nj := d.Len(1 << 16)
		if d.Err() == nil && nj != len(c.Jobs) {
			return fmt.Errorf("component: checkpoint has %d jobs on %s, cluster has %d", nj, c.Name, len(c.Jobs))
		}
		for k := 0; k < nj && d.Err() == nil; k++ {
			j := c.Jobs[k]
			j.Halted = d.Bool()
			j.Steps = d.Int()
			hasState := d.Bool()
			s, ok := j.Impl.(ckpt.Snapshotter)
			if d.Err() != nil {
				break
			}
			if hasState != ok {
				return fmt.Errorf("component: checkpoint/implementation state mismatch for job %s", j)
			}
			if hasState {
				if err := s.Restore(d); err != nil {
					return fmt.Errorf("component: job %s: %w", j, err)
				}
			}
		}
	}
	return d.Err()
}

// Snapshot serializes the environment's actuator history in name order.
// Signals are pure time functions (configuration) and are excluded.
func (e *Environment) Snapshot(enc *ckpt.Encoder) {
	names := make([]string, 0, len(e.actuations))
	for name := range e.actuations {
		names = append(names, name)
	}
	sort.Strings(names)
	enc.Int(len(names))
	for _, name := range names {
		enc.String(name)
		h := e.actuations[name]
		enc.Int(len(h))
		for _, a := range h {
			enc.Varint(int64(a.At))
			enc.Float64(a.Value)
		}
	}
}

// Restore replaces the environment's actuator history.
func (e *Environment) Restore(d *ckpt.Decoder) error {
	for name := range e.actuations {
		delete(e.actuations, name)
	}
	n := d.Len(1 << 16)
	for i := 0; i < n && d.Err() == nil; i++ {
		name := d.String()
		nh := d.Len(1 << 24)
		h := make([]Actuation, 0, nh)
		for k := 0; k < nh && d.Err() == nil; k++ {
			h = append(h, Actuation{At: sim.Time(d.Varint()), Value: d.Float64()})
		}
		if d.Err() == nil {
			e.actuations[name] = h
		}
	}
	return d.Err()
}

// Snapshot/Restore for the stateful standard jobs. Every field that
// influences a future round's output crosses the wire; configuration
// fields do not.

// Snapshot implements ckpt.Snapshotter.
func (s *SensorJob) Snapshot(e *ckpt.Encoder) {
	e.Float64(s.lastRaw)
	e.Bool(s.haveRaw)
	e.Int(s.frozenRuns)
	e.Bool(s.report.TransducerSuspect)
	e.String(s.report.Detail)
}

// Restore implements ckpt.Snapshotter.
func (s *SensorJob) Restore(d *ckpt.Decoder) error {
	s.lastRaw = d.Float64()
	s.haveRaw = d.Bool()
	s.frozenRuns = d.Int()
	s.report.TransducerSuspect = d.Bool()
	s.report.Detail = d.String()
	return d.Err()
}

// Snapshot implements ckpt.Snapshotter.
func (c *ControlJob) Snapshot(e *ckpt.Encoder) {
	e.Int(c.RejectedInputs)
	e.Float64(c.lastOut)
	e.Bool(c.hasOut)
}

// Restore implements ckpt.Snapshotter.
func (c *ControlJob) Restore(d *ckpt.Decoder) error {
	c.RejectedInputs = d.Int()
	c.lastOut = d.Float64()
	c.hasOut = d.Bool()
	return d.Err()
}

// Snapshot implements ckpt.Snapshotter.
func (b *BurstyJob) Snapshot(e *ckpt.Encoder) {
	e.Int(b.Rejected)
	e.Float64(b.counter)
}

// Restore implements ckpt.Snapshotter.
func (b *BurstyJob) Restore(d *ckpt.Decoder) error {
	b.Rejected = d.Int()
	b.counter = d.Float64()
	return d.Err()
}

// Snapshot implements ckpt.Snapshotter.
func (s *SinkJob) Snapshot(e *ckpt.Encoder) {
	e.Int(s.Received)
}

// Restore implements ckpt.Snapshotter.
func (s *SinkJob) Restore(d *ckpt.Decoder) error {
	s.Received = d.Int()
	return d.Err()
}

// Snapshot implements ckpt.Snapshotter.
func (v *VoterJob) Snapshot(e *ckpt.Encoder) {
	for i := 0; i < 3; i++ {
		e.Int(v.Disagreements[i])
		e.Int(v.Missing[i])
		e.Uvarint(uint64(v.lastSeq[i]))
		e.Bool(v.started[i])
	}
	e.Int(v.Voted)
	e.Int(v.NoMajority)
	e.Int(v.Silent)
}

// Restore implements ckpt.Snapshotter.
func (v *VoterJob) Restore(d *ckpt.Decoder) error {
	for i := 0; i < 3; i++ {
		v.Disagreements[i] = d.Int()
		v.Missing[i] = d.Int()
		v.lastSeq[i] = uint32(d.Uvarint())
		v.started[i] = d.Bool()
	}
	v.Voted = d.Int()
	v.NoMajority = d.Int()
	v.Silent = d.Int()
	return d.Err()
}
