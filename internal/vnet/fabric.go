package vnet

import (
	"fmt"

	"decos/internal/sim"
	"decos/internal/tt"
)

// InPort is a subscriber's receive port on one channel. The port keeps a
// bounded queue (event semantics) or just the latest state (state
// semantics follows from capacity 1 with overwrite), plus the observation
// statistics the symptom detectors of the diagnostic subsystem read.
type InPort struct {
	Channel ChannelID
	Node    tt.NodeID
	// Capacity bounds the receive queue; incoming messages beyond it are
	// dropped and counted as overflows. Capacity <= 0 means unbounded.
	Capacity int
	// Overwrite makes the port keep only the newest message (state port).
	Overwrite bool

	queue []Message
	free  [][]byte // payload buffers of received messages, reused by deliver
	spill []byte   // payload buffer of the latest message dropped on overflow

	Stats PortStats
}

// PortStats are the LIF-visible observations of one receive port.
type PortStats struct {
	Received     int // messages delivered correctly
	CRCFailures  int // messages received with an invalid CRC (value failures)
	FrameMisses  int // producer frames omitted / timing-failed while subscribed
	Overflows    int // messages dropped because the receive queue was full
	SeqGaps      int // sequence discontinuities (lost messages detected)
	LastSeq      uint32
	haveSeq      bool
	LastArrival  sim.Time
	LastValue    []byte
	LastWasValid bool
}

// Receive pops the oldest queued message. ok is false when the queue is
// empty. The message's payload is valid until the port's next delivery:
// the port then reuses its buffer, so copy the payload to retain it longer.
// Jobs step after the round's last slot, so within one Step every payload
// received stays intact.
func (p *InPort) Receive() (Message, bool) {
	if len(p.queue) == 0 {
		return Message{}, false
	}
	m := p.queue[0]
	// Shift instead of reslicing so the queue's backing array is reused.
	n := copy(p.queue, p.queue[1:])
	p.queue[n] = Message{}
	p.queue = p.queue[:n]
	if cap(m.Payload) > 0 {
		p.free = append(p.free, m.Payload[:0])
	}
	return m, true
}

// Peek returns the newest message without consuming it. On a state port
// (Overwrite) the payload is only valid until the next delivery; copy it to
// retain it across rounds.
func (p *InPort) Peek() (Message, bool) {
	if len(p.queue) == 0 {
		return Message{}, false
	}
	return p.queue[len(p.queue)-1], true
}

// QueueLen returns the number of queued messages.
func (p *InPort) QueueLen() int { return len(p.queue) }

func (p *InPort) deliver(m Message, crcValid bool, now sim.Time) {
	if !crcValid {
		p.Stats.CRCFailures++
		p.Stats.LastWasValid = false
		return
	}
	// The decoded payload aliases the frame; own it before retaining
	// (queue and Stats keep references past the slot). The copy goes into
	// a buffer nothing else references by the time this delivery
	// returns: the state port's displaced value, a buffer returned by
	// Receive, or — for a message the full queue drops — the port's spill
	// buffer. Stats.LastValue is repointed below every time.
	overflow := !p.Overwrite && p.Capacity > 0 && len(p.queue) >= p.Capacity
	var buf []byte
	switch {
	case overflow:
		buf = p.spill[:0]
	case p.Overwrite && len(p.queue) == 1:
		buf = p.queue[0].Payload[:0]
	case len(p.free) > 0:
		buf = p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
	}
	m.Payload = append(buf, m.Payload...)
	if p.Stats.haveSeq && m.Seq != p.Stats.LastSeq+1 && m.Seq > p.Stats.LastSeq {
		p.Stats.SeqGaps++
	}
	p.Stats.LastSeq = m.Seq
	p.Stats.haveSeq = true
	p.Stats.Received++
	p.Stats.LastArrival = now
	p.Stats.LastValue = m.Payload
	p.Stats.LastWasValid = true
	switch {
	case p.Overwrite:
		p.queue = p.queue[:0]
		p.queue = append(p.queue, m)
	case overflow:
		p.spill = m.Payload
		p.Stats.Overflows++
	default:
		p.queue = append(p.queue, m)
	}
}

// segment is one network's byte range within a node's frame payload.
type segment struct {
	ep     *Endpoint // the network's endpoint at the frame's sender
	offset int
	length int
}

// Fabric wires a set of virtual networks onto a time-triggered cluster: it
// computes the per-node frame layout, packs outbound segments into frames
// and dispatches received segments to subscriber ports.
type Fabric struct {
	cfg      tt.Config
	networks []*Network
	// layout and frameBufs are indexed by NodeID.
	layout [][]segment
	// ports lists every subscription in subscription order.
	ports []*InPort
	// corruptSeed makes bit-flip placement for a corrupted frame a pure
	// function of the frame's coordinates, so every receiver of one
	// corrupted broadcast observes the same damaged bytes.
	corruptSeed uint64

	// Per-node frame buffers, reused across rounds: frames are fully
	// consumed within their slot event, so the buffer's contents are dead
	// by the time the node builds its next frame.
	frameBufs [][]byte

	// decoded caches the latest broadcast decoded as received correctly
	// ([0]) and as received corrupted ([1]).
	decoded [2]broadcast

	work Work

	// DecodeErrors counts frames whose segment structure was undecodable
	// after corruption.
	DecodeErrors int
	sealed       bool
}

// broadcast is one frame decoded as a receiver with a given status sees it.
// Every receiver observing the same broadcast with the same status gets the
// same bytes, so the fabric decodes once and each receiver only dispatches.
type broadcast struct {
	// The cache key besides the status: the bus-issued broadcast number
	// (0 never hits) and the frame's corruption count.
	seq         uint64
	corruptBits int

	payload []byte         // bit-flipped copy of a corrupted frame
	recs    []decodeResult // records of channels the sender produces
	errs    int            // decode errors one receiver of this broadcast counts
}

// Work counts the fabric's receive-path effort. Unlike the port statistics
// these are not LIF observations; they say how much work a run cost, and
// are deterministic for a given run.
type Work struct {
	// Broadcasts is the number of frames decoded.
	Broadcasts int64
	// Segments is the number of VN segments decoded.
	Segments int64
	// BytesChecksummed counts bytes run through the receive-side CRC.
	BytesChecksummed int64
	// Deliveries counts records dispatched to subscribed in-ports.
	Deliveries int64
	// PayloadCopies counts payload copies: a corrupted frame copied before
	// its bits are flipped, and each valid delivery copied into port-owned
	// memory.
	PayloadCopies int64
}

// Work returns the receive-path work counters. Like the ports, it is not
// safe for use concurrently with the simulation loop.
func (f *Fabric) Work() Work { return f.work }

// NewFabric creates a fabric for the given core-network configuration. The
// rng seeds bit-corruption placement for corrupted frames.
func NewFabric(cfg tt.Config, rng *sim.RNG) *Fabric {
	return &Fabric{cfg: cfg, corruptSeed: rng.Uint64()}
}

// AddNetwork registers a virtual network. All networks must be added before
// Seal.
func (f *Fabric) AddNetwork(n *Network) {
	if f.sealed {
		panic("vnet: AddNetwork after Seal")
	}
	f.networks = append(f.networks, n)
}

// Subscribe attaches an in-port at the given node to a channel. The channel
// must exist on one of the fabric's networks.
func (f *Fabric) Subscribe(node tt.NodeID, ch ChannelID, capacity int, overwrite bool) *InPort {
	if node < 0 {
		panic(fmt.Sprintf("vnet: subscribe at invalid node %d", node))
	}
	p := &InPort{Channel: ch, Node: node, Capacity: capacity, Overwrite: overwrite}
	// Channel ids are cluster-global: a port receives the channel's
	// traffic on whichever network carries it.
	found := false
	for _, n := range f.networks {
		if cs := n.channel(ch); cs != nil {
			cs.subscribe(p)
			found = true
		}
	}
	if !found {
		panic(fmt.Sprintf("vnet: subscribe to unknown channel %d", ch))
	}
	f.ports = append(f.ports, p)
	return p
}

// Seal computes the frame layout. It fails if any node's total allocation
// exceeds the frame payload size.
func (f *Fabric) Seal() error {
	if f.sealed {
		return nil
	}
	nodes := f.cfg.Nodes()
	if len(nodes) > 0 {
		f.layout = make([][]segment, nodes[len(nodes)-1]+1)
		f.frameBufs = make([][]byte, len(f.layout))
	}
	for _, node := range nodes {
		off := 0
		for _, n := range f.networks {
			ep := n.Endpoint(node)
			if ep == nil || ep.AllocBytes == 0 {
				continue
			}
			f.layout[node] = append(f.layout[node], segment{ep: ep, offset: off, length: ep.AllocBytes})
			off += ep.AllocBytes
		}
		if off > f.cfg.PayloadBytes {
			return fmt.Errorf("vnet: node %d allocation %d exceeds frame payload %d", node, off, f.cfg.PayloadBytes)
		}
	}
	f.sealed = true
	return nil
}

// segments returns node's frame layout (nil for nodes outside it).
func (f *Fabric) segments(node tt.NodeID) []segment {
	if node < 0 || int(node) >= len(f.layout) {
		return nil
	}
	return f.layout[node]
}

// PortTotals are the fabric-wide sums of every subscribed port's
// observation statistics — the virtual-network layer's telemetry view
// (CRC drops, misses, queue overflows, detected losses).
type PortTotals struct {
	Received     int64
	CRCFailures  int64
	FrameMisses  int64
	Overflows    int64
	SeqGaps      int64
	DecodeErrors int64
}

// Totals sums the port statistics across all subscriptions. It allocates
// nothing and is cheap enough to call every round; like the ports
// themselves it is not safe for use concurrently with the simulation loop.
func (f *Fabric) Totals() PortTotals {
	t := PortTotals{DecodeErrors: int64(f.DecodeErrors)}
	for _, p := range f.ports {
		t.Received += int64(p.Stats.Received)
		t.CRCFailures += int64(p.Stats.CRCFailures)
		t.FrameMisses += int64(p.Stats.FrameMisses)
		t.Overflows += int64(p.Stats.Overflows)
		t.SeqGaps += int64(p.Stats.SeqGaps)
	}
	return t
}

// Networks returns the registered networks in registration order.
func (f *Fabric) Networks() []*Network { return f.networks }

// Network returns the registered network with the given name, or nil.
func (f *Fabric) Network(name string) *Network {
	for _, n := range f.networks {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// BuildPayload assembles node's frame payload for one round by packing each
// attached network's segment at its fixed offset. The returned buffer is
// reused on the node's next BuildPayload: frames are consumed within their
// TDMA slot, so nothing holds it longer.
func (f *Fabric) BuildPayload(node tt.NodeID) []byte {
	if !f.sealed {
		panic("vnet: BuildPayload before Seal")
	}
	segs := f.segments(node)
	if len(segs) == 0 {
		return nil
	}
	last := segs[len(segs)-1]
	size := last.offset + last.length
	buf := f.frameBufs[node]
	if cap(buf) < size {
		buf = make([]byte, size)
		f.frameBufs[node] = buf
	} else {
		buf = buf[:size]
		clear(buf)
	}
	for _, s := range segs {
		copy(buf[s.offset:s.offset+s.length], s.ep.packSegment())
	}
	return buf
}

// ConsumeFrame dispatches one received frame at one receiver. Correct
// frames are decoded per the sender's layout and delivered to the
// receiver's subscribed ports; corrupted frames have CorruptBits random bits
// flipped first (so CRC checks fail realistically); omitted/timing frames
// record a miss on every subscribed port fed by the sender.
//
// A frame is decoded once per broadcast: receivers that observe the same
// broadcast (same Frame.Seq) with the same status reuse the first one's
// decode and only dispatch to their own ports. Unnumbered frames (Seq 0)
// are decoded on every call.
func (f *Fabric) ConsumeFrame(receiver tt.NodeID, fr tt.Frame, st tt.FrameStatus, now sim.Time) {
	if !f.sealed {
		panic("vnet: ConsumeFrame before Seal")
	}
	segs := f.segments(fr.Sender)
	if len(segs) == 0 {
		return
	}
	if st == tt.FrameOmitted || st == tt.FrameTiming {
		for _, s := range segs {
			for _, cs := range s.ep.produced {
				for _, p := range cs.portsAt(receiver) {
					p.Stats.FrameMisses++
				}
			}
		}
		return
	}

	b := &f.decoded[0]
	if st == tt.FrameCorrupted {
		b = &f.decoded[1]
	}
	if fr.Seq == 0 || b.seq != fr.Seq || b.corruptBits != fr.CorruptBits {
		f.decode(b, &fr, st, segs)
	}
	f.DecodeErrors += b.errs
	for i := range b.recs {
		r := &b.recs[i]
		for _, p := range r.ch.portsAt(receiver) {
			p.deliver(r.msg, r.crcValid, now)
			f.work.Deliveries++
			if r.crcValid {
				f.work.PayloadCopies++
			}
		}
	}
}

// decode fills b with fr as a receiver observing status st sees it: the
// sender's segments parsed and checksummed, keeping the records of
// channels the sender produces on each segment's network. A record
// claiming any other channel is mis-framed corruption, not that channel's
// traffic — receivers know the static channel-to-sender mapping — and
// counts as a decode error, as does a segment whose framing breaks.
func (f *Fabric) decode(b *broadcast, fr *tt.Frame, st tt.FrameStatus, segs []segment) {
	b.seq, b.corruptBits = fr.Seq, fr.CorruptBits
	b.recs, b.errs = b.recs[:0], 0
	f.work.Broadcasts++

	payload := fr.Payload
	if st == tt.FrameCorrupted {
		b.payload = append(b.payload[:0], payload...)
		payload = b.payload
		f.work.PayloadCopies++
		bits := fr.CorruptBits
		if bits <= 0 {
			bits = 1
		}
		crng := sim.NewRNG(f.corruptSeed ^ uint64(fr.Round)*0x9e3779b97f4a7c15 ^ uint64(fr.Slot)<<48)
		for i := 0; i < bits && len(payload) > 0; i++ {
			pos := crng.Intn(len(payload) * 8)
			payload[pos/8] ^= 1 << (pos % 8)
		}
	}

	for _, s := range segs {
		end := min(s.offset+s.length, len(payload))
		if s.offset >= end {
			continue
		}
		start := len(b.recs)
		recs, ok := decodeSegment(b.recs, payload[s.offset:end])
		f.work.Segments++
		if !ok {
			b.errs++
		}
		b.recs = recs[:start]
		for _, r := range recs[start:] {
			f.work.BytesChecksummed += int64(headerBytes + len(r.msg.Payload))
			if r.ch = s.ep.channel(r.msg.Channel); r.ch == nil {
				b.errs++
				continue
			}
			b.recs = append(b.recs, r)
		}
	}
}
