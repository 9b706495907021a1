package vnet

import (
	"fmt"
	"slices"

	"decos/internal/sim"
	"decos/internal/tt"
)

// Kind distinguishes the two virtual network paradigms of the DECOS
// architecture.
type Kind int

const (
	// TimeTriggered networks carry state messages: the producer's latest
	// value is re-published in every round (state semantics; a lost frame
	// only makes the state stale).
	TimeTriggered Kind = iota
	// EventTriggered networks carry event messages through bounded queues
	// (exactly-once intent; a lost frame loses messages, a full queue
	// overflows).
	EventTriggered
)

func (k Kind) String() string {
	if k == TimeTriggered {
		return "TT"
	}
	return "ET"
}

// Network is one encapsulated virtual network, typically owned by a single
// DAS (plus the dedicated virtual diagnostic network).
type Network struct {
	Name string
	Kind Kind
	// DAS is the name of the owning distributed application subsystem; the
	// diagnostic network uses "diagnosis".
	DAS string

	// Dense tables: endpoints is indexed by NodeID (nil = no endpoint),
	// channels holds every declared channel in declaration order.
	endpoints []*Endpoint
	channels  []*channelState
}

// channelState is one declared channel: its producer and sequence counter,
// plus the fabric's subscriptions on it.
type channelState struct {
	id       ChannelID
	producer tt.NodeID
	nextSeq  uint32

	// state is the channel's latest published value (TimeTriggered
	// networks only; nil until the first Send).
	state *Message

	// at holds the in-ports subscribed to the channel, indexed by
	// receiving node, each list in subscription order.
	at [][]*InPort
}

// portsAt returns the channel's subscriptions at node n.
func (cs *channelState) portsAt(n tt.NodeID) []*InPort {
	if int(n) < len(cs.at) {
		return cs.at[n]
	}
	return nil
}

func (cs *channelState) subscribe(p *InPort) {
	for len(cs.at) <= int(p.Node) {
		cs.at = append(cs.at, nil)
	}
	cs.at[p.Node] = append(cs.at[p.Node], p)
}

// NewNetwork creates an empty virtual network.
func NewNetwork(name string, kind Kind, das string) *Network {
	return &Network{Name: name, Kind: kind, DAS: das}
}

// Endpoint is the attachment of a network to one node: the byte budget the
// network owns in that node's frames, plus the outbound state/queue.
type Endpoint struct {
	Net  *Network
	Node tt.NodeID
	// AllocBytes is the segment size this network owns in the node's frame.
	AllocBytes int
	// QueueCap bounds the outbound event queue (ET networks only). A
	// mis-dimensioned QueueCap relative to the traffic model is the
	// paper's job-borderline configuration fault.
	QueueCap int

	outQueue []Message       // ET pending messages, FIFO
	produced []*channelState // channels produced here, declaration order (= TT packing order)
	freeBufs [][]byte        // recycled ET payload buffers

	// TxOverflows counts messages dropped at the sender because the
	// outbound queue was full — the encapsulation service refusing to let
	// a job exceed its configured resources.
	TxOverflows int
	// TxMessages counts successfully accepted sends.
	TxMessages int

	packBuf []byte // reused segment scratch
}

// channel returns the channel with the given id that this endpoint
// produces, or nil.
func (ep *Endpoint) channel(id ChannelID) *channelState {
	for _, cs := range ep.produced {
		if cs.id == id {
			return cs
		}
	}
	return nil
}

// AddEndpoint attaches the network to a node with the given frame-segment
// budget and (for ET networks) outbound queue capacity.
func (n *Network) AddEndpoint(node tt.NodeID, allocBytes, queueCap int) *Endpoint {
	if node < 0 {
		panic(fmt.Sprintf("vnet: invalid endpoint node %d on %s", node, n.Name))
	}
	if n.Endpoint(node) != nil {
		panic(fmt.Sprintf("vnet: duplicate endpoint for node %d on %s", node, n.Name))
	}
	ep := &Endpoint{
		Net:        n,
		Node:       node,
		AllocBytes: allocBytes,
		QueueCap:   queueCap,
	}
	for len(n.endpoints) <= int(node) {
		n.endpoints = append(n.endpoints, nil)
	}
	n.endpoints[node] = ep
	return ep
}

// Endpoint returns the endpoint at the given node, or nil.
func (n *Network) Endpoint(node tt.NodeID) *Endpoint {
	if node < 0 || int(node) >= len(n.endpoints) {
		return nil
	}
	return n.endpoints[node]
}

// channel returns the declared channel with the given id, or nil.
func (n *Network) channel(id ChannelID) *channelState {
	for _, cs := range n.channels {
		if cs.id == id {
			return cs
		}
	}
	return nil
}

// DeclareChannel registers a channel produced at the given node. Channel ids
// are cluster-global; id 0 is reserved for padding.
func (n *Network) DeclareChannel(id ChannelID, producer tt.NodeID) {
	if id == 0 {
		panic("vnet: channel id 0 is reserved")
	}
	if n.channel(id) != nil {
		panic(fmt.Sprintf("vnet: duplicate channel %d on %s", id, n.Name))
	}
	ep := n.Endpoint(producer)
	if ep == nil {
		panic(fmt.Sprintf("vnet: channel %d producer node %d has no endpoint on %s", id, producer, n.Name))
	}
	cs := &channelState{id: id, producer: producer}
	n.channels = append(n.channels, cs)
	ep.produced = append(ep.produced, cs)
}

// Producer returns the producing node of a channel and whether the channel
// exists on this network.
func (n *Network) Producer(id ChannelID) (tt.NodeID, bool) {
	cs := n.channel(id)
	if cs == nil {
		return tt.NoNode, false
	}
	return cs.producer, true
}

// Channels returns all channel ids declared on the network, in ascending
// order.
func (n *Network) Channels() []ChannelID {
	out := make([]ChannelID, 0, len(n.channels))
	for _, cs := range n.channels {
		out = append(out, cs.id)
	}
	slices.Sort(out)
	return out
}

// Send publishes a message on the given channel from its producing node at
// time now. For TT channels the value replaces the published state; for ET
// channels it is appended to the outbound queue. Send reports whether the
// message was accepted (false = queue overflow, counted on the endpoint).
// The payload is copied into endpoint-owned storage, so the caller may reuse
// its buffer immediately.
func (n *Network) Send(ch ChannelID, payload []byte, now sim.Time) bool {
	cs := n.channel(ch)
	if cs == nil {
		panic(fmt.Sprintf("vnet: send on undeclared channel %d", ch))
	}
	ep := n.endpoints[cs.producer]
	seq := cs.nextSeq
	cs.nextSeq++
	if n.Kind == TimeTriggered {
		st := cs.state
		if st == nil {
			st = &Message{}
			cs.state = st
		}
		st.Channel, st.Seq, st.SentAt = ch, seq, now
		st.Payload = append(st.Payload[:0], payload...)
		ep.TxMessages++
		return true
	}
	if ep.QueueCap > 0 && len(ep.outQueue) >= ep.QueueCap {
		ep.TxOverflows++
		return false
	}
	m := Message{Channel: ch, Seq: seq, SentAt: now}
	m.Payload = append(ep.takeBuf(), payload...)
	ep.outQueue = append(ep.outQueue, m)
	ep.TxMessages++
	return true
}

// takeBuf pops a recycled payload buffer (or returns nil, making the append
// in Send allocate a fresh one).
func (ep *Endpoint) takeBuf() []byte {
	if n := len(ep.freeBufs); n > 0 {
		b := ep.freeBufs[n-1]
		ep.freeBufs = ep.freeBufs[:n-1]
		return b
	}
	return nil
}

// packSegment serializes the endpoint's pending traffic into at most
// AllocBytes and returns the segment (valid until the next packSegment on
// this endpoint — the fabric copies it into the frame buffer immediately).
// TT networks publish every produced channel's current state; ET networks
// drain the queue head-first as far as the budget allows.
func (ep *Endpoint) packSegment() []byte {
	if cap(ep.packBuf) < ep.AllocBytes {
		ep.packBuf = make([]byte, 0, ep.AllocBytes)
	}
	seg := ep.packBuf[:0]
	defer func() { ep.packBuf = seg[:0] }()
	if ep.Net.Kind == TimeTriggered {
		for _, cs := range ep.produced {
			m := cs.state
			if m == nil {
				continue
			}
			if WireSize(len(m.Payload)) > ep.AllocBytes-len(seg) {
				break
			}
			var err error
			seg, err = encode(seg, *m)
			if err != nil {
				panic(err)
			}
		}
		return seg
	}
	drained := 0
	for drained < len(ep.outQueue) {
		m := ep.outQueue[drained]
		if WireSize(len(m.Payload)) > ep.AllocBytes-len(seg) {
			break
		}
		var err error
		seg, err = encode(seg, m)
		if err != nil {
			panic(err)
		}
		if cap(m.Payload) > 0 {
			ep.freeBufs = append(ep.freeBufs, m.Payload[:0])
		}
		drained++
	}
	if drained > 0 {
		// Shift the remainder down instead of reslicing so the queue's
		// backing array (and its capacity) is kept across rounds.
		rest := copy(ep.outQueue, ep.outQueue[drained:])
		tail := ep.outQueue[rest:]
		for i := range tail {
			tail[i] = Message{}
		}
		ep.outQueue = ep.outQueue[:rest]
	}
	return seg
}

// QueueLen returns the number of messages waiting in the outbound queue.
func (ep *Endpoint) QueueLen() int { return len(ep.outQueue) }
