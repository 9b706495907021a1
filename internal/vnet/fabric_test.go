package vnet

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"decos/internal/sim"
	"decos/internal/tt"
)

// buildFabric wires a 3-node cluster with one TT network (channels 1,2
// produced by nodes 0,1) and one ET network (channel 10 produced by node 0).
func buildFabric(t *testing.T) (*Fabric, *Network, *Network) {
	t.Helper()
	cfg := tt.UniformSchedule(3, 250*sim.Microsecond, 128)
	f := NewFabric(cfg, sim.NewRNG(1))

	ttn := NewNetwork("dasA.tt", TimeTriggered, "dasA")
	ttn.AddEndpoint(0, 40, 0)
	ttn.AddEndpoint(1, 40, 0)
	ttn.DeclareChannel(1, 0)
	ttn.DeclareChannel(2, 1)

	etn := NewNetwork("dasB.et", EventTriggered, "dasB")
	etn.AddEndpoint(0, 40, 8)
	etn.DeclareChannel(10, 0)

	f.AddNetwork(ttn)
	f.AddNetwork(etn)
	return f, ttn, etn
}

func TestFabricSealLayout(t *testing.T) {
	f, _, _ := buildFabric(t)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	// Node 0 carries both networks (40+40 ≤ 128), node 1 only the TT one.
	if got := len(f.layout[0]); got != 2 {
		t.Errorf("node 0 segments = %d, want 2", got)
	}
	if got := len(f.layout[1]); got != 1 {
		t.Errorf("node 1 segments = %d, want 1", got)
	}
}

func TestFabricSealOverflow(t *testing.T) {
	cfg := tt.UniformSchedule(2, 250, 16)
	f := NewFabric(cfg, sim.NewRNG(1))
	n := NewNetwork("big", TimeTriggered, "x")
	n.AddEndpoint(0, 64, 0)
	n.DeclareChannel(1, 0)
	f.AddNetwork(n)
	if err := f.Seal(); err == nil {
		t.Error("over-allocated layout accepted")
	}
}

func TestTTStateDelivery(t *testing.T) {
	f, ttn, _ := buildFabric(t)
	in := f.Subscribe(2, 1, 0, true)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}

	ttn.Send(1, FloatPayload(42), 0)
	payload := f.BuildPayload(0)
	fr := tt.Frame{Round: 0, Slot: 0, Sender: 0, Payload: payload, Status: tt.FrameOK}
	f.ConsumeFrame(2, fr, tt.FrameOK, 100)

	m, ok := in.Peek()
	if !ok || m.Float() != 42 {
		t.Fatalf("TT state not delivered: ok=%v v=%v", ok, m.Float())
	}
	// State semantics: a newer value replaces, and is re-published every
	// round even without a new Send.
	ttn.Send(1, FloatPayload(43), 200)
	f.ConsumeFrame(2, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 300)
	f.ConsumeFrame(2, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 400)
	if in.QueueLen() != 1 {
		t.Errorf("overwrite port queue = %d, want 1", in.QueueLen())
	}
	m, _ = in.Peek()
	if m.Float() != 43 {
		t.Errorf("latest state = %v, want 43", m.Float())
	}
	if in.Stats.Received != 3 {
		t.Errorf("received = %d, want 3 (republished state)", in.Stats.Received)
	}
}

func TestETQueueFIFOAndAllocationLimit(t *testing.T) {
	f, _, etn := buildFabric(t)
	in := f.Subscribe(1, 10, 16, false)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}

	// 8-byte payload → wire size 17; 40-byte segment fits 2 per round.
	for i := 0; i < 5; i++ {
		if !etn.Send(10, FloatPayload(float64(i)), 0) {
			t.Fatalf("send %d rejected", i)
		}
	}
	ep := etn.Endpoint(0)
	payload := f.BuildPayload(0)
	if ep.QueueLen() != 3 {
		t.Errorf("queue after first round = %d, want 3", ep.QueueLen())
	}
	f.ConsumeFrame(1, tt.Frame{Sender: 0, Payload: payload}, tt.FrameOK, 100)
	if in.QueueLen() != 2 {
		t.Errorf("delivered %d messages, want 2", in.QueueLen())
	}
	m, _ := in.Receive()
	if m.Float() != 0 {
		t.Errorf("FIFO violated: first = %v", m.Float())
	}
	// Next round drains the remainder.
	f.ConsumeFrame(1, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 200)
	f.ConsumeFrame(1, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 300)
	total := in.QueueLen()
	for _, want := range []float64{1, 2, 3, 4} {
		m, ok := in.Receive()
		if !ok || m.Float() != want {
			t.Fatalf("expected %v, got %v (ok=%v), queued=%d", want, m.Float(), ok, total)
		}
	}
}

func TestETSenderOverflow(t *testing.T) {
	f, _, etn := buildFabric(t)
	f.Subscribe(1, 10, 0, false)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	ep := etn.Endpoint(0)
	accepted := 0
	for i := 0; i < 12; i++ {
		if etn.Send(10, FloatPayload(1), 0) {
			accepted++
		}
	}
	if accepted != 8 {
		t.Errorf("accepted %d sends with QueueCap=8", accepted)
	}
	if ep.TxOverflows != 4 {
		t.Errorf("TxOverflows = %d, want 4", ep.TxOverflows)
	}
}

func TestReceiveQueueOverflow(t *testing.T) {
	f, _, etn := buildFabric(t)
	in := f.Subscribe(1, 10, 1, false) // capacity 1: misconfigured consumer
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	etn.Send(10, FloatPayload(1), 0)
	etn.Send(10, FloatPayload(2), 0)
	f.ConsumeFrame(1, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 100)
	if in.Stats.Overflows != 1 {
		t.Errorf("Overflows = %d, want 1", in.Stats.Overflows)
	}
	if in.QueueLen() != 1 {
		t.Errorf("queue = %d, want 1", in.QueueLen())
	}
}

func TestFrameMissRecordedOnOmission(t *testing.T) {
	f, _, _ := buildFabric(t)
	inTT := f.Subscribe(2, 1, 0, true)
	inET := f.Subscribe(2, 10, 4, false)
	inOther := f.Subscribe(2, 2, 0, true) // produced by node 1, not node 0
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	f.ConsumeFrame(2, tt.Frame{Sender: 0}, tt.FrameOmitted, 100)
	if inTT.Stats.FrameMisses != 1 || inET.Stats.FrameMisses != 1 {
		t.Errorf("misses TT=%d ET=%d, want 1/1", inTT.Stats.FrameMisses, inET.Stats.FrameMisses)
	}
	if inOther.Stats.FrameMisses != 0 {
		t.Errorf("channel of another producer recorded a miss")
	}
	f.ConsumeFrame(2, tt.Frame{Sender: 0}, tt.FrameTiming, 200)
	if inTT.Stats.FrameMisses != 2 {
		t.Errorf("timing failure not recorded as miss")
	}
}

func TestCorruptionConsistentAcrossReceivers(t *testing.T) {
	f, ttn, _ := buildFabric(t)
	in1 := f.Subscribe(1, 1, 0, true)
	in2 := f.Subscribe(2, 1, 0, true)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	crcSplit := 0
	for round := int64(0); round < 200; round++ {
		ttn.Send(1, FloatPayload(7), sim.Time(round*1000))
		fr := tt.Frame{Round: round, Slot: 0, Sender: 0, Payload: f.BuildPayload(0),
			Status: tt.FrameCorrupted, CorruptBits: 2}
		before1, before2 := in1.Stats.CRCFailures, in2.Stats.CRCFailures
		f.ConsumeFrame(1, fr, tt.FrameCorrupted, sim.Time(round*1000))
		f.ConsumeFrame(2, fr, tt.FrameCorrupted, sim.Time(round*1000))
		d1, d2 := in1.Stats.CRCFailures-before1, in2.Stats.CRCFailures-before2
		if d1 != d2 {
			crcSplit++
		}
	}
	if crcSplit != 0 {
		t.Errorf("%d/200 corrupted frames observed differently by two receivers", crcSplit)
	}
	if in1.Stats.CRCFailures == 0 {
		t.Error("no CRC failures from corrupted frames")
	}
}

func TestSeqGapDetection(t *testing.T) {
	f, _, etn := buildFabric(t)
	in := f.Subscribe(1, 10, 0, false)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	etn.Send(10, FloatPayload(1), 0)
	f.ConsumeFrame(1, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 0)
	// Two messages are sent but the frame carrying them is lost.
	etn.Send(10, FloatPayload(2), 0)
	etn.Send(10, FloatPayload(3), 0)
	f.BuildPayload(0) // drains the queue onto the (lost) frame
	f.ConsumeFrame(1, tt.Frame{Sender: 0}, tt.FrameOmitted, 100)
	// Next message arrives with a sequence gap.
	etn.Send(10, FloatPayload(4), 0)
	f.ConsumeFrame(1, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 200)
	if in.Stats.SeqGaps != 1 {
		t.Errorf("SeqGaps = %d, want 1", in.Stats.SeqGaps)
	}
	if in.Stats.FrameMisses != 1 {
		t.Errorf("FrameMisses = %d, want 1", in.Stats.FrameMisses)
	}
}

func TestEncapsulationIsolation(t *testing.T) {
	// A flooding producer on the ET network cannot disturb the TT network's
	// segment: the layout is fixed per network.
	f, ttn, etn := buildFabric(t)
	inTT := f.Subscribe(2, 1, 0, true)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		etn.Send(10, FloatPayload(float64(i)), 0) // mostly overflows
	}
	ttn.Send(1, FloatPayload(5), 0)
	f.ConsumeFrame(2, tt.Frame{Sender: 0, Payload: f.BuildPayload(0)}, tt.FrameOK, 100)
	if m, ok := inTT.Peek(); !ok || m.Float() != 5 {
		t.Errorf("TT traffic disturbed by ET flood: ok=%v v=%v", ok, m.Float())
	}
	if etn.Endpoint(0).TxOverflows == 0 {
		t.Error("flood did not overflow the encapsulated queue")
	}
}

func TestSubscribeUnknownChannelPanics(t *testing.T) {
	f, _, _ := buildFabric(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	f.Subscribe(0, 999, 0, false)
}

func TestNetworkDeclarationPanics(t *testing.T) {
	n := NewNetwork("x", TimeTriggered, "d")
	n.AddEndpoint(0, 16, 0)
	for name, fn := range map[string]func(){
		"zero channel":       func() { n.DeclareChannel(0, 0) },
		"missing endpoint":   func() { n.DeclareChannel(5, 3) },
		"duplicate endpoint": func() { n.AddEndpoint(0, 8, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
	n.DeclareChannel(5, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate channel: no panic")
			}
		}()
		n.DeclareChannel(5, 0)
	}()
}

func TestNetworkAccessors(t *testing.T) {
	f, ttn, _ := buildFabric(t)
	if f.Network("dasA.tt") != ttn || f.Network("nope") != nil {
		t.Error("Network lookup wrong")
	}
	chs := ttn.Channels()
	if len(chs) != 2 || chs[0] != 1 || chs[1] != 2 {
		t.Errorf("Channels() = %v", chs)
	}
	if p, ok := ttn.Producer(2); !ok || p != 1 {
		t.Errorf("Producer(2) = %v,%v", p, ok)
	}
	if TimeTriggered.String() != "TT" || EventTriggered.String() != "ET" {
		t.Error("Kind.String wrong")
	}
}

func TestReceivedPayloadLifetime(t *testing.T) {
	f, _, etn := buildFabric(t)
	in := f.Subscribe(1, 10, 0, false)
	other := f.Subscribe(2, 10, 0, false)
	if err := f.Seal(); err != nil {
		t.Fatal(err)
	}
	etn.Send(10, FloatPayload(1), 0)
	etn.Send(10, FloatPayload(2), 0)
	fr := tt.Frame{Seq: 1, Sender: 0, Payload: f.BuildPayload(0)}
	f.ConsumeFrame(1, fr, tt.FrameOK, 100)
	m1, _ := in.Receive()
	m2, _ := in.Receive()

	// Another port's delivery of the same broadcast, and the next frame
	// the sender builds, leave the received payloads intact.
	f.ConsumeFrame(2, fr, tt.FrameOK, 100)
	other.Receive()
	etn.Send(10, FloatPayload(3), 0)
	next := tt.Frame{Seq: 2, Sender: 0, Payload: f.BuildPayload(0)}
	if m1.Float() != 1 || m2.Float() != 2 {
		t.Fatalf("received payloads changed before the port's next delivery: %v, %v", m1.Float(), m2.Float())
	}

	// The port's next delivery may reuse their buffers; what it delivers
	// is intact.
	f.ConsumeFrame(1, next, tt.FrameOK, 200)
	m3, ok := in.Receive()
	if !ok || m3.Float() != 3 {
		t.Fatalf("next delivery = %v (ok=%v), want 3", m3.Float(), ok)
	}
	if v := (Message{Payload: in.Stats.LastValue}).Float(); v != 3 {
		t.Errorf("LastValue = %v, want 3", v)
	}
}

// oracleConsume is the per-receiver receive path the decode-once fabric
// replaced, kept as its differential oracle: every receiver copies and
// bit-flips a corrupted payload itself, decodes and checksums every
// segment, looks each record's producer up on the segment's network, and
// copies each delivered payload into a fresh slice.
func oracleConsume(f *Fabric, receiver tt.NodeID, fr tt.Frame, st tt.FrameStatus, now sim.Time) {
	if fr.Sender == tt.NoNode {
		return
	}
	segs := f.segments(fr.Sender)
	if len(segs) == 0 {
		return
	}
	subs := func(ch ChannelID) []*InPort {
		var out []*InPort
		for _, p := range f.ports {
			if p.Channel == ch {
				out = append(out, p)
			}
		}
		return out
	}
	if st == tt.FrameOmitted || st == tt.FrameTiming {
		for _, s := range segs {
			for _, ch := range s.ep.Net.Channels() {
				if prod, _ := s.ep.Net.Producer(ch); prod != fr.Sender {
					continue
				}
				for _, p := range subs(ch) {
					if p.Node == receiver {
						p.Stats.FrameMisses++
					}
				}
			}
		}
		return
	}

	payload := fr.Payload
	if st == tt.FrameCorrupted {
		payload = append([]byte(nil), payload...)
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
		end := s.offset + s.length
		if end > len(payload) {
			end = len(payload)
		}
		if s.offset >= end {
			continue
		}
		msgs, ok := decodeSegment(nil, payload[s.offset:end])
		if !ok {
			f.DecodeErrors++
		}
		for _, r := range msgs {
			if prod, known := s.ep.Net.Producer(r.msg.Channel); !known || prod != fr.Sender {
				f.DecodeErrors++
				continue
			}
			for _, p := range subs(r.msg.Channel) {
				if p.Node == receiver {
					oracleDeliver(p, r.msg, r.crcValid, now)
				}
			}
		}
	}
}

// oracleDeliver is InPort.deliver before payload buffers were recycled:
// every valid delivery, dropped or not, copies into a new slice.
func oracleDeliver(p *InPort, m Message, crcValid bool, now sim.Time) {
	if !crcValid {
		p.Stats.CRCFailures++
		p.Stats.LastWasValid = false
		return
	}
	m.Payload = append([]byte(nil), m.Payload...)
	if p.Stats.haveSeq && m.Seq != p.Stats.LastSeq+1 && m.Seq > p.Stats.LastSeq {
		p.Stats.SeqGaps++
	}
	p.Stats.LastSeq = m.Seq
	p.Stats.haveSeq = true
	p.Stats.Received++
	p.Stats.LastArrival = now
	p.Stats.LastValue = m.Payload
	p.Stats.LastWasValid = true
	if p.Overwrite {
		p.queue = append(p.queue[:0], m)
		return
	}
	if p.Capacity > 0 && len(p.queue) >= p.Capacity {
		p.Stats.Overflows++
		return
	}
	p.queue = append(p.queue, m)
}

// buildRandomFabric wires a random cluster: 2–5 nodes, 1–3 networks of
// either kind with endpoints on a random subset of nodes (some with no
// frame budget), 0–2 channels per endpoint, and random subscriptions —
// state ports, unbounded and small bounded queues, sometimes two ports on
// one channel at one node. The same seed builds the same fabric.
func buildRandomFabric(seed uint64) (*Fabric, []*Network) {
	rng := sim.NewRNG(seed)
	nodes := 2 + rng.Intn(4)
	cfg := tt.UniformSchedule(nodes, 250, 160)
	f := NewFabric(cfg, sim.NewRNG(seed^0x5eed))
	var nets []*Network
	next := ChannelID(1)
	var chans []ChannelID
	for i, nn := 0, 1+rng.Intn(3); i < nn; i++ {
		kind := TimeTriggered
		if rng.Bool(0.5) {
			kind = EventTriggered
		}
		n := NewNetwork(fmt.Sprintf("n%d", i), kind, "d")
		for node := 0; node < nodes; node++ {
			if !rng.Bool(0.7) {
				continue
			}
			alloc := []int{0, 20, 30, 40}[rng.Intn(4)]
			n.AddEndpoint(tt.NodeID(node), alloc, rng.Intn(5))
			for c := rng.Intn(3); c > 0; c-- {
				n.DeclareChannel(next, tt.NodeID(node))
				chans = append(chans, next)
				next++
			}
		}
		f.AddNetwork(n)
		nets = append(nets, n)
	}
	for _, ch := range chans {
		for node := 0; node < nodes; node++ {
			for k := 0; k < 2 && rng.Bool(0.5); k++ {
				f.Subscribe(tt.NodeID(node), ch, rng.Intn(4), rng.Bool(0.3))
			}
		}
	}
	if err := f.Seal(); err != nil {
		panic(err)
	}
	return f, nets
}

// TestFabricMatchesPerReceiverOracle drives random broadcast sequences
// through the decode-once fabric and the per-receiver oracle side by side
// and requires identical observable state after every slot: each port's
// statistics (LastValue included) and queue, and the decode-error tally.
// Frames are correct, corrupted (varying CorruptBits), omitted, timing
// failed or mis-framed (a record claiming a foreign channel); single
// receivers see them degraded; some are unnumbered (Seq 0) while the
// sender's frame buffer is reused underneath.
func TestFabricMatchesPerReceiverOracle(t *testing.T) {
	for seed := uint64(1); seed <= 150; seed++ {
		if err := runDifferential(seed); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func runDifferential(seed uint64) error {
	want, wantNets := buildRandomFabric(seed)
	got, gotNets := buildRandomFabric(seed)
	rng := sim.NewRNG(seed ^ 0xd1ff)
	nodes := len(want.cfg.Nodes())
	var seq uint64
	var payload [12]byte
	for round := int64(0); round < 40; round++ {
		for slot := 0; slot < nodes; slot++ {
			sender := tt.NodeID(slot)
			now := sim.Time(round*1000 + int64(slot))
			for ni, n := range wantNets {
				ep := n.Endpoint(sender)
				if ep == nil {
					continue
				}
				for _, cs := range ep.produced {
					for k := rng.Intn(4); k > 0; k-- {
						p := payload[:rng.Intn(len(payload)+1)]
						for i := range p {
							p[i] = byte(rng.Uint64())
						}
						n.Send(cs.id, p, now)
						gotNets[ni].Send(cs.id, p, now)
					}
				}
			}
			wp, gp := want.BuildPayload(sender), got.BuildPayload(sender)
			if !bytes.Equal(wp, gp) {
				return fmt.Errorf("round %d slot %d: built payloads differ", round, slot)
			}

			fr := tt.Frame{Round: round, Slot: slot, Sender: sender, At: now, Status: tt.FrameOK}
			if !rng.Bool(0.2) {
				seq++
				fr.Seq = seq
			}
			switch x := rng.Float64(); {
			case x < 0.2:
				fr.Status, fr.CorruptBits = tt.FrameCorrupted, rng.Intn(20)
			case x < 0.3:
				fr.Status = tt.FrameOmitted
				wp, gp = nil, nil
			case x < 0.35:
				fr.Status = tt.FrameTiming
			case x < 0.45 && len(wp) >= WireSize(4):
				// Mis-framed: a well-formed record on a channel the sender
				// does not produce (or nobody declared).
				rec, _ := encode(nil, Message{Channel: ChannelID(1 + rng.Intn(20)), Seq: 7, Payload: []byte{1, 2, 3, 4}})
				copy(wp, rec)
				copy(gp, rec)
			}
			for rcv := 0; rcv < nodes; rcv++ {
				st := fr.Status
				if rng.Bool(0.15) {
					st = []tt.FrameStatus{tt.FrameOK, tt.FrameCorrupted, tt.FrameOmitted}[rng.Intn(3)]
				}
				wf, gf := fr, fr
				wf.Payload, gf.Payload = wp, gp
				oracleConsume(want, tt.NodeID(rcv), wf, st, now)
				got.ConsumeFrame(tt.NodeID(rcv), gf, st, now)
			}
			if err := sameObservations(want, got); err != nil {
				return fmt.Errorf("round %d slot %d (seq %d, %v): %v", round, slot, fr.Seq, fr.Status, err)
			}
		}
		// Consumers drain some of their queues between rounds.
		for i, wpt := range want.ports {
			for k := rng.Intn(3); k > 0; k-- {
				wm, wok := wpt.Receive()
				gm, gok := got.ports[i].Receive()
				if wok != gok || !sameMessage(wm, gm) {
					return fmt.Errorf("round %d: port %d received %+v (ok=%v), oracle %+v (ok=%v)", round, i, gm, gok, wm, wok)
				}
			}
		}
	}
	return nil
}

func sameMessage(a, b Message) bool {
	return a.Channel == b.Channel && a.Seq == b.Seq && a.SentAt == b.SentAt && bytes.Equal(a.Payload, b.Payload)
}

func sameObservations(want, got *Fabric) error {
	if want.DecodeErrors != got.DecodeErrors {
		return fmt.Errorf("DecodeErrors = %d, oracle %d", got.DecodeErrors, want.DecodeErrors)
	}
	for i, w := range want.ports {
		g := got.ports[i]
		ws, gs := w.Stats, g.Stats
		if !bytes.Equal(ws.LastValue, gs.LastValue) {
			return fmt.Errorf("port %d (ch %d @%d): LastValue %x, oracle %x", i, w.Channel, w.Node, gs.LastValue, ws.LastValue)
		}
		ws.LastValue, gs.LastValue = nil, nil
		if !reflect.DeepEqual(ws, gs) {
			return fmt.Errorf("port %d (ch %d @%d): stats %+v, oracle %+v", i, w.Channel, w.Node, gs, ws)
		}
		if len(w.queue) != len(g.queue) {
			return fmt.Errorf("port %d: queue length %d, oracle %d", i, len(g.queue), len(w.queue))
		}
		for j := range w.queue {
			if !sameMessage(w.queue[j], g.queue[j]) {
				return fmt.Errorf("port %d: queue[%d] = %+v, oracle %+v", i, j, g.queue[j], w.queue[j])
			}
		}
	}
	return nil
}
