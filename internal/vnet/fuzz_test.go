package vnet

import (
	"bytes"
	"testing"

	"decos/internal/sim"
	"decos/internal/tt"
)

// FuzzDecodeSegment throws arbitrary bytes at the segment decoder — what
// a receiver parses after corruption — and holds it to its contract: it
// never panics; every returned payload is a slice of the input at the
// position its record's framing puts it (records are contiguous from the
// segment start); and a record whose CRC verifies re-encodes to exactly
// its input bytes. The corpus is seeded with real frame segments built by
// the fabric, plus truncated and bit-flipped variants.
func FuzzDecodeSegment(f *testing.F) {
	for _, seg := range fuzzSeedSegments() {
		f.Add(seg)
		f.Add(seg[:len(seg)-1])
		f.Add(seg[:len(seg)/2])
		for _, i := range []int{0, 2, 6, len(seg) / 2, len(seg) - 1} {
			flipped := append([]byte(nil), seg...)
			flipped[i] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Add([]byte{})
	f.Add(make([]byte, headerBytes+crcBytes))

	f.Fuzz(func(t *testing.T, seg []byte) {
		prefix := []decodeResult{{msg: Message{Channel: 9}}}
		out, _ := decodeSegment(prefix, seg)
		if len(out) < 1 || out[0].msg.Channel != 9 {
			t.Fatal("decodeSegment clobbered the results it appends to")
		}
		off := 0
		for i, r := range out[1:] {
			n := WireSize(len(r.msg.Payload))
			if off+n > len(seg) {
				t.Fatalf("record %d (%d bytes at %d) runs past the %d-byte input", i, n, off, len(seg))
			}
			if p := r.msg.Payload; len(p) > 0 && &p[0] != &seg[off+headerBytes] {
				t.Fatalf("record %d payload does not alias the input at offset %d", i, off+headerBytes)
			}
			if r.crcValid {
				enc, err := encode(nil, r.msg)
				if err != nil {
					t.Fatalf("record %d: %v", i, err)
				}
				if !bytes.Equal(enc, seg[off:off+n]) {
					t.Fatalf("record %d re-encodes to %x, input has %x", i, enc, seg[off:off+n])
				}
			}
			off += n
		}
	})
}

// fuzzSeedSegments returns the segments of real frames: a TT and an ET
// network packed by the fabric with a mix of payload sizes.
func fuzzSeedSegments() [][]byte {
	cfg := tt.UniformSchedule(2, 250, 128)
	fab := NewFabric(cfg, sim.NewRNG(1))
	ttn := NewNetwork("tt", TimeTriggered, "a")
	ttn.AddEndpoint(0, 48, 0)
	ttn.DeclareChannel(1, 0)
	ttn.DeclareChannel(2, 0)
	etn := NewNetwork("et", EventTriggered, "b")
	etn.AddEndpoint(0, 64, 8)
	etn.DeclareChannel(3, 0)
	fab.AddNetwork(ttn)
	fab.AddNetwork(etn)
	if err := fab.Seal(); err != nil {
		panic(err)
	}
	ttn.Send(1, FloatPayload(21.5), 0)
	ttn.Send(2, []byte{0xde, 0xad}, 0)
	etn.Send(3, FloatPayload(1), 0)
	etn.Send(3, nil, 0)
	etn.Send(3, []byte("event"), 0)
	frame := fab.BuildPayload(0)
	var out [][]byte
	for _, s := range fab.segments(0) {
		out = append(out, append([]byte(nil), frame[s.offset:s.offset+s.length]...))
	}
	return out
}
