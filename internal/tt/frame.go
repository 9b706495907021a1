package tt

import "decos/internal/sim"

// FrameStatus classifies how a frame was observed at a receiver. It is the
// LIF-visible failure-mode vocabulary of the core network: a correct frame,
// an omission (nothing arrived in the slot), a value failure (content does
// not conform to its specification — modelled as a CRC/coding violation),
// or a timing failure (the send instant was outside the slot's receive
// window, e.g. because the sender lost clock synchronization).
type FrameStatus uint8

const (
	// FrameOK is a frame received correctly within its slot.
	FrameOK FrameStatus = iota
	// FrameOmitted means no frame was observed in the slot.
	FrameOmitted
	// FrameCorrupted means a frame arrived but failed its coding check
	// (value-domain failure at the core-network level).
	FrameCorrupted
	// FrameTiming means a frame arrived outside its receive window
	// (time-domain failure).
	FrameTiming
)

func (s FrameStatus) String() string {
	switch s {
	case FrameOK:
		return "ok"
	case FrameOmitted:
		return "omitted"
	case FrameCorrupted:
		return "corrupted"
	case FrameTiming:
		return "timing"
	default:
		return "invalid"
	}
}

// Failed reports whether the status represents any deviation from correct
// reception.
func (s FrameStatus) Failed() bool { return s != FrameOK }

// Frame is one TDMA broadcast transmission.
type Frame struct {
	// Seq numbers the broadcast: the bus issues 1, 2, 3, ... one per slot
	// it runs, so every receiver of one broadcast sees the same Seq and no
	// two broadcasts of one bus share one. Receivers may key per-broadcast
	// work on it. Zero means unnumbered (a frame built by hand rather than
	// by a bus). Seq is not checkpoint state: a restored bus numbers afresh.
	Seq uint64
	// Round and Slot locate the frame in the TDMA schedule.
	Round int64
	Slot  int
	// Sender is the node the schedule assigns to this slot.
	Sender NodeID
	// At is the nominal global start time of the slot.
	At sim.Time
	// Payload is the frame contents handed down by the virtual network
	// layer. Nil when the sender omitted the frame.
	Payload []byte
	// Status is the frame's condition as transmitted (after sender-side
	// faults). Individual receivers may observe a worse status through
	// receiver-side faults.
	Status FrameStatus
	// CorruptBits is the number of payload bits flipped by a value fault,
	// recorded so the fault-pattern analysis can distinguish single-bit
	// SEUs from multi-bit EMI corruption (paper Fig. 8, value dimension).
	CorruptBits int
}
