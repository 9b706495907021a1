package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"
)

// frame builds a raw stream from (name, body) pairs, bypassing the
// encoder's own checks so the decoder's limits can be probed directly.
func frame(version byte, sections ...[2]string) []byte {
	out := append(Magic[:], version)
	for _, s := range sections {
		out = binary.AppendUvarint(out, uint64(len(s[0])))
		out = append(out, s[0]...)
		out = binary.AppendUvarint(out, uint64(len(s[1])))
		out = append(out, s[1]...)
	}
	return binary.AppendUvarint(out, 0)
}

func TestPrimitiveRoundTrip(t *testing.T) {
	uvarints := []uint64{0, 1, 127, 128, math.MaxUint32, math.MaxUint64}
	varints := []int64{0, -1, 1, -64, 64, math.MinInt64, math.MaxInt64}
	float64s := []uint64{
		math.Float64bits(0), math.Float64bits(math.Copysign(0, -1)),
		math.Float64bits(math.Inf(1)), math.Float64bits(math.Inf(-1)),
		math.Float64bits(math.SmallestNonzeroFloat64), math.Float64bits(math.MaxFloat64),
		0x7FF8000000000001, // quiet NaN with a payload
		0x7FF0000000000001, // signalling NaN
		0xFFF8DEADBEEF0000, // negative NaN with a payload
	}
	float32s := []uint32{math.Float32bits(-1.5), 0x7FC00001, 0xFF800001}
	strs := []string{"", "a", "Ωmega\x00tail", strings.Repeat("x", 300)}

	enc := NewEncoder()
	enc.Begin("prims")
	for _, v := range uvarints {
		enc.Uvarint(v)
	}
	for _, v := range varints {
		enc.Varint(v)
		enc.Int(int(v))
	}
	for _, v := range uvarints {
		enc.Uint64(v)
	}
	for _, b := range float64s {
		enc.Float64(math.Float64frombits(b))
	}
	for _, b := range float32s {
		enc.Float32(math.Float32frombits(b))
	}
	enc.Bool(true)
	enc.Bool(false)
	for _, s := range strs {
		enc.String(s)
		enc.Bytes8([]byte(s))
	}
	enc.Int(42) // for Len
	enc.End()

	d, err := NewDecoder(enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Need("prims"); err != nil {
		t.Fatal(err)
	}
	for _, want := range uvarints {
		if got := d.Uvarint(); got != want {
			t.Errorf("Uvarint = %d, want %d", got, want)
		}
	}
	for _, want := range varints {
		if got := d.Varint(); got != want {
			t.Errorf("Varint = %d, want %d", got, want)
		}
		if got := d.Int(); got != int(want) {
			t.Errorf("Int = %d, want %d", got, want)
		}
	}
	for _, want := range uvarints {
		if got := d.Uint64(); got != want {
			t.Errorf("Uint64 = %d, want %d", got, want)
		}
	}
	for _, want := range float64s {
		if got := math.Float64bits(d.Float64()); got != want {
			t.Errorf("Float64 bits = %#x, want %#x", got, want)
		}
	}
	for _, want := range float32s {
		if got := math.Float32bits(d.Float32()); got != want {
			t.Errorf("Float32 bits = %#x, want %#x", got, want)
		}
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip")
	}
	for _, want := range strs {
		if got := d.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
		if got := d.Bytes8(); !bytes.Equal(got, []byte(want)) {
			t.Errorf("Bytes8 = %q, want %q", got, want)
		}
	}
	if n := d.Len(42); n != 42 {
		t.Errorf("Len = %d, want 42", n)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if n := d.Remaining(); n != 0 {
		t.Errorf("Remaining = %d after reading every value", n)
	}
}

func TestRejectsBadHeader(t *testing.T) {
	good := frame(Version, [2]string{"s", "x"})
	if _, err := NewDecoder(good); err != nil {
		t.Fatalf("good stream: %v", err)
	}
	badMagic := append([]byte(nil), good...)
	badMagic[1] = 'X'
	for name, stream := range map[string][]byte{
		"empty":     nil,
		"short":     good[:4],
		"bad magic": badMagic,
	} {
		if _, err := NewDecoder(stream); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s: err = %v, want ErrBadMagic", name, err)
		}
	}
	if _, err := NewDecoder(frame(Version+1, [2]string{"s", "x"})); err == nil ||
		!strings.Contains(err.Error(), "unsupported version") {
		t.Errorf("future version: err = %v", err)
	}
}

func TestSectionAndNameCaps(t *testing.T) {
	atCap := strings.Repeat("n", maxNameBytes)
	if _, err := NewDecoder(frame(Version, [2]string{atCap, ""})); err != nil {
		t.Errorf("%d-byte name rejected: %v", maxNameBytes, err)
	}
	if _, err := NewDecoder(frame(Version, [2]string{atCap + "n", ""})); err == nil {
		t.Errorf("%d-byte name accepted", maxNameBytes+1)
	}

	// A body length past the cap is refused from the header alone, before
	// any body bytes are needed.
	over := append(Magic[:], Version)
	over = binary.AppendUvarint(over, 1)
	over = append(over, 's')
	over = binary.AppendUvarint(over, maxSectionBytes+1)
	if _, err := NewDecoder(over); err == nil || !strings.Contains(err.Error(), "bad body length") {
		t.Errorf("oversized section: err = %v", err)
	}

	// The same cap bounds a byte string inside a section.
	body := binary.AppendUvarint(nil, maxSectionBytes+1)
	d, err := NewDecoder(frame(Version, [2]string{"s", string(body)}))
	if err != nil {
		t.Fatal(err)
	}
	d.Section("s")
	if b := d.Bytes8(); b != nil || d.Err() == nil {
		t.Errorf("oversized byte string: %q, err %v", b, d.Err())
	}

	for _, name := range []string{"", atCap + "n"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Begin(%d-byte name) did not panic", len(name))
				}
			}()
			NewEncoder().Begin(name)
		}()
	}
}

func TestNeedMissingSection(t *testing.T) {
	d, err := NewDecoder(frame(Version, [2]string{"present", ""}))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Has("present") || d.Has("absent") {
		t.Error("Has disagrees with the stream")
	}
	if err := d.Need("absent"); err == nil || !strings.Contains(err.Error(), `"absent"`) {
		t.Errorf("Need(absent) = %v", err)
	}
	if err := d.Need("present"); err != nil {
		t.Errorf("Need(present) = %v", err)
	}
}

func TestTruncatedVarintIsSticky(t *testing.T) {
	d, err := NewDecoder(frame(Version,
		[2]string{"cut", "\x80\x80"}, // continuation bits with no final byte
		[2]string{"ok", "\x02"}))
	if err != nil {
		t.Fatal(err)
	}
	d.Section("cut")
	if v := d.Varint(); v != 0 {
		t.Errorf("truncated Varint = %d, want 0", v)
	}
	first := d.Err()
	if first == nil || !strings.Contains(first.Error(), `"cut"`) {
		t.Fatalf("Err = %v, want a truncation naming section cut", first)
	}
	// A well-formed section read afterwards does not clear the error, and
	// every getter keeps returning its zero value.
	d.Section("ok")
	if v := d.Varint(); v != 0 || d.Err() != first {
		t.Errorf("after error: Varint = %d, Err = %v", v, d.Err())
	}
	if d.Uvarint() != 0 || d.Uint64() != 0 || d.Bool() || d.String() != "" || d.Len(10) != 0 {
		t.Error("getters after a sticky error returned data")
	}
	if d.Err() != first {
		t.Errorf("Err changed to %v", d.Err())
	}
}
