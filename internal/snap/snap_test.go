package snap

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

func TestRoundTripPrimitives(t *testing.T) {
	w := NewWriterSize(7, 0)
	w.Begin(3)
	w.U8(0xab)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.U64(0x0123456789abcdef)
	w.I64(-42)
	w.F64(math.Pi)
	w.F64(math.Copysign(0, -1))
	w.F64(math.Inf(-1))
	w.Bool(true)
	w.Bool(false)
	w.String("hello, snapshot")
	w.Bytes([]byte{1, 2, 3})
	w.Bytes(nil)
	w.End()
	w.Begin(9)
	w.Len(2)
	w.U8(5)
	w.U8(6)
	w.End()
	data, err := w.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}

	r, version, err := NewReader(data)
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	if version != 7 {
		t.Fatalf("version = %d, want 7", version)
	}
	typ, ok := r.Next()
	if !ok || typ != 3 {
		t.Fatalf("Next = (%d, %v), want (3, true)", typ, ok)
	}
	if got := r.U8(); got != 0xab {
		t.Errorf("U8 = %#x", got)
	}
	if got := r.U16(); got != 0xbeef {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789abcdef {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); math.Float64bits(got) != math.Float64bits(math.Copysign(0, -1)) {
		t.Errorf("negative zero lost: %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("-Inf lost: %v", got)
	}
	if got := r.Bool(); !got {
		t.Errorf("Bool = false, want true")
	}
	if got := r.Bool(); got {
		t.Errorf("Bool = true, want false")
	}
	if got := r.String(); got != "hello, snapshot" {
		t.Errorf("String = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Errorf("empty Bytes = %v", got)
	}
	typ, ok = r.Next()
	if !ok || typ != 9 {
		t.Fatalf("second Next = (%d, %v), want (9, true)", typ, ok)
	}
	if n := r.Len(); n != 2 {
		t.Fatalf("Len = %d", n)
	}
	if a, b := r.U8(), r.U8(); a != 5 || b != 6 {
		t.Errorf("elements = %d, %d", a, b)
	}
	if _, ok := r.Next(); ok {
		t.Fatalf("Next past end returned a record")
	}
	if err := r.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
}

func TestBadMagic(t *testing.T) {
	if _, _, err := NewReader([]byte("not a snapshot stream")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, _, err := NewReader([]byte("wdc")); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestTruncationDetected(t *testing.T) {
	w := NewWriterSize(1, 0)
	w.Begin(1)
	w.U64(12345)
	w.End()
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	for cut := len(Magic) + 4 + 1; cut < len(data); cut++ {
		r, _, err := NewReader(data[:cut])
		if err != nil {
			continue // header itself truncated
		}
		for {
			if _, ok := r.Next(); !ok {
				break
			}
			r.U64()
		}
		if r.Err() == nil {
			t.Fatalf("truncation at %d bytes undetected", cut)
		}
	}
}

func TestShortReadDetected(t *testing.T) {
	w := NewWriterSize(1, 0)
	w.Begin(1)
	w.U8(1)
	w.End()
	data, _ := w.Finish()
	r, _, _ := NewReader(data)
	r.Next()
	r.U8()
	if r.U64(); r.Err() == nil {
		t.Fatal("read past record payload undetected")
	}
}

func TestUnderReadDetected(t *testing.T) {
	w := NewWriterSize(1, 0)
	w.Begin(1)
	w.U64(1)
	w.End()
	w.Begin(2)
	w.End()
	data, _ := w.Finish()
	r, _, _ := NewReader(data)
	r.Next()
	// Skip the payload entirely, then try to advance.
	if _, ok := r.Next(); ok || r.Err() == nil {
		t.Fatal("under-consumed record undetected")
	}
}

func TestBogusLengthPrefixRejected(t *testing.T) {
	w := NewWriterSize(1, 0)
	w.Begin(1)
	w.U32(1 << 30) // length prefix far beyond the record payload
	w.End()
	data, _ := w.Finish()
	r, _, _ := NewReader(data)
	r.Next()
	if r.Len(); r.Err() == nil {
		t.Fatal("oversized length prefix accepted")
	}
}

func TestBadBoolRejected(t *testing.T) {
	w := NewWriterSize(1, 0)
	w.Begin(1)
	w.U8(7)
	w.End()
	data, _ := w.Finish()
	r, _, _ := NewReader(data)
	r.Next()
	if r.Bool(); r.Err() == nil {
		t.Fatal("bool byte 7 accepted")
	}
}

func TestWriterMisuse(t *testing.T) {
	w := NewWriterSize(1, 0)
	w.U64(1) // outside any record
	if _, err := w.Finish(); err == nil {
		t.Fatal("write outside record accepted")
	}

	w = NewWriterSize(1, 0)
	w.Begin(1)
	w.Begin(2)
	if _, err := w.Finish(); err == nil {
		t.Fatal("nested Begin accepted")
	}

	w = NewWriterSize(1, 0)
	w.Begin(1)
	if _, err := w.Finish(); err == nil {
		t.Fatal("Finish with open record accepted")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	build := func() []byte {
		w := NewWriterSize(2, 0)
		w.Begin(4)
		w.String("abc")
		w.F64(1.5)
		w.End()
		b, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("same writes produced different bytes")
	}
}

// TestCountBackpatch: a length reserved with Count and filled with SetCount
// reads back through Len exactly like one written up front, and Fail on
// either side latches the first error only.
func TestCountBackpatch(t *testing.T) {
	w := NewWriterSize(1, 0)
	w.Begin(1)
	slot := w.Count()
	for i := 0; i < 3; i++ {
		w.U8(uint8(i + 7))
	}
	w.SetCount(slot, 3)
	w.End()
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Next(); !ok {
		t.Fatal("no record")
	}
	if n := r.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3", n)
	}
	for i := 0; i < 3; i++ {
		if v := r.U8(); v != uint8(i+7) {
			t.Fatalf("element %d = %d", i, v)
		}
	}
	first := errors.New("first")
	r.Fail(first)
	r.Fail(errors.New("second"))
	if r.Err() != first || r.U32() != 0 {
		t.Fatalf("reader after Fail: err %v", r.Err())
	}
	w = NewWriterSize(1, 0)
	w.Begin(1)
	w.SetCount(w.Count(), -1)
	if _, err := w.Finish(); err == nil {
		t.Fatal("negative count accepted")
	}
}

// TestCountHoldsPrefixToElementWidth: a count of w-byte elements is
// accepted up to what the record's remaining bytes can carry and refused
// one past it — where Len, which assumes one byte each, would let a
// decoder make storage w times the record's size.
func TestCountHoldsPrefixToElementWidth(t *testing.T) {
	record := func(n uint32) *Reader {
		w := NewWriterSize(1, 0)
		w.Begin(1)
		w.U32(n)
		w.Raw(96) // two 48-byte elements' worth
		w.End()
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		r, _, _ := NewReader(data)
		r.Next()
		return r
	}
	if r := record(2); r.Count(48) != 2 || r.Err() != nil {
		t.Fatalf("two 48-byte elements in 96 bytes refused: %v", r.Err())
	}
	if r := record(3); r.Count(48) != 0 || r.Err() == nil {
		t.Fatal("three 48-byte elements in 96 bytes accepted")
	}
	if r := record(96); r.Len() != 96 || r.Err() != nil {
		t.Fatalf("Len of 96 one-byte elements refused: %v", r.Err())
	}
}

// TestRawRoundTrip: bytes filled through Writer.Raw read back through
// Reader.Raw, beside ordinary primitives, and a short record fails the
// reader.
func TestRawRoundTrip(t *testing.T) {
	w := NewWriterSize(1, 0)
	w.Begin(1)
	w.U8(9)
	copy(w.Raw(3), "abc")
	w.U16(513)
	w.End()
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r, _, _ := NewReader(data)
	r.Next()
	if r.U8() != 9 || string(r.Raw(3)) != "abc" || r.U16() != 513 || r.Err() != nil {
		t.Fatalf("round trip failed: %v", r.Err())
	}
	if r.Raw(1) != nil || r.Err() == nil {
		t.Fatal("Raw past the payload returned bytes")
	}
	if NewWriterSize(1, 0).Raw(4) != nil {
		t.Fatal("Raw outside a record returned storage")
	}
}

// TestArenaWindows: windows are consecutive, zeroed, capacity-capped (an
// append leaves the neighbour alone), and an arena that runs out — or was
// never made — still hands out what is asked, never nil.
func TestArenaWindows(t *testing.T) {
	a := NewArena[int](5)
	x, y := a.Take(2), a.Take(3)
	if len(x) != 2 || cap(x) != 2 || len(y) != 3 || cap(y) != 3 {
		t.Fatalf("windows %d/%d and %d/%d", len(x), cap(x), len(y), cap(y))
	}
	y[0] = 7
	x = append(x, 1)
	if y[0] != 7 {
		t.Fatal("append to one window wrote into the next")
	}
	if z := a.Take(4); len(z) != 4 || z[0] != 0 {
		t.Fatal("exhausted arena did not allocate the window on its own")
	}
	*a.One() = 3
	var zero Arena[*int]
	if z := zero.Take(0); z == nil {
		t.Fatal("zero arena returned a nil window")
	}
	if p := zero.One(); p == nil || *p != nil {
		t.Fatal("zero arena's One is not a zeroed element")
	}
}
