package snap

import (
	"bytes"
	"cmp"
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"
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
	w.Bytes([]byte("hello, snapshot"))
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
	if got := r.Bytes(); string(got) != "hello, snapshot" {
		t.Errorf("Bytes = %q", got)
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
		w.Bytes([]byte("abc"))
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

// TestSizerMatchesWriter runs one call sequence through a writer and a
// sizer side by side: after every call the sizer's Size is the writer's
// stream length, so at the end it is len(Finish()), and its Raw returns no
// storage. Each misuse that fails a writer — a nested Begin, a write
// outside a record, a Len out of range — fails the sizer at the same call
// with the same error, which later calls, misuses too, leave as it is.
func TestSizerMatchesWriter(t *testing.T) {
	steps := []func(w *Writer){
		func(w *Writer) { w.Begin(3) },
		func(w *Writer) { w.U8(1) },
		func(w *Writer) { w.U16(2) },
		func(w *Writer) { w.U32(3) },
		func(w *Writer) { w.U64(4) },
		func(w *Writer) { w.I64(-5) },
		func(w *Writer) { w.F64(6.5) },
		func(w *Writer) { w.Bool(true) },
		func(w *Writer) { w.Len(7) },
		func(w *Writer) {
			slot := w.Count()
			w.U8(8)
			w.U8(9)
			w.SetCount(slot, 2)
		},
		func(w *Writer) { w.Bytes([]byte("sizer")) },
		func(w *Writer) { w.Bytes(nil) },
		func(w *Writer) {
			if b := w.Raw(16); b != nil {
				if w.sizing {
					t.Error("a sizer's Raw returned storage")
				}
				copy(b, "sixteen bytes!!!")
			}
		},
		func(w *Writer) { w.End() },
		func(w *Writer) { w.Begin(4) },
		func(w *Writer) { w.End() },
	}
	w, sz := NewWriterSize(1, 0), NewSizer()
	if w.Size() != HeaderBytes || sz.Size() != HeaderBytes {
		t.Fatalf("fresh writer and sizer have sizes %d and %d, want the header's %d", w.Size(), sz.Size(), HeaderBytes)
	}
	for i, step := range steps {
		step(w)
		step(&sz)
		if w.Size() != sz.Size() {
			t.Fatalf("step %d: the writer's stream is %d bytes, the sizer counts %d", i, w.Size(), sz.Size())
		}
	}
	blob, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if none, err := sz.Finish(); none != nil || err != nil {
		t.Fatalf("a sizer's Finish returned %d bytes, err %v", len(none), err)
	}
	if sz.Size() != len(blob) {
		t.Fatalf("the sizer counts %d bytes, the writer wrote %d", sz.Size(), len(blob))
	}

	for name, misuse := range map[string]func(w *Writer){
		"nested Begin":       func(w *Writer) { w.Begin(1); w.Begin(2) },
		"write outside":      func(w *Writer) { w.U64(1) },
		"Len out of range":   func(w *Writer) { w.Begin(1); w.Len(-1) },
		"count out of range": func(w *Writer) { w.Begin(1); w.SetCount(w.Count(), -1) },
	} {
		w, sz := NewWriterSize(1, 0), NewSizer()
		for _, ws := range []*Writer{w, &sz} {
			misuse(ws)
			first := ws.Err()
			ws.End()
			ws.Begin(5)
			ws.U32(6)
			if ws.Err() != first {
				t.Errorf("%s: a later call replaced the first error %v with %v", name, first, ws.Err())
			}
		}
		_, werr := w.Finish()
		_, serr := sz.Finish()
		if werr == nil || serr == nil || werr.Error() != serr.Error() {
			t.Errorf("%s: the writer fails with %v, the sizer with %v", name, werr, serr)
		}
		if w.Size() != sz.Size() {
			t.Errorf("%s: the writer stopped at %d bytes, the sizer at %d", name, w.Size(), sz.Size())
		}
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
// never made — still hands out what is asked, never nil: past its total it
// refills one chunk and carves on from there, except that a request above
// a quarter of a chunk (and so one at or above a chunk) is made on its own
// and leaves the arena's room as it was.
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
	z := a.Take(4)
	if len(z) != 4 || cap(z) != 4 || z[0] != 0 || len(a.free) != chunkLen[int]()-4 {
		t.Fatalf("exhausted arena: window %d/%d, %d elements left, want a chunk of %d refilled", len(z), cap(z), len(a.free), chunkLen[int]())
	}
	if w := a.Take(1); unsafe.Pointer(&w[0]) != unsafe.Add(unsafe.Pointer(&z[0]), 4*unsafe.Sizeof(0)) {
		t.Fatal("the window after a refill is not carved next to the refill's first")
	}
	*a.One() = 3
	var zero Arena[*int]
	if z := zero.Take(0); z == nil || zero.free != nil {
		t.Fatal("zero arena returned a nil window, or made a chunk for nothing")
	}
	if p := zero.One(); p == nil || *p != nil {
		t.Fatal("zero arena's One is not a zeroed element")
	}

	// Many windows over many refills: each zeroed when taken, capped at
	// its length, and none overlapping another, however the requests
	// straddle chunk ends.
	type span struct{ lo, hi uintptr }
	var spans []span
	var held [][]int64
	var b Arena[int64]
	c := chunkLen[int64]()
	for i := 0; i < 8*c/7; i++ {
		n := 1 + i%(c/4)
		w := b.Take(n)
		if len(w) != n || cap(w) != n {
			t.Fatalf("take %d: window %d/%d", n, len(w), cap(w))
		}
		for j := range w {
			if w[j] != 0 {
				t.Fatalf("take %d: element %d is %d, not zeroed", n, j, w[j])
			}
			w[j] = int64(i + 1)
		}
		lo := uintptr(unsafe.Pointer(&w[0]))
		spans = append(spans, span{lo, lo + uintptr(n)*8})
		held = append(held, w)
	}
	slices.SortFunc(spans, func(p, q span) int { return cmp.Compare(p.lo, q.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("windows [%#x, %#x) and [%#x, %#x) overlap", spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
	for i, w := range held {
		for _, v := range w {
			if v != int64(i+1) {
				t.Fatalf("window %d was overwritten by a later one", i)
			}
		}
	}

	// Requests above a quarter chunk, and at or above a whole one, are made
	// alone: the arena's room is untouched, and the bytes one costs are its
	// own, not a chunk's — so a decoder's allocation stays bounded by what
	// it asks for (FuzzRestore's bound).
	d := NewArena[int64](3 * c)
	if d.Take(3*c - 1); len(d.free) != 1 {
		t.Fatal("a request the room holds was not carved from it")
	}
	room := d.free
	for _, n := range []int{c/4 + 1, c, 3 * c} {
		if w := d.Take(n); len(w) != n || cap(w) != n || len(d.free) != 1 || &d.free[0] != &room[0] {
			t.Fatalf("a request of %d (chunk %d) was carved from the arena's room", n, c)
		}
	}
	for _, n := range []int{1, c / 4, c/4 + 1, c, 3 * c} {
		var fresh Arena[int64]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fresh.Take(n)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(max(chunkBytes, 8*n)*9/8); got > limit {
			t.Fatalf("a fresh arena's Take(%d) allocated %d bytes, limit %d", n, got, limit)
		}
	}
}
