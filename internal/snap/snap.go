// Package snap is the flat binary snapshot codec: a versioned header
// followed by length-prefixed records of fixed-width little-endian
// primitives. It is deliberately dumb — no reflection, no varints, no
// compression — so encoding is a straight memory copy and the byte
// layout is specifiable in a dozen lines (DESIGN.md §11).
//
// A snapshot is
//
//	magic "wdcsnap\n" | u32 version | record*
//
// and each record is
//
//	u16 type | u32 length | payload
//
// Record types and payload layouts belong to the consumer (the core
// checkpointer); snap only frames them. Writers build one record at a
// time between Begin and End; readers iterate records with Next and pull
// primitives in the exact order they were written. Both sides accumulate
// the first error and make every later call a cheap no-op, so encode and
// decode paths read as straight-line code with a single Err check at the
// end.
package snap

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
)

// Magic identifies a snapshot byte stream. The trailing newline guards
// against text-mode mangling, in the spirit of the PNG signature.
const Magic = "wdcsnap\n"

// HeaderBytes is the length of the stream header (magic and version) and
// FrameBytes that of a record's frame (type and length): a stream is
// HeaderBytes plus, per record, FrameBytes and its payload.
const (
	HeaderBytes = len(Magic) + 4
	FrameBytes  = 2 + 4
)

// Writer serializes records into an in-memory buffer. Records are framed
// in place: Begin reserves a four-byte length slot and End backpatches it,
// so a payload is written exactly once — no staging buffer, no copy per
// record.
//
// A sizer (NewSizer) is a Writer that stores nothing: it takes the same
// calls, runs the same checks and latches the same errors, but only adds
// up the widths of what it is given. Running an encoder through a sizer
// and then through NewWriterSize(version, sizer.Size()) writes the stream
// in one buffer of its exact length, with the encoder its only
// description of the layout.
type Writer struct {
	buf     []byte // header + ended records + the open record so far
	size    int    // a sizer's stream length so far
	sizing  bool
	lenAt   int // offset of the open record's length slot
	recType uint16
	inRec   bool
	err     error
}

// NewWriterSize starts a snapshot with the given format version in a
// buffer of size bytes: pass the length the stream will reach and it is
// written in that one allocation, with no grow-and-copy doubling. A stream
// that outgrows it regrows.
func NewWriterSize(version uint32, size int) *Writer {
	w := &Writer{buf: make([]byte, 0, max(size, HeaderBytes))}
	w.buf = append(w.buf, Magic...)
	w.buf = binary.LittleEndian.AppendUint32(w.buf, version)
	return w
}

// NewSizer returns a sizer. It is a value, so a caller can keep it where
// it costs no allocation: on its stack or in a struct it already has.
func NewSizer() Writer { return Writer{size: HeaderBytes, sizing: true} }

// Size is the length of the stream so far: a writer's bytes, or what a
// sizer's would be.
func (w *Writer) Size() int {
	if w.sizing {
		return w.size
	}
	return len(w.buf)
}

// Begin opens a record of the given type. Nesting records is a bug.
func (w *Writer) Begin(typ uint16) {
	if w.err != nil {
		return
	}
	if w.inRec {
		w.Fail(fmt.Errorf("snap: Begin(%d) inside open record %d", typ, w.recType))
		return
	}
	w.inRec = true
	w.recType = typ
	w.lenAt = w.Size() + 2
	if w.sizing {
		w.size += FrameBytes
		return
	}
	w.buf = binary.LittleEndian.AppendUint16(w.buf, typ)
	w.buf = append(w.buf, 0, 0, 0, 0)
}

// End closes the open record, backpatching its length slot.
func (w *Writer) End() {
	if w.err != nil {
		return
	}
	if !w.inRec {
		w.Fail(fmt.Errorf("snap: End without Begin"))
		return
	}
	n := w.Size() - w.lenAt - 4
	if int64(n) > math.MaxUint32 {
		w.Fail(fmt.Errorf("snap: record %d payload %d bytes overflows length prefix", w.recType, n))
		return
	}
	if !w.sizing {
		binary.LittleEndian.PutUint32(w.buf[w.lenAt:], uint32(n))
	}
	w.inRec = false
}

// Fail latches err as the writer's first error, for an encoder that finds
// state it cannot serialize mid-record.
func (w *Writer) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// open reports whether a record is open for primitive writes, latching an
// error if not. The happy path is a two-flag check that inlines into the
// primitive writers; the error path is split out to keep it that way.
func (w *Writer) open() bool {
	if w.err == nil && w.inRec {
		return true
	}
	w.openFail()
	return false
}

func (w *Writer) openFail() {
	if w.err == nil {
		w.Fail(fmt.Errorf("snap: write outside record"))
	}
}

// put reports whether a primitive appends its n bytes: not outside a
// record or after an error, and not in a sizer, which counts them.
func (w *Writer) put(n int) bool {
	if w.err != nil || !w.inRec {
		w.openFail()
		return false
	}
	if w.sizing {
		w.size += n
		return false
	}
	return true
}

// U8 appends an unsigned byte to the open record.
func (w *Writer) U8(v uint8) {
	if w.put(1) {
		w.buf = append(w.buf, v)
	}
}

// U16 appends a little-endian uint16.
func (w *Writer) U16(v uint16) {
	if w.put(2) {
		w.buf = binary.LittleEndian.AppendUint16(w.buf, v)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	if w.put(4) {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	}
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	if w.put(8) {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
}

// Raw appends n bytes to the open record and returns them for the caller
// to fill: a fixed-width group of primitives under one check where the
// per-primitive calls make one each. Nil outside a record, after an error
// and in a sizer.
func (w *Writer) Raw(n int) []byte {
	if !w.put(n) {
		return nil
	}
	w.buf = slices.Grow(w.buf, n)[:len(w.buf)+n]
	return w.buf[len(w.buf)-n:]
}

// I64 appends a little-endian int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// F64 appends a float64 as its IEEE-754 bit pattern, so every value —
// including NaN payloads and signed zeros — round-trips exactly.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// Len appends a collection length as a uint32, rejecting negatives and
// overflow so decoders can trust the prefix.
func (w *Writer) Len(n int) {
	if n < 0 || int64(n) > math.MaxUint32 {
		w.Fail(fmt.Errorf("snap: length %d out of range", n))
		return
	}
	w.U32(uint32(n))
}

// Count reserves a collection-length slot for an encoder that learns the
// length only by writing the elements; SetCount fills it in afterwards.
func (w *Writer) Count() (slot int) {
	slot = w.Size()
	w.U32(0)
	return slot
}

// SetCount backpatches the slot Count reserved, under Len's range rule. A
// sizer has nothing to backpatch.
func (w *Writer) SetCount(slot, n int) {
	if n < 0 || int64(n) > math.MaxUint32 {
		w.Fail(fmt.Errorf("snap: length %d out of range", n))
	} else if w.open() && !w.sizing {
		binary.LittleEndian.PutUint32(w.buf[slot:], uint32(n))
	}
}

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.Len(len(b))
	if w.put(len(b)) {
		w.buf = append(w.buf, b...)
	}
}

// Err returns the first error, if any.
func (w *Writer) Err() error { return w.err }

// Finish returns the completed snapshot bytes, or the first error. An
// unclosed record is an error: it means an encoder path forgot End. A
// sizer's bytes are nil.
func (w *Writer) Finish() ([]byte, error) {
	if w.err == nil && w.inRec {
		w.Fail(fmt.Errorf("snap: Finish with open record %d", w.recType))
	}
	if w.err != nil {
		return nil, w.err
	}
	return w.buf, nil
}

// Reader decodes a snapshot produced by Writer.
type Reader struct {
	data    []byte
	pos     int
	rec     []byte // payload of the current record
	rpos    int
	recType uint16
	err     error
}

// NewReader validates the header and returns a reader plus the stream's
// format version. Callers check the version before touching records.
func NewReader(data []byte) (*Reader, uint32, error) {
	if len(data) < HeaderBytes {
		return nil, 0, fmt.Errorf("snap: %d bytes is shorter than the header", len(data))
	}
	if string(data[:len(Magic)]) != Magic {
		return nil, 0, fmt.Errorf("snap: bad magic %q", data[:len(Magic)])
	}
	version := binary.LittleEndian.Uint32(data[len(Magic):])
	return &Reader{data: data, pos: HeaderBytes}, version, nil
}

// Next advances to the next record, returning its type. It returns false
// at end of stream or after an error; an under-consumed previous record
// is an error (the decode schema disagrees with the encode schema).
func (r *Reader) Next() (uint16, bool) {
	if r.err != nil {
		return 0, false
	}
	if r.rpos != len(r.rec) {
		r.Fail(fmt.Errorf("snap: record %d has %d unread payload bytes", r.recType, len(r.rec)-r.rpos))
		return 0, false
	}
	if r.pos == len(r.data) {
		return 0, false
	}
	if len(r.data)-r.pos < FrameBytes {
		r.Fail(fmt.Errorf("snap: truncated record header at offset %d", r.pos))
		return 0, false
	}
	r.recType = binary.LittleEndian.Uint16(r.data[r.pos:])
	n := int(binary.LittleEndian.Uint32(r.data[r.pos+2:]))
	r.pos += FrameBytes
	if len(r.data)-r.pos < n {
		r.Fail(fmt.Errorf("snap: record %d claims %d bytes, %d remain", r.recType, n, len(r.data)-r.pos))
		return 0, false
	}
	r.rec = r.data[r.pos : r.pos+n]
	r.rpos = 0
	r.pos += n
	return r.recType, true
}

// Fail latches err as the reader's first error: how a decoder reports a
// value that framed correctly but fails its own validation (an id out of
// range, a non-positive capacity), so the caller's one Err check sees it.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
		// A failed reader has no bytes left, so Raw's length check is the
		// only one the happy path pays.
		r.rec, r.rpos = nil, 0
	}
}

// Raw returns the next n bytes of the current record — Writer.Raw's
// counterpart — or nil, failing the reader, when fewer remain. The bytes
// alias the stream: decode them, do not keep them.
func (r *Reader) Raw(n int) []byte {
	if len(r.rec)-r.rpos < n {
		r.short(n)
		return nil
	}
	b := r.rec[r.rpos : r.rpos+n]
	r.rpos += n
	return b
}

func (r *Reader) short(n int) {
	r.Fail(fmt.Errorf("snap: record %d payload short: want %d bytes, %d left", r.recType, n, len(r.rec)-r.rpos))
}

// U8 reads an unsigned byte from the current record.
func (r *Reader) U8() uint8 {
	if b := r.Raw(1); b != nil {
		return b[0]
	}
	return 0
}

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if b := r.Raw(2); b != nil {
		return binary.LittleEndian.Uint16(b)
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Raw(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Raw(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// F64 reads a float64 from its IEEE-754 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads a one-byte bool, rejecting values other than 0 and 1.
func (r *Reader) Bool() bool {
	switch v := r.U8(); v {
	case 0:
		return false
	case 1:
		return true
	default:
		r.Fail(fmt.Errorf("snap: record %d bool byte is %d", r.recType, v))
		return false
	}
}

// Len reads a collection length written by Writer.Len, bounding it by
// the bytes remaining in the record (each element costs at least one
// byte) so corrupt prefixes cannot drive huge allocations.
func (r *Reader) Len() int { return r.Count(1) }

// Count is Len for a collection whose elements each occupy at least width
// bytes of the record: the prefix is held to what the remaining bytes can
// carry, so storage made for exactly n elements — a slab, a queue — is
// never larger than the wire bytes that fill it, times the element's
// in-memory size over its wire size.
func (r *Reader) Count(width int) int {
	n := int(r.U32())
	if r.err == nil && n > (len(r.rec)-r.rpos)/width {
		r.Fail(fmt.Errorf("snap: record %d count %d of %d-byte elements exceeds %d remaining bytes", r.recType, n, width, len(r.rec)-r.rpos))
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice (a copy).
func (r *Reader) Bytes() []byte {
	n := r.Len()
	b := r.Raw(n)
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}

// Remaining reports the unread payload bytes in the current record.
func (r *Reader) Remaining() int { return len(r.rec) - r.rpos }

// Err returns the first error, if any.
func (r *Reader) Err() error { return r.err }
