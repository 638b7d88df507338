// Package segment implements the low-level binary container of the
// approxstore persistence layer: a little-endian, CRC-framed sequence of
// tagged sections. A segment file starts with an 8-byte magic string and a
// format version, followed by sections — each a [tag u8][length u64]
// [payload][crc32(payload) u32] frame — and ends with an end-of-segment
// sentinel whose own frame is CRC-protected too, so a truncated or
// bit-flipped file is always detected before any of its content is trusted.
//
// The package knows nothing about corpora: internal/core encodes snapshots
// and internal/store encodes WAL entries and manifests on top of the same
// Encoder/Decoder primitives. Everything is fixed-width little-endian —
// decode speed is the point of the snapshot path (a cold start replays a
// segment instead of re-tokenizing the relation), and fixed-width fields
// decode with bounds-checked copies instead of per-element branching.
package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Version is the current segment format version. Readers reject files
// written under a different major format.
const Version = 1

// EndTag terminates the section sequence of a segment.
const EndTag = 0xFF

// maxSectionSize bounds one section's payload (1 GiB): a corrupt length
// field must not drive the reader into allocating absurd buffers.
const maxSectionSize = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ---- encoder ----

// Encoder appends fixed-width little-endian primitives to a growing buffer.
// It is the single serialization vocabulary of the store: every section
// payload, WAL entry and manifest is built from these calls.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with the given initial capacity hint.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// Bytes returns the encoded buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoded size.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset empties the buffer, keeping its capacity.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.buf = append(e.buf, v) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// U32 appends a fixed 32-bit value.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// U64 appends a fixed 64-bit value.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// I64 appends a signed 64-bit value.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as 64 bits.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 bit pattern — bit-exact round-tripping is the
// persistence contract, so floats are never formatted or re-parsed.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// Strs appends a length-prefixed string slice.
func (e *Encoder) Strs(ss []string) {
	e.U32(uint32(len(ss)))
	for _, s := range ss {
		e.Str(s)
	}
}

// ---- decoder ----

// Decoder reads the Encoder's vocabulary back from a byte slice. Errors are
// sticky: the first bounds violation poisons the decoder, every later read
// returns zero values, and Err reports the failure — so decode call sites
// read as linearly as encode call sites and check one error at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a decoder over the payload.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the sticky decode error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish errors unless the payload was consumed exactly.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("segment: %d trailing bytes after decode", len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("segment: truncated payload reading %s at offset %d", what, d.off)
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.buf) {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads one byte as a bool.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// U32 reads a fixed 32-bit value.
func (d *Decoder) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed 64-bit value.
func (d *Decoder) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a signed 64-bit value.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Int reads a 64-bit value as an int.
func (d *Decoder) Int() int { return int(d.I64()) }

// F64 reads a float64 bit pattern.
func (d *Decoder) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	b := d.take(n, "string")
	if b == nil {
		return ""
	}
	return string(b)
}

// sliceLen validates a length prefix against the remaining payload, given a
// minimum byte width per element, so a corrupt count cannot force a huge
// allocation before the bounds check catches it.
func (d *Decoder) sliceLen(width int, what string) int {
	n := int(d.U32())
	if d.err != nil {
		return 0
	}
	if n*width > d.Remaining() {
		d.fail(what)
		return 0
	}
	return n
}

// Raw returns the next n bytes as a subslice of the payload, without
// copying. It is the bulk path of the snapshot decoder: fixed-width row
// arrays pay one bounds check here and then decode with direct indexing
// instead of a Decoder call per element.
func (d *Decoder) Raw(n int, what string) []byte { return d.take(n, what) }

// Strs reads a length-prefixed string slice.
func (d *Decoder) Strs() []string {
	n := d.sliceLen(4, "[]string")
	if d.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.Str()
	}
	return out
}

// ---- section frames ----

// Writer writes a segment file: magic, version, framed sections, sentinel.
type Writer struct {
	w     io.Writer
	err   error
	magic string
}

// NewWriter writes the segment header (an 8-byte magic and the format
// version) and returns the section writer. The magic must be exactly 8
// bytes.
func NewWriter(w io.Writer, magic string) (*Writer, error) {
	if len(magic) != 8 {
		return nil, fmt.Errorf("segment: magic %q must be 8 bytes", magic)
	}
	sw := &Writer{w: w, magic: magic}
	var hdr []byte
	hdr = append(hdr, magic...)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	_, sw.err = w.Write(hdr)
	return sw, sw.err
}

// Section writes one CRC-framed section. Payloads over maxSectionSize are
// rejected at write time: the reader enforces the same bound, so writing a
// larger section would produce a segment that saves fine but can never be
// loaded — the checkpoint must fail instead, keeping the previous
// segment + WAL pair intact.
func (sw *Writer) Section(tag uint8, payload []byte) error {
	if sw.err != nil {
		return sw.err
	}
	if tag == EndTag {
		return fmt.Errorf("segment: tag 0x%02x is reserved", EndTag)
	}
	if len(payload) > maxSectionSize {
		sw.err = fmt.Errorf("segment: section 0x%02x payload (%d bytes) exceeds the %d-byte format bound", tag, len(payload), maxSectionSize)
		return sw.err
	}
	return sw.frame(tag, payload)
}

// frame writes one section frame — tag, length, payload, CRC — passing the
// payload through without copying it.
func (sw *Writer) frame(tag uint8, payload []byte) error {
	var hdr [9]byte
	hdr[0] = tag
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(payload)))
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Checksum(payload, castagnoli))
	for _, b := range [][]byte{hdr[:], payload, sum[:]} {
		if _, sw.err = sw.w.Write(b); sw.err != nil {
			break
		}
	}
	return sw.err
}

// Close writes the end-of-segment sentinel. It does not close or sync the
// underlying writer — durability (fsync, rename) is the caller's layer.
func (sw *Writer) Close() error {
	if sw.err != nil {
		return sw.err
	}
	return sw.frame(EndTag, nil)
}

// Reader validates and iterates a segment file read fully into memory.
type Reader struct {
	buf []byte
	off int
	end bool
}

// NewReader validates the header of a fully-read segment file.
func NewReader(data []byte, magic string) (*Reader, error) {
	if len(magic) != 8 {
		return nil, fmt.Errorf("segment: magic %q must be 8 bytes", magic)
	}
	if len(data) < 12 {
		return nil, fmt.Errorf("segment: file too short (%d bytes)", len(data))
	}
	if string(data[:8]) != magic {
		return nil, fmt.Errorf("segment: bad magic %q (want %q)", data[:8], magic)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != Version {
		return nil, fmt.Errorf("segment: unsupported format version %d (have %d)", v, Version)
	}
	return &Reader{buf: data, off: 12}, nil
}

// Next returns the next section's tag and payload, validating its CRC.
// After the end-of-segment sentinel it returns io.EOF; a malformed frame,
// CRC mismatch, or missing sentinel is an error.
func (r *Reader) Next() (uint8, []byte, error) {
	if r.end {
		return 0, nil, io.EOF
	}
	if r.off+9 > len(r.buf) {
		return 0, nil, fmt.Errorf("segment: truncated section header at offset %d", r.off)
	}
	tag := r.buf[r.off]
	n := binary.LittleEndian.Uint64(r.buf[r.off+1 : r.off+9])
	if n > maxSectionSize {
		return 0, nil, fmt.Errorf("segment: section 0x%02x claims %d bytes", tag, n)
	}
	body := r.off + 9
	if body+int(n)+4 > len(r.buf) {
		return 0, nil, fmt.Errorf("segment: truncated section 0x%02x at offset %d", tag, r.off)
	}
	payload := r.buf[body : body+int(n)]
	crc := binary.LittleEndian.Uint32(r.buf[body+int(n) : body+int(n)+4])
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, nil, fmt.Errorf("segment: CRC mismatch in section 0x%02x at offset %d", tag, r.off)
	}
	r.off = body + int(n) + 4
	if tag == EndTag {
		r.end = true
		if r.off != len(r.buf) {
			return 0, nil, fmt.Errorf("segment: %d trailing bytes after end sentinel", len(r.buf)-r.off)
		}
		return 0, nil, io.EOF
	}
	return tag, payload, nil
}
