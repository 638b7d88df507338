package segment

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

const testMagic = "TESTSEG1"

func TestEncoderDecoderRoundTrip(t *testing.T) {
	e := NewEncoder(64)
	e.U8(7)
	e.Bool(true)
	e.Bool(false)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(-7)
	e.F64(math.Pi)
	e.F64(math.Inf(-1))
	e.Str("hello, 世界")
	e.Strs([]string{"", "a", "bb"})

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Fatalf("u8: %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools")
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Fatalf("u32: %x", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Fatalf("u64: %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Fatalf("i64: %d", got)
	}
	if got := d.Int(); got != -7 {
		t.Fatalf("int: %d", got)
	}
	if got := d.F64(); got != math.Pi {
		t.Fatalf("f64: %v", got)
	}
	if got := d.F64(); !math.IsInf(got, -1) {
		t.Fatalf("f64 inf: %v", got)
	}
	if got := d.Str(); got != "hello, 世界" {
		t.Fatalf("str: %q", got)
	}
	if got := d.Strs(); len(got) != 3 || got[2] != "bb" {
		t.Fatalf("strs: %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // truncated
	if d.Err() == nil {
		t.Fatal("want sticky error")
	}
	// Later reads stay poisoned and return zero values, never panic.
	if d.U32() != 0 || d.Str() != "" || d.Strs() != nil {
		t.Fatal("poisoned decoder must return zero values")
	}
	if d.Finish() == nil {
		t.Fatal("finish must report the sticky error")
	}
}

func TestDecoderHugeLengthRejected(t *testing.T) {
	e := NewEncoder(8)
	e.U32(1 << 31) // absurd element count with no backing bytes
	d := NewDecoder(e.Bytes())
	if got := d.Strs(); got != nil || d.Err() == nil {
		t.Fatalf("bogus count must fail cleanly, got %v err %v", got, d.Err())
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section(1, []byte("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := w.Section(2, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := NewReader(buf.Bytes(), testMagic)
	if err != nil {
		t.Fatal(err)
	}
	tag, payload, err := r.Next()
	if err != nil || tag != 1 || string(payload) != "alpha" {
		t.Fatalf("section 1: %d %q %v", tag, payload, err)
	}
	tag, payload, err = r.Next()
	if err != nil || tag != 2 || len(payload) != 0 {
		t.Fatalf("section 2: %d %q %v", tag, payload, err)
	}
	if _, _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("want EOF after sentinel, got %v", err)
	}
	if _, _, err := r.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("EOF must be sticky, got %v", err)
	}
}

func TestReaderDetectsCorruption(t *testing.T) {
	build := func() []byte {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, testMagic)
		_ = w.Section(1, []byte("payload-bytes"))
		_ = w.Close()
		return buf.Bytes()
	}

	// Bad magic.
	if _, err := NewReader(build(), "OTHERMAG"); err == nil {
		t.Fatal("bad magic must fail")
	}
	// Bit flip inside the payload.
	data := build()
	data[20] ^= 0x01
	r, err := NewReader(data, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); err == nil {
		t.Fatal("flipped payload must fail CRC")
	}
	// Truncated file (sentinel missing).
	data = build()
	r, err = NewReader(data[:len(data)-5], testMagic)
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, _, err = r.Next(); err != nil {
			break
		}
	}
	if errors.Is(err, io.EOF) {
		t.Fatal("truncated segment must not reach clean EOF")
	}
	// Unsupported version.
	data = build()
	data[8] = 99
	if _, err := NewReader(data, testMagic); err == nil {
		t.Fatal("future version must fail")
	}
}

func TestWriterRejectsReservedTag(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, testMagic)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section(EndTag, nil); err == nil {
		t.Fatal("reserved tag must be rejected")
	}
}
