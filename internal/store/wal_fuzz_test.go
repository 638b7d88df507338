package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
)

// walSeed writes a real log — one insert, one delete and one upsert after
// a snapshot — and returns its bytes.
func walSeed(f *testing.F) []byte {
	dir := f.TempDir()
	c, err := core.NewCorpus(storeRecords(), core.DefaultConfig(), core.AllLayers)
	if err != nil {
		f.Fatal(err)
	}
	l, err := Create(dir, c)
	if err != nil {
		f.Fatal(err)
	}
	if err := c.Insert(core.Record{TID: 100, Text: "Beijing Hotel Group"}, core.Record{TID: 101, Text: "Redwood"}); err != nil {
		f.Fatal(err)
	}
	if err := c.Delete(2); err != nil {
		f.Fatal(err)
	}
	if err := c.Upsert(core.Record{TID: 100, Text: "Beijing Hotel Group Ltd"}); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzScanWAL feeds WAL replay arbitrary file contents. scanWAL must not
// panic; when the header is sound, the offset it keeps must lie in
// [header, len] on a frame boundary, exactly one frame per entry past the
// header; and rescanning the kept prefix must return the same entries and
// the same offset — what the opener truncates to replays identically.
func FuzzScanWAL(f *testing.F) {
	log := walSeed(f)
	entries, good, err := scanWAL(log)
	if err != nil || len(entries) != 3 || good != int64(len(log)) {
		f.Fatalf("seed log: %d entries, offset %d of %d, err %v", len(entries), good, len(log), err)
	}
	f.Add(log)
	torn := append(append([]byte(nil), log...), 0x20, 0x00, 0x00, 0x00, 0xde, 0xad)
	f.Add(torn)
	badCRC := append([]byte(nil), log...)
	badCRC[len(badCRC)-1] ^= 0xff
	f.Add(badCRC)
	f.Add(log[:walHeaderSize])

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, good, err := scanWAL(data)
		if err != nil {
			return
		}
		if good < walHeaderSize || good > int64(len(data)) {
			t.Fatalf("offset %d outside [%d, %d]", good, walHeaderSize, len(data))
		}
		off := int64(walHeaderSize)
		for i := range entries {
			if off+8 > good {
				t.Fatalf("entry %d: frame header at %d runs past offset %d", i, off, good)
			}
			off += 8 + int64(binary.LittleEndian.Uint32(data[off:off+4]))
		}
		if off != good {
			t.Fatalf("%d entries end at %d, offset is %d", len(entries), off, good)
		}
		again, good2, err := scanWAL(data[:good])
		if err != nil || good2 != good || !reflect.DeepEqual(again, entries) {
			t.Fatalf("rescan of the kept prefix: %d entries at %d (err %v), want %d at %d", len(again), good2, err, len(entries), good)
		}
	})
}
