package service

import (
	"bytes"
	"fmt"
	"testing"

	"tiledwall/internal/bits"
)

// buildStream assembles a synthetic elementary stream from unit payloads: a
// header prefix (sequence header + GOP), then one picture unit per payload,
// and a sequence end code. Returns the stream and the expected picture units.
func buildStream(payloads ...[]byte) (stream []byte, header []byte, units [][]byte) {
	sc := func(code byte) []byte { return []byte{0, 0, 1, code} }
	header = append(header, sc(bits.SequenceHeaderCod)...)
	header = append(header, 0xAA, 0xBB)
	header = append(header, sc(bits.GroupStartCode)...)
	header = append(header, 0xCC)
	stream = append(stream, header...)
	for _, p := range payloads {
		var u []byte
		u = append(u, sc(bits.PictureStartCode)...)
		u = append(u, p...)
		units = append(units, u)
		stream = append(stream, u...)
	}
	stream = append(stream, sc(bits.SequenceEndCode)...)
	return stream, header, units
}

// scanCollect feeds the stream to a fresh scanner in fixed-size chunks and
// returns what came out of the callbacks. Each chunk is fed from one reused
// buffer and clobbered after its feed, as a caller may do, so a scanner that
// kept aliasing a chunk would emit corrupt units.
func scanCollect(t *testing.T, stream []byte, chunkSize int) (header []byte, units [][]byte) {
	t.Helper()
	sc := newUnitScanner()
	onHeader := func(b []byte) error {
		header = append([]byte(nil), b...)
		return nil
	}
	onUnit := func(b []byte) error {
		units = append(units, append([]byte(nil), b...))
		return nil
	}
	var chunk []byte
	for off := 0; off < len(stream); off += chunkSize {
		end := off + chunkSize
		if end > len(stream) {
			end = len(stream)
		}
		chunk = append(chunk[:0], stream[off:end]...)
		if err := sc.feed(chunk, onHeader, onUnit); err != nil {
			t.Fatalf("feed: %v", err)
		}
		for i := range chunk {
			chunk[i] = 0xFF
		}
	}
	if err := sc.flush(onUnit); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return header, units
}

// TestUnitScannerChunking pins the scanner's invariance over pathological
// chunkings: every chunk size — including 1-byte feeds, where every start
// code straddles chunk boundaries — must yield the identical header prefix
// and picture units.
func TestUnitScannerChunking(t *testing.T) {
	stream, wantHeader, wantUnits := buildStream(
		[]byte{0x10, 0x20, 0x30},
		[]byte{0x40},
		[]byte{}, // empty picture body: two adjacent start codes
		[]byte{0x50, 0x60, 0x00, 0x00, 0x02, 0x70}, // almost-a-start-code bytes
	)
	for _, size := range []int{1, 2, 3, 4, 5, 7, len(stream), len(stream) + 100} {
		t.Run(fmt.Sprintf("chunk=%d", size), func(t *testing.T) {
			header, units := scanCollect(t, stream, size)
			if !bytes.Equal(header, wantHeader) {
				t.Fatalf("header = %x, want %x", header, wantHeader)
			}
			if len(units) != len(wantUnits) {
				t.Fatalf("got %d units, want %d", len(units), len(wantUnits))
			}
			for i := range units {
				if !bytes.Equal(units[i], wantUnits[i]) {
					t.Fatalf("unit %d = %x, want %x", i, units[i], wantUnits[i])
				}
			}
		})
	}
}

// TestUnitScannerTrailingPartialUnit pins Close-time flush behaviour: a
// stream cut mid-picture (no trailing end code) must still emit the open
// unit, exactly once, with every byte that arrived.
func TestUnitScannerTrailingPartialUnit(t *testing.T) {
	stream, _, wantUnits := buildStream([]byte{1, 2, 3}, []byte{4, 5})
	// Drop the sequence end code: the last unit stays open until flush.
	stream = stream[:len(stream)-4]
	for _, size := range []int{1, 3, len(stream)} {
		header, units := scanCollect(t, stream, size)
		if header == nil {
			t.Fatalf("chunk=%d: header never delivered", size)
		}
		if len(units) != len(wantUnits) {
			t.Fatalf("chunk=%d: got %d units, want %d", size, len(units), len(wantUnits))
		}
		for i := range units {
			if !bytes.Equal(units[i], wantUnits[i]) {
				t.Fatalf("chunk=%d: unit %d = %x, want %x", size, i, units[i], wantUnits[i])
			}
		}
	}
}

// TestUnitScannerFlushIdempotent pins that flush after flush (or after a
// stream with no open unit) emits nothing.
func TestUnitScannerFlushIdempotent(t *testing.T) {
	stream, _, _ := buildStream([]byte{1, 2})
	sc := newUnitScanner()
	var units int
	onUnit := func([]byte) error { units++; return nil }
	if err := sc.feed(stream, func([]byte) error { return nil }, onUnit); err != nil {
		t.Fatal(err)
	}
	first := units
	if err := sc.flush(onUnit); err != nil {
		t.Fatal(err)
	}
	if units != first {
		t.Fatalf("flush emitted %d extra units after a terminated stream", units-first)
	}
	if err := sc.flush(onUnit); err != nil {
		t.Fatal(err)
	}
	if units != first {
		t.Fatal("second flush emitted a unit")
	}
}

// TestUnitScannerHeaderOnly pins that a stream that ends before its first
// picture start code delivers no header and no units (the session surfaces
// "no sequence header" at Close), even under 1-byte feeds.
func TestUnitScannerHeaderOnly(t *testing.T) {
	prefix := []byte{0, 0, 1, bits.SequenceHeaderCod, 0xAA, 0, 0, 1, bits.GroupStartCode}
	sc := newUnitScanner()
	headerCalls, unitCalls := 0, 0
	for i := range prefix {
		err := sc.feed(prefix[i:i+1],
			func([]byte) error { headerCalls++; return nil },
			func([]byte) error { unitCalls++; return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.flush(func([]byte) error { unitCalls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if headerCalls != 0 || unitCalls != 0 {
		t.Fatalf("prefix-only stream produced header=%d units=%d callbacks", headerCalls, unitCalls)
	}
}
