package mpeg2_test

import (
	"errors"
	"hash/crc32"
	"io"
	"testing"

	"tiledwall/internal/catalog"
	"tiledwall/internal/mpeg2"
)

// pictureCRCs decodes data with the serial decoder and returns each emitted
// picture's CRC in display order. With release set, buffers go back to the
// pool by the Decoder's documented rule: B pictures at once, an I/P picture
// once the next I/P picture has been emitted. It also returns how many
// emitted pictures reused an earlier picture's buffer.
func pictureCRCs(t *testing.T, data []byte, release bool) (crcs []uint32, reused int) {
	t.Helper()
	dec, err := mpeg2.NewDecoder(data)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[*mpeg2.PixelBuf]bool{}
	var anchor *mpeg2.PixelBuf
	for {
		p, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if seen[p.Buf] {
			reused++
		}
		seen[p.Buf] = true
		h := crc32.NewIEEE()
		h.Write(p.Buf.Y)
		h.Write(p.Buf.Cb)
		h.Write(p.Buf.Cr)
		crcs = append(crcs, h.Sum32())
		if !release {
			continue
		}
		if p.Pic.PicType == mpeg2.PictureB {
			p.Buf.Release()
			continue
		}
		anchor.Release() // nil-safe: the previous anchor, now unreferenced
		anchor = p.Buf
	}
	anchor.Release()
	return crcs, reused
}

// TestDecoderReleaseContract holds the Decoder's release rule to a decode
// that releases nothing: recycling buffers by the rule must not change a
// single output sample.
func TestDecoderReleaseContract(t *testing.T) {
	spec, err := catalog.ByID(8)
	if err != nil {
		t.Fatal(err)
	}
	data, err := spec.Generate(catalog.GenOptions{Frames: 24, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := pictureCRCs(t, data, false)
	got, reused := pictureCRCs(t, data, true)
	if len(got) != len(want) {
		t.Fatalf("released decode emitted %d pictures, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("picture %d (display order): CRC %08x with release, %08x without", i, got[i], want[i])
		}
	}
	t.Logf("%d of %d pictures decoded into a recycled buffer", reused, len(got))
}
