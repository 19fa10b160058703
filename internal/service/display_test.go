package service_test

import (
	"bytes"
	"testing"
	"time"

	"tiledwall/internal/catalog"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
)

// Tests of when a tile shows a frame: as soon as display order allows
// (DESIGN.md §11), so a frame can be waited for while the input that would
// have released it under the serial decoder's one-anchor hold is held back.

// catalogueStream is catalogue stream 8 at a small scale: I0 P3 B1 B2 …
// I12 B10 B11 … in coded order, temporal_reference never restarting.
func catalogueStream(t *testing.T) []byte {
	t.Helper()
	spec, err := catalog.ByID(8)
	if err != nil {
		t.Fatal(err)
	}
	data, err := spec.Generate(catalog.GenOptions{Frames: 26, Scale: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// pictureStarts returns the offset and coding type of every picture start
// code in data, in coded order.
func pictureStarts(data []byte) (offs []int, types []mpeg2.PictureType) {
	code := []byte{0, 0, 1, 0}
	for off := 0; ; off += 4 {
		i := bytes.Index(data[off:], code)
		if i < 0 || off+i+6 > len(data) {
			return offs, types
		}
		off += i
		offs = append(offs, off)
		types = append(types, mpeg2.PictureType(data[off+5]>>3&7))
	}
}

// showWall starts a fabric 1-1-(2,2) wall whose tile frames are reported, by
// decode index, on the returned channel.
func showWall(t *testing.T, pictures int) (*service.Wall, chan int) {
	t.Helper()
	shown := make(chan int, 4*pictures)
	w, err := service.New(service.Config{K: 1, M: 2, N: 2,
		OnTileFrame: func(_, picIdx, _ int, buf *mpeg2.PixelBuf) {
			buf.Release()
			shown <- picIdx
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, shown
}

// waitShown waits until all four tiles have shown picture idx. It fails
// the test after 10 s but returns, so the caller can still finish the
// session (the wall closes only once its sessions have).
func waitShown(t *testing.T, shown chan int, idx int) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for tiles := 0; tiles < 4; {
		select {
		case got := <-shown:
			if got == idx {
				tiles++
			}
		case <-deadline:
			t.Errorf("picture %d shown on %d of 4 tiles after 10 s", idx, tiles)
			return
		}
	}
}

// TestFirstFrameLeavesWhenDecoded: a session's first picture is shown once
// it is decoded, with the next picture not yet fed. Under the one-anchor
// hold it waited for picture 1 to be split, exchanged and decoded.
func TestFirstFrameLeavesWhenDecoded(t *testing.T) {
	data := catalogueStream(t)
	offs, _ := pictureStarts(data)
	w, shown := showWall(t, len(offs))
	sess, err := w.Open("first-frame")
	if err != nil {
		t.Fatal(err)
	}
	// The header and picture 0, then only the start code of picture 1: it
	// completes picture 0's unit and nothing else.
	if err := sess.Feed(data[:offs[1]+4]); err != nil {
		t.Fatal(err)
	}
	waitShown(t, shown, 0)
	if err := sess.Feed(data[offs[1]+4:]); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Pictures != len(offs) {
		t.Fatalf("%d pictures decoded, stream has %d", res.Throughput.Pictures, len(offs))
	}
}

// TestTrickIOnlyShowsEachI: in I-only trick play the second GOP's I picture
// is shown on every tile before the next I picture is fed. Under the
// one-anchor hold each I waited for the next one, a whole GOP later.
func TestTrickIOnlyShowsEachI(t *testing.T) {
	data := catalogueStream(t)
	offs, types := pictureStarts(data)
	var is []int // coded positions of the I pictures
	for i, pt := range types {
		if pt == mpeg2.PictureI {
			is = append(is, i)
		}
	}
	if len(is) < 3 {
		t.Fatalf("stream has %d I pictures, want 3", len(is))
	}
	w, shown := showWall(t, len(offs))
	sess, err := w.Open("i-only")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.SetTrickMode(service.TrickIOnly); err != nil {
		t.Fatal(err)
	}
	// Up to the second I picture and the start code after it, which
	// completes it. Shipped pictures are indexed densely: it is picture 1.
	if err := sess.Feed(data[:offs[is[1]+1]+4]); err != nil {
		t.Fatal(err)
	}
	waitShown(t, shown, 1)
	if err := sess.Feed(data[offs[is[1]+1]+4:]); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.ShippedPictures != len(is) {
		t.Fatalf("%d pictures shipped, stream has %d I pictures", res.ShippedPictures, len(is))
	}
}
