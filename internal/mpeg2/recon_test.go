package mpeg2

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomBuf(rng *rand.Rand, x0, y0, w, h int) *PixelBuf {
	b := NewPixelBuf(x0, y0, w, h)
	rng.Read(b.Y)
	rng.Read(b.Cb)
	rng.Read(b.Cr)
	return b
}

// refPredict is a brute-force half-sample predictor used as the oracle.
func refPredict(ref *PixelBuf, x, y int, mv [2]int32) (y16 [256]uint8, cb, cr [64]uint8) {
	lum := func(gx, gy int) int32 { return int32(ref.Y[(gy-ref.Y0)*ref.W+(gx-ref.X0)]) }
	for r := 0; r < 16; r++ {
		for c := 0; c < 16; c++ {
			fx := (x+c)*2 + int(mv[0])
			fy := (y+r)*2 + int(mv[1])
			ix, iy := fx>>1, fy>>1
			hx, hy := fx&1, fy&1
			var v int32
			switch {
			case hx == 0 && hy == 0:
				v = lum(ix, iy)
			case hx == 1 && hy == 0:
				v = (lum(ix, iy) + lum(ix+1, iy) + 1) >> 1
			case hx == 0 && hy == 1:
				v = (lum(ix, iy) + lum(ix, iy+1) + 1) >> 1
			default:
				v = (lum(ix, iy) + lum(ix+1, iy) + lum(ix, iy+1) + lum(ix+1, iy+1) + 2) >> 2
			}
			y16[r*16+c] = uint8(v)
		}
	}
	cw := ref.W / 2
	cmv := [2]int32{mv[0] / 2, mv[1] / 2}
	chroma := func(plane []uint8, out *[64]uint8) {
		at := func(cx, cy int) int32 { return int32(plane[(cy-ref.Y0/2)*cw+(cx-ref.X0/2)]) }
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				fx := (x/2+c)*2 + int(cmv[0])
				fy := (y/2+r)*2 + int(cmv[1])
				ix, iy := fx>>1, fy>>1
				hx, hy := fx&1, fy&1
				var v int32
				switch {
				case hx == 0 && hy == 0:
					v = at(ix, iy)
				case hx == 1 && hy == 0:
					v = (at(ix, iy) + at(ix+1, iy) + 1) >> 1
				case hx == 0 && hy == 1:
					v = (at(ix, iy) + at(ix, iy+1) + 1) >> 1
				default:
					v = (at(ix, iy) + at(ix+1, iy) + at(ix, iy+1) + at(ix+1, iy+1) + 2) >> 2
				}
				out[r*8+c] = uint8(v)
			}
		}
	}
	chroma(ref.Cb, &cb)
	chroma(ref.Cr, &cr)
	return
}

// TestPredictionMatchesOracle: the production motion-compensated prediction
// equals the brute-force oracle for random vectors, including half-sample
// positions and negative components.
func TestPredictionMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ref := randomBuf(rng, 0, 0, 96, 96)
		x, y := 16+16*(rng.Intn(3)), 16+16*(rng.Intn(3))
		mv := [2]int32{int32(rng.Intn(49) - 24), int32(rng.Intn(49) - 24)}
		var pY [256]uint8
		var pCb, pCr [64]uint8
		if err := PredictMacroblock(ref, x, y, mv, &pY, &pCb, &pCr); err != nil {
			return false
		}
		wy, wcb, wcr := refPredict(ref, x, y, mv)
		return pY == wy && pCb == wcb && pCr == wcr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPredictionWindowed: prediction from an offset window matches the same
// prediction from a full-picture window (the tile-decoder halo case).
func TestPredictionWindowed(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	full := randomBuf(rng, 0, 0, 128, 96)
	win := NewPixelBuf(32, 16, 64, 64)
	win.CopyRect(full, 32, 16, 64, 64)

	x, y := 48, 32
	for _, mv := range [][2]int32{{0, 0}, {-15, 9}, {17, -13}, {1, 1}, {-1, -1}} {
		var a, b [256]uint8
		var acb, acr, bcb, bcr [64]uint8
		if err := PredictMacroblock(full, x, y, mv, &a, &acb, &acr); err != nil {
			t.Fatal(err)
		}
		if err := PredictMacroblock(win, x, y, mv, &b, &bcb, &bcr); err != nil {
			t.Fatal(err)
		}
		if a != b || acb != bcb || acr != bcr {
			t.Fatalf("mv %v: windowed prediction differs", mv)
		}
	}
}

func TestPredictionRejectsOutOfWindow(t *testing.T) {
	ref := NewPixelBuf(0, 0, 64, 64)
	var pY [256]uint8
	var pCb, pCr [64]uint8
	if err := PredictMacroblock(ref, 0, 0, [2]int32{-4, 0}, &pY, &pCb, &pCr); err == nil {
		t.Error("vector leaving the window accepted")
	}
	if err := PredictMacroblock(ref, 48, 48, [2]int32{2, 2}, &pY, &pCb, &pCr); err == nil {
		t.Error("vector past the bottom-right accepted")
	}
	if err := PredictMacroblock(nil, 0, 0, [2]int32{0, 0}, &pY, &pCb, &pCr); err == nil {
		t.Error("nil reference accepted")
	}
}

// TestSkippedPMacroblock: a skipped P macroblock is a co-located copy.
func TestSkippedPMacroblock(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ref := randomBuf(rng, 0, 0, 64, 64)
	dst := NewPixelBuf(0, 0, 64, 64)
	ph := testPic(PictureP, false, false, false)
	rc := NewReconstructor(ph)
	if err := rc.Skipped(dst, ref, nil, 1, 2, MotionInfo{}); err != nil {
		t.Fatal(err)
	}
	var got, want [MacroblockBytes]byte
	dst.ExtractMacroblock(1, 2, got[:])
	ref.ExtractMacroblock(1, 2, want[:])
	if got != want {
		t.Error("skipped P macroblock is not a co-located copy")
	}
}

// TestSkippedBMacroblock: skipped B repeats the previous macroblock's
// prediction, and after an intra predecessor it is rejected.
func TestSkippedBMacroblock(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fwd := randomBuf(rng, 0, 0, 64, 64)
	bwd := randomBuf(rng, 0, 0, 64, 64)
	dst := NewPixelBuf(0, 0, 64, 64)
	ph := testPic(PictureB, false, false, false)
	rc := NewReconstructor(ph)
	prev := MotionInfo{Fwd: true, MVFwd: [2]int32{4, -6}}
	if err := rc.Skipped(dst, fwd, bwd, 1, 1, prev); err != nil {
		t.Fatal(err)
	}
	var pY [256]uint8
	var pCb, pCr [64]uint8
	if err := PredictMacroblock(fwd, 16, 16, prev.MVFwd, &pY, &pCb, &pCr); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 16; r++ {
		for c := 0; c < 16; c++ {
			if dst.Y[(16+r)*64+16+c] != pY[r*16+c] {
				t.Fatalf("skipped B luma mismatch at %d,%d", r, c)
			}
		}
	}
	if err := rc.Skipped(dst, fwd, bwd, 2, 2, MotionInfo{}); err == nil {
		t.Error("skipped B after intra accepted")
	}
}

func TestPixelBufMacroblockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomBuf(rng, 32, 16, 64, 48)
	b := NewPixelBuf(32, 16, 64, 48)
	var tmp [MacroblockBytes]byte
	a.ExtractMacroblock(3, 2, tmp[:])
	b.InjectMacroblock(3, 2, tmp[:])
	var back [MacroblockBytes]byte
	b.ExtractMacroblock(3, 2, back[:])
	if tmp != back {
		t.Error("extract/inject round trip failed")
	}
	// CopyMacroblock agrees with extract+inject.
	c := NewPixelBuf(32, 16, 64, 48)
	c.CopyMacroblock(a, 3, 2)
	var viaCopy [MacroblockBytes]byte
	c.ExtractMacroblock(3, 2, viaCopy[:])
	if viaCopy != tmp {
		t.Error("CopyMacroblock disagrees with Extract/Inject")
	}
}

func TestPixelBufPanics(t *testing.T) {
	b := NewPixelBuf(0, 0, 32, 32)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("odd geometry", func() { NewPixelBuf(1, 0, 32, 32) })
	var tmp [MacroblockBytes]byte
	expectPanic("extract outside", func() { b.ExtractMacroblock(5, 0, tmp[:]) })
	expectPanic("inject outside", func() { b.InjectMacroblock(0, 5, tmp[:]) })
	expectPanic("copyrect outside", func() { b.CopyRect(b, 0, 0, 64, 64) })
}

func TestContains(t *testing.T) {
	b := NewPixelBuf(16, 32, 64, 64)
	if !b.Contains(16, 32, 64, 64) {
		t.Error("exact window not contained")
	}
	if b.Contains(15, 32, 2, 2) || b.Contains(79, 95, 2, 2) {
		t.Error("out-of-window rect contained")
	}
}

// snapshot returns a copy of every sample of b.
func snapshot(b *PixelBuf) []uint8 {
	s := append([]uint8(nil), b.Y...)
	s = append(s, b.Cb...)
	return append(s, b.Cr...)
}

// TestInterFailureLeavesDstUntouched: prediction is written straight into
// the frame, so both reference windows must be checked before the first
// write. A macroblock whose forward or backward vector (or reference) is
// bad fails with dst byte-identical, coded residual or not.
func TestInterFailureLeavesDstUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	fwd := randomBuf(rng, 0, 0, 64, 64)
	bwd := randomBuf(rng, 0, 0, 64, 64)
	dst := randomBuf(rng, 0, 0, 64, 64)
	before := snapshot(dst)
	rc := NewReconstructor(testPic(PictureB, false, false, false))
	good, bad := [2]int32{3, -5}, [2]int32{-40, 0} // bad leaves the window at (16,16)
	var blocks [6][64]int32
	for i := range blocks {
		blocks[i][0] = 200
	}
	cases := []struct {
		name     string
		fwd, bwd *PixelBuf
		mb       Macroblock
	}{
		{"bad backward vector", fwd, bwd, Macroblock{Flags: MBMotionFwd | MBMotionBwd, MVFwd: good, MVBwd: bad}},
		{"bad forward vector", fwd, bwd, Macroblock{Flags: MBMotionFwd | MBMotionBwd, MVFwd: bad, MVBwd: good}},
		{"missing backward reference", fwd, nil, Macroblock{Flags: MBMotionFwd | MBMotionBwd, MVFwd: good, MVBwd: good}},
		{"coded, bad backward vector", fwd, bwd, Macroblock{Flags: MBMotionFwd | MBMotionBwd | MBPattern, MVFwd: good, MVBwd: bad, CBP: 63}},
		{"coded, bad forward-only vector", fwd, bwd, Macroblock{Flags: MBMotionFwd | MBPattern, MVFwd: bad, CBP: 63}},
	}
	for _, c := range cases {
		mb := c.mb
		mb.Addr = 1*4 + 1 // (1,1) on a 4-macroblock-wide picture
		b := blocks
		mb.Blocks = &b
		if err := rc.Macroblock(dst, c.fwd, c.bwd, &mb, 4); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
		if !bytes.Equal(snapshot(dst), before) {
			t.Fatalf("%s: failing macroblock wrote into dst", c.name)
		}
	}
	if err := rc.Skipped(dst, fwd, bwd, 1, 1, MotionInfo{Fwd: true, Bwd: true, MVFwd: good, MVBwd: bad}); err == nil {
		t.Fatal("skipped B macroblock with a bad backward vector accepted")
	}
	if !bytes.Equal(snapshot(dst), before) {
		t.Fatal("failing skipped macroblock wrote into dst")
	}
}

// TestReconstructRejectsAliasedTarget: a destination sharing sample planes
// with a reference would be read while it is written; reconstruction must
// refuse it rather than predict from half-overwritten samples.
func TestReconstructRejectsAliasedTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := randomBuf(rng, 0, 0, 64, 64)
	other := randomBuf(rng, 0, 0, 64, 64)
	view := *ref // a second PixelBuf over the same planes
	before := snapshot(ref)
	rcP := NewReconstructor(testPic(PictureP, false, false, false))
	rcB := NewReconstructor(testPic(PictureB, false, false, false))
	both := MotionInfo{Fwd: true, Bwd: true}
	if err := rcP.Skipped(ref, ref, nil, 1, 1, MotionInfo{}); err == nil {
		t.Error("skipped P macroblock into its own reference accepted")
	}
	if err := rcP.Skipped(&view, ref, nil, 1, 1, MotionInfo{}); err == nil {
		t.Error("skipped P macroblock into a view of its reference accepted")
	}
	if err := rcB.Skipped(ref, other, ref, 1, 1, both); err == nil {
		t.Error("B macroblock into its backward reference accepted")
	}
	if err := rcB.Skipped(ref, ref, other, 1, 1, both); err == nil {
		t.Error("B macroblock into its forward reference accepted")
	}
	mb := Macroblock{Addr: 5, Flags: MBMotionFwd}
	if err := rcP.Macroblock(ref, ref, nil, &mb, 4); err == nil {
		t.Error("coded P macroblock into its own reference accepted")
	}
	if !bytes.Equal(snapshot(ref), before) {
		t.Error("rejected reconstruction wrote into the reference")
	}
	if err := rcB.Skipped(other, ref, ref, 1, 1, both); err != nil {
		t.Errorf("forward and backward sharing one reference rejected: %v", err)
	}
}
