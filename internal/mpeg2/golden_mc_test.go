package mpeg2

import (
	"bytes"
	"math/rand"
	"testing"
)

// Golden motion-compensation suite: every specialised half-pel kernel — the
// pure-Go SWAR kernels (samplePlaneGo, avgRowsGo) and the architecture's
// samplePlane and avgRows, which are the SSE2 kernels on amd64 — must be
// bit-exact against samplePlaneRef, the original scalar implementation,
// across both block geometries (16×16 luma, 8×8 chroma), all four phases,
// randomised source strides, offsets and pixel content, and destinations
// that are either packed (stride = block width) or a window into a wider
// frame plane, whose samples outside the block must stay untouched.

// requireSameBytes fails with the first divergence between want and got.
func requireSameBytes(t *testing.T, what string, want, got []uint8) {
	t.Helper()
	if bytes.Equal(want, got) {
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: first divergence at %d: ref %d fast %d", what, i, want[i], got[i])
		}
	}
}

// randomBytes returns n random bytes.
func randomBytes(rng *rand.Rand, n int) []uint8 {
	b := make([]uint8, n)
	rng.Read(b)
	return b
}

// randomSource returns a w×h block's source plane (stride and an index si
// leaving room for the half-sample row and column).
func randomSource(rng *rand.Rand, w, h int) (src []uint8, stride, si int) {
	stride = w + 1 + rng.Intn(64)
	src = randomBytes(rng, stride*(h+1+rng.Intn(8))+w+1)
	si = rng.Intn(len(src) - (h*stride + w + 1) + 1)
	return src, stride, si
}

// randomDest returns a frame plane holding a w×h block at index di with row
// stride ds: packed (ds == w) in a third of the calls, wider otherwise.
func randomDest(rng *rand.Rand, w, h int) (frame []uint8, ds, di int) {
	ds = w
	if rng.Intn(3) != 0 {
		ds = w + 1 + rng.Intn(64)
	}
	di = rng.Intn(3)*ds + rng.Intn(ds-w+1)
	return randomBytes(rng, di+(h+rng.Intn(3))*ds), ds, di
}

func TestGoldenSamplePlane(t *testing.T) {
	rng := rand.New(rand.NewSource(9301))
	for trial := 0; trial < 2000; trial++ {
		w := 8
		if rng.Intn(2) == 0 {
			w = 16
		}
		h := w
		src, stride, si := randomSource(rng, w, h)
		frame, ds, di := randomDest(rng, w, h)
		for hy := 0; hy <= 1; hy++ {
			for hx := 0; hx <= 1; hx++ {
				want := append([]uint8(nil), frame...)
				got := append([]uint8(nil), frame...)
				swar := append([]uint8(nil), frame...)
				samplePlaneRef(want[di:], ds, w, h, src, stride, si, hx, hy)
				samplePlane(got[di:], ds, w, h, src, stride, si, hx, hy)
				samplePlaneGo(swar[di:], ds, w, h, src, stride, si, hx, hy)
				requireSameBytes(t, "samplePlane", want, got)
				requireSameBytes(t, "samplePlaneGo", want, swar)
			}
		}
	}
}

// TestGoldenSamplePlaneExtremes drives the byte averages through all-0x00,
// all-0xff and alternating patterns where inter-lane carry bugs surface, at
// both block widths.
func TestGoldenSamplePlaneExtremes(t *testing.T) {
	const stride = 24
	patterns := [][2]uint8{{0, 0}, {255, 255}, {0, 255}, {255, 0}, {1, 254}, {127, 128}}
	for _, w := range []int{8, 16} {
		h := w
		for _, p := range patterns {
			src := make([]uint8, stride*(h+1)+w+1)
			for i := range src {
				src[i] = p[i%2]
			}
			for hy := 0; hy <= 1; hy++ {
				for hx := 0; hx <= 1; hx++ {
					want := make([]uint8, w*h)
					got := make([]uint8, w*h)
					swar := make([]uint8, w*h)
					samplePlaneRef(want, w, w, h, src, stride, 0, hx, hy)
					samplePlane(got, w, w, h, src, stride, 0, hx, hy)
					samplePlaneGo(swar, w, w, h, src, stride, 0, hx, hy)
					if !bytes.Equal(want, got) || !bytes.Equal(want, swar) {
						t.Fatalf("w=%d pattern %v phase (hx=%d,hy=%d): kernels diverge", w, p, hx, hy)
					}
				}
			}
		}
	}
}

// TestGoldenBidirectionalInPlace follows the B-macroblock path: the forward
// prediction written into a frame plane, the backward one into a packed
// block, and the two averaged into the frame in place. The reference is two
// samplePlaneRef predictions and the scalar rounding average, over every
// pair of phases and both block sizes.
func TestGoldenBidirectionalInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(9303))
	for trial := 0; trial < 300; trial++ {
		for _, w := range []int{8, 16} {
			h := w
			fsrc, fstride, fsi := randomSource(rng, w, h)
			bsrc, bstride, bsi := randomSource(rng, w, h)
			frame, ds, di := randomDest(rng, w, h)
			for phase := 0; phase < 16; phase++ {
				fhx, fhy, bhx, bhy := phase&1, phase>>1&1, phase>>2&1, phase>>3
				pf := make([]uint8, w*h)
				pb := make([]uint8, w*h)
				samplePlaneRef(pf, w, w, h, fsrc, fstride, fsi, fhx, fhy)
				samplePlaneRef(pb, w, w, h, bsrc, bstride, bsi, bhx, bhy)
				want := append([]uint8(nil), frame...)
				for r := 0; r < h; r++ {
					for c := 0; c < w; c++ {
						want[di+r*ds+c] = uint8((int32(pf[r*w+c]) + int32(pb[r*w+c]) + 1) >> 1)
					}
				}

				got := append([]uint8(nil), frame...)
				bwd := make([]uint8, w*h)
				samplePlane(got[di:], ds, w, h, fsrc, fstride, fsi, fhx, fhy)
				samplePlane(bwd, w, w, h, bsrc, bstride, bsi, bhx, bhy)
				avgRows(got[di:], ds, bwd, w, h)
				requireSameBytes(t, "bidirectional", want, got)
			}
		}
	}
}

// TestGoldenPredict holds predict, which checks a macroblock's three
// windows once and runs the architecture's kernels, bit-exact against
// samplePlaneRef on each plane, for random vectors that reach every luma
// and chroma phase, into packed and frame-plane destinations.
func TestGoldenPredict(t *testing.T) {
	rng := rand.New(rand.NewSource(9302))
	ref := NewPixelBuf(32, 16, 96, 80)
	for _, p := range [][]uint8{ref.Y, ref.Cb, ref.Cr} {
		rng.Read(p)
	}
	for trial := 0; trial < 1000; trial++ {
		x, y := 64, 48
		mv := [2]int32{int32(rng.Intn(61) - 30), int32(rng.Intn(61) - 30)}
		if err := checkPrediction(nil, ref, x, y, mv); err != nil {
			t.Fatal(err)
		}
		py, ys, yi := randomDest(rng, 16, 16)
		pcb, cs, ci := randomDest(rng, 8, 8)
		pcr := randomBytes(rng, len(pcb))
		want := [3][]uint8{append([]uint8(nil), py...), append([]uint8(nil), pcb...), append([]uint8(nil), pcr...)}
		ryi, hx, hy, rci, chx, chy := predictSource(ref, x, y, mv)
		samplePlaneRef(want[0][yi:], ys, 16, 16, ref.Y, ref.W, ryi, hx, hy)
		samplePlaneRef(want[1][ci:], cs, 8, 8, ref.Cb, ref.W/2, rci, chx, chy)
		samplePlaneRef(want[2][ci:], cs, 8, 8, ref.Cr, ref.W/2, rci, chx, chy)
		predict(ref, x, y, mv, py[yi:], ys, pcb[ci:], pcr[ci:], cs)
		requireSameBytes(t, "predict luma", want[0], py)
		requireSameBytes(t, "predict Cb", want[1], pcb)
		requireSameBytes(t, "predict Cr", want[2], pcr)
	}
}

func TestGoldenAvgRows(t *testing.T) {
	rng := rand.New(rand.NewSource(9302))
	for trial := 0; trial < 2000; trial++ {
		w := 8 * (1 + rng.Intn(4))
		h := 1 + rng.Intn(16)
		frame, ds, di := randomDest(rng, w, h)
		src := randomBytes(rng, w*h)
		want := append([]uint8(nil), frame...)
		for r := 0; r < h; r++ {
			for c := 0; c < w; c++ {
				i := di + r*ds + c
				want[i] = uint8((int32(frame[i]) + int32(src[r*w+c]) + 1) >> 1)
			}
		}
		got := append([]uint8(nil), frame...)
		avgRows(got[di:], ds, src, w, h)
		requireSameBytes(t, "avgRows", want, got)
		swar := append([]uint8(nil), frame...)
		avgRowsGo(swar[di:], ds, src, w, h)
		requireSameBytes(t, "avgRowsGo", want, swar)
	}
}

// FuzzSamplePlane holds samplePlane to samplePlaneRef on fuzzer-chosen
// widths, phases, strides, offsets and source contents, into a strided
// destination whose samples outside the block must stay untouched.
func FuzzSamplePlane(f *testing.F) {
	f.Add([]byte{}, true, uint8(3), uint8(0), uint16(0), uint8(0))
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f}, false, uint8(1), uint8(5), uint16(9), uint8(3))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, true, uint8(2), uint8(63), uint16(1000), uint8(40))
	f.Fuzz(func(t *testing.T, data []byte, wide bool, phase, strideB uint8, siB uint16, dsB uint8) {
		w := 8
		if wide {
			w = 16
		}
		h := w
		hx, hy := int(phase&1), int(phase>>1&1)
		stride := w + 1 + int(strideB%64)
		need := h*stride + w + 1
		src := make([]uint8, need+int(siB%512))
		for i := range src {
			if len(data) > 0 {
				src[i] = data[i%len(data)] + uint8(i/len(data))
			}
		}
		si := int(siB) % (len(src) - need + 1)
		ds := w + int(dsB%32)
		frame := make([]uint8, h*ds+w)
		for i := range frame {
			frame[i] = uint8(i * 7)
		}
		want := append([]uint8(nil), frame...)
		got := append([]uint8(nil), frame...)
		samplePlaneRef(want[w/2:], ds, w, h, src, stride, si, hx, hy)
		samplePlane(got[w/2:], ds, w, h, src, stride, si, hx, hy)
		requireSameBytes(t, "samplePlane", want, got)
	})
}
