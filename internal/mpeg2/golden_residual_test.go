package mpeg2

import (
	"math"
	"math/rand"
	"testing"
)

// Golden residual suite: the intra store, the residual add and the DC add —
// the architecture's kernels (SSE2 on amd64) and the pure-Go ones — must
// write exactly the clip to 0..255 of the exact (never wrapping) sum, for
// every int32 residual, into packed and strided destinations whose samples
// outside the block stay untouched.

// clipExact is the scalar reference: v clipped to a sample.
func clipExact(v int64) uint8 {
	return uint8(min(max(v, 0), 255))
}

// residualExtremes are the int32 values where wrapping and saturation bugs
// surface: the ends of int32 and of int16, and the edges of 0..255.
var residualExtremes = []int32{
	math.MaxInt32, math.MinInt32, math.MaxInt32 - 255, math.MinInt32 + 255,
	32768, -32768, 32767, -32769, 65535, -65536,
	256, 255, 254, 1, 0, -1, -254, -255, -256,
}

// randomResidual fills blk with residuals drawn from the extremes, the
// range an IDCT can produce, and all of int32.
func randomResidual(rng *rand.Rand, blk *[64]int32) {
	for i := range blk {
		switch rng.Intn(3) {
		case 0:
			blk[i] = residualExtremes[rng.Intn(len(residualExtremes))]
		case 1:
			blk[i] = int32(rng.Intn(1024) - 512)
		default:
			blk[i] = int32(rng.Uint32())
		}
	}
}

// residualKernel is one 8×8 kernel and the reference for the sample it
// writes at position i, given the sample there before.
type residualKernel struct {
	name string
	run  func(d []uint8, stride int, blk *[64]int32)
	want func(blk *[64]int32, i int, old uint8) uint8
}

func residualKernels() []residualKernel {
	put := func(blk *[64]int32, i int, _ uint8) uint8 { return clipExact(int64(blk[i])) }
	add := func(blk *[64]int32, i int, old uint8) uint8 { return clipExact(int64(old) + int64(blk[i])) }
	dc := func(blk *[64]int32, _ int, old uint8) uint8 { return clipExact(int64(old) + int64(blk[0])) }
	return []residualKernel{
		{"putBlock", putBlock, put},
		{"putBlockGo", putBlockGo, put},
		{"addBlock", addBlock, add},
		{"addBlockGo", addBlockGo, add},
		{"addDC", func(d []uint8, s int, blk *[64]int32) { addDC(d, s, blk[0]) }, dc},
		{"addDCGo", func(d []uint8, s int, blk *[64]int32) { addDCGo(d, s, blk[0]) }, dc},
	}
}

func TestGoldenResidualKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(9304))
	edges := []uint8{0, 1, 254, 255}
	for trial := 0; trial < 3000; trial++ {
		var blk [64]int32
		randomResidual(rng, &blk)
		frame, ds, di := randomDest(rng, 8, 8)
		if e := trial / len(edges); e < len(residualExtremes) {
			// Every extreme as a whole block, so the DC add sees each,
			// onto each edge sample, where a wrapped or saturated sum
			// would first show.
			for i := range blk {
				blk[i] = residualExtremes[e]
			}
			for i := range frame {
				frame[i] = edges[trial%len(edges)]
			}
		}
		for _, k := range residualKernels() {
			want := append([]uint8(nil), frame...)
			for r := 0; r < 8; r++ {
				for c := 0; c < 8; c++ {
					j := di + r*ds + c
					want[j] = k.want(&blk, r*8+c, frame[j])
				}
			}
			got := append([]uint8(nil), frame...)
			in := blk
			k.run(got[di:], ds, &in)
			requireSameBytes(t, k.name, want, got)
			if in != blk {
				t.Fatalf("%s modified its residual block", k.name)
			}
		}
	}
}

// TestGoldenKernelBounds hands each kernel wrapper a slice one byte too
// short, or a stride or offset that leaves it, and expects a panic rather
// than a read or write past the slice.
func TestGoldenKernelBounds(t *testing.T) {
	var blk [64]int32
	src := make([]uint8, 17*17)
	// predict reads one macroblock of ref at (16, 16) with a vector that
	// takes the half-sample phase in both directions, luma and chroma.
	ref := NewPixelBuf(0, 0, 48, 48)
	mv := [2]int32{3, 3}
	var py [256]uint8
	var pcb, pcr [64]uint8
	cases := []struct {
		name string
		call func()
	}{
		{"samplePlane short dst", func() { samplePlane(make([]uint8, 15*16+15), 16, 16, 16, src, 17, 0, 0, 0) }},
		{"samplePlane short src", func() { samplePlane(make([]uint8, 256), 16, 16, 16, src[:16*17+16], 17, 0, 1, 1) }},
		{"samplePlane src offset", func() { samplePlane(make([]uint8, 256), 16, 16, 16, src, 17, 1, 1, 1) }},
		{"samplePlane negative offset", func() { samplePlane(make([]uint8, 64), 8, 8, 8, src, 17, -1, 0, 0) }},
		{"samplePlane negative stride", func() { samplePlane(make([]uint8, 64), -8, 8, 8, src, 17, 0, 0, 0) }},
		{"predict short luma dst", func() { predict(ref, 16, 16, mv, py[:255], 16, pcb[:], pcr[:], 8) }},
		{"predict short Cb dst", func() { predict(ref, 16, 16, mv, py[:], 16, pcb[:63], pcr[:], 8) }},
		{"predict short Cr dst", func() { predict(ref, 16, 16, mv, py[:], 16, pcb[:], pcr[:63], 8) }},
		{"predict short luma ref", func() {
			r := *ref
			r.Y = r.Y[:(16+16)*48+16+16]
			predict(&r, 16, 16, mv, py[:], 16, pcb[:], pcr[:], 8)
		}},
		{"predict short Cb ref", func() {
			r := *ref
			r.Cb = r.Cb[:(8+8)*24+8+8]
			predict(&r, 16, 16, mv, py[:], 16, pcb[:], pcr[:], 8)
		}},
		{"predict short Cr ref", func() {
			r := *ref
			r.Cr = r.Cr[:(8+8)*24+8+8]
			predict(&r, 16, 16, mv, py[:], 16, pcb[:], pcr[:], 8)
		}},
		{"predict negative index", func() { predict(ref, 0, 0, [2]int32{-2, -2}, py[:], 16, pcb[:], pcr[:], 8) }},
		{"avgRows short dst", func() { avgRows(make([]uint8, 63), 8, make([]uint8, 64), 8, 8) }},
		{"avgRows short src", func() { avgRows(make([]uint8, 64), 8, make([]uint8, 63), 8, 8) }},
		{"putBlock short", func() { putBlock(make([]uint8, 7*16+7), 16, &blk) }},
		{"addBlock short", func() { addBlock(make([]uint8, 63), 8, &blk) }},
		{"addDC short", func() { addDC(make([]uint8, 63), 8, 1) }},
		{"addDC negative stride", func() { addDC(make([]uint8, 64), -8, 1) }},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			c.call()
		}()
	}
}
