package mpeg2

import (
	"math/rand"
	"testing"
)

// Kernel benchmarks for the hot-path overhaul: the three IDCT coefficient
// classes the fast dispatch distinguishes (the sparse one with and without
// a mismatch-toggled coefficient 63), the four half-pel motion compensation
// phases at both block sizes (16×16 luma, 8×8 chroma), one whole macroblock's
// prediction, the bidirectional average, and the residual store and adds. Run with the rest of the
// continuous-benchmark layer:
//
//	go test -bench 'IDCT|MotionComp|Residual' -benchmem ./internal/mpeg2/

func BenchmarkIDCTDCOnly(b *testing.B) {
	var blk [64]int32
	blk[0] = 123
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tmp := blk
		IDCTFast(&tmp, 0)
	}
}

func BenchmarkIDCTSparse(b *testing.B) {
	// Coefficients confined to the top four rows: the texture class low-bitrate
	// inter blocks land in, served by the folded-column fast path.
	rng := rand.New(rand.NewSource(2))
	var blk [64]int32
	for i := 0; i < 32; i++ {
		blk[i] = int32(rng.Intn(512) - 256)
	}
	mask := ACMaskOf(&blk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tmp := blk
		IDCTFast(&tmp, mask)
	}
}

// BenchmarkIDCTSparseLast is the sparse class as the VLD most often hands
// it over: the same top-row coefficients plus a coefficient 63 that §7.4.4
// mismatch control toggled to one.
func BenchmarkIDCTSparseLast(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	var blk [64]int32
	for i := 0; i < 32; i++ {
		blk[i] = int32(rng.Intn(512) - 256)
	}
	blk[63] = 1
	mask := ACMaskOf(&blk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tmp := blk
		IDCTFast(&tmp, mask)
	}
}

func BenchmarkIDCTFull(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	var blk [64]int32
	for i := range blk {
		blk[i] = int32(rng.Intn(512) - 256)
	}
	mask := ACMaskOf(&blk)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tmp := blk
		IDCTFast(&tmp, mask)
	}
}

// benchPlane builds a reference plane and a destination for one 16x16 luma
// prediction fetch.
func benchPlane() (src []byte, stride int, dst []byte) {
	stride = 720
	src = make([]byte, stride*64)
	rng := rand.New(rand.NewSource(4))
	for i := range src {
		src[i] = byte(rng.Intn(256))
	}
	return src, stride, make([]byte, 16*16)
}

func benchMotionComp(b *testing.B, hx, hy int) {
	src, stride, dst := benchPlane()
	b.ReportAllocs()
	b.SetBytes(16 * 16)
	for i := 0; i < b.N; i++ {
		samplePlane(dst, 16, 16, 16, src, stride, stride*4+8, hx, hy)
	}
}

func BenchmarkMotionCompCopy(b *testing.B) { benchMotionComp(b, 0, 0) }
func BenchmarkMotionCompH(b *testing.B)    { benchMotionComp(b, 1, 0) }
func BenchmarkMotionCompV(b *testing.B)    { benchMotionComp(b, 0, 1) }
func BenchmarkMotionCompHV(b *testing.B)   { benchMotionComp(b, 1, 1) }

// BenchmarkMotionCompHVRef measures the generic per-pixel kernel the
// specialised ones are diffed against, so the speedup stays visible in the
// benchmark log.
func BenchmarkMotionCompHVRef(b *testing.B) {
	src, stride, dst := benchPlane()
	b.ReportAllocs()
	b.SetBytes(16 * 16)
	for i := 0; i < b.N; i++ {
		samplePlaneRef(dst, 16, 16, 16, src, stride, stride*4+8, 1, 1)
	}
}

// benchChroma is benchMotionComp for one 8×8 chroma prediction, from a
// plane of half the luma stride.
func benchChroma(b *testing.B, hx, hy int) {
	src, stride, dst := benchPlane()
	stride /= 2
	b.ReportAllocs()
	b.SetBytes(8 * 8)
	for i := 0; i < b.N; i++ {
		samplePlane(dst, 8, 8, 8, src, stride, stride*4+8, hx, hy)
	}
}

func BenchmarkMotionCompChromaCopy(b *testing.B) { benchChroma(b, 0, 0) }
func BenchmarkMotionCompChromaH(b *testing.B)    { benchChroma(b, 1, 0) }
func BenchmarkMotionCompChromaV(b *testing.B)    { benchChroma(b, 0, 1) }
func BenchmarkMotionCompChromaHV(b *testing.B)   { benchChroma(b, 1, 1) }

// BenchmarkMotionCompMacroblock predicts one macroblock from one reference
// (16×16 luma and both 8×8 chroma blocks), cycling through vectors that
// take every luma phase: the per-reference step of motion compensation,
// bounds checks included.
func BenchmarkMotionCompMacroblock(b *testing.B) {
	ref := NewPixelBuf(0, 0, 64, 64)
	rng := rand.New(rand.NewSource(6))
	for _, p := range [][]uint8{ref.Y, ref.Cb, ref.Cr} {
		for i := range p {
			p[i] = byte(rng.Intn(256))
		}
	}
	var py [256]uint8
	var pcb, pcr [64]uint8
	mvs := [4][2]int32{{2, -4}, {3, 2}, {-2, 1}, {3, 3}}
	b.ReportAllocs()
	b.SetBytes(16*16 + 2*8*8)
	for i := 0; i < b.N; i++ {
		predict(ref, 16, 16, mvs[i&3], py[:], 16, pcb[:], pcr[:], 8)
	}
}

// BenchmarkMotionCompBidir averages a packed 16×16 backward prediction into
// a forward one in a frame plane: the luma half of a B macroblock's
// bidirectional step.
func BenchmarkMotionCompBidir(b *testing.B) {
	src, stride, _ := benchPlane()
	bwd := src[:256]
	b.ReportAllocs()
	b.SetBytes(16 * 16)
	for i := 0; i < b.N; i++ {
		avgRows(src[stride*8+16:], stride, bwd, 16, 16)
	}
}

// benchResidual returns an IDCT-range residual block and an 8×8 block in a
// frame plane to apply it to.
func benchResidual() (blk [64]int32, d []uint8, stride int) {
	rng := rand.New(rand.NewSource(5))
	for i := range blk {
		blk[i] = int32(rng.Intn(512) - 256)
	}
	src, stride, _ := benchPlane()
	return blk, src[stride*4+8:], stride
}

// BenchmarkResidualPut stores an intra block's transform.
func BenchmarkResidualPut(b *testing.B) {
	blk, d, stride := benchResidual()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		putBlock(d, stride, &blk)
	}
}

// BenchmarkResidualAdd adds an inter block's residual to its prediction.
func BenchmarkResidualAdd(b *testing.B) {
	blk, d, stride := benchResidual()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addBlock(d, stride, &blk)
	}
}

// BenchmarkResidualAddDC is the whole residual step of a DC-only inter
// block: its one transform value, added to the prediction.
func BenchmarkResidualAddDC(b *testing.B) {
	_, d, stride := benchResidual()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		addDC(d, stride, idctDC(int32(i&255)-128))
	}
}
