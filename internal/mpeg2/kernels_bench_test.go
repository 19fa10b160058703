package mpeg2

import (
	"math/rand"
	"testing"
)

// Kernel benchmarks for the hot-path overhaul: the three IDCT coefficient
// classes the fast dispatch distinguishes (the sparse one with and without
// a mismatch-toggled coefficient 63), and the four half-pel motion
// compensation phases. Run with the rest of the continuous-benchmark layer:
//
//	go test -bench 'IDCT|MotionComp' -benchmem ./internal/mpeg2/

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
