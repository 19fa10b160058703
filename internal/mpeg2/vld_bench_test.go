package mpeg2

import (
	"math/rand"
	"testing"

	"tiledwall/internal/bits"
)

// dctBenchBlocks writes nblk quantised blocks with a low-bit-rate
// coefficient population — a few nonzero coefficients per block, mostly
// small levels near the start of the scan, an occasional escape — through
// the production coefficient writer. It returns the bits, the bit offset of
// the first block (past the slice header the writer emits) and the symbol
// count.
func dctBenchBlocks(b *testing.B, intraVLC bool, nblk int) ([]byte, int, int) {
	seq := &SequenceHeader{Width: 64, Height: 64, IntraQ: DefaultIntraQuantMatrix, NonIntraQ: DefaultNonIntraQuantMatrix}
	pic := &PictureHeader{PicType: PictureI, PictureStructure: 3, FramePredDCT: true, IntraVLCFormat: intraVLC}
	ctx, err := NewPictureContext(seq, pic)
	if err != nil {
		b.Fatal(err)
	}
	w := bits.NewWriter(nblk * 8)
	sw := NewSliceWriter(ctx, w, 0, 8)
	start := w.BitLen()
	rng := rand.New(rand.NewSource(17))
	syms := 0
	for i := 0; i < nblk; i++ {
		var blk [64]int32
		for n := 1 + rng.Intn(3); n < 64; n += 1 + int(rng.ExpFloat64()*3) {
			level := int32(1 + rng.ExpFloat64()*1.5)
			if rng.Intn(200) == 0 {
				level = int32(50 + rng.Intn(1500))
			}
			if rng.Intn(2) == 0 {
				level = -level
			}
			blk[ctx.scan[n]] = level
			syms++
		}
		sw.writeAC(&blk, 1, ctx.intraDCT, ctx.intraDCT)
		syms++ // EOB
	}
	w.WriteBits(0xFFFFFFFF, 32)
	return w.Bytes(), start, syms
}

// BenchmarkDCTDecode is the DCT-decode rung: the coefficient table walk of
// intraBlock (decode) and of the splitter's skim (skip) per symbol,
// under both intra VLC tables.
//
//	go test -run '^$' -bench DCTDecode ./internal/mpeg2/
func BenchmarkDCTDecode(b *testing.B) {
	const nblk = 4096
	for _, c := range []struct {
		name     string
		intraVLC bool
		tab      *dctTable
	}{{"B-14", false, dctTableB14}, {"B-15", true, dctTableB15}} {
		data, start, syms := dctBenchBlocks(b, c.intraVLC, nblk)
		b.Run(c.name+"/decode", func(b *testing.B) {
			r := bits.NewReader(data)
			for i := 0; i < b.N; i++ {
				r.Reset(data)
				r.SeekBit(start)
				for blk := 0; blk < nblk; blk++ {
					for {
						_, _, eob, ok := c.tab.decode(r)
						if !ok {
							b.Fatal("bad code")
						}
						if eob {
							break
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*syms), "ns/symbol")
		})
		b.Run(c.name+"/skip", func(b *testing.B) {
			r := bits.NewReader(data)
			for i := 0; i < b.N; i++ {
				r.Reset(data)
				r.SeekBit(start)
				for blk := 0; blk < nblk; blk++ {
					for {
						run, ok := c.tab.skip(r)
						if !ok {
							b.Fatal("bad code")
						}
						if run == eobRun {
							break
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*syms), "ns/symbol")
		})
	}
}
