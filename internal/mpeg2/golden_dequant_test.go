package mpeg2

import (
	"math/rand"
	"testing"

	"tiledwall/internal/bits"
)

// TestGoldenFusedDequant holds the VLD's fused inverse quantisation to the
// reference it replaced on the decode path: parse the quantised levels,
// then DequantIntra/DequantNonIntra. Random slices of intra and non-intra
// macroblocks are written with SliceWriter and parsed back under both
// q_scale_type values, the default and random weight matrices, and every
// intra_dc_precision; the parsed blocks must equal the reference exactly and
// each ACMask must cover the reference block's occupancy. The test also
// requires that saturation at 2047 and -2048 and both outcomes of mismatch
// control (coefficient 63 toggled from zero, and left zero) were exercised,
// as well as blocks with a coded coefficient 63.
func TestGoldenFusedDequant(t *testing.T) {
	var satPos, satNeg, toggled, untoggled, coded63 int
	rng := rand.New(rand.NewSource(7404))
	seq := testSeq(64, 48)
	for _, qType := range []bool{false, true} {
		for _, randomMatrices := range []bool{false, true} {
			for _, picType := range []PictureType{PictureI, PictureP} {
				seq.IntraQ, seq.NonIntraQ = DefaultIntraQuantMatrix, DefaultNonIntraQuantMatrix
				if randomMatrices {
					for i := range seq.IntraQ {
						seq.IntraQ[i] = uint8(1 + rng.Intn(255))
						seq.NonIntraQ[i] = uint8(1 + rng.Intn(255))
					}
				}
				pic := testPic(picType, rng.Intn(2) == 0, rng.Intn(2) == 0, qType)
				for prec := 0; prec < 4; prec++ {
					pic.IntraDCPrecision = prec
					ctx, err := NewPictureContext(seq, pic)
					if err != nil {
						t.Fatal(err)
					}
					for trial := 0; trial < 20; trial++ {
						written, got := writeParseRow(t, ctx, rng)
						for i, want := range written {
							mb := &got[i]
							qs := QuantiserScale(mb.QuantCode, qType)
							for b := 0; b < 6; b++ {
								if mb.CBP&(1<<uint(5-b)) == 0 {
									continue
								}
								ref := want.Blocks[b]
								if ref[63] != 0 {
									coded63++
								}
								wasZero := ref[63] == 0
								if mb.Intra() {
									DequantIntra(&ref, &seq.IntraQ, qs, pic.DCShift())
								} else {
									DequantNonIntra(&ref, &seq.NonIntraQ, qs)
								}
								if ref != mb.Blocks[b] {
									t.Fatalf("qType=%v random=%v %s prec %d mb %d block %d: fused dequantisation differs\nwant %v\ngot  %v",
										qType, randomMatrices, picType, prec, i, b, ref, mb.Blocks[b])
								}
								if exact := ACMaskOf(&ref); mb.ACMask[b]&exact != exact {
									t.Fatalf("mb %d block %d: ACMask %08b does not cover %08b", i, b, mb.ACMask[b], exact)
								}
								for _, v := range ref[1:] {
									switch v {
									case 2047:
										satPos++
									case -2048:
										satNeg++
									}
								}
								if wasZero && ref[63] != 0 {
									toggled++
								} else if wasZero {
									untoggled++
								}
							}
						}
					}
				}
			}
		}
	}
	t.Logf("saturated +%d -%d, coefficient 63 toggled %d, left zero %d, coded %d", satPos, satNeg, toggled, untoggled, coded63)
	if satPos == 0 || satNeg == 0 || toggled == 0 || untoggled == 0 || coded63 == 0 {
		t.Fatal("a dequantisation case was not exercised")
	}
}

// writeParseRow writes one full macroblock row of random macroblocks (one
// block in eight carrying a coded coefficient 63) as a slice and parses it
// back, returning what was written and the parsed macroblocks with their
// blocks copied out of the decoder's scratch.
func writeParseRow(t *testing.T, ctx *PictureContext, rng *rand.Rand) ([]*MBCode, []Macroblock) {
	t.Helper()
	row := rng.Intn(ctx.MBH)
	w := bits.NewWriter(256)
	sw := NewSliceWriter(ctx, w, row, 1+rng.Intn(31))
	var written []*MBCode
	for addr := row * ctx.MBW; addr < (row+1)*ctx.MBW; addr++ {
		mb := randomMBCode(rng, ctx.Pic, addr, 0, true)
		for b := range mb.Blocks {
			if rng.Intn(8) == 0 && (mb.Flags&MBIntra != 0 || mb.CBP&(1<<uint(5-b)) != 0) {
				mb.Blocks[b][63] = int32(rng.Intn(4094) - 2047)
				if mb.Blocks[b][63] == 0 {
					mb.Blocks[b][63] = 1
				}
			}
		}
		if err := sw.WriteMB(mb); err != nil {
			t.Fatalf("WriteMB: %v", err)
		}
		written = append(written, mb)
	}
	w.AlignZero()
	w.WriteBytes([]byte{0, 0, 1})
	r := bits.NewReader(w.Bytes())
	r.Skip(32)
	sd, err := NewSliceDecoder(ctx, r, row+1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Macroblock, len(written))
	blocks := make([][6][64]int32, len(written))
	for i := range written {
		if ok, err := sd.Next(&got[i]); !ok || err != nil {
			t.Fatalf("Next #%d: ok=%v err=%v", i, ok, err)
		}
		blocks[i] = *got[i].Blocks
		got[i].Blocks = &blocks[i]
	}
	return written, got
}
