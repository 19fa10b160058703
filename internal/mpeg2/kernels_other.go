//go:build !amd64

package mpeg2

// Off amd64 the reconstruction kernels are the pure-Go ones.

// samplePlane copies a w×h block from src (starting at index si, given
// stride) into dst (row stride ds) with optional half-sample interpolation;
// see samplePlaneGo.
func samplePlane(dst []uint8, ds, w, h int, src []uint8, stride, si, hx, hy int) {
	samplePlaneGo(dst, ds, w, h, src, stride, si, hx, hy)
}

// predict writes the motion-compensated prediction of the macroblock at
// luma position (x, y) from ref with vector mv (half-sample units): 16×16
// luma into py (row stride ys), 8×8 chroma into pcb and pcr (row stride
// cs). The caller has checked the vector with checkPrediction.
func predict(ref *PixelBuf, x, y int, mv [2]int32, py []uint8, ys int, pcb, pcr []uint8, cs int) {
	yi, hx, hy, ci, chx, chy := predictSource(ref, x, y, mv)
	samplePlaneGo(py, ys, 16, 16, ref.Y, ref.W, yi, hx, hy)
	samplePlaneGo(pcb, cs, 8, 8, ref.Cb, ref.W/2, ci, chx, chy)
	samplePlaneGo(pcr, cs, 8, 8, ref.Cr, ref.W/2, ci, chx, chy)
}

// avgRows is the in-place bidirectional average; see avgRowsGo.
func avgRows(dst []uint8, ds int, src []uint8, w, h int) {
	avgRowsGo(dst, ds, src, w, h)
}

// putBlock stores the clipped transform blk into the 8×8 block at d.
func putBlock(d []uint8, stride int, blk *[64]int32) { putBlockGo(d, stride, blk) }

// addBlock adds the residual blk to the 8×8 prediction at d in place.
func addBlock(d []uint8, stride int, blk *[64]int32) { addBlockGo(d, stride, blk) }

// addDC adds the constant residual v to the 8×8 prediction at d in place.
func addDC(d []uint8, stride int, v int32) { addDCGo(d, stride, v) }

// IDCTFast computes the 8x8 inverse DCT of block in place (raster order),
// bit-exact with IDCT, dispatching on the AC occupancy mask (see
// Macroblock.ACMask and idctFastGo).
func IDCTFast(block *[64]int32, acMask uint8) { idctFastGo(block, acMask) }
