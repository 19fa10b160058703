//go:build !amd64

package mpeg2

// Off amd64 the reconstruction kernels are the pure-Go ones.

// samplePlane copies a w×h block from src (starting at index si, given
// stride) into dst (row stride ds) with optional half-sample interpolation;
// see samplePlaneGo.
func samplePlane(dst []uint8, ds, w, h int, src []uint8, stride, si, hx, hy int) {
	samplePlaneGo(dst, ds, w, h, src, stride, si, hx, hy)
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
