package mpeg2

// amd64 reconstruction kernels (kernels_amd64.s): SSE2 motion compensation
// and residual add, which every amd64 CPU has, and an AVX2 IDCT chosen once
// at init by CPUID and XGETBV. Each wrapper checks its slice bounds once per
// call and panics on a short slice, so a kernel never touches memory outside
// the slices it is given. The golden-kernel suite holds every kernel bit-exact
// against the pure-Go kernels and their scalar references (DESIGN.md §9).

// useAVX2 reports whether the CPU and the OS support AVX2, which the IDCT
// kernel needs.
var useAVX2 = hasAVX2()

func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	// AVX and OSXSAVE, then the OS must save the XMM and YMM state.
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&(1<<27) == 0 || ecx1&(1<<28) == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

//go:noescape
func copyRowsSSE2(dst *uint8, ds int, src *uint8, stride, w, h int)

//go:noescape
func hHalfRowsSSE2(dst *uint8, ds int, src *uint8, stride, w, h int)

//go:noescape
func vHalfRowsSSE2(dst *uint8, ds int, src *uint8, stride, w, h int)

//go:noescape
func hvHalfRowsSSE2(dst *uint8, ds int, src *uint8, stride, w, h int)

//go:noescape
func avgRowsSSE2(dst *uint8, ds int, src *uint8, ss, w, h int)

//go:noescape
func putBlockSSE2(dst *uint8, stride int, blk *[64]int32)

//go:noescape
func addBlockSSE2(dst *uint8, stride int, blk *[64]int32)

//go:noescape
func addDCSSE2(dst *uint8, stride int, v int32)

//go:noescape
func idctAVX2(block *[64]int32)

// rowsFit reports whether rows rows of w bytes, rows stride apart, fit in a
// slice of length n. rows is at most 17, so the products cannot overflow.
func rowsFit(n, stride, w, rows int) bool {
	return stride >= 0 && stride <= n && rows >= 1 && rows <= 17 && (rows-1)*stride+w <= n
}

// samplePlane copies a w×h block from src (starting at index si, given
// stride) into dst (row stride ds) with optional half-sample interpolation.
// Callers guarantee (via PixelBuf.Contains) that src holds (h+hy) rows of
// (w+hx) samples from si, and that dst does not overlap src. w is 8 or 16,
// h at most 16, and hx and hy are 0 or 1.
func samplePlane(dst []uint8, ds, w, h int, src []uint8, stride, si, hx, hy int) {
	if w != 8 && w != 16 || h > 16 || uint(hx) > 1 || uint(hy) > 1 ||
		!rowsFit(len(dst), ds, w, h) || si < 0 || si > len(src) || !rowsFit(len(src)-si, stride, w+hx, h+hy) {
		panic("mpeg2: samplePlane: block outside its slices")
	}
	mcRows(&dst[0], ds, &src[si], stride, w, h, hx, hy)
}

// predict writes the motion-compensated prediction of the macroblock at
// luma position (x, y) from ref with vector mv (half-sample units): 16×16
// luma into py (row stride ys), 8×8 chroma into pcb and pcr (row stride
// cs). The caller has checked the vector with checkPrediction. The luma
// and both chroma windows are checked here once, then the three kernels
// run.
func predict(ref *PixelBuf, x, y int, mv [2]int32, py []uint8, ys int, pcb, pcr []uint8, cs int) {
	yi, hx, hy, ci, chx, chy := predictSource(ref, x, y, mv)
	cw, nc := ref.W/2, min(len(ref.Cb), len(ref.Cr))
	if !rowsFit(len(py), ys, 16, 16) || !rowsFit(len(pcb), cs, 8, 8) || !rowsFit(len(pcr), cs, 8, 8) ||
		uint(yi) > uint(len(ref.Y)) || !rowsFit(len(ref.Y)-yi, ref.W, 16+hx, 16+hy) ||
		uint(ci) > uint(nc) || !rowsFit(nc-ci, cw, 8+chx, 8+chy) {
		panic("mpeg2: predict: macroblock outside its slices")
	}
	mcRows(&py[0], ys, &ref.Y[yi], ref.W, 16, 16, hx, hy)
	mcRows(&pcb[0], cs, &ref.Cb[ci], cw, 8, 8, chx, chy)
	mcRows(&pcr[0], cs, &ref.Cr[ci], cw, 8, 8, chx, chy)
}

// mcRows runs the motion-compensation kernel of half-sample phase (hx, hy)
// on a w×h block whose bounds its caller (samplePlane or predict) has
// checked.
func mcRows(d *uint8, ds int, s *uint8, stride, w, h, hx, hy int) {
	switch hy<<1 | hx {
	case 0:
		copyRowsSSE2(d, ds, s, stride, w, h)
	case 1:
		hHalfRowsSSE2(d, ds, s, stride, w, h)
	case 2:
		vHalfRowsSSE2(d, ds, s, stride, w, h)
	default:
		hvHalfRowsSSE2(d, ds, s, stride, w, h)
	}
}

// avgRows replaces each sample of the w×h block in dst (row stride ds) with
// its rounding average against the packed block src (row stride w): the
// in-place bidirectional average of B-macroblock prediction (§7.6.7.1).
// w is a multiple of 8 and h at most 16. The kernel takes strips 16 and
// then 8 columns wide.
func avgRows(dst []uint8, ds int, src []uint8, w, h int) {
	if w <= 0 || w%8 != 0 || h > 16 || !rowsFit(len(dst), ds, w, h) || !rowsFit(len(src), w, w, h) {
		panic("mpeg2: avgRows: block outside its slices")
	}
	for c := 0; c < w; c += 16 {
		avgRowsSSE2(&dst[c], ds, &src[c], w, min(16, w-c), h)
	}
}

// checkBlock panics unless the 8×8 block at d with row stride stride lies
// within d.
func checkBlock(d []uint8, stride int) {
	if !rowsFit(len(d), stride, 8, 8) {
		panic("mpeg2: 8×8 block outside its slice")
	}
}

// putBlock stores the clipped transform blk into the 8×8 block at d.
func putBlock(d []uint8, stride int, blk *[64]int32) {
	checkBlock(d, stride)
	putBlockSSE2(&d[0], stride, blk)
}

// addBlock adds the residual blk to the 8×8 prediction at d in place.
func addBlock(d []uint8, stride int, blk *[64]int32) {
	checkBlock(d, stride)
	addBlockSSE2(&d[0], stride, blk)
}

// addDC adds the constant residual v to the 8×8 prediction at d in place.
func addDC(d []uint8, stride int, v int32) {
	checkBlock(d, stride)
	addDCSSE2(&d[0], stride, v)
}

// IDCTFast computes the 8x8 inverse DCT of block in place (raster order),
// bit-exact with IDCT. acMask is the block's AC occupancy mask (see
// Macroblock.ACMask); acMask == 0 means positions 1..63 are all zero. A
// DC-only block is filled with its constant; every other block takes the
// AVX2 kernel where the host has it and the pure-Go mask dispatch otherwise.
func IDCTFast(block *[64]int32, acMask uint8) {
	switch {
	case acMask == 0:
		idctDCOnly(block)
	case useAVX2:
		idctAVX2(block)
	default:
		idctFastGo(block, acMask)
	}
}
