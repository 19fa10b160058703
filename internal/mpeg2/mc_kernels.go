package mpeg2

import "encoding/binary"

// Motion-compensation kernels, the hot path of every inter macroblock:
// predict runs one per plane, each writing a 16×16 luma (or 8×8 chroma)
// prediction from a
// reference window with one of four half-sample phases (§7.6.4), straight
// into the destination frame. The pure-Go kernels below replace the
// per-pixel scalar loops with row-wise copies and SWAR byte averages; they
// are the portable path (kernels_other.go) and the golden reference for the
// amd64 SSE2 kernels (kernels_amd64.s). samplePlaneRef keeps the original
// scalar form as the golden reference of both (golden_mc_test.go proves
// every kernel bit-exact against it).

// samplePlaneGo copies a w×h block from src (starting at index si, given
// stride) into dst (row stride ds) with optional half-sample interpolation.
// Callers guarantee (via PixelBuf.Contains) that src holds (h+hy) rows of
// (w+hx) samples from si, and that dst does not overlap src. w is 8 or 16.
func samplePlaneGo(dst []uint8, ds, w, h int, src []uint8, stride, si, hx, hy int) {
	switch {
	case hx == 0 && hy == 0:
		copyRows(dst, ds, w, h, src, stride, si)
	case hx == 1 && hy == 0:
		hHalfRows(dst, ds, w, h, src, stride, si)
	case hx == 0 && hy == 1:
		vHalfRows(dst, ds, w, h, src, stride, si)
	default:
		hvHalfRows(dst, ds, w, h, src, stride, si)
	}
}

// samplePlaneRef is the reference scalar implementation of samplePlane. The
// golden-kernel suite compares every specialised kernel against it; it is
// never used on the decode path.
func samplePlaneRef(dst []uint8, ds, w, h int, src []uint8, stride, si, hx, hy int) {
	switch {
	case hx == 0 && hy == 0:
		for r := 0; r < h; r++ {
			copy(dst[r*ds:r*ds+w], src[si+r*stride:si+r*stride+w])
		}
	case hx == 1 && hy == 0:
		for r := 0; r < h; r++ {
			row := src[si+r*stride:]
			d := dst[r*ds:]
			for c := 0; c < w; c++ {
				d[c] = uint8((int32(row[c]) + int32(row[c+1]) + 1) >> 1)
			}
		}
	case hx == 0 && hy == 1:
		for r := 0; r < h; r++ {
			row := src[si+r*stride:]
			nxt := src[si+(r+1)*stride:]
			d := dst[r*ds:]
			for c := 0; c < w; c++ {
				d[c] = uint8((int32(row[c]) + int32(nxt[c]) + 1) >> 1)
			}
		}
	default:
		for r := 0; r < h; r++ {
			row := src[si+r*stride:]
			nxt := src[si+(r+1)*stride:]
			d := dst[r*ds:]
			for c := 0; c < w; c++ {
				d[c] = uint8((int32(row[c]) + int32(row[c+1]) + int32(nxt[c]) + int32(nxt[c+1]) + 2) >> 2)
			}
		}
	}
}

// copyRows is the full-pel case: one copy per row.
func copyRows(dst []uint8, ds, w, h int, src []uint8, stride, si int) {
	for r := 0; r < h; r++ {
		copy(dst[r*ds:r*ds+w], src[si+r*stride:si+r*stride+w])
	}
}

const swarLow7 = 0x7f7f7f7f7f7f7f7f

// avg8 computes the byte-pairwise rounding average (a+b+1)>>1 of eight
// lanes at once: a|b counts each bit pair's max and (a^b)>>1 (masked to keep
// the shift from leaking across lanes) removes half of the disagreement, so
// each byte ends up exactly (a+b+1)>>1 with no carry between lanes.
func avg8(a, b uint64) uint64 {
	return (a | b) - (((a ^ b) >> 1) & swarLow7)
}

// hHalfRows averages each sample with its right neighbour. Block widths are
// 16 or 8, so each row is exactly two or one 8-lane SWAR averages.
func hHalfRows(dst []uint8, ds, w, h int, src []uint8, stride, si int) {
	for r := 0; r < h; r++ {
		row := src[si+r*stride : si+r*stride+w+1]
		d := dst[r*ds : r*ds+w]
		for c := 0; c < w; c += 8 {
			a := binary.LittleEndian.Uint64(row[c:])
			b := binary.LittleEndian.Uint64(row[c+1:])
			binary.LittleEndian.PutUint64(d[c:], avg8(a, b))
		}
	}
}

// vHalfRows averages each sample with the one below it. It walks each
// 8-lane column down the block so every source row is loaded once and
// serves as the lower row of one output and the upper row of the next.
func vHalfRows(dst []uint8, ds, w, h int, src []uint8, stride, si int) {
	for c := 0; c < w; c += 8 {
		s := src[si+c:]
		a := binary.LittleEndian.Uint64(s)
		for r := 0; r < h; r++ {
			b := binary.LittleEndian.Uint64(s[(r+1)*stride:])
			binary.LittleEndian.PutUint64(dst[r*ds+c:], avg8(a, b))
			a = b
		}
	}
}

const (
	swarLow6 = 0x3f3f3f3f3f3f3f3f
	swarLow2 = 0x0303030303030303
	swarTwo  = 0x0202020202020202
)

// pairSums returns the horizontal pair sums of eight lanes starting at p —
// p[i]+p[i+1] for i in 0..7 — split into high-6 and low-2 bit halves, each
// carry-free within a byte (hi <= 126, lo <= 6).
func pairSums(p []uint8) (hi, lo uint64) {
	a := binary.LittleEndian.Uint64(p)
	b := binary.LittleEndian.Uint64(p[1:])
	return (a>>2)&swarLow6 + (b>>2)&swarLow6, a&swarLow2 + b&swarLow2
}

// hvHalfRows is the four-sample case: each output is the rounding average
// (a+b+c+d+2)>>2 of a 2×2 source quad, eight lanes per SWAR step. The
// average cannot be built from nested avg8 calls (the inner roundings leak
// into the result), so it carries exact 10-bit per-lane sums as high-6 and
// low-2 halves: a+b+c+d+2 = 4*hi + lo with hi <= 252 and lo <= 14, both
// carry-free, and the result hi + lo>>2 <= 255. Walking each 8-lane column
// down the block, a source row's pair sums are computed once and reused as
// the upper pair of the next output row.
func hvHalfRows(dst []uint8, ds, w, h int, src []uint8, stride, si int) {
	for c := 0; c < w; c += 8 {
		s := src[si+c:]
		hi0, lo0 := pairSums(s)
		for r := 0; r < h; r++ {
			hi1, lo1 := pairSums(s[(r+1)*stride:])
			v := hi0 + hi1 + ((lo0+lo1+swarTwo)>>2)&swarLow2
			binary.LittleEndian.PutUint64(dst[r*ds+c:], v)
			hi0, lo0 = hi1, lo1
		}
	}
}

// avgRowsGo replaces each sample of the w×h block in dst (row stride ds) with
// its rounding average against the packed block src (row stride w): the
// in-place bidirectional average of B-macroblock prediction (§7.6.7.1).
// w is a multiple of 8.
func avgRowsGo(dst []uint8, ds int, src []uint8, w, h int) {
	for r := 0; r < h; r++ {
		d := dst[r*ds : r*ds+w]
		s := src[r*w : r*w+w]
		for c := 0; c < w; c += 8 {
			a := binary.LittleEndian.Uint64(d[c:])
			b := binary.LittleEndian.Uint64(s[c:])
			binary.LittleEndian.PutUint64(d[c:], avg8(a, b))
		}
	}
}
