package mpeg2

import (
	"errors"
	"fmt"
)

// Reconstructor turns parsed macroblocks into pixels: IDCT, motion
// compensation with half-sample interpolation, and skipped-macroblock
// reconstruction. Prediction and residual are written straight into the
// destination frame; the only scratch is the backward prediction of a
// bidirectional macroblock, averaged into the forward one in place. One
// Reconstructor per decoding goroutine.
type Reconstructor struct {
	pic *PictureHeader

	bwdY         [256]uint8
	bwdCb, bwdCr [64]uint8
}

// NewReconstructor returns a Reconstructor for pictures described by pic.
func NewReconstructor(pic *PictureHeader) *Reconstructor {
	return &Reconstructor{pic: pic}
}

// Reset repoints the Reconstructor at a new picture, keeping its scratch
// buffers. Lets pooled decode paths reuse one Reconstructor per goroutine
// across pictures without reallocating.
func (rc *Reconstructor) Reset(pic *PictureHeader) {
	rc.pic = pic
}

// clip255 clamps v to a sample. It takes an int64 so a residual sum never
// wraps: the residual kernels clip the exact sum for every int32 residual.
func clip255(v int64) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// Residual kernels: the pure-Go forms of the store of an intra block, the
// residual add of an inter block and the residual add of a DC-only inter
// block, each onto the 8×8 block at d (row stride stride). They are the
// portable path (kernels_other.go) and the golden reference for the amd64
// SSE2 kernels, whose saturating packs compute the same clip255 of the
// exact sum (DESIGN.md §9).

// putBlockGo stores the clipped transform blk.
func putBlockGo(d []uint8, stride int, blk *[64]int32) {
	for r := 0; r < 8; r++ {
		dr := d[r*stride : r*stride+8 : r*stride+8]
		src := blk[r*8 : r*8+8 : r*8+8]
		for c := 0; c < 8; c++ {
			dr[c] = clip255(int64(src[c]))
		}
	}
}

// addBlockGo adds the residual blk to the prediction in place.
func addBlockGo(d []uint8, stride int, blk *[64]int32) {
	for r := 0; r < 8; r++ {
		dr := d[r*stride : r*stride+8 : r*stride+8]
		res := blk[r*8 : r*8+8 : r*8+8]
		for c := 0; c < 8; c++ {
			dr[c] = clip255(int64(dr[c]) + int64(res[c]))
		}
	}
}

// addDCGo adds the constant residual v to the prediction in place.
func addDCGo(d []uint8, stride int, v int32) {
	for r := 0; r < 8; r++ {
		dr := d[r*stride : r*stride+8 : r*stride+8]
		for c := 0; c < 8; c++ {
			dr[c] = clip255(int64(dr[c]) + int64(v))
		}
	}
}

// blockOffsets maps block index 0..3 to the luma offset within a macroblock.
var blockOffsets = [4][2]int{{0, 0}, {8, 0}, {0, 8}, {8, 8}}

// Macroblock reconstructs mb into dst. fwd and bwd are the forward and
// backward reference windows (bwd may be nil outside B pictures); dst must
// not share sample planes with either. The macroblock position is derived
// from mb.Addr and mbWidth.
func (rc *Reconstructor) Macroblock(dst, fwd, bwd *PixelBuf, mb *Macroblock, mbWidth int) error {
	mbx := mb.Addr % mbWidth
	mby := mb.Addr / mbWidth
	if mb.Intra() {
		rc.intra(dst, mbx, mby, mb.Blocks, &mb.ACMask)
		return nil
	}
	return rc.inter(dst, fwd, bwd, mbx, mby, mb.Motion(), mb.CBP, mb.Blocks, &mb.ACMask)
}

// Skipped reconstructs one skipped macroblock at (mbx, mby). In P pictures a
// skipped macroblock is a zero-vector forward copy; in B pictures it repeats
// the previous macroblock's prediction (prev).
func (rc *Reconstructor) Skipped(dst, fwd, bwd *PixelBuf, mbx, mby int, prev MotionInfo) error {
	m := MotionInfo{Fwd: true}
	if rc.pic.PicType == PictureB {
		m = prev
		if !m.Fwd && !m.Bwd {
			return syntaxErrf("skipped B macroblock after intra at (%d,%d)", mbx, mby)
		}
	}
	return rc.inter(dst, fwd, bwd, mbx, mby, m, 0, nil, nil)
}

// blockPlane returns the destination of block i (0..3 luma, 4 Cb, 5 Cr) of
// the macroblock at luma position (x, y), sliced from its top-left sample,
// and the plane's row stride.
func blockPlane(dst *PixelBuf, x, y, i int) ([]uint8, int) {
	switch i {
	case 4:
		return dst.Cb[dst.chromaIndex(x/2, y/2):], dst.W / 2
	case 5:
		return dst.Cr[dst.chromaIndex(x/2, y/2):], dst.W / 2
	}
	return dst.Y[dst.lumaIndex(x+blockOffsets[i][0], y+blockOffsets[i][1]):], dst.W
}

func (rc *Reconstructor) intra(dst *PixelBuf, mbx, mby int, blocks *[6][64]int32, masks *[6]uint8) {
	for i := range blocks {
		blk := &blocks[i]
		IDCTFast(blk, masks[i])
		d, stride := blockPlane(dst, mbx*16, mby*16, i)
		putBlock(d, stride, blk)
	}
}

func (rc *Reconstructor) inter(dst, fwd, bwd *PixelBuf, mbx, mby int, m MotionInfo, cbp int, blocks *[6][64]int32, masks *[6]uint8) error {
	x, y := mbx*16, mby*16
	if !m.Fwd && !m.Bwd {
		return syntaxErrf("inter macroblock with no prediction at (%d,%d)", mbx, mby)
	}
	// Prediction goes straight into dst, so every reference window is
	// checked before the first write: a failing macroblock leaves dst
	// untouched.
	if m.Fwd {
		if err := checkPrediction(dst, fwd, x, y, m.MVFwd); err != nil {
			return err
		}
	}
	if m.Bwd {
		if err := checkPrediction(dst, bwd, x, y, m.MVBwd); err != nil {
			return err
		}
	}
	ci := dst.chromaIndex(x/2, y/2)
	dY, dCb, dCr := dst.Y[dst.lumaIndex(x, y):], dst.Cb[ci:], dst.Cr[ci:]
	cs := dst.W / 2
	switch {
	case m.Fwd && m.Bwd:
		predict(fwd, x, y, m.MVFwd, dY, dst.W, dCb, dCr, cs)
		predict(bwd, x, y, m.MVBwd, rc.bwdY[:], 16, rc.bwdCb[:], rc.bwdCr[:], 8)
		avgRows(dY, dst.W, rc.bwdY[:], 16, 16)
		avgRows(dCb, cs, rc.bwdCb[:], 8, 8)
		avgRows(dCr, cs, rc.bwdCr[:], 8, 8)
	case m.Fwd:
		predict(fwd, x, y, m.MVFwd, dY, dst.W, dCb, dCr, cs)
	default:
		predict(bwd, x, y, m.MVBwd, dY, dst.W, dCb, dCr, cs)
	}

	// Add the residual of each coded block to the prediction in place. A
	// DC-only block's transform is one constant, added without filling the
	// block.
	for i := 0; i < 6; i++ {
		if cbp&(1<<uint(5-i)) == 0 {
			continue
		}
		blk := &blocks[i]
		d, stride := blockPlane(dst, x, y, i)
		if masks[i] == 0 {
			if v := idctDC(blk[0]); v != 0 {
				addDC(d, stride, v)
			}
			continue
		}
		IDCTFast(blk, masks[i])
		addBlock(d, stride, blk)
	}
	return nil
}

// checkPrediction reports whether the macroblock at luma position (x, y)
// can be predicted from ref with vector mv (half-sample units) and written
// into dst: ref must exist, hold the whole interpolation window, and not
// share sample planes with dst, which the prediction is written into while
// ref is read.
func checkPrediction(dst, ref *PixelBuf, x, y int, mv [2]int32) error {
	if ref == nil {
		return syntaxErrf("missing reference picture")
	}
	sx := x + int(mv[0]>>1)
	sy := y + int(mv[1]>>1)
	if !ref.Contains(sx, sy, 16+int(mv[0]&1), 16+int(mv[1]&1)) {
		return fmt.Errorf("%w: motion vector (%d,%d) at (%d,%d) leaves reference window [%d,%d %dx%d]",
			errSyntax, mv[0], mv[1], x, y, ref.X0, ref.Y0, ref.W, ref.H)
	}
	if dst != nil && len(dst.Y) > 0 && &dst.Y[0] == &ref.Y[0] {
		return errors.New("mpeg2: reconstruction target aliases its reference picture")
	}
	return nil
}

// predictSource locates the samples the macroblock at luma position (x, y)
// predicts from in ref with vector mv (half-sample units): the luma index
// and half-sample phases (hx, hy), and the chroma index and phases (chx,
// chy) of both chroma planes.
func predictSource(ref *PixelBuf, x, y int, mv [2]int32) (yi, hx, hy, ci, chx, chy int) {
	yi = ref.lumaIndex(x+int(mv[0]>>1), y+int(mv[1]>>1))
	// Chroma: vectors are halved with truncation toward zero (§7.6.3.7).
	cmvx := mv[0] / 2
	cmvy := mv[1] / 2
	ci = ref.chromaIndex(x/2+int(cmvx>>1), y/2+int(cmvy>>1))
	return yi, int(mv[0] & 1), int(mv[1] & 1), ci, int(cmvx & 1), int(cmvy & 1)
}

// mv/2 truncation toward zero for negative values is what Go's integer
// division provides, matching the spec's "/" operator.
var _ = func() bool {
	if -3/2 != -1 {
		panic("integer division semantics changed")
	}
	return true
}()
