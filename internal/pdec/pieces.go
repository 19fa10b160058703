package pdec

import (
	"fmt"

	"tiledwall/internal/bits"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/subpic"
)

// PieceDecoder decodes the partial slices of sub-pictures into a tile
// window. Its reconstructor, slice decoder and bit reader are reset in place
// for every piece, so steady-state decoding allocates nothing per
// macroblock. The zero value is ready to use; the tile decoder and the
// offline calibration decoder both run their pictures through one.
type PieceDecoder struct {
	// Tile names the decoder in errors.
	Tile int

	rc mpeg2.Reconstructor
	sd mpeg2.SliceDecoder
	br bits.Reader
}

// Decode decodes every partial slice of sp into cur, predicting from fwd
// and bwd as the picture type requires.
func (pd *PieceDecoder) Decode(ctx *mpeg2.PictureContext, sp *subpic.SubPicture, cur, fwd, bwd *mpeg2.PixelBuf) error {
	rc := &pd.rc
	rc.Reset(ctx.Pic)

	// Reconstruction writes into the window unchecked (the splitter only
	// routes owned macroblocks here), so a malformed SPH must be rejected
	// before its addresses index the tile buffer.
	inWindow := func(addr int) bool {
		if addr < 0 || addr >= ctx.MBW*ctx.MBH {
			return false
		}
		return cur.Contains(addr%ctx.MBW*16, addr/ctx.MBW*16, 16, 16)
	}
	skipped := func(addr int, prev mpeg2.MotionInfo) error {
		if !inWindow(addr) {
			return fmt.Errorf("tile %d: skipped macroblock %d outside tile window (corrupt SPH)", pd.Tile, addr)
		}
		return rc.Skipped(cur, fwd, bwd, addr%ctx.MBW, addr/ctx.MBW, prev)
	}

	for pi := range sp.Pieces {
		p := &sp.Pieces[pi]
		if p.FirstAddr < 0 || int(p.LeadingSkip) > int(p.FirstAddr) || p.CodedCount < 0 {
			return fmt.Errorf("tile %d pic %d piece %d: malformed SPH (first %d, lead %d, coded %d)",
				pd.Tile, sp.Pic.Index, pi, p.FirstAddr, p.LeadingSkip, p.CodedCount)
		}
		// Leading skipped macroblocks inherit the SPH's previous-macroblock
		// motion (the predecessor may live on another tile).
		for k := int(p.LeadingSkip); k > 0; k-- {
			if err := skipped(int(p.FirstAddr)-k, p.Prev); err != nil {
				return fmt.Errorf("tile %d pic %d: leading skip: %w", pd.Tile, sp.Pic.Index, err)
			}
		}
		if p.CodedCount == 0 {
			continue
		}
		r := &pd.br
		r.Reset(p.Payload)
		r.Skip(int(p.SkipBits))
		sd := &pd.sd
		sd.ResetPartial(ctx, r, p.State(), p.Prev, int(p.FirstAddr), int(p.CodedCount))
		var mb mpeg2.Macroblock
		lastAddr := int(p.FirstAddr)
		for {
			ok, err := sd.Next(&mb)
			if err != nil {
				return fmt.Errorf("tile %d pic %d piece %d: %w", pd.Tile, sp.Pic.Index, pi, err)
			}
			if !ok {
				break
			}
			for k := mb.Addr - mb.SkippedBefore; k < mb.Addr; k++ {
				if err := skipped(k, mb.PrevMotion); err != nil {
					return fmt.Errorf("tile %d pic %d: interior skip: %w", pd.Tile, sp.Pic.Index, err)
				}
			}
			if !inWindow(mb.Addr) {
				return fmt.Errorf("tile %d pic %d: macroblock %d outside tile window (corrupt SPH)",
					pd.Tile, sp.Pic.Index, mb.Addr)
			}
			if err := rc.Macroblock(cur, fwd, bwd, &mb, ctx.MBW); err != nil {
				return fmt.Errorf("tile %d pic %d addr %d: %w", pd.Tile, sp.Pic.Index, mb.Addr, err)
			}
			lastAddr = mb.Addr
		}
		// Trailing skipped macroblocks inherit the last coded macroblock's
		// motion, which this decoder just parsed.
		for k := 1; k <= int(p.TrailingSkip); k++ {
			if err := skipped(lastAddr+k, sd.PrevMotion()); err != nil {
				return fmt.Errorf("tile %d pic %d: trailing skip: %w", pd.Tile, sp.Pic.Index, err)
			}
		}
	}
	return nil
}
