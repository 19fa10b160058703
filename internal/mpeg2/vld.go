package mpeg2

import (
	"fmt"

	"tiledwall/internal/bits"
)

// PictureContext bundles the per-picture parameters needed to parse slices.
// It is shared by the serial decoder, the second-level splitter and the tile
// decoders.
type PictureContext struct {
	Seq *SequenceHeader
	Pic *PictureHeader

	MBW, MBH int // picture size in macroblocks

	scan     *[64]int
	intraDCT *dctTable
}

// NewPictureContext validates pic against the supported subset and returns a
// context.
func NewPictureContext(seq *SequenceHeader, pic *PictureHeader) (*PictureContext, error) {
	ctx := new(PictureContext)
	if err := ctx.Init(seq, pic); err != nil {
		return nil, err
	}
	return ctx, nil
}

// Init (re)initialises the context in place for a new picture, so pooled
// decode paths can keep one PictureContext per goroutine across pictures.
func (c *PictureContext) Init(seq *SequenceHeader, pic *PictureHeader) error {
	if seq == nil || pic == nil {
		return syntaxErrf("nil sequence or picture header")
	}
	if pic.PictureStructure != 3 {
		return fmt.Errorf("%w: field pictures", errUnsupported)
	}
	// Headers reconstituted from wire messages (subpic.PicInfo) may carry
	// arbitrary bytes; validate everything the decode path indexes or shifts
	// with.
	if pic.PicType < PictureI || pic.PicType > PictureB {
		return syntaxErrf("picture coding type %d", int(pic.PicType))
	}
	if pic.IntraDCPrecision < 0 || pic.IntraDCPrecision > 3 {
		return syntaxErrf("intra_dc_precision %d", pic.IntraDCPrecision)
	}
	*c = PictureContext{
		Seq:  seq,
		Pic:  pic,
		MBW:  seq.MBWidth(),
		MBH:  seq.MBHeight(),
		scan: ScanOrder(pic.AlternateScan),
	}
	if pic.IntraVLCFormat {
		c.intraDCT = dctTableB15
	} else {
		c.intraDCT = dctTableB14
	}
	return nil
}

func (c *PictureContext) mbTypeTable() *vlcTable {
	switch c.Pic.PicType {
	case PictureI:
		return mbTypeITable
	case PictureP:
		return mbTypePTable
	default:
		return mbTypeBTable
	}
}

// SliceDecoder parses the macroblocks of one (possibly partial) slice.
//
// A full slice is created with NewSliceDecoder, positioned just after the
// 32-bit slice start code; it ends when the next start code is reached. A
// partial slice (a sub-picture piece) is created with NewPartialSliceDecoder
// seeded from SPH state; it ends after a known number of coded macroblocks.
type SliceDecoder struct {
	ctx *PictureContext
	r   *bits.Reader

	state      PredState
	prevMotion MotionInfo

	mbAddr int // address of the previous coded macroblock
	first  bool

	// Partial-slice mode.
	partial       bool
	remaining     int // coded macroblocks left
	firstAddr     int // address override for the first macroblock
	parseOnly     bool
	scratchBlocks [6][64]int32
}

// NewSliceDecoder starts a full slice. r must be positioned immediately
// after the slice start code; verticalPos is the 1-based macroblock row from
// the start code value (plus slice_vertical_position_extension when the
// picture is taller than 2800 lines, which the caller handles by passing the
// combined value).
func NewSliceDecoder(ctx *PictureContext, r *bits.Reader, verticalPos int) (*SliceDecoder, error) {
	d := new(SliceDecoder)
	if err := d.ResetFull(ctx, r, verticalPos); err != nil {
		return nil, err
	}
	return d, nil
}

// ResetFull re-arms the decoder for a full slice, reusing its scratch block
// storage. Semantics match NewSliceDecoder.
func (d *SliceDecoder) ResetFull(ctx *PictureContext, r *bits.Reader, verticalPos int) error {
	if verticalPos < 1 || verticalPos > ctx.MBH {
		return syntaxErrf("slice vertical position %d of %d", verticalPos, ctx.MBH)
	}
	d.reset(ctx, r)
	d.mbAddr = (verticalPos-1)*ctx.MBW - 1
	d.state.ResetDC(ctx.Pic.IntraDCPrecision)
	d.state.ResetMV()
	d.state.QuantCode = int(r.Read(5))
	if d.state.QuantCode == 0 {
		return syntaxErrf("quantiser_scale_code 0 in slice header")
	}
	// extra_bit_slice / extra_information_slice
	for r.ReadBit() == 1 {
		r.Read(8)
	}
	return streamErr(r.Err())
}

// reset clears everything but the scratch block storage (whose contents are
// never read before being written).
func (d *SliceDecoder) reset(ctx *PictureContext, r *bits.Reader) {
	d.ctx = ctx
	d.r = r
	d.state = PredState{}
	d.prevMotion = MotionInfo{}
	d.mbAddr = 0
	d.first = true
	d.partial = false
	d.remaining = 0
	d.firstAddr = 0
	d.parseOnly = false
}

// NewPartialSliceDecoder starts a partial slice seeded with predictor state
// (from an SPH). r must be positioned at the first macroblock's address
// increment. codedCount macroblocks will be parsed; the first one's address
// is forced to firstAddr regardless of its parsed increment. SetParseOnly
// switches the decoder to skimming coefficient blocks.
func NewPartialSliceDecoder(ctx *PictureContext, r *bits.Reader, st PredState, prev MotionInfo, firstAddr, codedCount int) *SliceDecoder {
	d := new(SliceDecoder)
	d.ResetPartial(ctx, r, st, prev, firstAddr, codedCount)
	return d
}

// ResetPartial re-arms the decoder for a partial slice, reusing its scratch
// block storage. Semantics match NewPartialSliceDecoder.
func (d *SliceDecoder) ResetPartial(ctx *PictureContext, r *bits.Reader, st PredState, prev MotionInfo, firstAddr, codedCount int) {
	d.reset(ctx, r)
	d.state = st
	d.prevMotion = prev
	d.partial = true
	d.remaining = codedCount
	d.firstAddr = firstAddr
}

// SetParseOnly switches the decoder to skimming: coefficient codes are
// stepped over, not decoded, stored or dequantised, and Macroblock.Blocks is
// nil and ACMask zero. Bit boundaries, prediction state, motion vectors and
// every syntax error are those of the full parse. Used by the splitter,
// which only needs bit boundaries and state snapshots.
func (d *SliceDecoder) SetParseOnly(v bool) { d.parseOnly = v }

// State returns the current prediction state (after the last parsed
// macroblock).
func (d *SliceDecoder) State() PredState { return d.state }

// PrevMotion returns the motion summary of the most recently parsed coded
// macroblock.
func (d *SliceDecoder) PrevMotion() MotionInfo { return d.prevMotion }

// atSliceEnd reports whether the reader has reached the end of the slice: a
// run of at least 23 zero bits marks the byte-stuffing before the next start
// code, and when fewer bits remain (the indexed picture unit excludes the
// following start code) the slice ends once only alignment zeros are left.
func (d *SliceDecoder) atSliceEnd() bool {
	rem := d.r.Remaining()
	if rem == 0 {
		return true
	}
	n := rem
	if n > 23 {
		n = 23
	}
	return d.r.Peek(n) == 0
}

// Next parses the next coded macroblock into mb. It returns false at the end
// of the slice (or when the partial slice's macroblock budget is exhausted).
func (d *SliceDecoder) Next(mb *Macroblock) (bool, error) {
	if d.partial {
		if d.remaining == 0 {
			return false, nil
		}
	} else if d.atSliceEnd() {
		return false, nil
	}

	r := d.r
	pic := d.ctx.Pic
	mb.BitStart = r.BitPos()

	// macroblock_address_increment with escapes.
	increment := 0
	for {
		v, ok := mbAddrIncTable.decode(r)
		if !ok {
			return false, syntaxErrf("bad macroblock_address_increment at bit %d", r.BitPos())
		}
		if v == mbAddrIncEscapeVal {
			increment += 33
			continue
		}
		increment += v
		break
	}

	if d.first && d.partial {
		// The parsed increment belongs to the original picture-wide
		// addressing; the SPH supplies this piece's first address.
		mb.Addr = d.firstAddr
		mb.SkippedBefore = 0
	} else {
		mb.Addr = d.mbAddr + increment
		mb.SkippedBefore = increment - 1
		if d.first {
			// Slice start: "skipped" macroblocks before the first coded one
			// do not exist; the increment only sets the column.
			mb.SkippedBefore = 0
		}
	}
	if mb.Addr < 0 || mb.Addr >= d.ctx.MBW*d.ctx.MBH {
		return false, syntaxErrf("macroblock address %d out of picture", mb.Addr)
	}

	// Skipped-run state resets (§7.6.6): DC predictors always reset; motion
	// predictors reset in P pictures.
	if mb.SkippedBefore > 0 {
		d.state.ResetDC(pic.IntraDCPrecision)
		if pic.PicType == PictureP {
			d.state.ResetMV()
		}
	}

	mb.StateBefore = d.state
	mb.PrevMotion = d.prevMotion

	// macroblock_modes.
	flags, ok := d.ctx.mbTypeTable().decode(r)
	if !ok {
		return false, syntaxErrf("bad macroblock_type at bit %d", r.BitPos())
	}
	mb.Flags = flags
	// frame_pred_frame_dct == 1 is enforced at header parse, so neither
	// frame_motion_type nor dct_type is present.

	if flags&MBQuant != 0 {
		q := int(r.Read(5))
		if q == 0 {
			return false, syntaxErrf("quantiser_scale_code 0 in macroblock")
		}
		d.state.QuantCode = q
	}
	mb.QuantCode = d.state.QuantCode

	// Motion vectors.
	if flags&MBMotionFwd != 0 {
		if err := d.motionVector(0, &mb.MVFwd); err != nil {
			return false, err
		}
	}
	if flags&MBMotionBwd != 0 {
		if err := d.motionVector(1, &mb.MVBwd); err != nil {
			return false, err
		}
	}
	if flags&MBIntra == 0 && flags&MBMotionFwd == 0 && pic.PicType == PictureP {
		// "No MC, coded": zero forward vector, predictors reset.
		d.state.ResetMV()
		mb.MVFwd = [2]int32{}
		mb.Flags |= MBMotionFwd
	}
	if flags&MBIntra != 0 {
		// Intra macroblocks reset the motion predictors (no concealment MVs
		// in the supported subset).
		d.state.ResetMV()
	} else {
		// Non-intra macroblocks reset the DC predictors.
		d.state.ResetDC(pic.IntraDCPrecision)
	}

	// Coded block pattern.
	switch {
	case flags&MBIntra != 0:
		mb.CBP = 63
	case flags&MBPattern != 0:
		cbp, ok := cbpTable.decode(r)
		if !ok {
			return false, syntaxErrf("bad coded_block_pattern at bit %d", r.BitPos())
		}
		if cbp == 0 {
			return false, syntaxErrf("coded_block_pattern 0 in 4:2:0")
		}
		mb.CBP = cbp
	default:
		mb.CBP = 0
	}

	// Blocks. The buffer is owned by the SliceDecoder and reused across
	// macroblocks: callers must consume mb.Blocks before the next call to
	// Next (both the serial decoder and the tile decoders reconstruct each
	// macroblock immediately). Parse-only mode skims the coefficients.
	if d.parseOnly {
		mb.Blocks = nil
		mb.ACMask = [6]uint8{}
		if err := d.skimBlocks(mb.CBP, flags&MBIntra != 0); err != nil {
			return false, err
		}
	} else {
		blocks := &d.scratchBlocks
		mb.Blocks = blocks
		for i := 0; i < 6; i++ {
			mb.ACMask[i] = 0
			if mb.CBP&(1<<uint(5-i)) == 0 {
				continue
			}
			blk := &blocks[i]
			*blk = [64]int32{}
			var mask uint8
			var err error
			if flags&MBIntra != 0 {
				mask, err = d.intraBlock(i, blk)
			} else {
				mask, err = d.nonIntraBlock(blk)
			}
			if err != nil {
				return false, err
			}
			mb.ACMask[i] = mask
		}
	}

	mb.BitEnd = r.BitPos()
	d.mbAddr = mb.Addr
	d.prevMotion = mb.Motion()
	d.first = false
	if d.partial {
		d.remaining--
	}
	return true, streamErr(r.Err())
}

// motionVector decodes the motion vector for direction s (0 fwd, 1 bwd)
// under frame prediction and reconstructs it against the predictors.
func (d *SliceDecoder) motionVector(s int, out *[2]int32) error {
	pic := d.ctx.Pic
	for t := 0; t < 2; t++ {
		fcode := pic.FCode[s][t]
		if fcode < 1 || fcode > 9 {
			return syntaxErrf("f_code[%d][%d]=%d out of range", s, t, fcode)
		}
		mag, ok := motionCodeTable.decode(d.r)
		if !ok {
			return syntaxErrf("bad motion_code at bit %d", d.r.BitPos())
		}
		var delta int32
		if mag != 0 {
			neg := d.r.ReadBit() == 1
			rSize := uint(fcode - 1)
			f := int32(1) << rSize
			residual := int32(0)
			if fcode > 1 {
				residual = int32(d.r.Read(int(rSize)))
			}
			delta = (int32(mag)-1)*f + residual + 1
			if neg {
				delta = -delta
			}
		}
		rSize := uint(fcode - 1)
		f := int32(1) << rSize
		high := 16*f - 1
		low := -16 * f
		rng := 32 * f
		v := d.state.PMV[0][s][t] + delta
		if v < low {
			v += rng
		} else if v > high {
			v -= rng
		}
		d.state.PMV[0][s][t] = v
		d.state.PMV[1][s][t] = v // frame prediction updates both
		out[t] = v
	}
	return nil
}

// intraDC decodes the DC differential of intra block i (0..3 luma, 4 Cb,
// 5 Cr) and returns the updated predictor, which is the block's DC term.
func (d *SliceDecoder) intraDC(i int) (int32, error) {
	r := d.r
	comp := 0
	table := dcSizeLumaTable
	if i >= 4 {
		comp = i - 3
		table = dcSizeChromaTable
	}
	size, ok := table.decode(r)
	if !ok {
		return 0, syntaxErrf("bad dct_dc_size at bit %d", r.BitPos())
	}
	var diff int32
	if size > 0 {
		v := int32(r.Read(size))
		if v < 1<<uint(size-1) {
			diff = v - (1 << uint(size)) + 1
		} else {
			diff = v
		}
	}
	d.state.DCPred[comp] += diff
	return d.state.DCPred[comp], nil
}

// dctCodeErr and dctRunErr are the coefficient syntax errors, shared by the
// full parse and the skim so both fail with the same error at the same bit.
func dctCodeErr(intra bool, r *bits.Reader) error {
	if intra {
		return syntaxErrf("bad intra DCT code at bit %d", r.BitPos())
	}
	return syntaxErrf("bad DCT code at bit %d", r.BitPos())
}

func dctRunErr(intra bool) error {
	if intra {
		return syntaxErrf("intra DCT run past block end")
	}
	return syntaxErrf("DCT run past block end")
}

// Inverse quantisation (§7.4) is fused into the coefficient parse: each
// coefficient is dequantised and saturated as it is stored, and the
// mismatch-control sum accumulates alongside, so no pass over all 64
// positions follows the parse. DequantIntra and DequantNonIntra are the
// reference arithmetic this reproduces (TestGoldenFusedDequant).

// intraBlock parses and dequantises intra block i (0..3 luma, 4 Cb, 5 Cr)
// into blk, which must be zero. The returned mask is the block's
// conservative AC occupancy (see ACMask).
func (d *SliceDecoder) intraBlock(i int, blk *[64]int32) (uint8, error) {
	r := d.r
	pic := d.ctx.Pic
	dc, err := d.intraDC(i)
	if err != nil {
		return 0, err
	}
	sum := dc << pic.DCShift()
	blk[0] = sum

	var mask uint8
	scan := d.ctx.scan
	w := &d.ctx.Seq.IntraQ
	qs2 := QuantiserScale(d.state.QuantCode, pic.QScaleType) * 2
	n := 1
	for {
		run, level, eob, ok := d.ctx.intraDCT.decode(r)
		if !ok {
			return 0, dctCodeErr(true, r)
		}
		if eob {
			break
		}
		n += run
		if n > 63 {
			return 0, dctRunErr(true)
		}
		p := scan[n]
		v := saturateCoeff(int32(level) * int32(w[p]) * qs2 / 32)
		blk[p] = v
		sum += v
		mask |= 1 << uint(p>>3) // n >= 1, so p != 0 (scan is a permutation)
		n++
	}
	return mismatch(blk, sum, mask), streamErr(r.Err())
}

// nonIntraBlock parses and dequantises a non-intra block into blk, which
// must be zero. The returned mask is the block's conservative AC occupancy
// (see ACMask).
func (d *SliceDecoder) nonIntraBlock(blk *[64]int32) (uint8, error) {
	r := d.r
	scan := d.ctx.scan
	w := &d.ctx.Seq.NonIntraQ
	qs := QuantiserScale(d.state.QuantCode, d.ctx.Pic.QScaleType)
	var mask uint8
	var sum int32
	n := 0
	tab := dctTableB14First
	for {
		run, level, eob, ok := tab.decode(r)
		tab = dctTableB14
		if !ok {
			return 0, dctCodeErr(false, r)
		}
		if eob {
			break
		}
		n += run
		if n > 63 {
			return 0, dctRunErr(false)
		}
		// Position 0 is the DC term, carried by blk[0] itself rather than the
		// AC mask (non-intra coefficient 0 lands there via scan[0]).
		p := scan[n]
		q := int32(level)
		// 2q+sign(q): level is never zero, and q>>31|1 is its sign.
		v := saturateCoeff((2*q + (q>>31 | 1)) * int32(w[p]) * qs / 32)
		blk[p] = v
		sum += v
		if p != 0 {
			mask |= 1 << uint(p>>3)
		}
		n++
	}
	return mismatch(blk, sum, mask), streamErr(r.Err())
}

// mismatch applies §7.4.4 mismatch control to a dequantised block whose
// coefficients sum to sum — toggling the LSB of coefficient 63 when the sum
// is even — and returns mask with bit 7 set when coefficient 63 is then
// nonzero.
func mismatch(blk *[64]int32, sum int32, mask uint8) uint8 {
	if sum&1 == 0 {
		blk[63] ^= 1
	}
	if blk[63] != 0 {
		mask |= 0x80
	}
	return mask
}

// skimBlocks advances past the coded blocks of a macroblock without
// materialising coefficients: intra DC differentials are still decoded (the
// DC predictors are SPH state), but AC codes are only stepped over until
// EOB, with no scan lookup, coefficient store or AC mask. It applies every
// syntax check of the full parse — invalid code, forbidden escape level, run
// past the block end, underflow — and fails with the same error at the same
// bit.
func (d *SliceDecoder) skimBlocks(cbp int, intra bool) error {
	r := d.r
	for i := 0; i < 6; i++ {
		if cbp&(1<<uint(5-i)) == 0 {
			continue
		}
		first, rest, n := dctTableB14First, dctTableB14, 0
		if intra {
			if _, err := d.intraDC(i); err != nil {
				return err
			}
			first, rest, n = d.ctx.intraDCT, d.ctx.intraDCT, 1
		}
		for tab := first; ; tab = rest {
			run, ok := tab.skip(r)
			if !ok {
				return dctCodeErr(intra, r)
			}
			if run == eobRun {
				break
			}
			n += run
			if n > 63 {
				return dctRunErr(intra)
			}
			n++
		}
		if err := streamErr(r.Err()); err != nil {
			return err
		}
	}
	return nil
}
