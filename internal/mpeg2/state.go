package mpeg2

// PredState is the within-slice prediction state of the macroblock decoder:
// DC coefficient predictors, motion vector predictors and the current
// quantiser scale code. The second-level splitter snapshots this state at a
// macroblock boundary and ships it in a State Propagation Header so that a
// decoder can pick up decoding in the middle of a slice (paper §4.3).
type PredState struct {
	// DCPred holds the intra DC predictors for Y, Cb, Cr.
	DCPred [3]int32
	// PMV[r][s][t]: motion vector predictors; r = first/second vector
	// (always updated in tandem under frame prediction), s = forward/
	// backward, t = horizontal/vertical. Units are half-samples.
	PMV [2][2][2]int32
	// QuantCode is the current quantiser_scale_code (1..31).
	QuantCode int
}

// ResetDC resets the DC predictors for the given intra_dc_precision.
func (s *PredState) ResetDC(intraDCPrecision int) {
	v := int32(1) << uint(7+intraDCPrecision)
	s.DCPred[0], s.DCPred[1], s.DCPred[2] = v, v, v
}

// ResetMV zeroes all motion vector predictors.
func (s *PredState) ResetMV() {
	s.PMV = [2][2][2]int32{}
}

// MotionInfo summarises the prediction of a macroblock: which directions are
// used and the reconstructed vectors (half-sample units). It is what a
// skipped B macroblock inherits from its predecessor, so the splitter ships
// it in the SPH when the predecessor lives on a different decoder.
type MotionInfo struct {
	Fwd, Bwd bool
	MVFwd    [2]int32
	MVBwd    [2]int32
}

// Macroblock is the result of parsing one coded macroblock.
type Macroblock struct {
	// Addr is the macroblock address (row * mbWidth + col).
	Addr int
	// SkippedBefore counts skipped macroblocks between the previous coded
	// macroblock and this one.
	SkippedBefore int
	// Flags holds the MB* macroblock_type flags.
	Flags int
	// QuantCode is the quantiser_scale_code in effect for this macroblock.
	QuantCode int
	// CBP is the coded block pattern (bit 5 = block 0 ... bit 0 = block 5);
	// for intra macroblocks it is 63.
	CBP int
	// MVFwd/MVBwd are reconstructed motion vectors in half-sample units.
	MVFwd, MVBwd [2]int32
	// BitStart/BitEnd delimit the macroblock in the source bitstream,
	// including its address increment (and any escapes). Used by the
	// splitter's bit-exact sub-picture copy.
	BitStart, BitEnd int
	// StateBefore is the prediction state immediately before this
	// macroblock was parsed (after any skipped-run resets). It is exactly
	// what an SPH needs for a piece beginning at this macroblock.
	StateBefore PredState
	// PrevMotion is the motion summary of the previous coded macroblock,
	// used to reconstruct skipped B macroblocks at a piece boundary.
	PrevMotion MotionInfo
	// Blocks holds dequantised coefficients in raster order (the VLD
	// dequantises as it parses); nil when the parser runs in parse-only
	// (splitter) mode.
	Blocks *[6][64]int32
	// ACMask holds, per block, the conservative nonzero-row mask driving the
	// fast IDCT dispatch (see IDCTFast): bit r set when a coefficient at
	// raster positions 8r..8r+7 — excluding the DC term at position 0 — may
	// be nonzero. Bit 7 is usually set by §7.4.4 mismatch control, which
	// toggles coefficient 63 in about half of all coded blocks, not by a
	// coded coefficient; IDCTFast gives such blocks a case of their own. All
	// zero in parse-only mode.
	ACMask [6]uint8
}

// Intra reports whether the macroblock is intra coded.
func (m *Macroblock) Intra() bool { return m.Flags&MBIntra != 0 }

// Motion returns the macroblock's motion summary.
func (m *Macroblock) Motion() MotionInfo {
	return MotionInfo{
		Fwd:   m.Flags&MBMotionFwd != 0,
		Bwd:   m.Flags&MBMotionBwd != 0,
		MVFwd: m.MVFwd,
		MVBwd: m.MVBwd,
	}
}
