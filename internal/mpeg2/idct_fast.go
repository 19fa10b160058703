package mpeg2

// Fast inverse-DCT paths selected by the nonzero-coefficient row mask the
// VLD accumulates while parsing a block (Macroblock.ACMask). After coarse
// quantisation most blocks are far from dense: DC-only blocks dominate flat
// regions and low-frequency blocks (all energy in the top rows) dominate
// everything else, so the generic two-pass butterfly wastes most of its
// multiplies on provably-zero terms.
//
// Every path here is BIT-EXACT with the generic IDCT: the specialised
// butterflies are the generic ones with multiplications by structurally-zero
// inputs folded away, never a re-derivation with different rounding. The
// golden-kernel suite (golden_idct_test.go) enforces equality — not
// closeness — over exhaustive coefficient classes, and the conformance
// oracle enforces it end to end against the serial reference decode.

// ACMask semantics: bit r (0..7) is set when any coefficient at raster
// positions 8r..8r+7, excluding position 0 (the DC term), may be nonzero.
// The mask is conservative — bits may be overset (claiming a zero row is
// occupied costs only speed), but a bit must never be clear while its row
// holds a nonzero AC coefficient.

// idctFastGo is the pure-Go IDCTFast: the portable path (kernels_other.go)
// and, on amd64 hosts without AVX2, the fallback for every non-DC-only
// mask. acMask == 0 means positions 1..63 are all zero; acMask with bits
// 4..6 clear means rows 4..6 are zero.
func idctFastGo(block *[64]int32, acMask uint8) {
	switch {
	case acMask == 0:
		idctDCOnly(block)
	case acMask&0x70 == 0:
		idctTopRows(block, acMask)
	default:
		IDCT(block)
	}
}

// idctDCOnly handles blocks whose only (possibly) nonzero coefficient is the
// DC term. The generic path's row shortcut turns row 0 into the constant
// dc<<3 and rows 1..7 into zeros; every column then trips the column DC
// shortcut, producing ((dc<<3)+32)>>6 at all 64 positions. Computing that
// constant directly is bit-exact by construction.
func idctDCOnly(b *[64]int32) {
	dc := b[0]
	if dc == 0 {
		// Positions 1..63 are zero by the ACMask contract and b[0] is zero:
		// the block already holds its transform.
		return
	}
	v := idctDC(dc)
	for i := range b {
		b[i] = v
	}
}

// idctDC is the value the transform of a DC-only block holds at all 64
// positions.
func idctDC(dc int32) int32 {
	return (dc<<3 + 32) >> 6
}

// idctTopRows handles blocks whose nonzero coefficients all lie in rows
// 0..3 and row 7. Row 7 belongs to the class because §7.4.4 mismatch
// control toggles coefficient 63 in about half of all coded blocks, so a
// low-frequency block very often carries that one high-frequency term. The
// row pass transforms row 0 and the other rows acMask marks (a zero row
// transforms to zeros), and the column pass runs a butterfly with the
// row-4/5/6 taps folded out.
func idctTopRows(b *[64]int32, acMask uint8) {
	idctRow(b[0:8])
	for i := 1; i < 4; i++ {
		if acMask&(1<<uint(i)) != 0 {
			idctRow(b[8*i : 8*i+8])
		}
	}
	if acMask&0x80 != 0 {
		idctRow(b[56:64])
	}
	for i := 0; i < 8; i++ {
		idctColTop(b[i:])
	}
}

// idctColTop is idctCol specialised for columns whose rows 4..6 are zero:
// the generic taps x1 (row 4), x2 (row 6) and x6 (row 5) are structurally
// zero, so every multiplication involving them is folded away. The
// surviving operations are identical to the generic column butterfly,
// keeping the output bit-exact.
func idctColTop(b []int32) {
	x3 := b[8*2]
	x4 := b[8*1]
	x5 := b[8*7]
	x7 := b[8*3]
	if x3|x4|x5|x7 == 0 {
		v := (b[0] + 32) >> 6
		for i := 0; i < 8; i++ {
			b[8*i] = v
		}
		return
	}
	x0 := (b[0] << 8) + 8192

	x8 := idctW7*(x4+x5) + 4
	x4 = (x8 + (idctW1-idctW7)*x4) >> 3
	x5 = (x8 - (idctW1+idctW7)*x5) >> 3
	x8 = idctW3*x7 + 4
	x6 := x8 >> 3
	x7 = (x8 - (idctW3+idctW5)*x7) >> 3

	x8 = x0
	x1 := idctW6*x3 + 4
	x2 := x1 >> 3
	x3 = (x1 + (idctW2-idctW6)*x3) >> 3
	x1 = x4 + x6
	x4 -= x6
	x6 = x5 + x7
	x5 -= x7

	x7 = x8 + x3
	x8 -= x3
	x3 = x0 + x2
	x0 -= x2
	x2 = (181*(x4+x5) + 128) >> 8
	x4 = (181*(x4-x5) + 128) >> 8

	b[8*0] = (x7 + x1) >> 14
	b[8*1] = (x3 + x2) >> 14
	b[8*2] = (x0 + x4) >> 14
	b[8*3] = (x8 + x6) >> 14
	b[8*4] = (x8 - x6) >> 14
	b[8*5] = (x0 - x4) >> 14
	b[8*6] = (x3 - x2) >> 14
	b[8*7] = (x7 - x1) >> 14
}

// ACMaskOf computes the exact AC occupancy mask of a block by inspection:
// bit r set iff some coefficient at raster positions 8r..8r+7 (excluding
// position 0) is nonzero. The VLD tracks masks incrementally while parsing;
// this is the reference for tests and for callers holding blocks of unknown
// provenance (concealment, band decoding).
func ACMaskOf(b *[64]int32) uint8 {
	var m uint8
	if b[1]|b[2]|b[3]|b[4]|b[5]|b[6]|b[7] != 0 {
		m |= 1
	}
	for r := 1; r < 8; r++ {
		p := b[8*r : 8*r+8]
		if p[0]|p[1]|p[2]|p[3]|p[4]|p[5]|p[6]|p[7] != 0 {
			m |= 1 << uint(r)
		}
	}
	return m
}
