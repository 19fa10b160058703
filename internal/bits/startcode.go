package bits

// MPEG-2 start code values (the byte following the 00 00 01 prefix).
const (
	PictureStartCode  = 0x00
	UserDataStartCode = 0xB2
	SequenceHeaderCod = 0xB3
	SequenceErrorCode = 0xB4
	ExtensionStartCod = 0xB5
	SequenceEndCode   = 0xB7
	GroupStartCode    = 0xB8
	// Slice start codes are 0x01..0xAF; the value is the low 8 bits of the
	// 1-based macroblock row (slice_vertical_position).
	SliceStartCodeMin = 0x01
	SliceStartCodeMax = 0xAF
)

// IsSliceStartCode reports whether code identifies a slice.
func IsSliceStartCode(code byte) bool {
	return code >= SliceStartCodeMin && code <= SliceStartCodeMax
}

// NextStartCode returns the byte offset of the first 00 00 01 prefix at or
// after from, or -1 when none remains. The offset points at the first zero
// byte of the prefix; the start-code value is data[off+3].
func NextStartCode(data []byte, from int) int {
	if from < 0 {
		from = 0
	}
	for i := from; i+3 < len(data); i++ {
		if data[i] == 0 {
			if data[i+1] == 0 && data[i+2] == 1 {
				return i
			}
		} else {
			// Skip ahead: a prefix cannot start on a non-zero byte, and the
			// next candidate cannot start before i+1.
			continue
		}
	}
	return -1
}

// StartCodeAt reports whether a 00 00 01 prefix begins at off, and if so the
// code value that follows it.
func StartCodeAt(data []byte, off int) (code byte, ok bool) {
	if off < 0 || off+3 >= len(data) {
		return 0, false
	}
	if data[off] == 0 && data[off+1] == 0 && data[off+2] == 1 {
		return data[off+3], true
	}
	return 0, false
}

// ScanStartCodes returns the offsets and code values of every start code in
// data, in order. It is used by tests and by the stream inspector; the
// decoding pipeline scans incrementally with NextStartCode.
func ScanStartCodes(data []byte) (offs []int, codes []byte) {
	for off := NextStartCode(data, 0); off >= 0; off = NextStartCode(data, off+3) {
		offs = append(offs, off)
		codes = append(codes, data[off+3])
	}
	return offs, codes
}

// NextStartCodeReader aligns r to the next byte boundary and advances it to
// the next start-code prefix, leaving the position ON the prefix (the caller
// reads 32 bits to consume it). It returns false when no start code remains.
func NextStartCodeReader(r *Reader) bool {
	r.AlignByte()
	off := NextStartCode(r.data, r.BitPos()>>3)
	if off < 0 {
		r.seek(len(r.data) * 8)
		return false
	}
	r.seek(off * 8)
	return true
}
