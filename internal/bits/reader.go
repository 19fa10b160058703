// Package bits provides MSB-first bit-level readers and writers and the
// MPEG-2 start-code scanning primitives shared by the decoder, the encoder
// and the splitters.
//
// MPEG-2 video is a bit-oriented format: macroblocks start and end at
// arbitrary bit positions, while the higher-level syntactic elements
// (sequence, GOP, picture, slice) begin with 32-bit byte-aligned start codes.
// Reader therefore tracks an exact bit position so callers can record the
// [start,end) bit range of a parsed macroblock — the second-level splitter
// copies those raw bits into sub-pictures.
package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrUnderflow is returned (via Reader.Err) when a read runs past the end of
// the buffer. Reads after underflow return zeros so parsing code can check
// the error once per syntactic element instead of on every field.
var ErrUnderflow = errors.New("bits: read past end of stream")

// ErrReadSize is returned (via Reader.Err) when a read is requested with a
// width outside [0, 32]. Widths are normally compile-time constants, but
// corrupt-input hardening must not rely on that: a reader fed a hostile size
// degrades to zeros plus a sticky error instead of shifting by a negative
// amount or walking the position backwards.
var ErrReadSize = errors.New("bits: read size out of range")

// Reader reads an in-memory buffer MSB first.
//
// The zero value is an empty reader; use NewReader. Reader is not safe for
// concurrent use.
type Reader struct {
	data []byte
	err  error

	// win caches the bits from the read position on, MSB first, with zeros
	// past the end of data. spare counts how many of them beyond the first
	// 32 lie inside data, so a Read or Skip of up to spare bits only shifts
	// the window. lim is the position after those spare bits: the read
	// position is lim - spare.
	win   uint64
	spare int
	lim   int
}

// NewReader returns a Reader over data. The Reader does not copy data.
func NewReader(data []byte) *Reader {
	r := &Reader{data: data}
	r.seek(0)
	return r
}

// seek moves to pos (0 <= pos <= Len) and reloads the window there.
func (r *Reader) seek(pos int) {
	byteIdx := pos >> 3
	var w uint64
	if byteIdx+8 <= len(r.data) {
		w = binary.BigEndian.Uint64(r.data[byteIdx:])
	} else {
		for i := 0; i < 8; i++ {
			w <<= 8
			if byteIdx+i < len(r.data) {
				w |= uint64(r.data[byteIdx+i])
			}
		}
	}
	off := pos & 7
	r.win = w << uint(off)
	r.spare = max(0, min(64-off, len(r.data)*8-pos)-32)
	r.lim = pos + r.spare
}

// Reset re-points the reader at data and clears position and error state.
func (r *Reader) Reset(data []byte) {
	r.data = data
	r.err = nil
	r.seek(0)
}

// Err reports the first underflow encountered, if any.
func (r *Reader) Err() error { return r.err }

// BitPos returns the absolute bit position from the start of the buffer.
func (r *Reader) BitPos() int { return r.lim - r.spare }

// SeekBit moves the read position to the absolute bit offset pos.
func (r *Reader) SeekBit(pos int) {
	if pos < 0 || pos > len(r.data)*8 {
		r.err = ErrUnderflow
		return
	}
	r.seek(pos)
}

// Len returns the total length of the underlying buffer in bits.
func (r *Reader) Len() int { return len(r.data) * 8 }

// Remaining returns the number of unread bits.
func (r *Reader) Remaining() int { return len(r.data)*8 - r.BitPos() }

// Byte-aligned reports whether the read position is on a byte boundary.
func (r *Reader) ByteAligned() bool { return r.BitPos()&7 == 0 }

// Peek returns the next n bits (0 <= n <= 32) without advancing. Bits past
// the end of the buffer read as zero; Err is not set by Peek so that VLC
// lookahead near the end of a buffer does not poison the reader.
func (r *Reader) Peek(n int) uint32 {
	if uint(n-1) < 32 {
		return uint32(r.win >> (64 - uint(n)))
	}
	return 0
}

// Read returns the next n bits (0 <= n <= 32) and advances. On underflow it
// sets Err and returns zeros for the missing bits.
func (r *Reader) Read(n int) uint32 {
	if uint(n-1) < uint(r.spare) {
		v := uint32(r.win >> (64 - uint(n)))
		r.win <<= uint(n)
		r.spare -= n
		return v
	}
	if n < 0 || n > 32 {
		if r.err == nil {
			r.err = ErrReadSize
		}
		return 0
	}
	v := r.Peek(n)
	r.skipSlow(n)
	return v
}

// ReadBit reads a single bit.
func (r *Reader) ReadBit() uint32 { return r.Read(1) }

// Skip advances the position by n bits. Negative n is rejected with
// ErrReadSize; the position never moves backwards except through SeekBit.
func (r *Reader) Skip(n int) {
	if uint(n) <= uint(r.spare) {
		r.win <<= uint(n)
		r.spare -= n
		return
	}
	r.skipSlow(n)
}

// skipSlow advances past the window's spare bits, clamping at the end of
// the buffer. It stays out of line so that Skip's fast path is inlined.
//
//go:noinline
func (r *Reader) skipSlow(n int) {
	if n < 0 {
		if r.err == nil {
			r.err = ErrReadSize
		}
		return
	}
	pos := r.BitPos() + n
	if pos > len(r.data)*8 {
		pos = len(r.data) * 8
		if r.err == nil {
			r.err = ErrUnderflow
		}
	}
	r.seek(pos)
}

// AlignByte advances to the next byte boundary (no-op when already aligned).
func (r *Reader) AlignByte() {
	if rem := r.BitPos() & 7; rem != 0 {
		r.Skip(8 - rem)
	}
}

// String describes the reader state for debugging.
func (r *Reader) String() string {
	return fmt.Sprintf("bits.Reader{pos=%d/%d err=%v}", r.BitPos(), len(r.data)*8, r.err)
}
