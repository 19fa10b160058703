package bits_test

import (
	"math/rand"
	"testing"

	"tiledwall/internal/bits"
)

// refReader is the plain reader the cached-window Reader must behave like:
// every Peek assembles its bits straight from the buffer.
type refReader struct {
	data     []byte
	pos      int
	underrun bool
	badSize  bool
}

func (r *refReader) peek(n int) uint32 {
	if n <= 0 || n > 32 {
		return 0
	}
	var v uint32
	for i := 0; i < n; i++ {
		p := r.pos + i
		v <<= 1
		if p>>3 < len(r.data) {
			v |= uint32(r.data[p>>3]>>(7-uint(p&7))) & 1
		}
	}
	return v
}

func (r *refReader) skip(n int) {
	if n < 0 {
		r.badSize = r.badSize || !r.underrun
		return
	}
	r.pos += n
	if r.pos > len(r.data)*8 {
		r.pos = len(r.data) * 8
		r.underrun = r.underrun || !r.badSize
	}
}

func (r *refReader) read(n int) uint32 {
	if n < 0 || n > 32 {
		r.badSize = r.badSize || !r.underrun
		return 0
	}
	v := r.peek(n)
	r.skip(n)
	return v
}

func (r *refReader) seek(pos int) {
	if pos < 0 || pos > len(r.data)*8 {
		// SeekBit overwrites any earlier error.
		r.underrun, r.badSize = true, false
		return
	}
	r.pos = pos
}

func (r *refReader) err() error {
	switch {
	case r.underrun:
		return bits.ErrUnderflow
	case r.badSize:
		return bits.ErrReadSize
	}
	return nil
}

// runReaderOps applies one op-coded program to a Reader and to the reference
// and fails on the first difference in a returned value, position or error.
func runReaderOps(t *testing.T, data, ops []byte) {
	r := bits.NewReader(data)
	ref := &refReader{data: data}
	for i, op := range ops {
		var got, want uint32
		switch op % 6 {
		case 0:
			n := int(op>>3)%40 - 2
			got, want = r.Read(n), ref.read(n)
		case 1:
			n := int(op>>3) % 40
			got, want = r.Peek(n), ref.peek(n)
		case 2:
			n := int(op>>3)%70 - 4
			r.Skip(n)
			ref.skip(n)
		case 3:
			r.AlignByte()
			if rem := ref.pos & 7; rem != 0 {
				ref.skip(8 - rem)
			}
		case 4:
			got, want = r.ReadBit(), ref.read(1)
		case 5:
			pos := int(op>>3) * len(data) * 8 / 32
			r.SeekBit(pos)
			ref.seek(pos)
		}
		if got != want || r.BitPos() != ref.pos || r.Err() != ref.err() {
			t.Fatalf("op %d (%#x): got %#x at bit %d err %v, reference %#x at bit %d err %v",
				i, op, got, r.BitPos(), r.Err(), want, ref.pos, ref.err())
		}
	}
}

// TestReaderMatchesReference runs random programs of every Reader operation
// over random buffers, short ones included, against the reference reader.
func TestReaderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 2000; iter++ {
		data := make([]byte, rng.Intn(24))
		rng.Read(data)
		ops := make([]byte, 1+rng.Intn(64))
		rng.Read(ops)
		runReaderOps(t, data, ops)
	}
}
