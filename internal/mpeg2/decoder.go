package mpeg2

import (
	"errors"
	"fmt"
	"io"

	"tiledwall/internal/bits"
)

// Stream is an indexed MPEG-2 video elementary stream: the sequence header
// plus the byte range of every picture unit in decode order. Picture units
// are zero-copy sub-slices of the input running from the picture start code
// up to (not including) the next picture, GOP, sequence header or sequence
// end code.
type Stream struct {
	Seq      *SequenceHeader
	Pictures [][]byte
	Data     []byte
}

// maxPictureMBs bounds the macroblock count ParseStream accepts: 1<<20
// macroblocks is a 16384x16384 picture, comfortably above every catalogue
// stream but small enough that a fuzzed header cannot demand pathological
// allocations.
const maxPictureMBs = 1 << 20

// ParseSequenceHeaderBytes parses the sequence header (and optional sequence
// extension) at the head of data, enforcing the decoder's picture-size bound.
// data may be a full stream or just its header prefix — everything before the
// first picture start code — which is what a resident wall's session-open
// message carries to the long-lived splitter and decoder nodes.
func ParseSequenceHeaderBytes(data []byte) (*SequenceHeader, error) {
	off := bits.NextStartCode(data, 0)
	if off < 0 {
		return nil, syntaxErrf("no start code in stream")
	}
	code, _ := bits.StartCodeAt(data, off)
	if code != bits.SequenceHeaderCod {
		return nil, syntaxErrf("stream does not begin with a sequence header (code %#x)", code)
	}
	r := bits.NewReader(data)
	r.SeekBit((off + 4) * 8)
	seq, err := ParseSequenceHeader(r)
	if err != nil {
		return nil, err
	}
	// Optional sequence extension.
	if bits.NextStartCodeReader(r) {
		if pos := r.BitPos() / 8; data[pos+3] == bits.ExtensionStartCod {
			r.Skip(32)
			if err := ParseSequenceExtension(r, seq); err != nil {
				return nil, err
			}
		}
	}
	// Bound the picture size before anyone allocates frame buffers from it: a
	// corrupt 12+2-bit dimension field can describe a picture three orders of
	// magnitude larger than the ultra-high-resolution streams this system
	// targets (3840x2800 is ~42k macroblocks).
	if mbs := seq.MBWidth() * seq.MBHeight(); mbs > maxPictureMBs {
		return nil, syntaxErrf("picture size %dx%d (%d macroblocks) exceeds decoder bound", seq.Width, seq.Height, mbs)
	}
	return seq, nil
}

// ParseStream indexes a stream. It parses the leading sequence header (and
// extension) and records picture unit boundaries without parsing picture
// contents.
func ParseStream(data []byte) (*Stream, error) {
	s := &Stream{Data: data}
	seq, err := ParseSequenceHeaderBytes(data)
	if err != nil {
		return nil, err
	}
	off := bits.NextStartCode(data, 0)
	s.Seq = seq

	picStart := -1
	flush := func(end int) {
		if picStart >= 0 {
			s.Pictures = append(s.Pictures, data[picStart:end])
			picStart = -1
		}
	}
	for o := bits.NextStartCode(data, off+4); o >= 0; o = bits.NextStartCode(data, o+4) {
		c := data[o+3]
		switch {
		case c == bits.PictureStartCode:
			flush(o)
			picStart = o
		case c == bits.GroupStartCode, c == bits.SequenceHeaderCod, c == bits.SequenceEndCode:
			flush(o)
		}
	}
	flush(len(data))
	if len(s.Pictures) == 0 {
		return nil, syntaxErrf("stream contains no pictures")
	}
	return s, nil
}

// ParsePictureUnit parses the picture header and coding extension at the
// start of a picture unit and returns the header plus the bit offset of the
// first slice start code within unit.
func ParsePictureUnit(unit []byte) (*PictureHeader, int, error) {
	return parsePictureUnitReader(bits.NewReader(unit), unit)
}

func parsePictureUnitReader(r *bits.Reader, unit []byte) (*PictureHeader, int, error) {
	ph := &PictureHeader{}
	sliceOff, err := ParsePictureUnitInto(r, unit, ph)
	if err != nil {
		return nil, 0, err
	}
	return ph, sliceOff, nil
}

// ParsePictureUnitInto is ParsePictureUnit into caller-owned storage: ph is
// overwritten in full and r (positioned at the start of unit) supplies the
// scratch reader. It returns the bit offset of the first slice start code.
// The pooled splitter path keeps one header and reader across pictures.
func ParsePictureUnitInto(r *bits.Reader, unit []byte, ph *PictureHeader) (int, error) {
	if code := r.Read(32); code != 0x00000100 {
		return 0, syntaxErrf("picture unit does not start with picture start code (%08x)", code)
	}
	if err := ParsePictureHeaderInto(r, ph); err != nil {
		return 0, err
	}
	// Extensions and user data until the first slice.
	for bits.NextStartCodeReader(r) {
		pos := r.BitPos() / 8
		code := unit[pos+3]
		if bits.IsSliceStartCode(code) {
			return r.BitPos(), nil
		}
		r.Skip(32)
		switch code {
		case bits.ExtensionStartCod:
			if id := int(r.Peek(4)); id == extPictureCoding {
				if err := ParsePictureCodingExtension(r, ph); err != nil {
					return 0, err
				}
			}
		case bits.UserDataStartCode:
			// Skipped; the scan loop advances to the next start code.
		}
	}
	return 0, syntaxErrf("picture unit has no slices")
}

// DecodePictureUnit decodes one picture unit into dst using the given
// reference windows (fwd for P, fwd+bwd for B; both ignored for I). dst must
// cover the full coded picture.
func DecodePictureUnit(seq *SequenceHeader, unit []byte, fwd, bwd, dst *PixelBuf) (*PictureHeader, error) {
	return new(DecodeScratch).DecodePictureUnit(seq, unit, fwd, bwd, dst)
}

// DecodeScratch holds the reusable per-goroutine state of picture decoding:
// the picture context, the reconstructor with its prediction buffers, the
// slice decoder with its coefficient scratch, and the bit reader. One
// DecodeScratch per decoding goroutine turns everything but the returned
// PictureHeader (which outlives the call in reference rotation and display
// reordering) into zero-allocation steady state.
type DecodeScratch struct {
	ctx PictureContext
	rc  Reconstructor
	sd  SliceDecoder
	r   bits.Reader
	mb  Macroblock
}

// DecodePictureUnit is the pooled form of the package-level function,
// drawing all per-picture state from the scratch.
func (sc *DecodeScratch) DecodePictureUnit(seq *SequenceHeader, unit []byte, fwd, bwd, dst *PixelBuf) (*PictureHeader, error) {
	sc.r.Reset(unit)
	ph, sliceOff, err := parsePictureUnitReader(&sc.r, unit)
	if err != nil {
		return nil, err
	}
	if err := sc.ctx.Init(seq, ph); err != nil {
		return nil, err
	}
	sc.rc.Reset(ph)
	sc.r.SeekBit(sliceOff)
	for bits.NextStartCodeReader(&sc.r) {
		pos := sc.r.BitPos() / 8
		code := unit[pos+3]
		if !bits.IsSliceStartCode(code) {
			break
		}
		sc.r.Skip(32)
		vpos := int(code)
		if seq.Height > 2800 {
			vpos = int(sc.r.Read(3))<<7 + vpos
		}
		if err := sc.decodeSlice(vpos, fwd, bwd, dst); err != nil {
			return nil, fmt.Errorf("picture tref %d (%s) slice row %d: %w", ph.TemporalRef, ph.PicType, vpos, err)
		}
	}
	return ph, nil
}

// decodeSlice is the unpooled slice loop used by the band and concealment
// decoders, which manage their own contexts and readers.
func decodeSlice(ctx *PictureContext, rc *Reconstructor, r *bits.Reader, vpos int, fwd, bwd, dst *PixelBuf) error {
	sd, err := NewSliceDecoder(ctx, r, vpos)
	if err != nil {
		return err
	}
	var mb Macroblock
	for {
		ok, err := sd.Next(&mb)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for k := mb.Addr - mb.SkippedBefore; k < mb.Addr; k++ {
			if err := rc.Skipped(dst, fwd, bwd, k%ctx.MBW, k/ctx.MBW, mb.PrevMotion); err != nil {
				return err
			}
		}
		if err := rc.Macroblock(dst, fwd, bwd, &mb, ctx.MBW); err != nil {
			return err
		}
	}
}

func (sc *DecodeScratch) decodeSlice(vpos int, fwd, bwd, dst *PixelBuf) error {
	if err := sc.sd.ResetFull(&sc.ctx, &sc.r, vpos); err != nil {
		return err
	}
	mb := &sc.mb
	for {
		ok, err := sc.sd.Next(mb)
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		for k := mb.Addr - mb.SkippedBefore; k < mb.Addr; k++ {
			if err := sc.rc.Skipped(dst, fwd, bwd, k%sc.ctx.MBW, k/sc.ctx.MBW, mb.PrevMotion); err != nil {
				return err
			}
		}
		if err := sc.rc.Macroblock(dst, fwd, bwd, mb, sc.ctx.MBW); err != nil {
			return err
		}
	}
}

// DecodedPicture is one output picture in display order.
type DecodedPicture struct {
	Buf *PixelBuf
	Pic *PictureHeader
	// DecodeIndex is the position of the picture in decode (stream) order.
	DecodeIndex int
}

// Decoder is the reference serial decoder. It decodes picture units in
// stream order and emits pictures in display order, managing the two
// reference frames and the I/P reordering delay.
//
// Output buffers come from the pixel-buffer pool, and a caller that is done
// with an emitted DecodedPicture may call Buf.Release() to let the decoder
// (or anything else of the same geometry) reuse it — but an emitted I or P
// picture is still the forward reference of the B pictures that follow it
// in display order. The rule is:
//
//   - a B picture may be released as soon as it is emitted;
//   - an I or P picture may be released once the next I or P picture has
//     been emitted (or Next has returned io.EOF).
//
// Releasing an anchor earlier lets the pool hand its buffer out as a later
// picture's destination while it is still being predicted from. Callers
// that keep frames simply never release them — the pool then behaves like
// plain allocation.
type Decoder struct {
	stream *Stream
	next   int // next picture unit index

	refA, refB        *PixelBuf // older and newer anchor
	refBPic           *PictureHeader
	refBIdx           int
	havePendingAnchor bool

	pending []DecodedPicture
	head    int // index of the next pending picture to emit
	done    bool

	scratch DecodeScratch
}

// NewDecoder parses data and returns a Decoder.
func NewDecoder(data []byte) (*Decoder, error) {
	s, err := ParseStream(data)
	if err != nil {
		return nil, err
	}
	return NewStreamDecoder(s), nil
}

// NewStreamDecoder returns a Decoder over an already indexed stream.
func NewStreamDecoder(s *Stream) *Decoder {
	return &Decoder{stream: s}
}

// Seq returns the stream's sequence header.
func (d *Decoder) Seq() *SequenceHeader { return d.stream.Seq }

// codedSize returns macroblock-aligned picture dimensions.
func codedSize(seq *SequenceHeader) (int, int) {
	return seq.MBWidth() * 16, seq.MBHeight() * 16
}

// PeekPictureType reads the picture_coding_type of a picture unit without
// parsing the rest of the header. The splitters use it too: it is the only
// picture-level parsing the root splitter performs.
func PeekPictureType(unit []byte) (PictureType, error) {
	r := bits.NewReader(unit)
	if code := r.Read(32); code != 0x00000100 {
		return 0, syntaxErrf("picture unit does not start with picture start code")
	}
	r.Skip(10) // temporal_reference
	t := PictureType(r.Read(3))
	if t < PictureI || t > PictureB {
		return 0, syntaxErrf("picture coding type %d", int(t))
	}
	return t, streamErr(r.Err())
}

// Next returns the next picture in display order, or io.EOF.
func (d *Decoder) Next() (DecodedPicture, error) {
	for d.head >= len(d.pending) {
		d.pending = d.pending[:0]
		d.head = 0
		if d.next >= len(d.stream.Pictures) {
			if !d.done {
				d.done = true
				if d.havePendingAnchor {
					d.pending = append(d.pending, DecodedPicture{Buf: d.refB, Pic: d.refBPic, DecodeIndex: d.refBIdx})
					d.havePendingAnchor = false
				}
			}
			if len(d.pending) == 0 {
				return DecodedPicture{}, io.EOF
			}
			break
		}
		unit := d.stream.Pictures[d.next]
		idx := d.next
		d.next++

		picType, err := PeekPictureType(unit)
		if err != nil {
			return DecodedPicture{}, err
		}
		w, h := codedSize(d.stream.Seq)
		dst := AcquirePixelBuf(0, 0, w, h)

		var fwd, bwd *PixelBuf
		switch picType {
		case PictureI:
		case PictureP:
			if d.refB == nil {
				return DecodedPicture{}, syntaxErrf("P picture before any anchor")
			}
			fwd = d.refB
		case PictureB:
			if d.refA == nil || d.refB == nil {
				return DecodedPicture{}, syntaxErrf("B picture without two anchors")
			}
			fwd, bwd = d.refA, d.refB
		}
		ph, err := d.scratch.DecodePictureUnit(d.stream.Seq, unit, fwd, bwd, dst)
		if err != nil {
			return DecodedPicture{}, err
		}
		if ph.PicType != picType {
			return DecodedPicture{}, syntaxErrf("picture type changed between peek and parse")
		}

		if picType == PictureB {
			d.pending = append(d.pending, DecodedPicture{Buf: dst, Pic: ph, DecodeIndex: idx})
			continue
		}
		// Anchor: emit the previously held anchor, hold this one.
		if d.havePendingAnchor {
			d.pending = append(d.pending, DecodedPicture{Buf: d.refB, Pic: d.refBPic, DecodeIndex: d.refBIdx})
		}
		d.refA = d.refB
		d.refB = dst
		d.refBPic = ph
		d.refBIdx = idx
		d.havePendingAnchor = true
	}
	p := d.pending[d.head]
	d.pending[d.head] = DecodedPicture{}
	d.head++
	return p, nil
}

// DecodeAll decodes the entire stream and returns the pictures in display
// order. It is a convenience for tests, tools and the baseline systems.
func (d *Decoder) DecodeAll() ([]DecodedPicture, error) {
	var out []DecodedPicture
	for {
		p, err := d.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
}
