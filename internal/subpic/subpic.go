// Package subpic defines the sub-picture (SP) container exchanged between
// second-level splitters and decoders, and the macroblock-exchange
// instruction (MEI) lists: the two data structures at the heart of the
// paper's hierarchical decoder (§4.2-§4.3).
//
// A sub-picture holds, for one decoder tile, the pieces of every slice that
// intersects the tile. Each piece is a bit-exact byte copy of the original
// stream (so the splitter never shifts bits) prefixed with a State
// Propagation Header carrying the skip count (0-7 bits), the first
// macroblock address, the DC and motion-vector predictors, the quantiser
// scale, and the previous macroblock's motion summary for skipped-B
// reconstruction. Sub-pictures deliberately do not conform to MPEG-2 syntax.
package subpic

import (
	"encoding/binary"
	"fmt"

	"tiledwall/internal/mpeg2"
)

// SPH is the State Propagation Header of one partial-slice piece.
type SPH struct {
	SkipBits     uint8 // 0..7 bits to skip at the start of the payload
	FirstAddr    int32 // macroblock address of the first coded macroblock
	CodedCount   int32 // coded macroblocks in the payload
	LeadingSkip  int32 // skipped macroblocks owned by this piece before FirstAddr
	TrailingSkip int32 // skipped macroblocks owned by this piece after the last coded one

	QuantCode uint8
	DCPred    [3]int32
	PMV       [2][2][2]int32

	// Prev summarises the motion of the macroblock that precedes FirstAddr
	// in the original slice (possibly decoded by another tile); skipped B
	// macroblocks in LeadingSkip inherit it.
	Prev mpeg2.MotionInfo
}

// State returns the prediction state encoded in the header.
func (h *SPH) State() mpeg2.PredState {
	return mpeg2.PredState{DCPred: h.DCPred, PMV: h.PMV, QuantCode: int(h.QuantCode)}
}

// SetState stores a prediction state into the header.
func (h *SPH) SetState(s mpeg2.PredState) {
	h.DCPred = s.DCPred
	h.PMV = s.PMV
	h.QuantCode = uint8(s.QuantCode)
}

// Piece is one partial slice: header plus raw stream bytes.
type Piece struct {
	SPH
	Payload []byte
}

// MEIKind distinguishes instruction directions.
type MEIKind uint8

const (
	// MEISend instructs the decoder to ship one of its reference
	// macroblocks to Peer before decoding the picture.
	MEISend MEIKind = iota
	// MEIRecv instructs the decoder to expect a reference macroblock from
	// Peer and place it in its halo before motion compensation needs it.
	MEIRecv
)

// RefSel selects which reference picture an exchanged macroblock comes from.
type RefSel uint8

const (
	// RefFwd is the forward reference (the older anchor for B pictures, the
	// only anchor for P pictures).
	RefFwd RefSel = iota
	// RefBwd is the backward reference (B pictures only).
	RefBwd
)

// MEIInstr is one macroblock exchange instruction.
type MEIInstr struct {
	Kind     MEIKind
	Ref      RefSel
	MBX, MBY uint16
	Peer     uint16 // decoder tile index
}

// PicInfo carries the picture-level parameters a tile decoder needs,
// flattened from the picture header and coding extension.
type PicInfo struct {
	Index       int32 // decode-order picture index
	TemporalRef int32
	PicType     uint8
	FCode       [2][2]uint8
	Flags       uint8 // bit0 QScaleType, bit1 IntraVLCFormat, bit2 AlternateScan, bit3 FlagIOnly
	DCPrecision uint8
}

const (
	flagQScaleType = 1 << iota
	flagIntraVLC
	flagAltScan
	// FlagIOnly marks a picture shipped in I-only trick play: the tile
	// receives no other picture of its GOP, so every picture it decodes
	// later is displayed after this one. Not part of the picture header.
	FlagIOnly
)

// FromHeader flattens a picture header.
func (p *PicInfo) FromHeader(index int, ph *mpeg2.PictureHeader) {
	p.Index = int32(index)
	p.TemporalRef = int32(ph.TemporalRef)
	p.PicType = uint8(ph.PicType)
	for s := 0; s < 2; s++ {
		for t := 0; t < 2; t++ {
			p.FCode[s][t] = uint8(ph.FCode[s][t])
		}
	}
	p.Flags = 0
	if ph.QScaleType {
		p.Flags |= flagQScaleType
	}
	if ph.IntraVLCFormat {
		p.Flags |= flagIntraVLC
	}
	if ph.AlternateScan {
		p.Flags |= flagAltScan
	}
	p.DCPrecision = uint8(ph.IntraDCPrecision)
}

// Header reconstitutes a picture header (frame picture, frame prediction).
func (p *PicInfo) Header() *mpeg2.PictureHeader {
	ph := new(mpeg2.PictureHeader)
	p.HeaderInto(ph)
	return ph
}

// HeaderInto reconstitutes the picture header into ph, overwriting every
// field; pooled decode paths reuse one header value across pictures.
func (p *PicInfo) HeaderInto(ph *mpeg2.PictureHeader) {
	*ph = mpeg2.PictureHeader{
		TemporalRef:      int(p.TemporalRef),
		PicType:          mpeg2.PictureType(p.PicType),
		VBVDelay:         0xFFFF,
		IntraDCPrecision: int(p.DCPrecision),
		PictureStructure: 3,
		FramePredDCT:     true,
		QScaleType:       p.Flags&flagQScaleType != 0,
		IntraVLCFormat:   p.Flags&flagIntraVLC != 0,
		AlternateScan:    p.Flags&flagAltScan != 0,
		ProgressiveFrame: true,
	}
	for s := 0; s < 2; s++ {
		for t := 0; t < 2; t++ {
			ph.FCode[s][t] = int(p.FCode[s][t])
		}
	}
}

// SubPicture is everything one decoder receives for one picture.
type SubPicture struct {
	Pic    PicInfo
	Pieces []Piece
	MEI    []MEIInstr
	// Final marks an end-of-stream message; no pieces follow.
	Final bool
	// Skipped marks an ROI skip marker: the session's subscription does not
	// materialize this picture on this tile. The decoder acks it, advances
	// its picture frontier, and does nothing else — no pieces, no MEI, no
	// reference rotation. Skip markers keep the nd-ack gate arithmetic of
	// the ANID protocol intact while costing ~20 bytes on the wire.
	Skipped bool
	// NoEmit marks a materialized-but-unwatched picture: the decoder decodes
	// it in full (it may feed references or MEI sends) but must not emit the
	// frame to the display path.
	NoEmit bool
}

// Wire flag bits of byte 0. Final stays the value 1 it has always been, so
// a full-subscription sub-picture is byte-identical to the pre-ROI format.
const (
	spFlagFinal   = 1 << 0
	spFlagSkipped = 1 << 1
	spFlagNoEmit  = 1 << 2
)

// --- Binary serialisation ---------------------------------------------------
//
// The wire format is what the cluster fabric counts for bandwidth, so it is
// a compact hand-rolled little-endian encoding, not gob. The paper reports
// splitter send bandwidth exceeding receive bandwidth by ~20% because of the
// SPH headers; keeping the header small preserves that ratio.

// The SPH is packed tightly — DC predictors fit 12 bits, motion values fit
// 16 — because its size is what drives the ~20% splitter send overhead the
// paper reports; a bloated header would distort Figure 9's shape.
const sphWireSize = 1 + 4 + 2 + 2 + 2 + 1 + 3*2 + 8*2 + 1 + 4*2 // = 43

func put32(b []byte, v int32) []byte { return binary.LittleEndian.AppendUint32(b, uint32(v)) }
func put16(b []byte, v int32) []byte { return binary.LittleEndian.AppendUint16(b, uint16(int16(v))) }

func (h *SPH) append(b []byte) []byte {
	b = append(b, h.SkipBits)
	b = put32(b, h.FirstAddr)
	b = put16(b, h.CodedCount)
	b = put16(b, h.LeadingSkip)
	b = put16(b, h.TrailingSkip)
	b = append(b, h.QuantCode)
	for _, v := range h.DCPred {
		b = put16(b, v)
	}
	for r := 0; r < 2; r++ {
		for s := 0; s < 2; s++ {
			for t := 0; t < 2; t++ {
				b = put16(b, h.PMV[r][s][t])
			}
		}
	}
	var mf uint8
	if h.Prev.Fwd {
		mf |= 1
	}
	if h.Prev.Bwd {
		mf |= 2
	}
	b = append(b, mf)
	b = put16(b, h.Prev.MVFwd[0])
	b = put16(b, h.Prev.MVFwd[1])
	b = put16(b, h.Prev.MVBwd[0])
	b = put16(b, h.Prev.MVBwd[1])
	return b
}

func (h *SPH) parse(b []byte) ([]byte, error) {
	if len(b) < sphWireSize {
		return nil, fmt.Errorf("subpic: truncated SPH (%d bytes)", len(b))
	}
	g32 := func() int32 {
		v := int32(binary.LittleEndian.Uint32(b))
		b = b[4:]
		return v
	}
	g16 := func() int32 {
		v := int32(int16(binary.LittleEndian.Uint16(b)))
		b = b[2:]
		return v
	}
	h.SkipBits = b[0]
	b = b[1:]
	h.FirstAddr = g32()
	h.CodedCount = g16()
	h.LeadingSkip = g16()
	h.TrailingSkip = g16()
	h.QuantCode = b[0]
	b = b[1:]
	for i := range h.DCPred {
		h.DCPred[i] = g16()
	}
	for r := 0; r < 2; r++ {
		for s := 0; s < 2; s++ {
			for t := 0; t < 2; t++ {
				h.PMV[r][s][t] = g16()
			}
		}
	}
	mf := b[0]
	b = b[1:]
	h.Prev.Fwd = mf&1 != 0
	h.Prev.Bwd = mf&2 != 0
	h.Prev.MVFwd[0] = g16()
	h.Prev.MVFwd[1] = g16()
	h.Prev.MVBwd[0] = g16()
	h.Prev.MVBwd[1] = g16()
	return b, nil
}

// WireSize returns the exact number of bytes Marshal/AppendTo produce, so a
// sender can draw a right-sized slab from a pool before encoding.
func (sp *SubPicture) WireSize() int {
	size := 1 + 4 + 4 + 1 + 4 + 1 + 1 + 4 + 4
	for i := range sp.Pieces {
		size += sphWireSize + 4 + len(sp.Pieces[i].Payload)
	}
	size += len(sp.MEI) * 8
	return size
}

// Marshal serialises the sub-picture.
func (sp *SubPicture) Marshal() []byte {
	return sp.AppendTo(make([]byte, 0, sp.WireSize()))
}

// AppendTo serialises the sub-picture onto b and returns the extended slice.
// With cap(b)-len(b) >= WireSize() it performs no allocation.
func (sp *SubPicture) AppendTo(b []byte) []byte {
	var flags byte
	if sp.Final {
		flags |= spFlagFinal
	}
	if sp.Skipped {
		flags |= spFlagSkipped
	}
	if sp.NoEmit {
		flags |= spFlagNoEmit
	}
	b = append(b, flags)
	b = put32(b, sp.Pic.Index)
	b = put32(b, sp.Pic.TemporalRef)
	b = append(b, sp.Pic.PicType)
	b = append(b, sp.Pic.FCode[0][0], sp.Pic.FCode[0][1], sp.Pic.FCode[1][0], sp.Pic.FCode[1][1])
	b = append(b, sp.Pic.Flags, sp.Pic.DCPrecision)

	b = put32(b, int32(len(sp.MEI)))
	for _, in := range sp.MEI {
		b = append(b, byte(in.Kind), byte(in.Ref))
		b = binary.LittleEndian.AppendUint16(b, in.MBX)
		b = binary.LittleEndian.AppendUint16(b, in.MBY)
		b = binary.LittleEndian.AppendUint16(b, in.Peer)
	}

	b = put32(b, int32(len(sp.Pieces)))
	for i := range sp.Pieces {
		p := &sp.Pieces[i]
		b = p.SPH.append(b)
		b = put32(b, int32(len(p.Payload)))
		b = append(b, p.Payload...)
	}
	return b
}

// Unmarshal parses a serialised sub-picture.
func Unmarshal(b []byte) (*SubPicture, error) {
	sp := &SubPicture{}
	if err := UnmarshalInto(sp, b); err != nil {
		return nil, err
	}
	return sp, nil
}

// UnmarshalInto parses a serialised sub-picture into sp, reusing the MEI and
// Pieces storage already hanging off it. Piece payloads alias b — sp is
// valid only as long as b is. On error sp is left in an unspecified state.
func UnmarshalInto(sp *SubPicture, b []byte) error {
	need := func(n int) error {
		if len(b) < n {
			return fmt.Errorf("subpic: truncated message")
		}
		return nil
	}
	if err := need(1 + 4 + 4 + 1 + 4 + 2 + 4); err != nil {
		return err
	}
	sp.Final = b[0]&spFlagFinal != 0
	sp.Skipped = b[0]&spFlagSkipped != 0
	sp.NoEmit = b[0]&spFlagNoEmit != 0
	b = b[1:]
	g32 := func() int32 {
		v := int32(binary.LittleEndian.Uint32(b))
		b = b[4:]
		return v
	}
	sp.Pic.Index = g32()
	sp.Pic.TemporalRef = g32()
	sp.Pic.PicType = b[0]
	sp.Pic.FCode[0][0], sp.Pic.FCode[0][1] = b[1], b[2]
	sp.Pic.FCode[1][0], sp.Pic.FCode[1][1] = b[3], b[4]
	sp.Pic.Flags = b[5]
	sp.Pic.DCPrecision = b[6]
	b = b[7:]

	nMEI := int(g32())
	if nMEI < 0 || nMEI > 1<<24 {
		return fmt.Errorf("subpic: implausible MEI count %d", nMEI)
	}
	if err := need(nMEI * 8); err != nil {
		return err
	}
	if cap(sp.MEI) >= nMEI {
		sp.MEI = sp.MEI[:nMEI]
	} else {
		sp.MEI = make([]MEIInstr, nMEI)
	}
	for i := range sp.MEI {
		sp.MEI[i] = MEIInstr{
			Kind: MEIKind(b[0]),
			Ref:  RefSel(b[1]),
			MBX:  binary.LittleEndian.Uint16(b[2:]),
			MBY:  binary.LittleEndian.Uint16(b[4:]),
			Peer: binary.LittleEndian.Uint16(b[6:]),
		}
		b = b[8:]
	}

	if err := need(4); err != nil {
		return err
	}
	nPieces := int(g32())
	// Bound the count by the bytes actually present (each piece costs at
	// least an SPH plus a payload length) before allocating: a hostile
	// 4-byte count must not be able to demand a multi-gigabyte zeroed
	// slice from a truncated message.
	if nPieces < 0 || nPieces > len(b)/(sphWireSize+4) {
		return fmt.Errorf("subpic: implausible piece count %d for %d payload bytes", nPieces, len(b))
	}
	if cap(sp.Pieces) >= nPieces {
		sp.Pieces = sp.Pieces[:nPieces]
	} else {
		sp.Pieces = make([]Piece, nPieces)
	}
	for i := range sp.Pieces {
		p := &sp.Pieces[i]
		rest, err := p.SPH.parse(b)
		if err != nil {
			return err
		}
		b = rest
		if err := need(4); err != nil {
			return err
		}
		n := int(g32())
		if n < 0 || n > len(b) {
			return fmt.Errorf("subpic: piece payload length %d exceeds message", n)
		}
		p.Payload = b[:n:n]
		b = b[n:]
	}
	return nil
}
