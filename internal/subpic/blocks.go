package subpic

import (
	"encoding/binary"
	"fmt"

	"tiledwall/internal/mpeg2"
)

// BlockBundle is the payload of one decoder-to-decoder macroblock exchange
// message: every reference macroblock one decoder owes another for one
// picture, batched into a single message (executing a picture's MEI SEND
// list produces one bundle per peer).
type BlockBundle struct {
	PicIndex int32
	Cells    []BlockCell
	// Pixels holds len(Cells) serialised macroblocks (mpeg2.MacroblockBytes
	// each), in cell order.
	Pixels []byte
}

// BlockCell identifies one exchanged macroblock.
type BlockCell struct {
	Ref      RefSel
	MBX, MBY uint16
}

// WireSize returns the exact number of bytes Marshal/AppendTo produce.
func (b *BlockBundle) WireSize() int {
	return 8 + len(b.Cells)*6 + len(b.Pixels)
}

// Marshal serialises the bundle.
func (b *BlockBundle) Marshal() []byte {
	return b.AppendTo(make([]byte, 0, b.WireSize()))
}

// AppendTo serialises the bundle onto out and returns the extended slice.
// With cap(out)-len(out) >= WireSize() it performs no allocation.
func (b *BlockBundle) AppendTo(out []byte) []byte {
	out = binary.LittleEndian.AppendUint32(out, uint32(b.PicIndex))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.Cells)))
	for _, c := range b.Cells {
		out = append(out, byte(c.Ref), 0)
		out = binary.LittleEndian.AppendUint16(out, c.MBX)
		out = binary.LittleEndian.AppendUint16(out, c.MBY)
	}
	out = append(out, b.Pixels...)
	return out
}

// BundleSize returns the wire size of a bundle of n macroblocks.
func BundleSize(n int) int { return 8 + n*(6+mpeg2.MacroblockBytes) }

// PutBundleHeader starts an n-cell bundle of picture pic in place: it
// extends slab (empty, with capacity >= BundleSize(n)) to the bundle's full
// size and writes the header. Each cell then goes in with PutCell. A bundle
// whose cells are all put is byte-identical to AppendTo's.
func PutBundleHeader(slab []byte, pic int32, n int) []byte {
	b := slab[:BundleSize(n)]
	binary.LittleEndian.PutUint32(b, uint32(pic))
	binary.LittleEndian.PutUint32(b[4:], uint32(n))
	return b
}

// PutCell writes cell i of the n-cell bundle b and returns the cell's
// pixel area, mpeg2.MacroblockBytes long, for the caller to fill.
func PutCell(b []byte, n, i int, c BlockCell) []byte {
	e := b[8+6*i : 8+6*i+6]
	e[0], e[1] = byte(c.Ref), 0
	binary.LittleEndian.PutUint16(e[2:], c.MBX)
	binary.LittleEndian.PutUint16(e[4:], c.MBY)
	off := 8 + 6*n + i*mpeg2.MacroblockBytes
	return b[off : off+mpeg2.MacroblockBytes]
}

// UnmarshalBlocks parses a bundle.
func UnmarshalBlocks(data []byte) (*BlockBundle, error) {
	b := &BlockBundle{}
	if err := UnmarshalBlocksInto(b, data); err != nil {
		return nil, err
	}
	return b, nil
}

// UnmarshalBlocksInto parses a bundle into b, reusing its Cells storage.
// Pixels aliases data — the bundle is valid only as long as data is.
func UnmarshalBlocksInto(b *BlockBundle, data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("subpic: truncated block bundle")
	}
	b.PicIndex = int32(binary.LittleEndian.Uint32(data))
	n := int(binary.LittleEndian.Uint32(data[4:]))
	data = data[8:]
	if n < 0 || len(data) < n*6 {
		return fmt.Errorf("subpic: block bundle cell list truncated")
	}
	if cap(b.Cells) >= n {
		b.Cells = b.Cells[:n]
	} else {
		b.Cells = make([]BlockCell, n)
	}
	for i := range b.Cells {
		b.Cells[i] = BlockCell{
			Ref: RefSel(data[0]),
			MBX: binary.LittleEndian.Uint16(data[2:]),
			MBY: binary.LittleEndian.Uint16(data[4:]),
		}
		data = data[6:]
	}
	if len(data) != n*mpeg2.MacroblockBytes {
		return fmt.Errorf("subpic: block bundle pixel payload %d bytes, want %d", len(data), n*mpeg2.MacroblockBytes)
	}
	b.Pixels = data
	return nil
}
