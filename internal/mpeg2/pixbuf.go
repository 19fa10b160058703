package mpeg2

import "fmt"

// PixelBuf is a rectangular window of a 4:2:0 picture addressed in global
// picture coordinates. The serial decoder uses one window covering the whole
// picture; a tile decoder uses a window covering its tile plus a halo margin
// that receives boundary macroblocks from peers.
//
// X0, Y0, W and H are luma quantities and must be even so that the chroma
// planes align; in practice they are multiples of 16.
type PixelBuf struct {
	X0, Y0 int // global coordinates of the top-left luma sample
	W, H   int // window size in luma samples

	Y      []uint8 // stride W
	Cb, Cr []uint8 // stride W/2
}

// NewPixelBuf allocates a window at (x0, y0) of size w×h. Its three planes
// share one backing array, each capped at its own length so that no plane
// can grow into the next.
func NewPixelBuf(x0, y0, w, h int) *PixelBuf {
	if x0&1 != 0 || y0&1 != 0 || w&1 != 0 || h&1 != 0 {
		panic(fmt.Sprintf("mpeg2: odd PixelBuf geometry %d,%d %dx%d", x0, y0, w, h))
	}
	ny, nc := w*h, w*h/4
	px := make([]uint8, ny+2*nc)
	return &PixelBuf{
		X0: x0, Y0: y0, W: w, H: h,
		Y:  px[:ny:ny],
		Cb: px[ny : ny+nc : ny+nc],
		Cr: px[ny+nc:],
	}
}

// Fill sets every sample to the given YCbCr value. Concealment uses it to
// seed untrusted windows (mid-grey 128,128,128 matches the serial resilient
// decoder's conceal pattern).
func (b *PixelBuf) Fill(y, cb, cr uint8) {
	for i := range b.Y {
		b.Y[i] = y
	}
	for i := range b.Cb {
		b.Cb[i] = cb
		b.Cr[i] = cr
	}
}

// Contains reports whether the luma rectangle (x, y, w, h) in global
// coordinates lies fully inside the window.
func (b *PixelBuf) Contains(x, y, w, h int) bool {
	return x >= b.X0 && y >= b.Y0 && x+w <= b.X0+b.W && y+h <= b.Y0+b.H
}

// lumaIndex returns the index of global luma sample (gx, gy).
func (b *PixelBuf) lumaIndex(gx, gy int) int {
	return (gy-b.Y0)*b.W + (gx - b.X0)
}

// chromaIndex returns the index of global chroma sample (cx, cy), where
// chroma coordinates are luma coordinates divided by two.
func (b *PixelBuf) chromaIndex(cx, cy int) int {
	return (cy-b.Y0/2)*(b.W/2) + (cx - b.X0/2)
}

// CopyMacroblock copies the 16×16 luma and 8×8 chroma samples of the
// macroblock at (mbx, mby) from src (global addressing on both sides). It is
// the primitive behind MEI SEND execution and wall assembly.
func (b *PixelBuf) CopyMacroblock(src *PixelBuf, mbx, mby int) {
	x, y := mbx*16, mby*16
	if !src.Contains(x, y, 16, 16) || !b.Contains(x, y, 16, 16) {
		panic(fmt.Sprintf("mpeg2: CopyMacroblock (%d,%d) outside window", mbx, mby))
	}
	src.checkBacking("CopyMacroblock src")
	b.checkBacking("CopyMacroblock dst")
	for r := 0; r < 16; r++ {
		si := src.lumaIndex(x, y+r)
		di := b.lumaIndex(x, y+r)
		copy(b.Y[di:di+16], src.Y[si:si+16])
	}
	cx, cy := x/2, y/2
	for r := 0; r < 8; r++ {
		si := src.chromaIndex(cx, cy+r)
		di := b.chromaIndex(cx, cy+r)
		copy(b.Cb[di:di+8], src.Cb[si:si+8])
		copy(b.Cr[di:di+8], src.Cr[si:si+8])
	}
}

// ExtractMacroblock serialises the macroblock at (mbx, mby) into dst, which
// must hold MacroblockBytes bytes: 256 luma + 64 Cb + 64 Cr.
func (b *PixelBuf) ExtractMacroblock(mbx, mby int, dst []byte) {
	x, y := mbx*16, mby*16
	if !b.Contains(x, y, 16, 16) {
		panic(fmt.Sprintf("mpeg2: ExtractMacroblock (%d,%d) outside window", mbx, mby))
	}
	o := 0
	for r := 0; r < 16; r++ {
		i := b.lumaIndex(x, y+r)
		copy(dst[o:o+16], b.Y[i:i+16])
		o += 16
	}
	cx, cy := x/2, y/2
	for r := 0; r < 8; r++ {
		i := b.chromaIndex(cx, cy+r)
		copy(dst[o:o+8], b.Cb[i:i+8])
		o += 8
	}
	for r := 0; r < 8; r++ {
		i := b.chromaIndex(cx, cy+r)
		copy(dst[o:o+8], b.Cr[i:i+8])
		o += 8
	}
}

// InjectMacroblock writes a serialised macroblock (from ExtractMacroblock)
// at (mbx, mby).
func (b *PixelBuf) InjectMacroblock(mbx, mby int, src []byte) {
	x, y := mbx*16, mby*16
	if !b.Contains(x, y, 16, 16) {
		panic(fmt.Sprintf("mpeg2: InjectMacroblock (%d,%d) outside window", mbx, mby))
	}
	o := 0
	for r := 0; r < 16; r++ {
		i := b.lumaIndex(x, y+r)
		copy(b.Y[i:i+16], src[o:o+16])
		o += 16
	}
	cx, cy := x/2, y/2
	for r := 0; r < 8; r++ {
		i := b.chromaIndex(cx, cy+r)
		copy(b.Cb[i:i+8], src[o:o+8])
		o += 8
	}
	for r := 0; r < 8; r++ {
		i := b.chromaIndex(cx, cy+r)
		copy(b.Cr[i:i+8], src[o:o+8])
		o += 8
	}
}

// MacroblockBytes is the serialised size of one macroblock's pixels.
const MacroblockBytes = 256 + 64 + 64
