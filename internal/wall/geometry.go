// Package wall models the tiled display: the mapping from picture pixels to
// projector tiles (including projector overlap for edge blending), the
// macroblock-to-tile assignment used by the splitters, and the virtual
// framebuffer assembly used to verify parallel output against the serial
// decoder.
package wall

import (
	"fmt"
	"sync"

	"tiledwall/internal/mpeg2"
)

// Rect is a half-open pixel rectangle [X0,X1) x [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// W returns the rectangle width.
func (r Rect) W() int { return r.X1 - r.X0 }

// H returns the rectangle height.
func (r Rect) H() int { return r.Y1 - r.Y0 }

// Contains reports whether the pixel (x, y) lies inside the rectangle.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Intersects reports whether two rectangles overlap.
func (r Rect) Intersects(o Rect) bool {
	return r.X0 < o.X1 && o.X0 < r.X1 && r.Y0 < o.Y1 && o.Y0 < r.Y1
}

// Intersect returns the intersection of two rectangles; ok is false when
// they do not overlap.
func (r Rect) Intersect(o Rect) (Rect, bool) {
	out := Rect{max(r.X0, o.X0), max(r.Y0, o.Y0), min(r.X1, o.X1), min(r.Y1, o.Y1)}
	if out.X0 >= out.X1 || out.Y0 >= out.Y1 {
		return Rect{}, false
	}
	return out, true
}

// Geometry maps an m×n tiled wall onto a picture. Tile rectangles are
// macroblock aligned and adjacent tiles share Overlap pixels (before
// alignment), modelling projector edge blending: macroblocks in the shared
// band are sent to every tile that displays them (paper §5.1).
type Geometry struct {
	M, N       int // tiles across and down
	PicW, PicH int // coded picture size (multiples of 16)
	Overlap    int

	tiles  []Rect
	owners []uint8 // canonical owner tile per macroblock
	mbW    int
	mbH    int
}

// NewGeometry builds the tiling. picW and picH must be multiples of 16;
// every tile must end up non-empty.
func NewGeometry(picW, picH, m, n, overlap int) (*Geometry, error) {
	if picW%16 != 0 || picH%16 != 0 || picW <= 0 || picH <= 0 {
		return nil, fmt.Errorf("wall: picture %dx%d must be positive multiples of 16", picW, picH)
	}
	if m <= 0 || n <= 0 {
		return nil, fmt.Errorf("wall: invalid tiling %dx%d", m, n)
	}
	if picW < m*16 || picH < n*16 {
		return nil, fmt.Errorf("wall: %dx%d picture cannot give every tile of a %dx%d wall a macroblock", picW, picH, m, n)
	}
	if overlap < 0 {
		return nil, fmt.Errorf("wall: negative overlap")
	}
	g := &Geometry{M: m, N: n, PicW: picW, PicH: picH, Overlap: overlap,
		mbW: picW / 16, mbH: picH / 16, tiles: make([]Rect, 0, m*n)}

	alignDown := func(v int) int { return v &^ 15 }
	alignUp := func(v int) int { return (v + 15) &^ 15 }
	span := func(k, count, size int) (int, int) {
		// Ideal seams at k*size/count, expanded by half the overlap on
		// interior edges, then aligned outward to macroblock boundaries.
		lo := k * size / count
		hi := (k + 1) * size / count
		if k > 0 {
			lo -= overlap / 2
		}
		if k < count-1 {
			hi += (overlap + 1) / 2
		}
		lo, hi = alignDown(lo), alignUp(hi)
		if lo < 0 {
			lo = 0
		}
		if hi > size {
			hi = size
		}
		return lo, hi
	}
	for row := 0; row < n; row++ {
		y0, y1 := span(row, n, picH)
		for col := 0; col < m; col++ {
			x0, x1 := span(col, m, picW)
			if x0 >= x1 || y0 >= y1 {
				return nil, fmt.Errorf("wall: tile (%d,%d) is empty for %dx%d over %dx%d", col, row, picW, picH, m, n)
			}
			g.tiles = append(g.tiles, Rect{x0, y0, x1, y1})
		}
	}
	// Canonical owners by macroblock centre against the un-overlapped seams.
	g.owners = make([]uint8, g.mbW*g.mbH)
	for mby := 0; mby < g.mbH; mby++ {
		cy := mby*16 + 8
		row := cy * n / picH
		if row >= n {
			row = n - 1
		}
		for mbx := 0; mbx < g.mbW; mbx++ {
			cx := mbx*16 + 8
			col := cx * m / picW
			if col >= m {
				col = m - 1
			}
			g.owners[mby*g.mbW+mbx] = uint8(row*m + col)
		}
	}
	return g, nil
}

// geoCacheSize bounds SharedGeometry's cache: a wall plays few picture
// sizes at once, and an evicted geometry is only derived again.
const geoCacheSize = 8

type geoKey struct{ picW, picH, m, n, overlap int }

// geoCache holds the geometries SharedGeometry has derived, replaced oldest
// first.
var geoCache struct {
	sync.Mutex
	keys [geoCacheSize]geoKey
	geos [geoCacheSize]*Geometry
	next int
}

// SharedGeometry returns the process's one Geometry for the tiling,
// deriving it with NewGeometry on first use: a wall's root and every node
// it hosts open each session on the same picture size and grid, so they
// share one read-only value instead of deriving a copy each. No Geometry
// method writes the value, and callers must not write its fields.
func SharedGeometry(picW, picH, m, n, overlap int) (*Geometry, error) {
	k := geoKey{picW, picH, m, n, overlap}
	c := &geoCache
	c.Lock()
	defer c.Unlock()
	for i, g := range c.geos {
		if g != nil && c.keys[i] == k {
			return g, nil
		}
	}
	g, err := NewGeometry(picW, picH, m, n, overlap)
	if err != nil {
		return nil, err
	}
	c.keys[c.next], c.geos[c.next] = k, g
	c.next = (c.next + 1) % geoCacheSize
	return g, nil
}

// NumTiles returns m*n.
func (g *Geometry) NumTiles() int { return g.M * g.N }

// Tile returns the pixel rectangle of tile t (index row*M+col).
func (g *Geometry) Tile(t int) Rect { return g.tiles[t] }

// TileIndex returns the tile index for (col, row).
func (g *Geometry) TileIndex(col, row int) int { return row*g.M + col }

// MBRect returns the pixel rectangle of macroblock (mbx, mby).
func MBRect(mbx, mby int) Rect {
	return Rect{mbx * 16, mby * 16, mbx*16 + 16, mby*16 + 16}
}

// TilesForMB appends to dst the indices of every tile whose rectangle
// contains any pixel of macroblock (mbx, mby) and returns the result. With
// zero overlap this is exactly one tile.
func (g *Geometry) TilesForMB(mbx, mby int, dst []int) []int {
	mr := MBRect(mbx, mby)
	for t, tr := range g.tiles {
		if tr.Intersects(mr) {
			dst = append(dst, t)
		}
	}
	return dst
}

// Owner returns the canonical owner tile of macroblock (mbx, mby): the tile
// whose un-overlapped core region contains the macroblock centre. The owner
// always has the macroblock in its rectangle; MEI SENDs are addressed to
// owners so each remote macroblock has a single authoritative source.
func (g *Geometry) Owner(mbx, mby int) int {
	return int(g.owners[mby*g.mbW+mbx])
}

// TileHasMB reports whether tile t's rectangle covers macroblock (mbx, mby).
func (g *Geometry) TileHasMB(t, mbx, mby int) bool {
	return g.tiles[t].Intersects(MBRect(mbx, mby))
}

// MBSpan returns the inclusive range of macroblock columns of tile t.
func (g *Geometry) MBSpan(t int) (mbx0, mbx1, mby0, mby1 int) {
	r := g.tiles[t]
	return r.X0 / 16, (r.X1 - 1) / 16, r.Y0 / 16, (r.Y1 - 1) / 16
}

// Assemble composites per-tile windows into a full picture, taking each
// pixel from its owner tile. The result is bit-exact with a serial decode
// when every tile decoded correctly.
func (g *Geometry) Assemble(tiles []*mpeg2.PixelBuf) (*mpeg2.PixelBuf, error) {
	if len(tiles) != g.NumTiles() {
		return nil, fmt.Errorf("wall: %d tile buffers for %d tiles", len(tiles), g.NumTiles())
	}
	out := mpeg2.NewPixelBuf(0, 0, g.PicW, g.PicH)
	for mby := 0; mby < g.mbH; mby++ {
		for mbx := 0; mbx < g.mbW; mbx++ {
			t := g.Owner(mbx, mby)
			if tiles[t] == nil {
				return nil, fmt.Errorf("wall: missing buffer for tile %d", t)
			}
			out.CopyMacroblock(tiles[t], mbx, mby)
		}
	}
	return out, nil
}

// CoverageCheck verifies the partition invariants: every macroblock has at
// least one tile, its owner covers it, and tile rectangles tile the picture.
func (g *Geometry) CoverageCheck() error {
	var scratch []int
	for mby := 0; mby < g.mbH; mby++ {
		for mbx := 0; mbx < g.mbW; mbx++ {
			scratch = g.TilesForMB(mbx, mby, scratch[:0])
			if len(scratch) == 0 {
				return fmt.Errorf("wall: macroblock (%d,%d) not covered", mbx, mby)
			}
			owner := g.Owner(mbx, mby)
			if !g.TileHasMB(owner, mbx, mby) {
				return fmt.Errorf("wall: owner %d does not cover macroblock (%d,%d)", owner, mbx, mby)
			}
		}
	}
	return nil
}
