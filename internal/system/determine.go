package system

import (
	"fmt"
	"time"

	"tiledwall/internal/mpeg2"
	"tiledwall/internal/pdec"
	"tiledwall/internal/splitter"
	"tiledwall/internal/subpic"
	"tiledwall/internal/wall"
)

// Calibration holds the measured per-picture costs of §4.6: ts, the time a
// second-level splitter needs to split one picture at macroblock level, and
// td, the time a decoder needs to decode and display its sub-picture.
// The achievable frame rate of a 1-k-(m,n) system is
//
//	F = min(k/ts, 1/td)
//
// so the splitters stop being the bottleneck at k >= ts/td.
type Calibration struct {
	TS, TD   time.Duration
	Pictures int
}

// RecommendedK returns the smallest k that keeps the decoders busy
// (ceil(ts/td)), the paper's optimum; 0 when a one-level system suffices.
// With targetFPS > 0, k is capped at what that frame rate requires
// (k/ts >= F), the automation the paper's §6 proposes as future work.
func (c Calibration) RecommendedK(targetFPS float64) int {
	if c.TD <= 0 {
		return 0
	}
	k := int((c.TS + c.TD - 1) / c.TD)
	if targetFPS > 0 {
		needed := int(targetFPS*c.TS.Seconds()) + 1
		if needed < k {
			k = needed
		}
	}
	if k <= 1 {
		return 0 // a 1-(m,n) system: the root splits alone (§4.6)
	}
	return k
}

// PredictedFPS evaluates the paper's frame-rate formula for a given k
// (k = 0 is the one-level system, equivalent to k = 1 splitting capacity).
func (c Calibration) PredictedFPS(k int) float64 {
	if c.TS <= 0 || c.TD <= 0 {
		return 0
	}
	kk := float64(k)
	if k == 0 {
		kk = 1
	}
	split := kk / c.TS.Seconds()
	dec := 1 / c.TD.Seconds()
	if split < dec {
		return split
	}
	return dec
}

// Calibrate measures ts and td over the first maxPics pictures of the
// stream for the given wall geometry, exactly as the paper's empirical
// configuration procedure does: split each picture (parse-only full VLD),
// then decode the resulting sub-pictures on single-tile decoders.
func Calibrate(stream []byte, m, n, overlap, maxPics int) (*Calibration, error) {
	s, err := mpeg2.ParseStream(stream)
	if err != nil {
		return nil, err
	}
	picW, picH := s.Seq.MBWidth()*16, s.Seq.MBHeight()*16
	geo, err := wall.NewGeometry(picW, picH, m, n, overlap)
	if err != nil {
		return nil, err
	}
	if maxPics <= 0 || maxPics > len(s.Pictures) {
		maxPics = len(s.Pictures)
	}

	ms := splitter.NewMBSplitter(s.Seq, geo)
	cal := &Calibration{Pictures: maxPics}

	// Standalone tile decode: run the sub-pictures of each tile through the
	// piece decoder without a fabric, timing the slowest tile per picture
	// (synchronised decoders run at the speed of the slowest, §5.5).
	decs := make([]*offlineTileDecoder, geo.NumTiles())
	for t := range decs {
		decs[t] = newOfflineTileDecoder(s.Seq, geo, t)
	}

	for i := 0; i < maxPics; i++ {
		t0 := time.Now()
		sps, err := ms.Split(s.Pictures[i], i)
		if err != nil {
			return nil, err
		}
		cal.TS += time.Since(t0)

		var worst time.Duration
		for t, sp := range sps {
			t1 := time.Now()
			if err := decs[t].decode(sp); err != nil {
				return nil, fmt.Errorf("calibrate tile %d picture %d: %w", t, i, err)
			}
			if d := time.Since(t1); d > worst {
				worst = d
			}
		}
		cal.TD += worst
	}
	cal.TS /= time.Duration(maxPics)
	cal.TD /= time.Duration(maxPics)
	return cal, nil
}

// offlineTileDecoder decodes a tile's sub-pictures outside any fabric,
// through the same piece decoder as pdec's tile decoder. It exists for
// calibration.
type offlineTileDecoder struct {
	seq             *mpeg2.SequenceHeader
	bufs            [3]*mpeg2.PixelBuf
	cur, refA, refB int
	anchors         int // decoded anchors, up to 2

	ph     mpeg2.PictureHeader
	ctx    mpeg2.PictureContext
	pieces pdec.PieceDecoder
}

func newOfflineTileDecoder(seq *mpeg2.SequenceHeader, geo *wall.Geometry, tile int) *offlineTileDecoder {
	rect := geo.Tile(tile)
	halo := pdec.HaloForFCode(3)
	x0, y0 := max(rect.X0-halo, 0), max(rect.Y0-halo, 0)
	x1, y1 := min(rect.X1+halo, geo.PicW), min(rect.Y1+halo, geo.PicH)
	d := &offlineTileDecoder{seq: seq, cur: 0, refA: 1, refB: 2, pieces: pdec.PieceDecoder{Tile: tile}}
	for i := range d.bufs {
		d.bufs[i] = mpeg2.NewPixelBuf(x0, y0, x1-x0, y1-y0)
	}
	return d
}

// decode processes one sub-picture. MEI RECV cells are not actually
// transferred: calibration measures only this tile's decode cost, and the
// motion-compensation cost is independent of the halo's contents (the
// window geometry guarantees every access stays in bounds). The fabric
// pipeline in pdec is authoritative for pixel correctness.
func (d *offlineTileDecoder) decode(sp *subpic.SubPicture) error {
	sp.Pic.HeaderInto(&d.ph)
	if err := d.ctx.Init(d.seq, &d.ph); err != nil {
		return err
	}
	var fwd, bwd *mpeg2.PixelBuf
	switch t := d.ph.PicType; {
	case t == mpeg2.PictureP && d.anchors >= 1:
		fwd = d.bufs[d.refB]
	case t == mpeg2.PictureB && d.anchors >= 2:
		fwd, bwd = d.bufs[d.refA], d.bufs[d.refB]
	case t != mpeg2.PictureI:
		return fmt.Errorf("system: calibration %s picture before its reference anchors", t)
	}
	if err := d.pieces.Decode(&d.ctx, sp, d.bufs[d.cur], fwd, bwd); err != nil {
		return err
	}
	if d.ph.PicType != mpeg2.PictureB {
		d.cur, d.refA, d.refB = d.refA, d.refB, d.cur
		d.anchors = min(d.anchors+1, 2)
	}
	return nil
}
