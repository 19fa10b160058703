package experiments

import (
	"fmt"
	"slices"
	"time"

	"tiledwall/internal/bits"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/pdec"
	"tiledwall/internal/wall"
)

// This file models the coarse-granularity parallelisations the paper
// compares against in Table 1. The decoder count equals the tile count, as
// in the paper's setup where every PC both decodes and drives a projector,
// so all three pay for display redistribution: decoded pixels are re-sent to
// the PC that projects them, which is what makes these schemes unattractive
// for tiled walls.
//
//   - GOP level: whole (closed) GOPs round-robin to decoders; no
//     inter-decoder communication; every picture redistributed.
//   - Picture level: pictures round-robin to decoders; decoders ship whole
//     reference frames to whoever needs them (very high communication);
//     every picture redistributed.
//   - Slice level: horizontal bands of whole slices per decoder; reference
//     halo strips exchanged between neighbouring bands (moderate
//     communication); the off-band part of every picture redistributed.
//
// The model is sequential and deterministic: it runs the splitter's work,
// then each decoder's, in turn, timing each node's share. Nothing goes over
// a transport. A "shipped" rectangle is copied straight into the receiver's
// memory and charged at its wire size, and a decoder reads only what it
// owns or was shipped, so the bit-exact check against the serial decoder
// still validates each scheme's data flow.

// BaselineLevel selects the parallelisation granularity.
type BaselineLevel int

const (
	// LevelGOP assigns whole closed GOPs to decoders.
	LevelGOP BaselineLevel = iota
	// LevelPicture assigns whole pictures to decoders.
	LevelPicture
	// LevelSlice assigns horizontal bands of slices to decoders.
	LevelSlice
)

// BaselineConfig describes a baseline run on an M×N wall of M*N decoders.
type BaselineConfig struct {
	Level   BaselineLevel
	M, N    int
	Overlap int
	// MaxFCode bounds halo strips for slice-level decoding (default 3).
	MaxFCode      int
	CollectFrames bool
}

// BaselineResult reports a baseline run with the Table 1 cost columns.
type BaselineResult struct {
	Config     BaselineConfig
	Throughput metrics.Throughput

	// SplitTime is the splitter's CPU time (scan, cut and building each
	// decoder's payload), the "splitting cost" column of Table 1.
	SplitTime time.Duration
	// InterDecoderBytes counts reference data exchanged between decoders
	// (zero at GOP level, whole frames at picture level, halo strips at
	// slice level).
	InterDecoderBytes int64
	// RedistributionBytes counts decoded pixels shipped to display nodes.
	RedistributionBytes int64

	// Frames holds the assembled display frames when CollectFrames is set.
	Frames []*mpeg2.PixelBuf

	// DecoderBusy is each decoder's CPU time: its decode plus copying out
	// every rectangle it ships.
	DecoderBusy []time.Duration
}

// Modeled returns the pipeline-model throughput (pictures divided by the
// busiest node's CPU time), comparable with system.Result.Modeled
// (DESIGN.md §7).
func (r *BaselineResult) Modeled() metrics.Throughput {
	busiest := r.SplitTime
	for _, b := range r.DecoderBusy {
		busiest = max(busiest, b)
	}
	out := r.Throughput
	if busiest > 0 {
		out.Elapsed = busiest
	}
	return out
}

// rectHeader is the wire header of a shipped pixel rectangle: a 4-byte
// picture index and the 2-byte x0, y0, w and h.
const rectHeader = 4 + 2*4

// rectBytes is the wire size of a shipped rectangle of 4:2:0 pixels.
func rectBytes(r wall.Rect) int64 { return rectHeader + int64(r.W()*r.H()*3/2) }

// baseline is one model run: the wall, the result being filled in and the
// display half of every PC.
type baseline struct {
	s    *mpeg2.Stream
	geo  *wall.Geometry
	full wall.Rect // the whole picture
	res  *BaselineResult
	err  error // the first display fault ship found
	// screens[t] is tile t's display buffer; when frames are collected,
	// shown[t][i] holds display frame i of tile t instead.
	screens []*mpeg2.PixelBuf
	shown   [][]*mpeg2.PixelBuf
	// covered[t][i] counts the pixels tile t has received of display frame
	// i; every frame must end exactly covered.
	covered [][]int
}

// RunBaseline runs one Table 1 baseline through the cost model.
func RunBaseline(stream []byte, cfg BaselineConfig) (*BaselineResult, error) {
	if cfg.MaxFCode == 0 {
		cfg.MaxFCode = 3
	}
	s, err := mpeg2.ParseStream(stream)
	if err != nil {
		return nil, err
	}
	geo, err := wall.NewGeometry(s.Seq.MBWidth()*16, s.Seq.MBHeight()*16, cfg.M, cfg.N, cfg.Overlap)
	if err != nil {
		return nil, err
	}
	d, n := geo.NumTiles(), len(s.Pictures)
	b := &baseline{s: s, geo: geo, full: wall.Rect{X1: geo.PicW, Y1: geo.PicH},
		res: &BaselineResult{Config: cfg, DecoderBusy: make([]time.Duration, d)}}
	for t := 0; t < d; t++ {
		r := geo.Tile(t)
		b.screens = append(b.screens, mpeg2.NewPixelBuf(r.X0, r.Y0, r.W(), r.H()))
		b.covered = append(b.covered, make([]int, n))
		if cfg.CollectFrames {
			b.shown = append(b.shown, make([]*mpeg2.PixelBuf, n))
		}
	}
	start := time.Now()
	switch cfg.Level {
	case LevelGOP:
		err = b.gopLevel(stream)
	case LevelPicture:
		err = b.pictureLevel()
	case LevelSlice:
		err = b.sliceLevel(cfg.MaxFCode)
	default:
		err = fmt.Errorf("experiments: unknown baseline level %d", cfg.Level)
	}
	if err != nil {
		return nil, err
	}
	b.res.Throughput = metrics.Throughput{
		Pictures:         n,
		Elapsed:          time.Since(start),
		PixelsPerPicture: int64(geo.PicW) * int64(geo.PicH),
	}
	if err := b.finish(); err != nil {
		return nil, err
	}
	return b.res, nil
}

// ship copies the part of display frame i that region covers from src to
// every tile showing it. Decoder `from` drives tile `from`, so its own tile
// is free; every other rectangle is redistribution traffic.
func (b *baseline) ship(from, i int, src *mpeg2.PixelBuf, region wall.Rect) {
	if i >= len(b.covered[0]) {
		b.err = fmt.Errorf("experiments: decoder %d shows display frame %d of %d", from, i, len(b.covered[0]))
		return
	}
	for t, screen := range b.screens {
		r, ok := b.geo.Tile(t).Intersect(region)
		if !ok {
			continue
		}
		if b.shown != nil {
			if b.shown[t][i] == nil {
				b.shown[t][i] = mpeg2.NewPixelBuf(screen.X0, screen.Y0, screen.W, screen.H)
			}
			screen = b.shown[t][i]
		}
		screen.CopyRect(src, r.X0, r.Y0, r.W(), r.H())
		b.covered[t][i] += r.W() * r.H()
		if t != from {
			b.res.RedistributionBytes += rectBytes(r)
		}
	}
}

// finish checks that every tile received every display frame exactly once
// and assembles the collected frames.
func (b *baseline) finish() error {
	if b.err != nil {
		return b.err
	}
	row := make([]*mpeg2.PixelBuf, len(b.screens))
	for i := range b.covered[0] {
		for t, cov := range b.covered {
			if want := b.geo.Tile(t).W() * b.geo.Tile(t).H(); cov[i] != want {
				return fmt.Errorf("experiments: tile %d display frame %d got %d of %d pixels", t, i, cov[i], want)
			}
			if b.shown != nil {
				row[t] = b.shown[t][i]
			}
		}
		if b.shown != nil {
			f, err := b.geo.Assemble(row)
			if err != nil {
				return err
			}
			b.res.Frames = append(b.res.Frames, f)
		}
	}
	return nil
}

// --- GOP level ---------------------------------------------------------------

func (b *baseline) gopLevel(stream []byte) error {
	d := len(b.screens)
	// Scan GOP boundaries (start codes only).
	t0 := time.Now()
	var gops [][2]int
	gopStart := -1
	flush := func(end int) {
		if gopStart >= 0 {
			gops = append(gops, [2]int{gopStart, end})
		}
		gopStart = -1
	}
	for off := bits.NextStartCode(stream, 0); off >= 0; off = bits.NextStartCode(stream, off+4) {
		switch c := stream[off+3]; {
		case c == bits.GroupStartCode:
			flush(off)
			gopStart = off
		case c == bits.PictureStartCode && gopStart < 0:
			return fmt.Errorf("experiments: GOP-level split found a picture outside any GOP")
		case c == bits.SequenceEndCode, c == bits.SequenceHeaderCod && off > 0:
			flush(off)
		}
	}
	flush(len(stream))
	b.res.SplitTime += time.Since(t0)

	// Closed GOPs display in stream order, so each GOP's pictures take the
	// next display positions.
	next := 0
	for i, g := range gops {
		t := i % d
		t0 := time.Now()
		payload := append([]byte(nil), stream[g[0]:g[1]]...)
		b.res.SplitTime += time.Since(t0)

		t0 = time.Now()
		pics, err := mpeg2.NewStreamDecoder(&mpeg2.Stream{Seq: b.s.Seq, Pictures: mpeg2.IndexPictureUnits(payload), Data: payload}).DecodeAll()
		if err != nil {
			return fmt.Errorf("experiments: GOP decoder %d: %w", t, err)
		}
		for _, p := range pics {
			b.ship(t, next, p.Buf, b.full)
			next++
		}
		b.res.DecoderBusy[t] += time.Since(t0)
	}
	return nil
}

// --- picture level -----------------------------------------------------------

// displayOrder computes, for each decode-order picture index, its display
// position (the serial decoder's reordering, precomputed).
func displayOrder(types []mpeg2.PictureType) []int {
	order := make([]int, len(types))
	next, held := 0, -1
	show := func(i int) {
		if i >= 0 {
			order[i] = next
			next++
		}
	}
	for i, t := range types {
		if t == mpeg2.PictureB {
			show(i)
		} else {
			show(held)
			held = i
		}
	}
	show(held)
	return order
}

// pictureTypes peeks every picture's type (a few header bits each) and
// derives its display position: the splitter's only picture parsing.
func (b *baseline) pictureTypes() ([]mpeg2.PictureType, []int, error) {
	types := make([]mpeg2.PictureType, len(b.s.Pictures))
	for i, u := range b.s.Pictures {
		var err error
		if types[i], err = mpeg2.PeekPictureType(u); err != nil {
			return nil, nil, err
		}
	}
	return types, displayOrder(types), nil
}

func (b *baseline) pictureLevel() error {
	d, w, h := len(b.screens), b.geo.PicW, b.geo.PicH
	// The splitter derives each picture's display position and reference
	// indices, and lists for every anchor the other decoders that need it.
	t0 := time.Now()
	types, disp, err := b.pictureTypes()
	if err != nil {
		return err
	}
	refs := make([][2]int, len(types)) // decode-order forward, backward (-1 none)
	consumers := make([][]int, len(types))
	refA, refB := -1, -1
	for i, t := range types {
		refs[i] = [2]int{-1, -1}
		switch t {
		case mpeg2.PictureP:
			refs[i][0] = refB
		case mpeg2.PictureB:
			refs[i] = [2]int{refA, refB}
		}
		for _, r := range refs[i] {
			if c := i % d; r >= 0 && r%d != c && !slices.Contains(consumers[r], c) {
				consumers[r] = append(consumers[r], c)
			}
		}
		if t != mpeg2.PictureB {
			refA, refB = refB, i
		}
	}
	b.res.SplitTime += time.Since(t0)

	// have[t] holds the frames decoder t may read: those it decoded and
	// those shipped to it, by decode-order index.
	have := make([]map[int]*mpeg2.PixelBuf, d)
	for t := range have {
		have[t] = map[int]*mpeg2.PixelBuf{}
	}
	for i, unit := range b.s.Pictures {
		t := i % d
		t0 := time.Now()
		payload := append([]byte(nil), unit...)
		b.res.SplitTime += time.Since(t0)

		t0 = time.Now()
		var ref [2]*mpeg2.PixelBuf
		for k, r := range refs[i] {
			if ref[k] = have[t][r]; r >= 0 && ref[k] == nil {
				return fmt.Errorf("experiments: picture decoder %d needs reference %d it was never sent", t, r)
			}
		}
		dst := mpeg2.NewPixelBuf(0, 0, w, h)
		if _, err := mpeg2.DecodePictureUnit(b.s.Seq, payload, ref[0], ref[1], dst); err != nil {
			return fmt.Errorf("experiments: picture decoder %d pic %d: %w", t, i, err)
		}
		have[t][i] = dst
		// Ship the whole frame to every consumer: the "very high"
		// communication column of Table 1.
		for _, c := range consumers[i] {
			cp := mpeg2.NewPixelBuf(0, 0, w, h)
			cp.CopyRect(dst, 0, 0, w, h)
			have[c][i] = cp
			b.res.InterDecoderBytes += rectBytes(b.full)
		}
		b.ship(t, disp[i], dst, b.full)
		b.res.DecoderBusy[t] += time.Since(t0)
		// Bounded reference cache: drop frames older than the window.
		for k := range have[t] {
			if k < i-3*d {
				delete(have[t], k)
			}
		}
	}
	return nil
}

// --- slice level --------------------------------------------------------------

// band is one slice-level decoder: a horizontal band of macroblock rows
// decoded into a ring of three windows extended by the halo.
type band struct {
	rect            wall.Rect // whole macroblock rows
	bufs            [3]*mpeg2.PixelBuf
	cur, refA, refB int
	anchors         int             // decoded anchors, up to 2
	dst             *mpeg2.PixelBuf // the window of the picture just decoded
}

func (b *baseline) sliceLevel(maxFCode int) error {
	d, seq, mbH := len(b.screens), b.s.Seq, b.s.Seq.MBHeight()
	if mbH < d {
		return fmt.Errorf("experiments: %d bands need at least %d macroblock rows", d, mbH)
	}
	halo := (pdec.HaloForFCode(maxFCode) + 15) / 16 * 16
	bands := make([]*band, d)
	for t := range bands {
		bd := &band{rect: wall.Rect{Y0: t * mbH / d * 16, X1: b.geo.PicW, Y1: (t + 1) * mbH / d * 16}, refA: 1, refB: 2}
		// The halo-strip exchange only reaches one band over; every band
		// must be at least as tall as the motion reach.
		if bd.rect.H() < halo {
			return fmt.Errorf("experiments: band %d is %d rows but motion reach needs %d; use fewer bands or a taller picture",
				t, bd.rect.H()/16, halo/16)
		}
		ey0, ey1 := max(bd.rect.Y0-halo, 0), min(bd.rect.Y1+halo, b.geo.PicH)
		for k := range bd.bufs {
			bd.bufs[k] = mpeg2.NewPixelBuf(0, ey0, b.geo.PicW, ey1-ey0)
		}
		bands[t] = bd
	}

	t0 := time.Now()
	types, disp, err := b.pictureTypes()
	if err != nil {
		return err
	}
	b.res.SplitTime += time.Since(t0)
	payloads := make([][]byte, d)
	for i, unit := range b.s.Pictures {
		// Cut the unit into per-band work units: picture header bytes plus
		// the byte range of the band's slices (start codes only — the "very
		// low" splitting cost of Table 1).
		t0 := time.Now()
		starts := make([]int, d+1) // where each band's slices begin (0: none yet)
		starts[d] = len(unit)
		headerEnd := len(unit)
		for off := bits.NextStartCode(unit, 0); off >= 0; off = bits.NextStartCode(unit, off+3) {
			c := unit[off+3]
			if !bits.IsSliceStartCode(c) {
				continue
			}
			headerEnd = min(headerEnd, off)
			row := int(c) - 1
			if seq.Height > 2800 {
				// Tall pictures: 3-bit vertical position extension
				// immediately after the start code carries the high bits.
				row = int(unit[off+4]>>5)<<7 + (int(c)-1)&0x7F
			}
			for t, bd := range bands {
				if bd.rect.Y0 <= row*16 && row*16 < bd.rect.Y1 && starts[t] == 0 {
					starts[t] = off
				}
			}
		}
		// Each band's slices are contiguous, so a band's range ends where
		// the next band's begins; a band without slices gets an empty one.
		for t := d - 1; t >= 0; t-- {
			if starts[t] == 0 {
				starts[t] = starts[t+1]
			}
		}
		for t := range payloads {
			payloads[t] = append(append(payloads[t][:0], unit[:headerEnd]...), unit[starts[t]:starts[t+1]]...)
		}
		b.res.SplitTime += time.Since(t0)

		for t, bd := range bands {
			t0 := time.Now()
			if err := bd.decode(seq, payloads[t], types[i]); err != nil {
				return fmt.Errorf("experiments: band %d: %w", t, err)
			}
			// The band's rows are final once decoded: the exchange below
			// writes only into the halo.
			b.ship(t, disp[i], bd.dst, bd.rect)
			b.res.DecoderBusy[t] += time.Since(t0)
		}
		if types[i] == mpeg2.PictureB {
			continue
		}
		// Every band has decoded the new anchor: each copies its edge
		// strips into its neighbours' windows before the anchor serves as a
		// reference.
		for t, bd := range bands {
			t0 := time.Now()
			for _, nb := range []int{t - 1, t + 1} {
				if nb < 0 || nb >= d {
					continue
				}
				strip := wall.Rect{Y0: bd.rect.Y0, X1: b.geo.PicW, Y1: bd.rect.Y0 + halo}
				if nb > t {
					strip.Y0, strip.Y1 = bd.rect.Y1-halo, bd.rect.Y1
				}
				bands[nb].dst.CopyRect(bd.dst, strip.X0, strip.Y0, strip.W(), strip.H())
				b.res.InterDecoderBytes += rectBytes(strip)
			}
			b.res.DecoderBusy[t] += time.Since(t0)
		}
	}
	return nil
}

// decode decodes the band's slices of one picture into the next window of
// the ring, rotating the ring after an anchor as the serial decoder does.
func (bd *band) decode(seq *mpeg2.SequenceHeader, payload []byte, pt mpeg2.PictureType) error {
	var fwd, bwd *mpeg2.PixelBuf
	switch {
	case pt == mpeg2.PictureP && bd.anchors >= 1:
		fwd = bd.bufs[bd.refB]
	case pt == mpeg2.PictureB && bd.anchors >= 2:
		fwd, bwd = bd.bufs[bd.refA], bd.bufs[bd.refB]
	case pt != mpeg2.PictureI:
		return fmt.Errorf("%s picture before its reference anchors", pt)
	}
	bd.dst = bd.bufs[bd.cur]
	if _, err := mpeg2.DecodePictureUnitBand(seq, payload, fwd, bwd, bd.dst, bd.rect.Y0/16, bd.rect.Y1/16-1); err != nil {
		return err
	}
	if pt != mpeg2.PictureB {
		bd.cur, bd.refA, bd.refB = bd.refA, bd.refB, bd.cur
		bd.anchors = min(bd.anchors+1, 2)
	}
	return nil
}
