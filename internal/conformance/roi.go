package conformance

import (
	"fmt"
	"sync"

	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/system"
	"tiledwall/internal/video"
	"tiledwall/internal/wall"
)

// This file is the subscription (ROI) and trick-play conformance oracle.
//
// The subscription axis: a session that watches only a subset of the wall
// must still show every subscribed tile byte-identically to the full serial
// decode — the halo closure (DESIGN.md §15) may skip work, never change
// pixels. RunROIMatrix drives every configuration through a partial
// subscription with a mid-session re-subscription, collects per-tile output
// through the OnTileFrame hook (a partial session emits no assembled wall
// frames), and compares each emitted tile frame against the serial
// reference cropped to that tile, using the session's own activation log to
// know which tiles owe which pictures.
//
// The trick-play axis: drop-B fast forward must emit exactly the serial
// decode of the I/P subset (B pictures never feed references, so anchors
// decode identically without them), and I-only scrubbing exactly the serial
// I pictures.

// ROIResult is the outcome of one configuration × transport in RunROIMatrix.
type ROIResult struct {
	Config    system.Config
	Transport string
	// Tiles is the number of subscribed tiles in the final subscription, and
	// SkippedSubPics what the splitters skipped — evidence the partial path
	// actually engaged (zero skip markers on a multi-picture partial
	// subscription would mean the full path ran instead).
	Tiles          int
	SkippedSubPics int64
	Err            error
}

// Name renders the configuration in the matrix's 1-k-(m,n) notation.
func (r ROIResult) Name() string {
	return fmt.Sprintf("%s/%s", MatrixResult{Config: r.Config}.Name(), r.Transport)
}

// Failure returns a descriptive error when the axis failed.
func (r ROIResult) Failure() error {
	if r.Err != nil {
		return fmt.Errorf("%s: %w", r.Name(), r.Err)
	}
	return nil
}

// tileFrame is one emission observed through OnTileFrame: the decode-order
// picture index it was emitted for, and the pixels.
type tileFrame struct {
	pic int
	buf *mpeg2.PixelBuf
}

// tileTap collects per-tile emissions; decoders emit concurrently.
type tileTap struct {
	mu   sync.Mutex
	emit [][]tileFrame
}

func newTileTap(nt int) *tileTap { return &tileTap{emit: make([][]tileFrame, nt)} }

func (tt *tileTap) hook(_, picIdx, tile int, buf *mpeg2.PixelBuf) {
	tt.mu.Lock()
	tt.emit[tile] = append(tt.emit[tile], tileFrame{pic: picIdx, buf: buf})
	tt.mu.Unlock()
}

// randomTileSet draws a non-empty proper subset of nt tiles.
func randomTileSet(rng *xorshift64, nt int) wall.TileSet {
	ts := wall.NewTileSet(nt)
	n := 0
	for t := 0; t < nt; t++ {
		if rng.intn(2) == 0 {
			ts.Add(t)
			n++
		}
	}
	if n == 0 {
		ts.Add(rng.intn(nt))
		n = nt // prevent the all-cleared fixup below from re-entering
	}
	if n == nt && nt > 1 {
		// A proper subset exercises the skip path; re-draw one tile out.
		ts = wall.NewTileSet(nt)
		skip := rng.intn(nt)
		for t := 0; t < nt; t++ {
			if t != skip {
				ts.Add(t)
			}
		}
	}
	return ts
}

// liveAt resolves which tile set was active for decode-order picture pic,
// given the session's activation log (sorted by activation picture).
func liveAt(events []service.SubscriptionEvent, pic int) wall.TileSet {
	var cur wall.TileSet // zero value: full, the pre-activation default
	for _, ev := range events {
		if ev.Picture > pic {
			break
		}
		cur = ev.Tiles
	}
	return cur
}

// cropTile extracts a tile's rectangle from a full serial reference frame.
func cropTile(ref *mpeg2.PixelBuf, rect wall.Rect) *mpeg2.PixelBuf {
	out := mpeg2.NewPixelBuf(rect.X0, rect.Y0, rect.W(), rect.H())
	out.CopyRect(ref, rect.X0, rect.Y0, rect.W(), rect.H())
	return out
}

// runROISession plays one partially subscribed session with a mid-stream
// re-subscription and verifies every subscribed tile byte-for-byte.
func runROISession(stream []byte, cfg system.Config, ref []mpeg2.DecodedPicture, geo *wall.Geometry, rng *xorshift64) (ROIResult, error) {
	nt := cfg.M * cfg.N
	subA := randomTileSet(rng, nt)
	subB := randomTileSet(rng, nt)
	tap := newTileTap(nt)

	cfg.CollectFrames = false
	cfg.OnTileFrame = tap.hook
	res := ROIResult{Config: cfg, Transport: cfg.Transport}

	w, err := system.NewResidentWall(cfg)
	if err != nil {
		return res, err
	}
	defer w.Close()
	sess, err := w.Open("roi")
	if err != nil {
		return res, err
	}
	if err := sess.Subscribe(subA); err != nil {
		sess.Close()
		return res, err
	}
	// Feed in ragged chunks, re-subscribing somewhere in the middle so the
	// change lands between pictures and activates at a later I boundary.
	mid := len(stream) / 2
	chunk := 1024 + rng.intn(2048)
	for off := 0; off < len(stream); off += chunk {
		end := off + chunk
		if end > len(stream) {
			end = len(stream)
		}
		if off < mid && end >= mid {
			if err := sess.Subscribe(subB); err != nil {
				sess.Close()
				return res, err
			}
		}
		if err := sess.Feed(stream[off:end]); err != nil {
			sess.Close()
			return res, err
		}
	}
	sres, err := sess.Close()
	if err != nil {
		return res, err
	}
	res.Tiles = sres.SubscribedTiles
	res.SkippedSubPics = sres.SkippedSubPics

	if len(sres.Subscriptions) == 0 {
		res.Err = fmt.Errorf("no subscription activation recorded (subscribed before first picture)")
		return res, nil
	}
	// SkippedSubPics may legitimately be zero on one run: a stream without B
	// pictures skips nothing (anchors materialize everywhere), and a
	// large-motion stream on a small wall makes every unwatched tile a SEND
	// source for some live neighbour. Callers assert engagement in aggregate.

	// Expected emissions per tile: the serial display-order pictures during
	// which the tile was subscribed, each cropped to the tile rectangle.
	for t := 0; t < nt; t++ {
		rect := geo.Tile(t)
		got := tap.emit[t]
		gi := 0
		for _, rp := range ref {
			if !liveAt(sres.Subscriptions, rp.DecodeIndex).Has(t) {
				continue
			}
			if gi >= len(got) {
				res.Err = fmt.Errorf("tile %d: emitted %d frames, expected one for picture %d", t, len(got), rp.DecodeIndex)
				return res, nil
			}
			ef := got[gi]
			gi++
			if ef.pic != rp.DecodeIndex {
				res.Err = fmt.Errorf("tile %d: emission %d is picture %d, expected %d", t, gi-1, ef.pic, rp.DecodeIndex)
				return res, nil
			}
			if !video.Equal(cropTile(rp.Buf, rect), ef.buf) {
				res.Err = fmt.Errorf("tile %d: picture %d differs from serial decode", t, rp.DecodeIndex)
				return res, nil
			}
		}
		if gi != len(got) {
			res.Err = fmt.Errorf("tile %d: %d extra emissions beyond the %d subscribed pictures", t, len(got)-gi, gi)
			return res, nil
		}
	}
	return res, nil
}

// RunROIMatrix runs the subscription oracle: for every configuration, on
// both transports, a session subscribing a random proper tile subset — with
// a second random subset taking over mid-stream — must emit every subscribed
// tile byte-identically to the serial reference, no more, no less. The
// subsets are drawn from seed, so failures reproduce.
func RunROIMatrix(stream []byte, configs []system.Config, seed int64) ([]ROIResult, error) {
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		return nil, fmt.Errorf("conformance: serial parse: %w", err)
	}
	ref, err := dec.DecodeAll()
	if err != nil {
		return nil, fmt.Errorf("conformance: serial decode: %w", err)
	}
	picW, picH := dec.Seq().MBWidth()*16, dec.Seq().MBHeight()*16

	rng := newXorshift(seed)
	var out []ROIResult
	for _, cfg := range configs {
		geo, gerr := wall.NewGeometry(picW, picH, cfg.M, cfg.N, cfg.Overlap)
		if gerr != nil {
			return nil, fmt.Errorf("conformance: geometry for %s: %w", MatrixResult{Config: cfg}.Name(), gerr)
		}
		for _, transport := range []string{"fabric", "tcp"} {
			c := cfg
			c.Transport = transport
			r, err := runROISession(stream, c, ref, geo, rng)
			if err != nil {
				r.Err = err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// TrickResult is the outcome of one trick-play oracle run.
type TrickResult struct {
	Config    system.Config
	Mode      string
	Shipped   int
	Skipped   int
	Divergent *Divergence
	Err       error
}

// Failure returns a descriptive error when the axis failed.
func (r TrickResult) Failure() error {
	name := fmt.Sprintf("%s/%s", MatrixResult{Config: r.Config}.Name(), r.Mode)
	switch {
	case r.Err != nil:
		return fmt.Errorf("%s: %w", name, r.Err)
	case r.Divergent != nil:
		return fmt.Errorf("%s: %s", name, r.Divergent)
	}
	return nil
}

// RunTrickOracle verifies trick play against the serial decode of the same
// picture subset: drop-B must emit exactly the serial I/P frames (B pictures
// never feed references, so anchors are unchanged by their removal), I-only
// exactly the serial I frames. Dropped pictures must be counted, and the
// emitted frame count must match the shipped-picture total.
func RunTrickOracle(stream []byte, configs []system.Config) ([]TrickResult, error) {
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		return nil, fmt.Errorf("conformance: serial parse: %w", err)
	}
	ref, err := dec.DecodeAll()
	if err != nil {
		return nil, fmt.Errorf("conformance: serial decode: %w", err)
	}
	picW, picH := dec.Seq().MBWidth()*16, dec.Seq().MBHeight()*16

	modes := []struct {
		name string
		mode service.TrickMode
		keep func(mpeg2.PictureType) bool
	}{
		{"drop-b", service.TrickDropB, func(t mpeg2.PictureType) bool { return t != mpeg2.PictureB }},
		{"i-only", service.TrickIOnly, func(t mpeg2.PictureType) bool { return t == mpeg2.PictureI }},
	}

	var out []TrickResult
	for _, cfg := range configs {
		geo, gerr := wall.NewGeometry(picW, picH, cfg.M, cfg.N, cfg.Overlap)
		if gerr != nil {
			geo = nil
		}
		for _, m := range modes {
			c := cfg
			c.CollectFrames = true
			tr := TrickResult{Config: cfg, Mode: m.name}
			var want []mpeg2.DecodedPicture
			for _, rp := range ref {
				if m.keep(rp.Pic.PicType) {
					want = append(want, rp)
				}
			}
			frames, sres, err := playTrick(stream, c, m.mode)
			if err != nil {
				tr.Err = err
				out = append(out, tr)
				continue
			}
			tr.Shipped, tr.Skipped = sres.ShippedPictures, sres.SkippedPictures
			switch {
			case sres.ShippedPictures != len(want):
				tr.Err = fmt.Errorf("shipped %d pictures, serial subset has %d", sres.ShippedPictures, len(want))
			case sres.SkippedPictures != len(ref)-len(want):
				tr.Err = fmt.Errorf("skipped %d pictures, want %d", sres.SkippedPictures, len(ref)-len(want))
			default:
				tr.Divergent = Diff(want, frames, geo)
			}
			out = append(out, tr)
		}
	}
	return out, nil
}

// playTrick plays one full-subscription trick-play session and returns the
// assembled wall frames plus the session accounting.
func playTrick(stream []byte, cfg system.Config, mode service.TrickMode) ([]*mpeg2.PixelBuf, *service.SessionResult, error) {
	w, err := system.NewResidentWall(cfg)
	if err != nil {
		return nil, nil, err
	}
	defer w.Close()
	sess, err := w.Open("trick")
	if err != nil {
		return nil, nil, err
	}
	if err := sess.SetTrickMode(mode); err != nil {
		sess.Close()
		return nil, nil, err
	}
	if err := sess.Feed(stream); err != nil {
		sess.Close()
		return nil, nil, err
	}
	sres, err := sess.Close()
	if err != nil {
		return nil, nil, err
	}
	return sres.Frames, sres, nil
}
