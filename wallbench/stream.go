package main

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"tiledwall/internal/bits"
	"tiledwall/internal/catalog"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/wall"
)

// castagnoli is the CRC32 polynomial with hardware support on amd64 (SSE4.2)
// and arm64, so digesting a tile in the sink costs a few microseconds.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// streamSpec names one generated input: a catalogue stream at a scale and
// length. The seed comes from the command line.
type streamSpec struct {
	ID, Scale, Frames int
}

// loadStream returns the catalogue stream for (spec, seed), generating it on
// the first call and caching the bytes under cacheDir afterwards.
// Generation takes seconds and is never part of a timed phase.
func loadStream(cacheDir string, spec streamSpec, seed int64) ([]byte, error) {
	path := filepath.Join(cacheDir, fmt.Sprintf("s%02d_x%d_f%d_seed%d.m2v", spec.ID, spec.Scale, spec.Frames, seed))
	if data, err := os.ReadFile(path); err == nil {
		return data, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("read stream cache: %w", err)
	}
	cs, err := catalog.ByID(spec.ID)
	if err != nil {
		return nil, err
	}
	data, err := cs.Generate(catalog.GenOptions{Frames: spec.Frames, Scale: spec.Scale, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate stream %d: %w", spec.ID, err)
	}
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return nil, fmt.Errorf("stream cache: %w", err)
	}
	// Write then rename, so a killed run never leaves a truncated stream.
	tmp, err := os.CreateTemp(cacheDir, "gen-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("stream cache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("stream cache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return nil, fmt.Errorf("stream cache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return nil, fmt.Errorf("stream cache: %w", err)
	}
	return data, nil
}

// cutUnits splits an elementary stream at every picture start code, so that
// unit j holds picture j (in decode order) plus whatever follows it up to the
// next picture: GOP and sequence headers, the sequence end code. Unit 0 also
// carries the stream's header prefix. Feeding one unit per Session.Feed call
// hands the wall exactly one picture start per call; the wall's scanner
// completes picture j when unit j+1 arrives (the ready-time rule relies on
// this). The units partition data: concatenated, they are data again.
func cutUnits(data []byte) [][]byte {
	var starts []int
	for off := bits.NextStartCode(data, 0); off >= 0; off = bits.NextStartCode(data, off+4) {
		if data[off+3] == bits.PictureStartCode {
			starts = append(starts, off)
		}
	}
	if len(starts) == 0 {
		return nil
	}
	units := make([][]byte, len(starts))
	starts[0] = 0
	for j := range starts {
		end := len(data)
		if j+1 < len(starts) {
			end = starts[j+1]
		}
		units[j] = data[starts[j]:end:end]
	}
	return units
}

// input is everything a workload run needs about its stream, computed during
// set-up: the units to feed, picture types, and the serial decoder's tile
// digests (the correctness oracle).
type input struct {
	Data  []byte   // one copy of the generated stream
	Units [][]byte // Data cut at picture start codes
	Types []mpeg2.PictureType
	Ends  []bool // Ends[j]: unit j completes its own picture (endsOwnPicture)
	Seq   *mpeg2.SequenceHeader
	Geo   *wall.Geometry

	// digests[i][t] is the CRC32 of tile t of decode-order picture i in the
	// serial decode of two back-to-back copies of the stream (first copy
	// then second). Copies beyond the second decode exactly like the second:
	// the decoder enters each copy in the same state.
	digests [][]uint32
	// Pics are the picture units as the wall's splitters receive them (no
	// header prefix or trailing GOP headers), for the ladder.
	Pics [][]byte
	// MBShare is each tile's share of the stream's coded macroblocks.
	MBShare []float64
}

// newInput parses data, cuts its units and computes the oracle digests for
// an m×n wall with the given overlap.
func newInput(data []byte, m, n, overlap int) (*input, error) {
	units := cutUnits(data)
	if len(units) == 0 {
		return nil, fmt.Errorf("stream has no pictures")
	}
	in := &input{Data: data, Units: units}
	for j, u := range units {
		p := u
		if j == 0 {
			// Unit 0 starts with the header prefix; the picture follows.
			p = u[pictureStart(u):]
		}
		t, err := mpeg2.PeekPictureType(p)
		if err != nil {
			return nil, fmt.Errorf("unit %d: %w", j, err)
		}
		in.Types = append(in.Types, t)
		in.Ends = append(in.Ends, endsOwnPicture(p))
	}
	twice := make([]byte, 0, 2*len(data))
	twice = append(append(twice, data...), data...)
	dec, err := mpeg2.NewDecoder(twice)
	if err != nil {
		return nil, err
	}
	in.Seq = dec.Seq()
	in.Geo, err = wall.NewGeometry(in.Seq.MBWidth()*16, in.Seq.MBHeight()*16, m, n, overlap)
	if err != nil {
		return nil, err
	}
	nt := in.Geo.NumTiles()
	in.digests = make([][]uint32, 2*len(units))
	for {
		p, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("serial oracle: %w", err)
		}
		if p.DecodeIndex >= len(in.digests) {
			return nil, fmt.Errorf("serial oracle: picture %d beyond two copies", p.DecodeIndex)
		}
		d := make([]uint32, nt)
		for t := range d {
			d[t] = rectCRC(p.Buf, in.Geo.Tile(t))
		}
		in.digests[p.DecodeIndex] = d
		releaseIfB(p)
	}
	for i, d := range in.digests {
		if d == nil {
			return nil, fmt.Errorf("serial oracle: picture %d never displayed", i)
		}
	}
	st, err := mpeg2.ParseStream(data)
	if err != nil {
		return nil, err
	}
	in.Pics = st.Pictures
	if in.MBShare, err = codedShare(in, in.Pics); err != nil {
		return nil, err
	}
	return in, nil
}

// releaseIfB returns a serial decoder's output buffer to the pixel pool when
// it is a B picture. An emitted I/P picture is still the decoder's reference
// frame for the B pictures that follow it, so releasing it would let the pool
// hand the same buffer out as a later B picture's destination.
func releaseIfB(p mpeg2.DecodedPicture) {
	if p.Pic.PicType == mpeg2.PictureB {
		p.Buf.Release()
	}
}

// endsOwnPicture reports whether a unit that starts with its picture carries
// a GOP header, sequence header or sequence end code after it: the wall's
// scanner then completes the picture with this unit instead of the next.
func endsOwnPicture(u []byte) bool {
	for off := bits.NextStartCode(u, 4); off >= 0; off = bits.NextStartCode(u, off+4) {
		switch u[off+3] {
		case bits.GroupStartCode, bits.SequenceHeaderCod, bits.SequenceEndCode:
			return true
		}
	}
	return false
}

// pictureStart returns the offset of the first picture start code in u.
func pictureStart(u []byte) int {
	for off := bits.NextStartCode(u, 0); off >= 0; off = bits.NextStartCode(u, off+4) {
		if u[off+3] == bits.PictureStartCode {
			return off
		}
	}
	return 0
}

// digest returns the oracle tile digests of feed-order picture i, where the
// stream is fed copy after copy.
func (in *input) digest(i int) []uint32 {
	per := len(in.Units)
	if i >= per {
		i = per + (i-per)%per
	}
	return in.digests[i]
}

// pictureType returns the type of feed-order picture i.
func (in *input) pictureType(i int) mpeg2.PictureType { return in.Types[i%len(in.Types)] }

// rectCRC digests the window r of a picture buffer row by row, in the plane
// order and layout a tile frame of exactly r has (Y, then Cb, then Cr, each
// stride-packed), so it equals bufCRC of the tile decoder's frame.
func rectCRC(b *mpeg2.PixelBuf, r wall.Rect) uint32 {
	var c uint32
	for y := r.Y0; y < r.Y1; y++ {
		off := (y-b.Y0)*b.W + (r.X0 - b.X0)
		c = crc32.Update(c, castagnoli, b.Y[off:off+r.W()])
	}
	cw := b.W / 2
	for _, plane := range [][]uint8{b.Cb, b.Cr} {
		for y := r.Y0 / 2; y < r.Y1/2; y++ {
			off := (y-b.Y0/2)*cw + (r.X0-b.X0)/2
			c = crc32.Update(c, castagnoli, plane[off:off+r.W()/2])
		}
	}
	return c
}

// bufCRC digests a whole tile frame.
func bufCRC(b *mpeg2.PixelBuf) uint32 {
	c := crc32.Update(0, castagnoli, b.Y)
	c = crc32.Update(c, castagnoli, b.Cb)
	return crc32.Update(c, castagnoli, b.Cr)
}

// streamProps summarises an input for the report.
type streamProps struct {
	W, H        int
	Pictures    int
	BytesPerPic float64
	NI, NP, NB  int
	TileMBShare []float64
}

func (in *input) props() streamProps {
	p := streamProps{W: in.Seq.Width, H: in.Seq.Height, Pictures: len(in.Units),
		BytesPerPic: float64(len(in.Data)) / float64(len(in.Units)), TileMBShare: in.MBShare}
	for _, t := range in.Types {
		switch t {
		case mpeg2.PictureI:
			p.NI++
		case mpeg2.PictureP:
			p.NP++
		default:
			p.NB++
		}
	}
	return p
}
