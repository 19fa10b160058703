package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"sort"
	"testing"

	"tiledwall/internal/catalog"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/wall"
)

// smallStream generates a short I/P/B catalogue stream (two GOPs, the second
// open) at a small scale.
func smallStream(t *testing.T) []byte {
	t.Helper()
	cs, err := catalog.ByID(8)
	if err != nil {
		t.Fatal(err)
	}
	data, err := cs.Generate(catalog.GenOptions{Frames: 24, Scale: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCutUnitsConcatenateToInput(t *testing.T) {
	data := smallStream(t)
	units := cutUnits(data)
	st, err := mpeg2.ParseStream(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != len(st.Pictures) {
		t.Fatalf("%d units, stream has %d pictures", len(units), len(st.Pictures))
	}
	if got := bytes.Join(units, nil); !bytes.Equal(got, data) {
		t.Fatalf("units concatenate to %d bytes, input has %d", len(got), len(data))
	}
	// Each unit after the first starts with its picture.
	for j, u := range units[1:] {
		if !bytes.HasPrefix(u, st.Pictures[j+1]) {
			t.Fatalf("unit %d does not start with picture %d", j+1, j+1)
		}
	}
}

// TestReadyRuleMatchesSerialOrder checks the ready-time rule against the
// serial decoder's display order over three back-to-back copies: sorting
// pictures by ready unit (ties by decode index) must give the serial output
// order, and no picture may be ready before its own unit.
func TestReadyRuleMatchesSerialOrder(t *testing.T) {
	data := smallStream(t)
	in, err := newInput(data, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.Repeat(data, 3)
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		t.Fatal(err)
	}
	var serial []int
	for {
		p, err := dec.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		serial = append(serial, p.DecodeIndex)
	}
	n := 3 * len(in.Units)
	if len(serial) != n {
		t.Fatalf("serial decoder emitted %d pictures, want %d", len(serial), n)
	}
	own := 0
	for _, e := range in.Ends {
		if e {
			own++
		}
	}
	if own == 0 {
		t.Fatal("no unit completes its own picture; the stream does not exercise that branch")
	}
	ready := readyUnits(in.Types, in.Ends, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
		if ready[i] < i {
			t.Fatalf("picture %d ready at unit %d, before its own", i, ready[i])
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return ready[order[a]] < ready[order[b]] })
	for i := range order {
		if order[i] != serial[i] {
			t.Fatalf("display position %d: ready rule gives picture %d, serial decoder %d", i, order[i], serial[i])
		}
	}
}

// TestNoPictureBeforeReady runs the small stream through a real wall at a
// slow pace, so most pictures are decoded well before the next unit is due.
// A wall cannot emit a picture before the data that completes it arrives, so
// a negative latency means the ready-time rule dates a picture too late.
func TestNoPictureBeforeReady(t *testing.T) {
	in, err := newInput(smallStream(t), 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	wl := workload{Name: "test", K: 1, M: 2, N: 2, Transport: "fabric", RateHz: 200}
	win, err := measure(wl, in, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if win.failed() != 0 || win.Score.Attempted < 50 {
		t.Fatalf("%d of %d pictures failed", win.failed(), win.Score.Attempted)
	}
	for i, l := range win.Score.Latency {
		if l < 0 {
			t.Fatalf("picture %d (%v) emitted %.3f ms before it was ready", i, in.pictureType(i), -l)
		}
	}
}

// TestOracleCopiesRepeat checks the oracle's assumption that every copy
// after the second decodes exactly like the second.
func TestOracleCopiesRepeat(t *testing.T) {
	data := smallStream(t)
	in, err := newInput(data, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	three, err := newInput(bytes.Repeat(data, 3), 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*len(in.Units); i++ {
		want, got := three.digests[i], in.digest(i)
		for tile := range want {
			if want[tile] != got[tile] {
				t.Fatalf("picture %d tile %d: oracle %08x, three-copy decode %08x", i, tile, got[tile], want[tile])
			}
		}
	}
}

func TestRectCRCMatchesTileFrame(t *testing.T) {
	geo, err := wall.NewGeometry(96, 64, 3, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	pic := mpeg2.NewPixelBuf(0, 0, 96, 64)
	for i := range pic.Y {
		pic.Y[i] = uint8(i * 7)
	}
	for i := range pic.Cb {
		pic.Cb[i], pic.Cr[i] = uint8(i*3), uint8(i*5)
	}
	for tile := 0; tile < geo.NumTiles(); tile++ {
		r := geo.Tile(tile)
		frame := mpeg2.NewPixelBuf(r.X0, r.Y0, r.W(), r.H())
		frame.CopyRect(pic, r.X0, r.Y0, r.W(), r.H())
		if a, b := rectCRC(pic, r), bufCRC(frame); a != b {
			t.Fatalf("tile %d: rect digest %08x, frame digest %08x", tile, a, b)
		}
	}
}

func TestSummarizeTail(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[n-1-i] = float64(i + 1) // reversed: summarize sorts
		}
		return s
	}
	cases := []struct {
		n      int
		tailBP int
		tail   float64
	}{
		{1000, 9900, 990}, // exactly ten samples beyond p99
		{999, 9000, 900},  // p99 would leave nine
		{10000, 9990, 9990},
		{20, 5000, 10},
		{10, 0, 0},
	}
	for _, c := range cases {
		s := summarize(seq(c.n))
		if s.N != c.n || s.TailBP != c.tailBP || s.Tail != c.tail {
			t.Errorf("n=%d: got N=%d tail p%d=%g, want tail bp %d = %g", c.n, s.N, s.TailBP, s.Tail, c.tailBP, c.tail)
		}
	}
	if s := summarize(seq(1000)); s.P50 != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", s.P50)
	}
}

// TestScoreCountsDroppedAndCorruptTiles drives the sink by hand: picture 1
// loses a tile, picture 2 has a corrupted tile, picture 3 a duplicate, and
// a tile frame arrives for a picture never fed.
func TestScoreCountsDroppedAndCorruptTiles(t *testing.T) {
	const tiles, pics = 2, 5
	in := &input{Units: make([][]byte, pics), Types: make([]mpeg2.PictureType, pics)}
	frames := make([][]*mpeg2.PixelBuf, pics)
	for i := range frames {
		in.Types[i] = mpeg2.PictureI
		var d []uint32
		for tile := 0; tile < tiles; tile++ {
			b := mpeg2.NewPixelBuf(16*tile, 0, 16, 16)
			b.Fill(uint8(i), uint8(tile), 9)
			d = append(d, bufCRC(b))
			frames[i] = append(frames[i], b)
		}
		in.digests = append(in.digests, d)
	}
	in.digests = append(in.digests, in.digests...) // the second copy

	rec := &recorder{}
	sr := newSessionRec(tiles, pics+1)
	rec.register(1, sr)
	emit := func(i, tile int, b *mpeg2.PixelBuf) { rec.onTileFrame(1, i, tile, b) }
	clone := func(b *mpeg2.PixelBuf) *mpeg2.PixelBuf {
		c := mpeg2.NewPixelBuf(b.X0, b.Y0, b.W, b.H)
		c.CopyRect(b, b.X0, b.Y0, b.W, b.H)
		return c
	}
	for i := 0; i < pics-1; i++ {
		for tile := 0; tile < tiles; tile++ {
			switch {
			case i == 1 && tile == 1: // dropped
			case i == 2 && tile == 0:
				bad := clone(frames[i][tile])
				bad.Y[5] ^= 1
				emit(i, tile, bad)
			case i == 3 && tile == 1:
				emit(i, tile, clone(frames[i][tile]))
				emit(i, tile, clone(frames[i][tile]))
			default:
				emit(i, tile, clone(frames[i][tile]))
			}
		}
	}
	emit(pics, 0, clone(frames[0][0])) // beyond the fed pictures

	ready := make([]int64, pics-1)
	s := scoreSession(sr, in, nil, ready, nil)
	if s.Attempted != pics-1 || s.Failed != 4 {
		t.Fatalf("attempted %d failed %d, want %d and 4 (drop, corruption, duplicate, stray)", s.Attempted, s.Failed, pics-1)
	}
	inf := 0
	for _, l := range s.Latency {
		if math.IsInf(l, 1) {
			inf++
		}
	}
	if inf != 3 || len(s.Skew) != 1 {
		t.Fatalf("%d failed latencies and %d skews, want 3 and 1", inf, len(s.Skew))
	}

	// A session that returned an error fails every picture.
	if s := scoreSession(sr, in, nil, ready, errors.New("disrupted")); s.Failed != 5 {
		t.Fatalf("failed session: %d failures, want 5", s.Failed)
	}

	// Unsubscribed tiles must stay silent: watching tile 0 only, picture 1
	// (tile 1 dropped) passes, pictures 0 and 3 fail on tile 1's frames,
	// picture 2 on its corrupted tile 0.
	plan := []subChange{{From: 0, Tiles: []bool{true, false}}}
	if s := scoreSession(sr, in, plan, ready, nil); s.Failed != 4 {
		t.Fatalf("partial subscription: %d failures, want 4 (two unexpected, corruption, stray)", s.Failed)
	}
}
