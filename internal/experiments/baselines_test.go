package experiments

import (
	"bytes"
	"testing"

	"tiledwall/internal/bits"
	"tiledwall/internal/encoder"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/video"
)

// encodeClip encodes a deterministic synthetic clip; closedGOP makes every
// GOP self-contained (required by the GOP-level baseline).
func encodeClip(t testing.TB, w, h, frames int, closedGOP bool) []byte {
	t.Helper()
	cfg := encoder.Config{Width: w, Height: h, GOPSize: 6, BSpacing: 3, InitialQScale: 6, ClosedGOP: closedGOP}
	src := video.NewSource(video.SceneFilm, w, h, 11)
	e, err := encoder.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		if err := e.Push(src.Frame(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

func runBaseline(t *testing.T, stream []byte, level BaselineLevel) *BaselineResult {
	t.Helper()
	res, err := RunBaseline(stream, BaselineConfig{Level: level, M: 2, N: 2, CollectFrames: true})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dec.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Frames) != len(ref) {
		t.Fatalf("baseline produced %d frames, serial %d", len(res.Frames), len(ref))
	}
	for i := range ref {
		if !video.Equal(ref[i].Buf, res.Frames[i]) {
			l, c := video.MaxAbsDiff(ref[i].Buf, res.Frames[i])
			t.Fatalf("frame %d differs from serial (max luma %d chroma %d)", i, l, c)
		}
	}
	return res
}

func TestGOPLevelBaseline(t *testing.T) {
	res := runBaseline(t, encodeClip(t, 192, 128, 18, true), LevelGOP)
	if res.InterDecoderBytes != 0 {
		t.Errorf("GOP level should have no inter-decoder traffic, got %d", res.InterDecoderBytes)
	}
	// Redistribution ships (mn-1)/mn of every picture (Table 1 "very high").
	perPic := float64(res.RedistributionBytes) / float64(res.Throughput.Pictures)
	frameBytes := float64(192*128) * 1.5
	if perPic < frameBytes*0.5 {
		t.Errorf("redistribution %.0f bytes/picture implausibly low (frame is %.0f)", perPic, frameBytes)
	}
}

func TestGOPLevelRejectsPictureOutsideGOP(t *testing.T) {
	stream := encodeClip(t, 192, 128, 6, true)
	// Cut the first GOP header (start code plus 27 bits, padded to 8 bytes).
	off := bytes.Index(stream, []byte{0, 0, 1, bits.GroupStartCode})
	if off < 0 {
		t.Fatal("no GOP header")
	}
	stream = append(stream[:off:off], stream[off+8:]...)
	if _, err := RunBaseline(stream, BaselineConfig{Level: LevelGOP, M: 2, N: 2}); err == nil {
		t.Error("a picture outside any GOP should be rejected")
	}
}

func TestPictureLevelBaseline(t *testing.T) {
	// Picture level works with ordinary (open-GOP) streams.
	res := runBaseline(t, encodeClip(t, 192, 128, 12, false), LevelPicture)
	if res.InterDecoderBytes == 0 {
		t.Error("picture level must ship reference frames between decoders")
	}
	// Inter-decoder traffic is whole frames: "very high" (Table 1).
	if res.InterDecoderBytes < res.RedistributionBytes {
		t.Errorf("picture-level reference traffic (%d) expected to rival redistribution (%d)",
			res.InterDecoderBytes, res.RedistributionBytes)
	}
}

func TestSliceLevelBaseline(t *testing.T) {
	stream := encodeClip(t, 192, 256, 12, false) // 16 MB rows: 4 bands of 4
	res := runBaseline(t, stream, LevelSlice)
	if res.InterDecoderBytes == 0 {
		t.Error("slice level must exchange halo strips")
	}
	// Halo strips are far smaller than the picture-level whole frames.
	picRes, err := RunBaseline(stream, BaselineConfig{Level: LevelPicture, M: 2, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.InterDecoderBytes >= picRes.InterDecoderBytes {
		t.Errorf("slice-level comm (%d) should undercut picture-level (%d)",
			res.InterDecoderBytes, picRes.InterDecoderBytes)
	}
}

func TestSliceLevelRejectsThinBands(t *testing.T) {
	stream := encodeClip(t, 192, 128, 6, false) // 8 rows, 4 bands of 2 < halo 3
	if _, err := RunBaseline(stream, BaselineConfig{Level: LevelSlice, M: 2, N: 2}); err == nil {
		t.Error("thin bands should be rejected")
	}
}

// TestBaselineBytes pins the byte columns of Table 1 to the byte. They
// depend only on the stream and the wall: a 12-byte rectangle header plus
// the pixels of every remote rectangle, local tiles free.
func TestBaselineBytes(t *testing.T) {
	closed := encodeClip(t, 192, 128, 18, true)
	open := encodeClip(t, 192, 256, 12, false)
	for _, c := range []struct {
		name           string
		level          BaselineLevel
		stream         []byte
		inter, redistr int64
	}{
		{"GOP", LevelGOP, closed, 0, 498312},
		{"picture", LevelPicture, open, 884880, 663984},
		{"slice", LevelSlice, open, 498096, 442944},
	} {
		res, err := RunBaseline(c.stream, BaselineConfig{Level: c.level, M: 2, N: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.InterDecoderBytes != c.inter || res.RedistributionBytes != c.redistr {
			t.Errorf("%s level: inter-decoder/redistribution %d/%d bytes, want %d/%d",
				c.name, res.InterDecoderBytes, res.RedistributionBytes, c.inter, c.redistr)
		}
	}
}

func TestDisplayOrder(t *testing.T) {
	I, P, B := mpeg2.PictureI, mpeg2.PictureP, mpeg2.PictureB
	// Decode order I P B B P B B -> display I B B P B B P
	types := []mpeg2.PictureType{I, P, B, B, P, B, B}
	got := displayOrder(types)
	want := []int{0, 3, 1, 2, 6, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("display order %v, want %v", got, want)
		}
	}
	// All-intra: identity.
	types = []mpeg2.PictureType{I, I, I}
	got = displayOrder(types)
	for i, v := range got {
		if v != i {
			t.Fatalf("all-I order %v", got)
		}
	}
}
