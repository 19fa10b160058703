package system

import (
	"fmt"
	"testing"

	"tiledwall/internal/encoder"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/video"
)

// makeStream encodes a deterministic synthetic clip.
func makeStream(t testing.TB, kind video.SceneKind, w, h, frames int) []byte {
	t.Helper()
	cfg := encoder.Config{Width: w, Height: h, GOPSize: 6, BSpacing: 3, InitialQScale: 6}
	src := video.NewSource(kind, w, h, 11)
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

func serialFrames(t testing.TB, stream []byte) []mpeg2.DecodedPicture {
	t.Helper()
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		t.Fatal(err)
	}
	pics, err := dec.DecodeAll()
	if err != nil {
		t.Fatal(err)
	}
	return pics
}

// TestParallelMatchesSerial is the central correctness experiment: for a
// range of 1-k-(m,n) configurations the assembled parallel output must be
// bit-exact with the serial reference decoder.
func TestParallelMatchesSerial(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 12)
	ref := serialFrames(t, stream)

	cases := []Config{
		{K: 0, M: 1, N: 1},
		{K: 0, M: 2, N: 1},
		{K: 0, M: 2, N: 2},
		{K: 1, M: 2, N: 2},
		{K: 2, M: 2, N: 2},
		{K: 3, M: 3, N: 2},
		{K: 2, M: 4, N: 2, Overlap: 16},
		{K: 4, M: 2, N: 2},
	}
	for _, cfg := range cases {
		cfg := cfg
		t.Run(fmt.Sprintf("1-%d-(%d,%d)ov%d", cfg.K, cfg.M, cfg.N, cfg.Overlap), func(t *testing.T) {
			t.Parallel()
			cfg.CollectFrames = true
			res, err := Run(stream, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Frames) != len(ref) {
				t.Fatalf("parallel produced %d frames, serial %d", len(res.Frames), len(ref))
			}
			for i := range ref {
				if !video.Equal(ref[i].Buf, res.Frames[i]) {
					l, c := video.MaxAbsDiff(ref[i].Buf, res.Frames[i])
					t.Fatalf("frame %d differs from serial decode (max luma %d, chroma %d)", i, l, c)
				}
			}
		})
	}
}

// TestParallelAllScenes runs one two-level configuration over every scene
// class, checking bit-exactness.
func TestParallelAllScenes(t *testing.T) {
	for _, kind := range []video.SceneKind{video.SceneAnimation, video.SceneFishTank, video.SceneBroadcast, video.SceneFlyby} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			stream := makeStream(t, kind, 160, 96, 9)
			ref := serialFrames(t, stream)
			res, err := Run(stream, Config{K: 2, M: 2, N: 2, Overlap: 8, CollectFrames: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Frames) != len(ref) {
				t.Fatalf("got %d frames, want %d", len(res.Frames), len(ref))
			}
			for i := range ref {
				if !video.Equal(ref[i].Buf, res.Frames[i]) {
					t.Fatalf("frame %d differs", i)
				}
			}
		})
	}
}

// TestBandwidthAccounting checks that the fabric counted traffic on every
// active link and that splitter send bandwidth exceeds its receive bandwidth
// (the SPH overhead the paper reports in §5.6).
func TestBandwidthAccounting(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 9)
	res, err := Run(stream, Config{K: 2, M: 2, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.SplitterNodeIDs {
		st := res.NodeStats[id]
		if st.BytesRecv == 0 || st.BytesSent == 0 {
			t.Errorf("splitter node %d has zero traffic: %+v", id, st)
		}
		if st.BytesSent <= st.BytesRecv {
			t.Errorf("splitter node %d: send %d should exceed receive %d (SPH overhead)", id, st.BytesSent, st.BytesRecv)
		}
	}
	for _, id := range res.DecoderNodeIDs {
		if res.NodeStats[id].BytesRecv == 0 {
			t.Errorf("decoder node %d received nothing", id)
		}
	}
	// Conservation: every sent byte is received.
	var sent, recv int64
	for _, st := range res.NodeStats {
		sent += st.BytesSent
		recv += st.BytesRecv
	}
	if sent != recv {
		t.Errorf("fabric bytes not conserved: sent %d received %d", sent, recv)
	}
}

// TestSPHOverheadBounded: total sub-picture bytes should exceed the input
// picture bytes (headers and partial-slice padding) but only modestly —
// the paper reports about 20% at its resolutions. The overhead is a fixed
// per-piece cost, so it shrinks as frames grow; at this small test size a
// looser bound applies (EXPERIMENTS.md records the ratio at paper scale).
// Overlap replication adds more, so this test runs without overlap.
func TestSPHOverheadBounded(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 448, 256, 9)
	res, err := Run(stream, Config{K: 1, M: 2, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Splitters[0]
	if sp.SPBytes <= sp.InputBytes {
		t.Errorf("SP bytes %d not larger than input %d", sp.SPBytes, sp.InputBytes)
	}
	if ratio := float64(sp.SPBytes) / float64(sp.InputBytes); ratio > 1.7 {
		t.Errorf("SP overhead ratio %.2f implausibly high", ratio)
	}
}

// TestOrderingAcrossSplitters floods a many-splitter configuration; the
// decoders assert strict picture ordering internally, so success here means
// the ANID redirect protocol kept pictures in order.
func TestOrderingAcrossSplitters(t *testing.T) {
	stream := makeStream(t, video.SceneAnimation, 96, 64, 18)
	for _, k := range []int{1, 2, 3, 5} {
		res, err := Run(stream, Config{K: k, M: 2, N: 1, CollectFrames: true})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.Throughput.Pictures != 18 {
			t.Fatalf("k=%d: %d pictures", k, res.Throughput.Pictures)
		}
	}
}

// TestThrottledFabric exercises the bandwidth/latency simulation path.
func TestThrottledFabric(t *testing.T) {
	stream := makeStream(t, video.SceneAnimation, 96, 64, 6)
	cfg := Config{K: 1, M: 2, N: 1, CollectFrames: true}
	cfg.Fabric.BandwidthBps = 200e6
	res, err := Run(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := serialFrames(t, stream)
	for i := range ref {
		if !video.Equal(ref[i].Buf, res.Frames[i]) {
			t.Fatalf("frame %d differs under throttling", i)
		}
	}
}

func TestNumNodes(t *testing.T) {
	if (Config{K: 4, M: 4, N: 4}).NumNodes() != 21 {
		t.Error("1-4-(4,4) should use 21 PCs as in the paper's abstract")
	}
	if (Config{K: 0, M: 2, N: 2}).NumNodes() != 5 {
		t.Error("1-(2,2) should use 5 PCs")
	}
}

// TestDynamicBalancing: with credit-based splitter selection (the paper's
// §6 future work) the output must remain bit-exact and in order.
func TestDynamicBalancing(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 18)
	ref := serialFrames(t, stream)
	for _, k := range []int{2, 3, 4} {
		res, err := Run(stream, Config{K: k, M: 2, N: 2, DynamicBalance: true, CollectFrames: true})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if len(res.Frames) != len(ref) {
			t.Fatalf("k=%d: %d frames", k, len(res.Frames))
		}
		for i := range ref {
			if !video.Equal(ref[i].Buf, res.Frames[i]) {
				t.Fatalf("k=%d frame %d differs under dynamic balancing", k, i)
			}
		}
		// Work must actually be spread across splitters.
		for i, sp := range res.Splitters {
			if sp.Pictures == 0 {
				t.Errorf("k=%d: splitter %d got no pictures", k, i)
			}
		}
	}
}

// TestUnbatchedExchangeBitExact: the per-macroblock ablation path must
// produce identical output.
func TestUnbatchedExchangeBitExact(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 9)
	ref := serialFrames(t, stream)
	res, err := Run(stream, Config{K: 2, M: 2, N: 2, UnbatchedExchange: true, CollectFrames: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		if !video.Equal(ref[i].Buf, res.Frames[i]) {
			t.Fatalf("frame %d differs with unbatched exchange", i)
		}
	}
}

func TestMacroblockLevelHasNoRedistribution(t *testing.T) {
	// The contrast Table 1 draws: the hierarchical system sends no decoded
	// pixels at all between nodes except MEI reference macroblocks.
	stream := makeStream(t, video.SceneFilm, 192, 128, 9)
	res, err := Run(stream, Config{K: 1, M: 2, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Decoder-to-decoder traffic exists (MEI) but is far below one frame per
	// picture.
	var interDecoder int64
	for _, a := range res.DecoderNodeIDs {
		for _, b := range res.DecoderNodeIDs {
			interDecoder += res.PairBytes(a, b)
		}
	}
	frameBytes := int64(192*128) * 3 / 2
	if interDecoder > frameBytes*int64(res.Throughput.Pictures)/2 {
		t.Errorf("macroblock-level inter-decoder traffic %d too high vs frames %d",
			interDecoder, frameBytes*int64(res.Throughput.Pictures))
	}
}
