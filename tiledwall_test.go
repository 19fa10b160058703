package tiledwall

import (
	"errors"
	"testing"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/cluster/clustertest"
	"tiledwall/internal/mpegps"
	"tiledwall/internal/video"
)

// TestTypedErrors: the façade's sentinels must match what the pipeline and
// decoder actually return, so callers can errors.Is without internal imports.
func TestTypedErrors(t *testing.T) {
	// Garbage input → ErrCorruptStream, through the public Decode.
	if _, err := Decode([]byte("definitely not mpeg2")); !errors.Is(err, ErrCorruptStream) {
		t.Fatalf("garbage decode error %v is not ErrCorruptStream", err)
	}
	// A deadlocked pipeline → ErrStalled, through the public Play: dropping
	// every protocol ack starves the credit scheme until the watchdog fires.
	stream, err := GenerateStream(3, GenOptions{Frames: 6, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := WallConfig{K: 1, M: 2, N: 1}
	fabric := cluster.New(cfg.NumNodes(), cluster.Config{StallTimeout: 500 * time.Millisecond})
	defer fabric.Shutdown()
	cfg.Wired = clustertest.Dropping(fabric, func(m *cluster.Message) bool { return m.Kind == cluster.MsgAck })
	if _, err := Play(stream, cfg); !errors.Is(err, ErrStalled) {
		t.Fatalf("stalled pipeline error %v is not ErrStalled", err)
	}
	// Wrapped sentinels must still match.
	for _, e := range []error{ErrStalled, ErrCorruptStream, ErrUnsupported} {
		if !errors.Is(newWrapped(e), e) {
			t.Fatalf("wrapped %v does not match with errors.Is", e)
		}
	}
}

func newWrapped(e error) error { return errors.Join(errors.New("context"), e) }

// TestRecoveryFacade: the fault-tolerance layer is reachable from the public
// API — a run with recovery enabled reports its snapshot on the result.
func TestRecoveryFacade(t *testing.T) {
	stream, err := GenerateStream(3, GenOptions{Frames: 6, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := WallConfig{K: 1, M: 2, N: 1}
	cfg.Recovery = RecoveryConfig{Enabled: true}
	cfg.Fabric.StallTimeout = 20 * time.Second
	res, err := Play(stream, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snap RecoverySnapshot = res.Recovery
	if !snap.Clean() {
		t.Fatalf("fault-free recovery run not clean: %s", snap)
	}
	if len(res.TileEmissions) != 2 {
		t.Fatalf("emission log for %d tiles, want 2", len(res.TileEmissions))
	}
}

// TestFacadeEndToEnd drives the public façade: generate a catalogue stream,
// calibrate, play it on the recommended configuration, and verify against
// the serial decoder.
func TestFacadeEndToEnd(t *testing.T) {
	stream, err := GenerateStream(5, GenOptions{Frames: 9, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	cal, err := Calibrate(stream, 2, 2, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	k := cal.RecommendedK(0)
	if k == 0 {
		k = 1
	}
	res, err := Play(stream, WallConfig{K: k, M: 2, N: 2, CollectFrames: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Decode(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) != len(res.Frames) {
		t.Fatalf("%d parallel frames vs %d serial", len(res.Frames), len(ref))
	}
	for i := range ref {
		if !video.Equal(ref[i].Buf, res.Frames[i]) {
			t.Fatalf("frame %d differs", i)
		}
	}
	if res.Modeled().FPS() <= 0 {
		t.Error("no throughput reported")
	}
}

func TestStreamsCatalogue(t *testing.T) {
	if len(Streams()) != 16 {
		t.Fatalf("%d streams", len(Streams()))
	}
	if _, err := GenerateStream(99, GenOptions{}); err == nil {
		t.Error("unknown stream id accepted")
	}
}

// TestProgramStreamPlayback: a PS-wrapped catalogue stream demuxes and plays
// identically to the raw elementary stream.
func TestProgramStreamPlayback(t *testing.T) {
	es, err := GenerateStream(4, GenOptions{Frames: 6, Scale: 8})
	if err != nil {
		t.Fatal(err)
	}
	ps := mpegps.Mux(es, mpegps.MuxOptions{})
	back, err := mpegps.Demux(ps)
	if err != nil {
		t.Fatal(err)
	}
	refA, err := Decode(es)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := Decode(back)
	if err != nil {
		t.Fatal(err)
	}
	if len(refA) != len(refB) {
		t.Fatalf("picture counts differ: %d vs %d", len(refA), len(refB))
	}
	for i := range refA {
		if !video.Equal(refA[i].Buf, refB[i].Buf) {
			t.Fatalf("frame %d differs after PS round trip", i)
		}
	}
}
