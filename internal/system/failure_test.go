package system

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tiledwall/internal/bits"
	"tiledwall/internal/cluster"
	"tiledwall/internal/cluster/clustertest"
	"tiledwall/internal/video"
)

// Failure injection: the pipeline must fail loudly (with the abort
// mechanism unwinding every node) rather than hanging or producing silent
// corruption.

func TestCorruptSliceDataFailsCleanly(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 128, 96, 6)
	// Corrupt coefficient data inside the first picture's slices without
	// touching start codes: flip bits in the middle of the largest gap
	// between start codes.
	offs, _ := bits.ScanStartCodes(stream)
	best, bestGap := -1, 0
	for i := 0; i+1 < len(offs); i++ {
		if gap := offs[i+1] - offs[i]; gap > bestGap {
			best, bestGap = i, gap
		}
	}
	if best < 0 || bestGap < 32 {
		t.Fatal("no slice payload found to corrupt")
	}
	corrupt := append([]byte(nil), stream...)
	mid := offs[best] + bestGap/2
	for j := 0; j < 8; j++ {
		corrupt[mid+j] ^= 0xA5
	}
	// Guard: do not accidentally fabricate a start code.
	if n := len(mustScan(corrupt)); n != len(offs) {
		t.Skip("corruption changed start-code structure; pattern-specific")
	}

	_, err := Run(corrupt, Config{K: 2, M: 2, N: 2})
	if err == nil {
		// VLC corruption is not guaranteed to be syntactically invalid —
		// it can decode to different but legal macroblocks. What must never
		// happen is a hang; reaching here without one is acceptable.
		t.Log("corruption decoded as legal (different) data; no hang, no crash")
		return
	}
	if !strings.Contains(err.Error(), "") {
		t.Fatalf("unexpected error shape: %v", err)
	}
}

func mustScan(data []byte) []int {
	offs, _ := bits.ScanStartCodes(data)
	return offs
}

func TestTruncatedStreamFailsCleanly(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 128, 96, 6)
	truncated := stream[:len(stream)*2/3]
	// The parallel system must terminate (error or short output), not hang.
	res, err := Run(truncated, Config{K: 1, M: 2, N: 1, CollectFrames: true})
	if err != nil {
		return // clean failure
	}
	if len(res.Frames) >= 6 {
		t.Fatalf("truncated stream yielded %d full frames", len(res.Frames))
	}
}

func TestEmptyishStreamRejected(t *testing.T) {
	for _, data := range [][]byte{nil, {0, 0, 1}, make([]byte, 64)} {
		if _, err := Run(data, Config{K: 1, M: 1, N: 1}); err == nil {
			t.Error("degenerate stream accepted")
		}
	}
}

func TestBadGeometryRejected(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 64, 48, 3)
	if _, err := Run(stream, Config{K: 1, M: 40, N: 1}); err == nil {
		t.Error("wall wider than the picture accepted")
	}
	if _, err := Run(stream, Config{K: 1, M: 0, N: 1}); err == nil {
		t.Error("zero-tile wall accepted")
	}
}

// TestTinyHaloDetected: an undersized halo window must be reported as such
// (the RECV falls outside the reference window), not silently mis-decode.
func TestTinyHaloDetected(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 9)
	_, err := Run(stream, Config{K: 1, M: 2, N: 2, MaxFCode: -1})
	// MaxFCode -1 clamps to fcode 1 => 32 px halo, while the stream uses
	// fcode 3 vectors (up to 32 px reach + interpolation): boundary vectors
	// may or may not exceed the window depending on content. Either a clean
	// "increase MaxFCode" error or success is acceptable; a hang or panic is
	// not. (The error path is deterministic for the fixed seed used here.)
	if err != nil && !strings.Contains(err.Error(), "MaxFCode") && !strings.Contains(err.Error(), "reference window") {
		t.Fatalf("unexpected error kind: %v", err)
	}
}

func TestCalibration(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 12)
	cal, err := Calibrate(stream, 2, 2, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if cal.TS <= 0 || cal.TD <= 0 {
		t.Fatalf("non-positive calibration: %+v", cal)
	}
	if cal.Pictures != 6 {
		t.Errorf("calibrated over %d pictures", cal.Pictures)
	}
	// The formula's basic sanity: more splitters never predict lower fps.
	prev := 0.0
	for k := 0; k <= 4; k++ {
		f := cal.PredictedFPS(k)
		if f < prev {
			t.Errorf("PredictedFPS(%d) = %f < PredictedFPS(%d) = %f", k, f, k-1, prev)
		}
		prev = f
	}
	// RecommendedK saturates the decoders: predicted fps at k_rec within a
	// hair of the decode bound.
	k := cal.RecommendedK(0)
	bound := 1 / cal.TD.Seconds()
	if got := cal.PredictedFPS(maxInt(k, 1)); got < bound*0.99 {
		t.Errorf("recommended k=%d gives %f fps, decode bound %f", k, got, bound)
	}
	// A modest target frame rate needs fewer splitters.
	if kLow := cal.RecommendedK(1.0); kLow > k {
		t.Errorf("low-target k=%d exceeds unconstrained k=%d", kLow, k)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- Property tests ----------------------------------------------------------
//
// Randomised (but seeded and logged) sweeps over configuration and fault
// space. They are part of the -race suite: the properties under test —
// in-order bit-exact delivery, no deadlock under dropped credits or torn
// streams — are exactly the ones data races break first.

// propertySeed is fixed so CI is deterministic; when a property fails, the
// log line carries everything needed to replay the trial.
const propertySeed = 1977

// TestPropertyRandomConfigs: for random k/m/n/overlap configurations the
// assembled output must be the serial decode, frame for frame, in display
// order. Ordering is asserted implicitly: any reordering, duplication or
// loss under the ANID ack-redirect protocol produces a frame mismatch.
func TestPropertyRandomConfigs(t *testing.T) {
	stream := makeStream(t, video.SceneFishTank, 160, 96, 8)
	ref := serialFrames(t, stream)
	rng := rand.New(rand.NewSource(propertySeed))
	for trial := 0; trial < 8; trial++ {
		cfg := Config{
			K:             rng.Intn(5),
			M:             1 + rng.Intn(3),
			N:             1 + rng.Intn(2),
			Overlap:       []int{0, 0, 8, 16}[rng.Intn(4)],
			CollectFrames: true,
		}
		if cfg.M*cfg.N == 1 {
			cfg.Overlap = 0
		}
		name := fmt.Sprintf("trial %d: seed %d, 1-%d-(%d,%d)ov%d", trial, propertySeed, cfg.K, cfg.M, cfg.N, cfg.Overlap)
		res, err := Run(stream, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Frames) != len(ref) {
			t.Fatalf("%s: %d frames, want %d", name, len(res.Frames), len(ref))
		}
		for i := range ref {
			if !video.Equal(ref[i].Buf, res.Frames[i]) {
				t.Fatalf("%s: frame %d differs from serial decode", name, i)
			}
		}
	}
}

// TestPropertyDroppedAcks: GM is reliable, so the credit protocol has no
// retransmit path — losing an ack is outside its contract and by design
// stalls the pipeline. The property: an ack dropped at a random point either
// does not matter (the run still completes bit-exactly) or surfaces as the
// watchdog's typed cluster.ErrStalled — never a hang, never corruption.
func TestPropertyDroppedAcks(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 128, 96, 6)
	ref := serialFrames(t, stream)
	rng := rand.New(rand.NewSource(propertySeed))
	stalled := 0
	for trial := 0; trial < 6; trial++ {
		dropAt := int64(1 + rng.Intn(40)) // which ack (1-based) to start losing
		var acks int64
		cfg := Config{K: 1 + rng.Intn(3), M: 2, N: 1 + rng.Intn(2), CollectFrames: true}
		fabric := cluster.New(cfg.NumNodes(), cluster.Config{StallTimeout: 500 * time.Millisecond})
		cfg.Wired = clustertest.Dropping(fabric, func(m *cluster.Message) bool {
			return m.Kind == cluster.MsgAck && atomic.AddInt64(&acks, 1) >= dropAt
		})
		name := fmt.Sprintf("trial %d: seed %d, 1-%d-(%d,%d), drop acks from #%d", trial, propertySeed, cfg.K, cfg.M, cfg.N, dropAt)
		res, err := Run(stream, cfg)
		fabric.Shutdown()
		if err != nil {
			if !errors.Is(err, cluster.ErrStalled) {
				t.Fatalf("%s: stall expected, got: %v", name, err)
			}
			stalled++
			continue
		}
		if len(res.Frames) != len(ref) {
			t.Fatalf("%s: completed with %d frames, want %d", name, len(res.Frames), len(ref))
		}
		for i := range ref {
			if !video.Equal(ref[i].Buf, res.Frames[i]) {
				t.Fatalf("%s: frame %d differs from serial decode", name, i)
			}
		}
	}
	// Dropping acks early in a multi-picture run must stall at least once;
	// if it never does, the Drop hook is not wired into the ack path.
	if stalled == 0 {
		t.Error("no trial stalled: ack drops are not reaching the credit protocol")
	}
}

// TestPropertyTruncatedPictures: streams torn at random byte offsets must
// terminate — cleanly rejected, partially decoded, or stalled-and-aborted —
// under every pipeline shape. The stall watchdog bounds the failure mode.
func TestPropertyTruncatedPictures(t *testing.T) {
	stream := makeStream(t, video.SceneBroadcast, 160, 96, 8)
	rng := rand.New(rand.NewSource(propertySeed))
	for trial := 0; trial < 8; trial++ {
		// Cut inside the picture data region (past the sequence header).
		cut := 64 + rng.Intn(len(stream)-64)
		cfg := Config{
			K: rng.Intn(3), M: 1 + rng.Intn(2), N: 1 + rng.Intn(2),
			CollectFrames: true,
			Fabric:        cluster.Config{StallTimeout: time.Second},
		}
		name := fmt.Sprintf("trial %d: seed %d, 1-%d-(%d,%d), cut at %d/%d", trial, propertySeed, cfg.K, cfg.M, cfg.N, cut, len(stream))
		res, err := Run(stream[:cut], cfg)
		if err != nil {
			continue // clean, typed failure
		}
		if len(res.Frames) > 8 {
			t.Fatalf("%s: truncated stream produced %d frames", name, len(res.Frames))
		}
	}
}

// TestModeledThroughput sanity: modelled fps is finite, positive, and not
// slower than the busiest node implies.
func TestModeledThroughput(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 9)
	res, err := Run(stream, Config{K: 2, M: 2, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	mt := res.Modeled()
	if mt.FPS() <= 0 {
		t.Fatalf("modelled fps %f", mt.FPS())
	}
	if mt.Elapsed > res.Throughput.Elapsed {
		t.Errorf("modelled elapsed %v exceeds wall clock %v", mt.Elapsed, res.Throughput.Elapsed)
	}
}
