package system

import (
	"testing"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/recovery"
	"tiledwall/internal/service"
	"tiledwall/internal/video"
)

// TestMergedResult pins the one result shape: the single Modeled (pictures
// from Throughput over the busiest node's busy time, Throughput unchanged
// when no node did timed work), and the recovery split between a batch Run
// (session plus wall interventions) and Wall.Play (the session's own).
func TestMergedResult(t *testing.T) {
	stream := makeStream(t, video.SceneFilm, 192, 128, 9)
	busiest := func(r *service.SessionResult) time.Duration {
		var b time.Duration
		for _, sr := range r.Splitters {
			b = max(b, sr.Breakdown.Busy())
		}
		for _, dr := range r.Decoders {
			b = max(b, dr.Breakdown.Busy())
		}
		return b
	}
	kill := Config{K: 1, M: 2, N: 1, Recovery: testRecoveryConfig(),
		Chaos:  recovery.ChaosPlan{KillDecoder: true, DecoderTile: 1, KillAtPicture: 3},
		Fabric: cluster.Config{StallTimeout: 10 * time.Second}}

	for _, tc := range []struct {
		name  string
		check func(t *testing.T)
	}{
		{"modeled K=0 nil root", func(t *testing.T) {
			res, err := Run(stream, Config{K: 0, M: 2, N: 1})
			if err != nil {
				t.Fatal(err)
			}
			if res.Root != nil {
				t.Fatal("one-level run reports a root result")
			}
			got, b := res.Modeled(), busiest(&res.SessionResult)
			if b <= 0 || got.Elapsed != b || got.Pictures != res.Throughput.Pictures ||
				got.PixelsPerPicture != res.Throughput.PixelsPerPicture {
				t.Errorf("Modeled %+v, want %d pictures over the busiest node's %v", got, res.Throughput.Pictures, b)
			}
		}},
		{"modeled busiest 0", func(t *testing.T) {
			r := &service.SessionResult{Pictures: 10, Throughput: metrics.Throughput{
				Pictures: 10, Elapsed: 2 * time.Second, PixelsPerPicture: 64}}
			if got := r.Modeled(); got != r.Throughput || got.FPS() != 5 {
				t.Errorf("Modeled %+v (%.1f fps), want Throughput %+v unchanged", got, got.FPS(), r.Throughput)
			}
		}},
		{"modeled trick play", func(t *testing.T) {
			w, err := service.New(Config{K: 1, M: 2, N: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			s, err := w.Open("trick")
			if err != nil {
				t.Fatal(err)
			}
			if err := s.SetTrickMode(service.TrickDropB); err != nil {
				t.Fatal(err)
			}
			if err := s.Feed(stream); err != nil {
				t.Fatal(err)
			}
			r, err := s.Close()
			if err != nil {
				t.Fatal(err)
			}
			if r.ShippedPictures >= r.Pictures {
				t.Fatalf("drop-B shipped %d of %d pictures", r.ShippedPictures, r.Pictures)
			}
			// Dropped pictures count: the model is the stream's rate.
			if got := r.Modeled(); got.Pictures != r.Pictures || got.Elapsed != busiest(r) {
				t.Errorf("Modeled %+v, want %d pictures over %v", got, r.Pictures, busiest(r))
			}
		}},
		{"run sums session and wall recovery", func(t *testing.T) {
			res, err := Run(stream, kill)
			if err != nil {
				t.Fatal(err)
			}
			if res.Recovery.Restarts < 1 {
				t.Errorf("Run's recovery %s lacks the wall's restart", res.Recovery)
			}
		}},
		{"wall play reports the session's own", func(t *testing.T) {
			w, err := service.New(kill)
			if err != nil {
				t.Fatal(err)
			}
			r, err := w.Play(stream)
			if cerr := w.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Fatal(err)
			}
			if wall := w.Recovery(); wall.Restarts < 1 {
				t.Fatalf("the kill registered no restart on the wall: %s", wall)
			}
			if r.Recovery.Restarts != 0 || r.Recovery.ReplayedPictures != 0 {
				t.Errorf("session recovery %s carries the wall's restarts or replays", r.Recovery)
			}
		}},
	} {
		t.Run(tc.name, tc.check)
	}
}
