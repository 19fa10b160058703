// Soak tests for the resident wall: many sessions, mixed streams, ragged
// chunk feeding, wall reuse across rounds — all byte-verified against the
// serial reference decoder. The package is external (service_test) so it can
// use the conformance stream generator, which depends on system and hence on
// service. CI runs this file under -race as the multi-session soak.
package service_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/conformance"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/system"
	"tiledwall/internal/video"
)

// soakStream is one generated stream plus its serial reference decode.
type soakStream struct {
	data []byte
	ref  []mpeg2.DecodedPicture
}

func genStreams(t *testing.T, seeds []int64) []soakStream {
	t.Helper()
	out := make([]soakStream, len(seeds))
	for i, seed := range seeds {
		data, err := conformance.ParamsForSeed(seed).Generate()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dec, err := mpeg2.NewDecoder(data)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref, err := dec.DecodeAll()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out[i] = soakStream{data: data, ref: ref}
	}
	return out
}

// feedChunked drives one stream through an open session in ragged chunks and
// returns the assembled frames.
func feedChunked(w *system.ResidentWall, st soakStream, name string, chunk int) ([]*mpeg2.PixelBuf, error) {
	sess, err := w.Open(name)
	if err != nil {
		return nil, err
	}
	for off := 0; off < len(st.data); off += chunk {
		end := off + chunk
		if end > len(st.data) {
			end = len(st.data)
		}
		if err := sess.Feed(st.data[off:end]); err != nil {
			sess.Close()
			return nil, err
		}
	}
	res, err := sess.Close()
	if err != nil {
		return nil, err
	}
	return res.Frames, nil
}

func verifyFrames(ref []mpeg2.DecodedPicture, got []*mpeg2.PixelBuf) error {
	if len(ref) != len(got) {
		return fmt.Errorf("frame count: serial %d, session %d", len(ref), len(got))
	}
	for i := range ref {
		if !video.Equal(ref[i].Buf, got[i]) {
			return fmt.Errorf("frame %d differs from serial decode", i)
		}
	}
	return nil
}

// TestSoakMultiSession opens one resident wall per geometry and pushes two
// rounds of concurrent mixed-stream sessions through it: round two reuses a
// warm pipeline, so per-session state isolation (not just construction) is
// what keeps the decodes bit-exact.
func TestSoakMultiSession(t *testing.T) {
	streams := genStreams(t, []int64{1, 3, 8, 11})
	walls := []system.Config{
		{K: 0, M: 2, N: 2},
		{K: 2, M: 2, N: 2},
		{K: 3, M: 2, N: 2, Overlap: 16},
		{K: 1, M: 3, N: 1, SplitWorkers: 2, DynamicBalance: true},
	}
	for wi, cfg := range walls {
		wi, cfg := wi, cfg
		t.Run(fmt.Sprintf("1-%d-(%d,%d)ov%d", cfg.K, cfg.M, cfg.N, cfg.Overlap), func(t *testing.T) {
			t.Parallel()
			cfg.CollectFrames = true
			cfg.MaxSessions = len(streams)
			w, err := system.NewResidentWall(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := w.Close(); err != nil {
					t.Fatalf("wall close: %v", err)
				}
			}()
			for round := 0; round < 2; round++ {
				var wg sync.WaitGroup
				errs := make([]error, len(streams))
				for si, st := range streams {
					si, st := si, st
					wg.Add(1)
					go func() {
						defer wg.Done()
						chunk := 128<<(si%4) + 31*si + 17*wi + round + 1
						frames, err := feedChunked(w, st, fmt.Sprintf("soak-%d-%d", round, si), chunk)
						if err == nil {
							err = verifyFrames(st.ref, frames)
						}
						errs[si] = err
					}()
				}
				wg.Wait()
				for si, err := range errs {
					if err != nil {
						t.Fatalf("round %d stream %d: %v", round, si, err)
					}
				}
			}
		})
	}
}

// TestSoakTCPLoopback reuses the multi-session soak over the TCP socket
// transport: one resident wall per geometry, every hop crossing real loopback
// sockets through the hub, two rounds of concurrent mixed-stream sessions —
// byte-verified against the serial reference like the fabric soak above.
func TestSoakTCPLoopback(t *testing.T) {
	streams := genStreams(t, []int64{3, 11})
	walls := []system.Config{
		{K: 0, M: 2, N: 2, Transport: "tcp"},
		{K: 2, M: 2, N: 2, SplitWorkers: 2, Transport: "tcp"},
	}
	for wi, cfg := range walls {
		wi, cfg := wi, cfg
		t.Run(fmt.Sprintf("1-%d-(%d,%d)", cfg.K, cfg.M, cfg.N), func(t *testing.T) {
			t.Parallel()
			cfg.CollectFrames = true
			cfg.MaxSessions = len(streams)
			w, err := system.NewResidentWall(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := w.Close(); err != nil {
					t.Fatalf("wall close: %v", err)
				}
			}()
			for round := 0; round < 2; round++ {
				var wg sync.WaitGroup
				errs := make([]error, len(streams))
				for si, st := range streams {
					si, st := si, st
					wg.Add(1)
					go func() {
						defer wg.Done()
						chunk := 96<<(si%4) + 29*si + 13*wi + round + 1
						frames, err := feedChunked(w, st, fmt.Sprintf("tcp-soak-%d-%d", round, si), chunk)
						if err == nil {
							err = verifyFrames(st.ref, frames)
						}
						errs[si] = err
					}()
				}
				wg.Wait()
				for si, err := range errs {
					if err != nil {
						t.Fatalf("round %d stream %d: %v", round, si, err)
					}
				}
			}
		})
	}
}

// TestSoakTCPPeerKill is the seeded kill-the-TCP-peer property test: a wall
// on the socket transport loses one seeded node's connection (RST, not FIN)
// at a seeded point mid-stream. The property, for every seed: the pipeline
// never hangs, and the abort cause that surfaces is one of the typed link
// faults — ErrLinkLost from the broken connection or ErrStalled from the
// watchdog that backs it up — never a silent success or an untyped error.
func TestSoakTCPPeerKill(t *testing.T) {
	p := conformance.ParamsForSeed(5)
	stream, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{K: 2, M: 2, N: 2, MaxSessions: 1}
	nn := cfg.NumNodes()
	for seed := 0; seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			ids := make([]int, nn)
			for i := range ids {
				ids[i] = i
			}
			tr, err := cluster.ListenTCP("127.0.0.1:0", cluster.TCPConfig{
				NumNodes:     nn,
				LocalNodes:   ids,
				Grid:         cluster.Grid{K: cfg.K, M: cfg.M, N: cfg.N},
				StallTimeout: 2 * time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			scfg := cfg
			scfg.Wired = tr
			w, err := service.New(scfg)
			if err != nil {
				tr.Abort(err)
				t.Fatal(err)
			}
			// Seeded fault plan: which node's link dies, and where in the
			// stream it dies (between 1/8 and 1/2 of the bytes fed).
			victim := (seed * 2654435761) % nn
			if victim < 0 {
				victim += nn
			}
			killAt := len(stream) * (1 + seed%4) / 8
			done := make(chan struct{})
			go func() {
				defer close(done)
				sess, err := w.Open(fmt.Sprintf("kill-%d", seed))
				if err != nil {
					return
				}
				killed := false
				for off := 0; off < len(stream); off += 1024 {
					if !killed && off >= killAt {
						tr.InjectLinkFailure(victim)
						killed = true
					}
					end := off + 1024
					if end > len(stream) {
						end = len(stream)
					}
					if err := sess.Feed(stream[off:end]); err != nil {
						break
					}
				}
				if !killed {
					tr.InjectLinkFailure(victim)
				}
				sess.Close() // error expected; the cause is checked below
				w.Close()
				tr.Shutdown()
			}()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatalf("victim %d killAt %d: pipeline hung after link kill", victim, killAt)
			}
			cause := tr.AbortCause()
			if cause == nil {
				t.Fatalf("victim %d killAt %d: no abort after link kill", victim, killAt)
			}
			if !errors.Is(cause, cluster.ErrLinkLost) && !errors.Is(cause, cluster.ErrStalled) {
				t.Fatalf("victim %d killAt %d: abort cause %v is not a typed link fault", victim, killAt, cause)
			}
		})
	}
}

// TestAdmissionControl pins the service's bounds: Open beyond MaxSessions is
// rejected with the typed sentinel, a slot frees on session close, and a
// closed wall admits nothing.
func TestAdmissionControl(t *testing.T) {
	w, err := system.NewResidentWall(system.Config{K: 1, M: 1, N: 1, MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := w.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := w.Open("b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Open("c"); !errors.Is(err, service.ErrTooManySessions) {
		t.Fatalf("third open: got %v, want ErrTooManySessions", err)
	}
	// Closing a session (even an empty, failed one) frees its slot.
	if _, err := s1.Close(); err == nil {
		t.Fatal("closing an empty session should report the missing sequence header")
	}
	s3, err := w.Open("c")
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if _, err := s2.Close(); err == nil {
		t.Fatal("closing an empty session should report the missing sequence header")
	}
	if _, err := s3.Close(); err == nil {
		t.Fatal("closing an empty session should report the missing sequence header")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("wall close: %v", err)
	}
	if _, err := w.Open("d"); !errors.Is(err, service.ErrWallClosed) {
		t.Fatalf("open on closed wall: got %v, want ErrWallClosed", err)
	}
}
