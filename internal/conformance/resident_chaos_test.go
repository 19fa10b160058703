package conformance

import (
	"errors"
	"testing"

	"tiledwall/internal/service"
)

// TestResidentChaosSoak is the resident-service chaos oracle on both
// transports: one warm recovery-enabled wall per configuration, concurrent
// ragged-chunk sessions, a seeded decoder kill and splitter kill per wall,
// and (TCP) seeded hard link resets mid-flight. Every session must return
// with success or a typed error, successful sessions must be exactly-once,
// clean sessions must stay bit-exact with the serial decode, and the wall
// must close cleanly afterwards.
func TestResidentChaosSoak(t *testing.T) {
	seed := chaosSeed(t)
	p := ParamsForSeed(seed)
	stream, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opt  ResidentChaosOptions
	}{
		{"fabric-kills", ResidentChaosOptions{
			Seed: seed, Transport: "fabric", Sessions: 4,
			KillDecoder: true, KillSplitter: true,
		}},
		{"tcp-kills-and-links", ResidentChaosOptions{
			Seed: seed, Transport: "tcp", Sessions: 4,
			KillDecoder: true, KillSplitter: true, LinkFailures: 2,
		}},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			results, err := RunResidentChaos(stream, ResidentChaosConfigs(), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range results {
				succeeded, clean := 0, 0
				for _, s := range r.Sessions {
					if s.Err != nil {
						if !TypedSessionError(s.Err) {
							t.Errorf("%s %s: untyped session error: %v", r.Name(), s.Name, s.Err)
						}
						continue
					}
					succeeded++
					if s.ExactlyOnceViolation != "" {
						t.Errorf("%s %s: %s (recovery: %s)", r.Name(), s.Name, s.ExactlyOnceViolation, s.Recovery)
					}
					if s.Recovery.Clean() {
						clean++
						if s.Divergence != nil {
							t.Errorf("%s %s: clean session diverged from serial: %s", r.Name(), s.Name, s.Divergence)
						}
					}
				}
				if succeeded == 0 {
					t.Errorf("%s: no session succeeded (wall recovery: %s)", r.Name(), r.WallRecovery)
				}
				if r.CloseErr != nil {
					t.Errorf("%s: wall close failed after chaos: %v", r.Name(), r.CloseErr)
				}
				t.Logf("%s: %d/%d sessions ok (%d clean), wall recovery %s, health %s",
					r.Name(), succeeded, len(r.Sessions), clean, r.WallRecovery, r.Health)
			}
		})
	}
}

// TestResidentCorruptIsolation pins failure isolation: one corrupt stream fed
// concurrently with good sessions on a recovery-enabled wall must fail (or
// degrade) alone — the good sessions stay clean and bit-exact, and the wall
// outlives the poison.
func TestResidentCorruptIsolation(t *testing.T) {
	seed := chaosSeed(t)
	p := ParamsForSeed(seed)
	stream, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, transport := range []string{"fabric", "tcp"} {
		transport := transport
		t.Run(transport, func(t *testing.T) {
			t.Parallel()
			for _, kind := range CorruptionKinds() {
				base := ResidentChaosConfigs()[0]
				corruptErr, goodErrs, divs, closeErr, err := RunCorruptIsolation(stream, base, transport, kind, seed)
				if err != nil {
					t.Fatalf("%s: %v", kind, err)
				}
				// The corrupt session may fail typed, or — when the damage
				// happens to survive syntax checks — decode to different
				// pixels; it must never fail untyped or take the wall down.
				if corruptErr != nil && !TypedSessionError(corruptErr) {
					t.Errorf("%s: corrupt session failed untyped: %v", kind, corruptErr)
				}
				for i, gerr := range goodErrs {
					if gerr != nil {
						t.Errorf("%s: good session %d hurt by sibling corruption: %v", kind, i, gerr)
					} else if divs[i] != nil {
						t.Errorf("%s: good session %d diverged: %s", kind, i, divs[i])
					}
				}
				if closeErr != nil {
					t.Errorf("%s: wall close failed: %v", kind, closeErr)
				}
				t.Logf("%s/%s: corrupt session: %v", transport, kind, corruptErr)
			}
		})
	}
}

// TestWallHealthAndRetryAfter pins the health state machine's default and the
// admission error's retry contract without faults: a recovery-enabled wall is
// Healthy at rest, Open past MaxSessions returns *TooManySessionsError with a
// positive RetryAfter hint, and errors.Is still matches ErrTooManySessions.
func TestWallHealthAndRetryAfter(t *testing.T) {
	p := ParamsForSeed(1)
	stream, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	cfg := recoveryForIsolation(ResidentChaosConfigs()[0], "fabric", 1)
	cfg.MaxSessions = 1
	w, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if h := w.Health(); h != service.Healthy {
		t.Fatalf("idle wall health = %s, want healthy", h)
	}
	sess, err := w.Open("only")
	if err != nil {
		t.Fatal(err)
	}
	_, err = w.Open("overflow")
	if err == nil {
		t.Fatal("Open past MaxSessions succeeded")
	}
	if !errors.Is(err, service.ErrTooManySessions) {
		t.Fatalf("overflow error does not match ErrTooManySessions: %v", err)
	}
	var tme *service.TooManySessionsError
	if !errors.As(err, &tme) {
		t.Fatalf("overflow error is not *TooManySessionsError: %T", err)
	}
	if tme.RetryAfter <= 0 {
		t.Fatalf("RetryAfter hint not positive: %v", tme.RetryAfter)
	}
	if tme.Active != 1 || tme.Max != 1 {
		t.Fatalf("admission counts = %d/%d, want 1/1", tme.Active, tme.Max)
	}
	if err := sess.Feed(stream); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if h := w.Health(); h != service.Healthy {
		t.Fatalf("health after clean session = %s, want healthy", h)
	}
}
