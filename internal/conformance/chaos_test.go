package conformance

import (
	"os"
	"strconv"
	"testing"
)

// chaosSeed lets the CI chaos matrix sweep seeds without recompiling: each
// matrix job sets TILEDWALL_CHAOS_SEED to a different value. Locally the test
// runs with seed 1.
func chaosSeed(t *testing.T) int64 {
	if v := os.Getenv("TILEDWALL_CHAOS_SEED"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			t.Fatalf("TILEDWALL_CHAOS_SEED=%q: %v", v, err)
		}
		return n
	}
	return 1
}

// TestChaosMatrix is the conformance oracle under injected failure: every
// configuration of the default matrix runs with the recovery layer armed,
// fault-free and with one random decoder kill. The run
// must complete, every tile must emit every picture index exactly once, and
// runs whose recovery snapshot is Clean (the fault-free sweeps) must remain
// bit-exact with the serial decode.
func TestChaosMatrix(t *testing.T) {
	seed := chaosSeed(t)
	p := ParamsForSeed(seed)
	stream, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, sweep := range []struct {
		name string
		opt  ChaosOptions
	}{
		// Fault-free: recovery armed but never intervening — every run must
		// come back Clean and hit the bit-exactness bar.
		{"fault-free", ChaosOptions{Seed: seed}},
		// One decoder kill per run: restart, replay, and (rarely) concealment
		// are all in play; exactly-once must still hold.
		{"kill", ChaosOptions{Seed: seed, Kill: true}},
	} {
		sweep := sweep
		t.Run(sweep.name, func(t *testing.T) {
			t.Parallel()
			results, err := RunChaosMatrix(stream, DefaultMatrix(), sweep.opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) < 6 {
				t.Fatalf("chaos matrix ran only %d configurations, want >= 6", len(results))
			}
			cleanRuns := 0
			for _, r := range results {
				if r.Err != nil {
					t.Errorf("%s: pipeline failed under chaos: %v", r.Name(), r.Err)
					continue
				}
				if r.ExactlyOnceViolation != "" {
					t.Errorf("%s: %s (recovery: %s)", r.Name(), r.ExactlyOnceViolation, r.Recovery)
				}
				if sweep.opt.Kill && r.Recovery.Restarts < 1 {
					t.Errorf("%s: armed kill (tile %d, pic %d) registered no restart: %s",
						r.Name(), r.KilledTile, r.KilledAt, r.Recovery)
				}
				if r.Recovery.Clean() {
					cleanRuns++
					if r.Divergence != nil {
						t.Errorf("%s: clean chaos run diverged from serial: %s", r.Name(), r.Divergence)
					}
				}
			}
			// The Clean path must actually be exercised in the fault-free
			// sweeps, or the bit-exactness clause is vacuous.
			if !sweep.opt.Kill && cleanRuns != len(results) {
				t.Errorf("only %d/%d fault-free configurations came back clean", cleanRuns, len(results))
			}
		})
	}
}

// TestChaosEmissionChecker pins the exactly-once checker itself: holes,
// duplicates, short logs and missing logs must all be flagged.
func TestChaosEmissionChecker(t *testing.T) {
	if v := emissionViolation([][]int{{2, 0, 1}, {0, 1, 2}}, 3); v != "" {
		t.Fatalf("reordered-but-complete log flagged: %s", v)
	}
	if v := emissionViolation(nil, 3); v == "" {
		t.Fatal("missing log not flagged")
	}
	if v := emissionViolation([][]int{{0, 1}}, 3); v == "" {
		t.Fatal("short log not flagged")
	}
	if v := emissionViolation([][]int{{0, 1, 1}}, 3); v == "" {
		t.Fatal("duplicate emission not flagged")
	}
	if v := emissionViolation([][]int{{0, 1, 3}}, 3); v == "" {
		t.Fatal("hole in emissions not flagged")
	}
}
