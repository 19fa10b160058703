package experiments

import (
	"fmt"
	"io"

	"tiledwall/internal/conformance"
	"tiledwall/internal/metrics"
)

// ChaosRow is one configuration's outcome in the chaos sweep: the recovery
// breakdown (DESIGN.md §6) plus the two guarantees the sweep checks — every
// picture emitted exactly once, and bit-exactness whenever no restart or
// concealment was needed.
type ChaosRow struct {
	Name        string
	Recovery    metrics.RecoverySnapshot
	ExactlyOnce bool
	Clean       bool
	BitExact    bool // meaningful only when Clean
	Err         error
	KilledTile  int
	KilledAt    int
}

// Chaos runs the conformance chaos sweep on a catalogue stream: the default
// configuration matrix with the recovery layer armed and (optionally) one
// seeded decoder kill per run, reporting the per-configuration recovery
// interventions.
func Chaos(streamID int, kill bool, o Options) ([]ChaosRow, error) {
	o.defaults()
	data, _, err := Stream(streamID, o, false)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "chaos: stream %d, kill=%v, seed %d\n", streamID, kill, o.Seed)
	results, err := conformance.RunChaosMatrix(data, conformance.DefaultMatrix(), conformance.ChaosOptions{
		Seed: o.Seed,
		Kill: kill,
	})
	if err != nil {
		return nil, err
	}
	rows := make([]ChaosRow, 0, len(results))
	for _, r := range results {
		rows = append(rows, ChaosRow{
			Name:        r.Name(),
			Recovery:    r.Recovery,
			ExactlyOnce: r.Err == nil && r.ExactlyOnceViolation == "",
			Clean:       r.Recovery.Clean(),
			BitExact:    r.Recovery.Clean() && r.Divergence == nil,
			Err:         r.Err,
			KilledTile:  r.KilledTile,
			KilledAt:    r.KilledAt,
		})
	}
	return rows, nil
}

// PrintChaos renders the sweep with one line per configuration.
func PrintChaos(w io.Writer, label string, rows []ChaosRow) {
	fmt.Fprintf(w, "Chaos sweep — %s\n", label)
	fmt.Fprintf(w, "%-14s %-6s %-7s %-9s %s\n", "config", "1x", "clean", "bitexact", "recovery breakdown")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(w, "%-14s FAILED: %v\n", r.Name, r.Err)
			continue
		}
		mark := func(b bool) string {
			if b {
				return "yes"
			}
			return "no"
		}
		bitExact := "-"
		if r.Clean {
			bitExact = mark(r.BitExact)
		}
		fmt.Fprintf(w, "%-14s %-6s %-7s %-9s %s\n", r.Name, mark(r.ExactlyOnce), mark(r.Clean), bitExact, r.Recovery)
		if r.KilledTile >= 0 {
			fmt.Fprintf(w, "%-14s   (decoder kill injected: tile %d at picture %d)\n", "", r.KilledTile, r.KilledAt)
		}
	}
}
