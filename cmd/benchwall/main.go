// Command benchwall regenerates the paper's evaluation tables and figures
// (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md for recorded
// results).
//
// Usage:
//
//	benchwall -exp all [-frames 48] [-scale 2]
//	benchwall -exp table1|table4|table5|fig6|fig7|table6|fig8|fig9
//	benchwall -chaos [-chaos-drop 0.04] [-chaos-kill=true]
//	benchwall -json [-json-out BENCH_2026-08-05.json]
//
// -json runs the continuous-benchmark suite (serial steady-state fps and
// allocs/picture, IDCT kernel classes, parallel configurations with phase
// breakdowns) and writes BENCH_<date>.json; cmd/benchguard compares two such
// files and fails on regression.
//
// Paper-scale runs use -frames 240 -scale 1 (slow: stream 16 is a
// 3840x2800 sequence).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"tiledwall/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: all, table1, table4, table5, fig6, fig7, table6, fig8, fig9")
		frames    = flag.Int("frames", 48, "frames per stream (paper: 240)")
		scale     = flag.Int("scale", 2, "resolution divisor (paper: 1)")
		seed      = flag.Int64("seed", 1, "content generator seed (results are reproducible per seed)")
		verbose   = flag.Bool("v", false, "progress logging")
		chaos     = flag.Bool("chaos", false, "run the fault-tolerance sweep: every configuration with recovery armed and a decoder kill, with the recovery breakdown per run")
		chaosKill = flag.Bool("chaos-kill", true, "chaos mode: inject one decoder kill per run")
		jsonMode  = flag.Bool("json", false, "run the continuous-benchmark suite and write BENCH_<date>.json")
		jsonOut   = flag.String("json-out", "", "output path for -json (default BENCH_<date>.json)")
	)
	flag.Parse()

	o := experiments.Options{Frames: *frames, Scale: *scale, Seed: *seed}
	if *verbose {
		o.Log = os.Stderr
	}
	out := os.Stdout

	if *jsonMode {
		now := time.Now()
		rep, err := experiments.BenchJSON(o, now)
		if err != nil {
			log.Fatalf("benchjson: %v", err)
		}
		path := *jsonOut
		if path == "" {
			path = fmt.Sprintf("BENCH_%s.json", now.Format("2006-01-02"))
		}
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		if err := experiments.WriteBenchJSON(f, rep); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (serial %.1f fps, %.2f allocs/picture)\n", path, rep.Serial.FPS, rep.Serial.AllocsPerPic)
		return
	}

	if *chaos {
		rows, err := experiments.Chaos(8, *chaosKill, o)
		if err != nil {
			log.Fatalf("chaos: %v", err)
		}
		label := fmt.Sprintf("stream 8, kill=%v, seed %d", *chaosKill, *seed)
		experiments.PrintChaos(out, label, rows)
		return
	}

	run := func(name string, fn func() error) {
		switch *exp {
		case "all", name:
			if err := fn(); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			fmt.Fprintln(out)
		}
	}
	// fig6 shares data with table5, fig8 with table6.
	alias := map[string]string{"fig6": "table5", "fig8": "table6"}
	if a, ok := alias[*exp]; ok {
		*exp = a
	}

	run("table4", func() error {
		rows, err := experiments.Table4(o)
		if err != nil {
			return err
		}
		experiments.PrintTable4(out, rows)
		return nil
	})

	run("table1", func() error {
		rows, err := experiments.Table1(8, 2, 2, o)
		if err != nil {
			return err
		}
		experiments.PrintTable1(out, "stream 8, 2x2 wall", rows)
		return nil
	})

	run("table5", func() error {
		for _, id := range []int{1, 8} {
			one, two, err := experiments.Table5(id, o)
			if err != nil {
				return err
			}
			experiments.PrintTable5(out, fmt.Sprintf("stream %d", id), one, two)
			fmt.Fprintf(out, "Figure 6 series (nodes -> fps):\n")
			fmt.Fprintf(out, "  one-level: ")
			for _, p := range one {
				fmt.Fprintf(out, "(%d, %.1f) ", p.Nodes, p.FPS)
			}
			fmt.Fprintf(out, "\n  two-level: ")
			for _, p := range two {
				fmt.Fprintf(out, "(%d, %.1f) ", p.Nodes, p.FPS)
			}
			fmt.Fprintln(out)
		}
		return nil
	})

	run("fig7", func() error {
		for _, cfg := range []struct{ k, m, n int }{{2, 2, 2}, {5, 4, 4}} {
			rows, err := experiments.Fig7(8, cfg.k, cfg.m, cfg.n, o)
			if err != nil {
				return err
			}
			experiments.PrintFig7(out, fmt.Sprintf("stream 8, 1-%d-(%d,%d)", cfg.k, cfg.m, cfg.n), rows)
		}
		return nil
	})

	run("table6", func() error {
		rows, err := experiments.Table6(o)
		if err != nil {
			return err
		}
		experiments.PrintTable6(out, rows)
		fmt.Fprintf(out, "Figure 8 series (nodes -> Mpixel/s): ")
		for _, r := range rows {
			fmt.Fprintf(out, "(%d, %.1f) ", r.Nodes, r.PixelRate)
		}
		fmt.Fprintln(out)
		return nil
	})

	run("fig9", func() error {
		rows, err := experiments.Fig9(16, 4, 4, 4, o)
		if err != nil {
			return err
		}
		experiments.PrintFig9(out, "stream 16, 1-4-(4,4)", rows)
		return nil
	})
}
