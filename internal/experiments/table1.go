package experiments

import (
	"fmt"
	"io"
	"time"

	"tiledwall/internal/metrics"
	"tiledwall/internal/system"
)

// Table1Row is the measured version of the paper's Table 1 comparison of
// parallelisation granularities. The paper's table is qualitative
// ("very low" ... "very high"); here every cost is measured: the
// macroblock level on a real run of the wall, the three rejected levels on
// the sequential cost model of baselines.go.
type Table1Row struct {
	Level string

	// SplitMsPerPicture is the splitter CPU cost per picture.
	SplitMsPerPicture float64
	// InterDecoderKBPerPicture is reference traffic between decoders.
	InterDecoderKBPerPicture float64
	// RedistributionKBPerPicture is decoded-pixel traffic to display nodes.
	RedistributionKBPerPicture float64
	// FPS is the modeled frame rate (informational: pictures divided by the
	// busiest node's timed work, DESIGN.md §7).
	FPS float64
}

// Table1 measures all four granularities on the same content and wall
// geometry. The stream is regenerated with closed GOPs where required.
func Table1(streamID int, m, n int, o Options) ([]Table1Row, error) {
	o.defaults()
	rows := make([]Table1Row, 0, 4)

	closed, _, err := Stream(streamID, o, true)
	if err != nil {
		return nil, err
	}
	open, _, err := Stream(streamID, o, false)
	if err != nil {
		return nil, err
	}

	for _, lv := range []struct {
		name  string
		level BaselineLevel
		data  []byte
	}{{"GOP", LevelGOP, closed}, {"picture", LevelPicture, open}, {"slice", LevelSlice, open}} {
		fmt.Fprintf(o.Log, "table1: %s level\n", lv.name)
		r, err := RunBaseline(lv.data, BaselineConfig{Level: lv.level, M: m, N: n})
		if err != nil {
			return nil, err
		}
		rows = append(rows, baselineRow(lv.name, r))
	}

	// Macroblock level: the paper's own scheme. Splitting cost is the
	// second-level splitter's Work time; communication is decoder-to-decoder
	// MEI traffic; there is no pixel redistribution.
	fmt.Fprintf(o.Log, "table1: macroblock level\n")
	res, err := system.Run(open, system.Config{K: 1, M: m, N: n})
	if err != nil {
		return nil, err
	}
	pics := float64(res.Throughput.Pictures)
	var inter int64
	for _, a := range res.DecoderNodeIDs {
		for _, b := range res.DecoderNodeIDs {
			inter += res.PairBytes(a, b)
		}
	}
	rows = append(rows, Table1Row{
		Level:                    "macroblock",
		SplitMsPerPicture:        res.Splitters[0].Breakdown.PerPicture(metrics.PhaseWork),
		InterDecoderKBPerPicture: float64(inter) / pics / 1024,
		// No redistribution by construction.
		RedistributionKBPerPicture: 0,
		FPS:                        res.Modeled().FPS(),
	})
	return rows, nil
}

func baselineRow(name string, r *BaselineResult) Table1Row {
	pics := float64(r.Throughput.Pictures)
	return Table1Row{
		Level:                      name,
		SplitMsPerPicture:          float64(r.SplitTime) / float64(time.Millisecond) / pics,
		InterDecoderKBPerPicture:   float64(r.InterDecoderBytes) / pics / 1024,
		RedistributionKBPerPicture: float64(r.RedistributionBytes) / pics / 1024,
		FPS:                        r.Modeled().FPS(),
	}
}

// PrintTable1 writes the measured comparison.
func PrintTable1(w io.Writer, label string, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1 (measured). Costs of Parallelisation Granularities — %s\n", label)
	fmt.Fprintf(w, "%-11s %14s %18s %18s %8s\n", "level", "split ms/pic", "inter-dec KB/pic", "redistrib KB/pic", "fps")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %14.3f %18.1f %18.1f %8.1f\n",
			r.Level, r.SplitMsPerPicture, r.InterDecoderKBPerPicture, r.RedistributionKBPerPicture, r.FPS)
	}
}
