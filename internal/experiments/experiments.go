// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): the granularity comparison (Table 1), the stream
// characteristics (Table 4), one-level vs two-level frame rates (Table 5 /
// Figure 6), the decoder runtime breakdown (Figure 7), resolution
// scalability (Table 6 / Figure 8) and per-node bandwidth (Figure 9). The
// cmd/benchwall binary and the repository benchmarks drive these functions.
//
// Absolute numbers differ from the paper's 550-733 MHz Pentium III cluster;
// what reproduces is the shape: where the one-level splitter saturates,
// how the hierarchy removes it, how pixel rate scales with nodes, and how
// low and balanced the bandwidth stays (see EXPERIMENTS.md).
package experiments

import (
	"fmt"
	"io"
	"sync"

	"tiledwall/internal/catalog"
	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/system"
)

// Options tunes experiment scale.
type Options struct {
	// Frames per generated stream (the paper uses 240).
	Frames int
	// Scale divides stream resolutions (1 = paper scale).
	Scale int
	// Seed parameterises the content generators so every experiment is
	// reproducible from its reported options; 0 means the default seed 1
	// (the catalogue default, keeping historical numbers comparable).
	Seed int64
	// Verbose prints progress notes.
	Verbose bool
	Log     io.Writer
}

func (o *Options) defaults() {
	if o.Frames == 0 {
		o.Frames = 48
	}
	if o.Scale == 0 {
		o.Scale = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
}

// streamCache avoids re-encoding a stream for several experiments.
type streamCache struct {
	mu sync.Mutex
	m  map[string][]byte
}

var cache = &streamCache{m: map[string][]byte{}}

func (c *streamCache) get(spec catalog.StreamSpec, opts catalog.GenOptions) ([]byte, error) {
	key := fmt.Sprintf("%d/%d/%d/%v/%d", spec.ID, opts.Frames, opts.Scale, opts.ClosedGOP, opts.Seed)
	c.mu.Lock()
	if b, ok := c.m[key]; ok {
		c.mu.Unlock()
		return b, nil
	}
	c.mu.Unlock()
	b, err := spec.Generate(opts)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.m[key] = b
	c.mu.Unlock()
	return b, nil
}

// Stream generates (or fetches) a catalogue stream at the experiment scale.
func Stream(id int, o Options, closedGOP bool) ([]byte, catalog.StreamSpec, error) {
	o.defaults()
	spec, err := catalog.ByID(id)
	if err != nil {
		return nil, spec, err
	}
	b, err := cache.get(spec, catalog.GenOptions{Frames: o.Frames, Scale: o.Scale, ClosedGOP: closedGOP, Seed: o.Seed})
	return b, spec, err
}

// --- Table 4 ----------------------------------------------------------------

// Table4Row mirrors the columns of the paper's Table 4.
type Table4Row struct {
	ID           int
	Name         string
	W, H         int
	AvgFrameSize float64 // bytes
	BitsPerPixel float64
}

// Table4 generates every catalogue stream and reports its characteristics.
func Table4(o Options) ([]Table4Row, error) {
	o.defaults()
	var rows []Table4Row
	for _, spec := range catalog.Streams {
		fmt.Fprintf(o.Log, "table4: generating stream %d (%s)\n", spec.ID, spec.Name)
		data, err := cache.get(spec, catalog.GenOptions{Frames: o.Frames, Scale: o.Scale, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		s, err := mpeg2.ParseStream(data)
		if err != nil {
			return nil, err
		}
		avg := float64(len(data)) / float64(len(s.Pictures))
		rows = append(rows, Table4Row{
			ID: spec.ID, Name: spec.Name,
			W: s.Seq.Width, H: s.Seq.Height,
			AvgFrameSize: avg,
			BitsPerPixel: avg * 8 / float64(s.Seq.Width*s.Seq.Height),
		})
	}
	return rows, nil
}

// PrintTable4 writes the rows in the paper's layout.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintf(w, "Table 4. Characteristics of Test Video Streams\n")
	fmt.Fprintf(w, "%-3s %-8s %-11s %14s %10s\n", "#", "name", "resolution", "avg frame (B)", "bit/pixel")
	for _, r := range rows {
		fmt.Fprintf(w, "%-3d %-8s %4dx%-6d %14.0f %10.3f\n", r.ID, r.Name, r.W, r.H, r.AvgFrameSize, r.BitsPerPixel)
	}
}

// --- Table 5 / Figure 6 ------------------------------------------------------

// ScalingPoint is one configuration's measured frame rate.
type ScalingPoint struct {
	K, M, N int
	Nodes   int
	FPS     float64
}

// Table5Configs lists the screen configurations of the paper's Table 5.
var Table5Configs = [][2]int{{1, 1}, {2, 1}, {2, 2}, {3, 2}, {3, 3}, {4, 3}, {4, 4}}

// Table5 runs a stream through every configuration, one-level and two-level
// (with k chosen by calibration as in §5.4: increase k until the frame rate
// stops increasing, here via the ts/td formula).
func Table5(streamID int, o Options) (oneLevel, twoLevel []ScalingPoint, err error) {
	o.defaults()
	data, _, err := Stream(streamID, o, false)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range Table5Configs {
		m, n := c[0], c[1]
		fmt.Fprintf(o.Log, "table5: stream %d one-level 1-(%d,%d)\n", streamID, m, n)
		res, err := system.Run(data, system.Config{K: 0, M: m, N: n})
		if err != nil {
			return nil, nil, err
		}
		oneLevel = append(oneLevel, ScalingPoint{K: 0, M: m, N: n, Nodes: res.Config.NumNodes(), FPS: res.Modeled().FPS()})

		cal, err := system.Calibrate(data, m, n, 0, min(12, o.Frames))
		if err != nil {
			return nil, nil, err
		}
		k := cal.RecommendedK(0)
		if k == 0 {
			k = 1
		}
		fmt.Fprintf(o.Log, "table5: stream %d two-level 1-%d-(%d,%d) (ts=%v td=%v)\n", streamID, k, m, n, cal.TS, cal.TD)
		res, err = system.Run(data, system.Config{K: k, M: m, N: n})
		if err != nil {
			return nil, nil, err
		}
		twoLevel = append(twoLevel, ScalingPoint{K: k, M: m, N: n, Nodes: res.Config.NumNodes(), FPS: res.Modeled().FPS()})
	}
	return oneLevel, twoLevel, nil
}

// PrintTable5 writes both halves of Table 5 side by side.
func PrintTable5(w io.Writer, label string, one, two []ScalingPoint) {
	fmt.Fprintf(w, "Table 5. Frame Rate of One-Level and Two-Level Systems — %s\n", label)
	fmt.Fprintf(w, "%-12s %8s    %-14s %8s\n", "one-level", "fps", "two-level", "fps")
	for i := range one {
		o, t := one[i], two[i]
		fmt.Fprintf(w, "1-(%d,%d)%-5s %8.1f    1-%d-(%d,%d)%-5s %8.1f\n",
			o.M, o.N, "", o.FPS, t.K, t.M, t.N, "", t.FPS)
	}
}

// --- Figure 7 ----------------------------------------------------------------

// BreakdownRow is one decoder's per-picture phase costs in milliseconds.
type BreakdownRow struct {
	Decoder int
	Ms      map[metrics.Phase]float64
}

// Fig7 profiles decoder runtime for a stream on a given two-level
// configuration, as the paper does for stream 8 on 1-2-(2,2) and 1-5-(4,4).
func Fig7(streamID, k, m, n int, o Options) ([]BreakdownRow, error) {
	o.defaults()
	data, _, err := Stream(streamID, o, false)
	if err != nil {
		return nil, err
	}
	res, err := system.Run(data, system.Config{K: k, M: m, N: n})
	if err != nil {
		return nil, err
	}
	var rows []BreakdownRow
	for i, d := range res.Decoders {
		row := BreakdownRow{Decoder: i, Ms: map[metrics.Phase]float64{}}
		for _, p := range metrics.Phases() {
			row.Ms[p] = d.Breakdown.PerPicture(p)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PrintFig7 writes the runtime breakdown with a trailing average row.
func PrintFig7(w io.Writer, label string, rows []BreakdownRow) {
	fmt.Fprintf(w, "Figure 7. Runtime Breakdown of Decoders — %s (ms per picture)\n", label)
	fmt.Fprintf(w, "%-8s", "decoder")
	for _, p := range metrics.Phases() {
		fmt.Fprintf(w, "%9s", p)
	}
	fmt.Fprintln(w)
	avg := map[metrics.Phase]float64{}
	for _, r := range rows {
		fmt.Fprintf(w, "%-8d", r.Decoder)
		for _, p := range metrics.Phases() {
			fmt.Fprintf(w, "%9.2f", r.Ms[p])
			avg[p] += r.Ms[p]
		}
		fmt.Fprintln(w)
	}
	if len(rows) > 0 {
		fmt.Fprintf(w, "%-8s", "avg")
		for _, p := range metrics.Phases() {
			fmt.Fprintf(w, "%9.2f", avg[p]/float64(len(rows)))
		}
		fmt.Fprintln(w)
	}
}

// --- Table 6 / Figure 8 -------------------------------------------------------

// Table6Row is one stream's result in its matched configuration.
type Table6Row struct {
	ID        int
	Name      string
	K, M, N   int
	Nodes     int
	FPS       float64
	PixelRate float64 // Mpixel/s
}

// Table6 plays every catalogue stream on its Table 6 configuration.
func Table6(o Options) ([]Table6Row, error) {
	o.defaults()
	var rows []Table6Row
	for _, spec := range catalog.Streams {
		data, err := cache.get(spec, catalog.GenOptions{Frames: o.Frames, Scale: o.Scale, Seed: o.Seed})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(o.Log, "table6: stream %d (%s) on 1-%d-(%d,%d)\n", spec.ID, spec.Name, spec.K, spec.M, spec.N)
		res, err := system.Run(data, system.Config{K: spec.K, M: spec.M, N: spec.N})
		if err != nil {
			return nil, fmt.Errorf("stream %d: %w", spec.ID, err)
		}
		mt := res.Modeled()
		rows = append(rows, Table6Row{
			ID: spec.ID, Name: spec.Name,
			K: spec.K, M: spec.M, N: spec.N,
			Nodes:     res.Config.NumNodes(),
			FPS:       mt.FPS(),
			PixelRate: mt.PixelRate(),
		})
	}
	return rows, nil
}

// PrintTable6 writes the rows in the paper's layout (also the data series of
// Figure 8: pixel rate vs node count).
func PrintTable6(w io.Writer, rows []Table6Row) {
	fmt.Fprintf(w, "Table 6. Frame Rate of All Streams in Two-Level System\n")
	fmt.Fprintf(w, "%-3s %-8s %-12s %6s %10s %12s\n", "#", "name", "config", "nodes", "fps", "Mpixel/s")
	for _, r := range rows {
		cfg := fmt.Sprintf("1-%d-(%d,%d)", r.K, r.M, r.N)
		if r.K == 0 {
			cfg = fmt.Sprintf("1-(%d,%d)", r.M, r.N)
		}
		fmt.Fprintf(w, "%-3d %-8s %-12s %6d %10.1f %12.1f\n", r.ID, r.Name, cfg, r.Nodes, r.FPS, r.PixelRate)
	}
}

// --- Figure 9 ----------------------------------------------------------------

// BandwidthRow is one node's send/receive bandwidth in MB/s.
type BandwidthRow struct {
	Node     string
	SendMBps float64
	RecvMBps float64
}

// Fig9 measures per-node send/receive bandwidth decoding a stream on a
// 1-k-(m,n) system (the paper: stream 16 on 1-4-(4,4)).
func Fig9(streamID, k, m, n int, o Options) ([]BandwidthRow, error) {
	o.defaults()
	data, _, err := Stream(streamID, o, false)
	if err != nil {
		return nil, err
	}
	res, err := system.Run(data, system.Config{K: k, M: m, N: n})
	if err != nil {
		return nil, err
	}
	// Bandwidth is bytes over the modelled playback time, matching the fps
	// the other experiments report.
	secs := res.Modeled().Elapsed.Seconds()
	var rows []BandwidthRow
	add := func(name string, id int) {
		st := res.NodeStats[id]
		rows = append(rows, BandwidthRow{
			Node:     name,
			SendMBps: float64(st.BytesSent) / secs / 1e6,
			RecvMBps: float64(st.BytesRecv) / secs / 1e6,
		})
	}
	for i, id := range res.Config.Grid().TileNodes() {
		add(fmt.Sprintf("D%d", i), id)
	}
	for i, id := range res.Config.Grid().SplitterNodes() {
		add(fmt.Sprintf("S%d", i), id)
	}
	add("root", cluster.RootNode)
	return rows, nil
}

// PrintFig9 writes the bandwidth bars.
func PrintFig9(w io.Writer, label string, rows []BandwidthRow) {
	fmt.Fprintf(w, "Figure 9. Send and Receive Bandwidth of Each Node — %s (MB/s)\n", label)
	fmt.Fprintf(w, "%-6s %10s %10s\n", "node", "recv", "send")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6s %10.2f %10.2f\n", r.Node, r.RecvMBps, r.SendMBps)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
