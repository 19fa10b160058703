package tiledwall

import (
	"fmt"
	"testing"

	"tiledwall/internal/encoder"
	"tiledwall/internal/experiments"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/system"
	"tiledwall/internal/video"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: projector
// overlap replication, SPH overhead vs tile count, dynamic vs round-robin
// picture assignment, and the encoder's optional coding tools.

// BenchmarkAblationOverlap measures the sub-picture replication cost of
// projector overlap (macroblocks in the blend band go to multiple tiles).
func BenchmarkAblationOverlap(b *testing.B) {
	data, _, err := experiments.Stream(8, experiments.Options{Frames: 24, Scale: 2}, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, ov := range []int{0, 16, 48} {
		ov := ov
		b.Run(fmt.Sprintf("overlap%d", ov), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := system.Run(data, system.Config{K: 1, M: 2, N: 2, Overlap: ov})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					sp := res.Splitters[0]
					b.ReportMetric(float64(sp.SPBytes)/float64(sp.InputBytes), "SPexpansion")
					b.ReportMetric(res.Modeled().FPS(), "fps")
				}
			}
		})
	}
}

// BenchmarkAblationSPHOverhead: the SPH cost per picture grows with tile
// count (more partial slices); the expansion ratio shrinks with resolution.
func BenchmarkAblationSPHOverhead(b *testing.B) {
	data, _, err := experiments.Stream(8, experiments.Options{Frames: 24, Scale: 2}, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range [][2]int{{1, 1}, {2, 2}, {4, 4}} {
		c := c
		b.Run(fmt.Sprintf("%dx%d", c[0], c[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := system.Run(data, system.Config{K: 1, M: c[0], N: c[1]})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					sp := res.Splitters[0]
					b.ReportMetric(float64(sp.SPBytes)/float64(sp.InputBytes), "SPexpansion")
				}
			}
		})
	}
}

// BenchmarkAblationDynamicBalance compares round-robin and credit-based
// picture assignment (paper §6 future work) on flyby content whose pictures
// vary strongly in cost.
func BenchmarkAblationDynamicBalance(b *testing.B) {
	data, _, err := experiments.Stream(13, experiments.Options{Frames: 24, Scale: 4}, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, dyn := range []bool{false, true} {
		dyn := dyn
		name := "roundrobin"
		if dyn {
			name = "dynamic"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := system.Run(data, system.Config{K: 3, M: 2, N: 2, DynamicBalance: dyn})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(res.Modeled().FPS(), "fps")
					// Imbalance: busiest / lightest splitter CPU.
					var lo, hi float64
					for j, sp := range res.Splitters {
						v := sp.Breakdown.Busy().Seconds()
						if j == 0 || v < lo {
							lo = v
						}
						if v > hi {
							hi = v
						}
					}
					if lo > 0 {
						b.ReportMetric(hi/lo, "splitterImbalance")
					}
				}
			}
		})
	}
}

// BenchmarkAblationCodingTools measures the bit-rate effect of the encoder's
// optional tools (intra VLC table B-15, alternate scan, nonlinear quantiser,
// adaptive quantisation) on the same content.
func BenchmarkAblationCodingTools(b *testing.B) {
	const w, h, frames = 320, 192, 12
	src := video.NewSource(video.SceneFilm, w, h, 3)
	var srcFrames []*mpeg2.PixelBuf
	for i := 0; i < frames; i++ {
		srcFrames = append(srcFrames, src.Frame(i))
	}
	variants := []struct {
		name string
		mod  func(*encoder.Config)
	}{
		{"baseline", func(c *encoder.Config) {}},
		{"intra_vlc1", func(c *encoder.Config) { c.IntraVLCFormat = true }},
		{"alt_scan", func(c *encoder.Config) { c.AlternateScan = true }},
		{"nonlinear_q", func(c *encoder.Config) { c.QScaleType = true }},
		{"adaptive_q", func(c *encoder.Config) { c.AdaptiveQuant = true }},
		{"closed_gop", func(c *encoder.Config) { c.ClosedGOP = true }},
	}
	for _, v := range variants {
		v := v
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := encoder.Config{Width: w, Height: h, GOPSize: 12, BSpacing: 3, InitialQScale: 8}
				v.mod(&cfg)
				data, err := encoder.EncodeFrames(cfg, srcFrames)
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(len(data)*8)/float64(frames*w*h), "bpp")
					// Quality check rides along: decode and PSNR.
					dec, err := mpeg2.NewDecoder(data)
					if err != nil {
						b.Fatal(err)
					}
					pics, err := dec.DecodeAll()
					if err != nil {
						b.Fatal(err)
					}
					p, _ := video.PSNR(srcFrames[0], pics[0].Buf)
					b.ReportMetric(p, "psnr_dB")
				}
			}
		})
	}
}

// BenchmarkAblationMEIVolume reports how much reference data crosses tile
// boundaries as tiles shrink — the effect behind the sub-linear acceleration
// of Figure 6.
func BenchmarkAblationMEIVolume(b *testing.B) {
	data, _, err := experiments.Stream(8, experiments.Options{Frames: 24, Scale: 2}, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range [][2]int{{2, 1}, {2, 2}, {4, 2}, {4, 4}} {
		c := c
		b.Run(fmt.Sprintf("%dx%d", c[0], c[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := system.Run(data, system.Config{K: 1, M: c[0], N: c[1]})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					var inter int64
					tiles := res.Config.Grid().TileNodes()
					for _, x := range tiles {
						for _, y := range tiles {
							inter += res.PairBytes(x, y)
						}
					}
					pics := float64(res.Throughput.Pictures)
					b.ReportMetric(float64(inter)/pics/1024, "exchKB/pic")
				}
			}
		})
	}
}

// BenchmarkAblationMEIBatching compares one-bundle-per-peer exchange (the
// paper's design) against one message per macroblock: per-message overhead
// was what made GM-era batching matter.
func BenchmarkAblationMEIBatching(b *testing.B) {
	data, _, err := experiments.Stream(8, experiments.Options{Frames: 24, Scale: 2}, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, unbatched := range []bool{false, true} {
		unbatched := unbatched
		name := "batched"
		if unbatched {
			name = "perMacroblock"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := system.Run(data, system.Config{K: 1, M: 4, N: 4, UnbatchedExchange: unbatched})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					var msgs, bytes int64
					for _, id := range res.Config.Grid().TileNodes() {
						msgs += res.NodeStats[id].MsgsSent
						bytes += res.NodeStats[id].BytesSent
					}
					pics := float64(res.Throughput.Pictures)
					b.ReportMetric(float64(msgs)/pics, "decMsgs/pic")
					b.ReportMetric(float64(bytes)/pics/1024, "decKB/pic")
				}
			}
		})
	}
}
