// Benchmarks regenerating the paper's evaluation, one per table/figure
// (DESIGN.md §4 maps each experiment to its implementation). Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports paper-relevant custom metrics (fps, Mpixel/s,
// MB/s) alongside the usual ns/op. Content is generated at reduced scale so
// a full sweep stays tractable; cmd/benchwall runs the same experiments at
// arbitrary (including paper) scale.
package tiledwall

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"tiledwall/internal/experiments"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/system"
)

// benchSeed parameterises benchmark content generation. The default (1) is
// the catalogue default, so published numbers stay comparable; set
// TILEDWALL_BENCH_SEED to measure on different content while keeping the
// run reproducible from the logged value.
func benchSeed() int64 {
	if s := os.Getenv("TILEDWALL_BENCH_SEED"); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil && v != 0 {
			return v
		}
	}
	return 1
}

// benchOpts is the common reduced scale: stream resolutions divided by 2,
// 24-frame sequences (the paper uses 240 at full resolution).
func benchOpts() experiments.Options {
	return experiments.Options{Frames: 24, Scale: 2, Seed: benchSeed()}
}

func benchStream(b *testing.B, id int) []byte {
	b.Helper()
	opts := benchOpts()
	b.Logf("content seed %d (stream %d, frames %d, scale 1/%d)", opts.Seed, id, opts.Frames, opts.Scale)
	data, _, err := experiments.Stream(id, opts, false)
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkSerialDecoder baselines the single-PC decoder the parallel
// systems are compared against (the "1 node" points of Fig. 6/8).
func BenchmarkSerialDecoder(b *testing.B) {
	data := benchStream(b, 8)
	s, err := mpeg2.ParseStream(data)
	if err != nil {
		b.Fatal(err)
	}
	pixels := int64(s.Seq.Width) * int64(s.Seq.Height) * int64(len(s.Pictures))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec := mpeg2.NewStreamDecoder(s)
		if _, err := dec.DecodeAll(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(pixels)
	b.ReportMetric(float64(len(s.Pictures))*float64(b.N)/b.Elapsed().Seconds(), "fps")
}

// BenchmarkTable1Granularity measures the four parallelisation levels of
// Table 1 on the same content (stream 8 class, 2x2 wall).
func BenchmarkTable1Granularity(b *testing.B) {
	open := benchStream(b, 8)
	closed, _, err := experiments.Stream(8, benchOpts(), true)
	if err != nil {
		b.Fatal(err)
	}
	levels := []struct {
		name  string
		level experiments.BaselineLevel
		data  []byte
	}{
		{"gop", experiments.LevelGOP, closed},
		{"picture", experiments.LevelPicture, open},
		{"slice", experiments.LevelSlice, open},
	}
	for _, lv := range levels {
		lv := lv
		b.Run(lv.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunBaseline(lv.data, experiments.BaselineConfig{Level: lv.level, M: 2, N: 2})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					pics := float64(res.Throughput.Pictures)
					b.ReportMetric(res.Modeled().FPS(), "fps")
					b.ReportMetric(float64(res.InterDecoderBytes)/pics/1024, "interKB/pic")
					b.ReportMetric(float64(res.RedistributionBytes)/pics/1024, "redistKB/pic")
				}
			}
		})
	}
	b.Run("macroblock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := system.Run(open, system.Config{K: 1, M: 2, N: 2})
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				b.ReportMetric(res.Modeled().FPS(), "fps")
				b.ReportMetric(0, "redistKB/pic")
			}
		}
	})
}

// BenchmarkTable5OneLevel and BenchmarkTable5TwoLevel sweep the screen
// configurations of Table 5 / Figure 6 on the HDTV-class stream 8.
func BenchmarkTable5OneLevel(b *testing.B) {
	data := benchStream(b, 8)
	for _, c := range experiments.Table5Configs {
		c := c
		b.Run(fmt.Sprintf("1-(%d,%d)", c[0], c[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := system.Run(data, system.Config{K: 0, M: c[0], N: c[1]})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(res.Modeled().FPS(), "fps")
				}
			}
		})
	}
}

func BenchmarkTable5TwoLevel(b *testing.B) {
	data := benchStream(b, 8)
	for _, c := range experiments.Table5Configs {
		c := c
		cal, err := system.Calibrate(data, c[0], c[1], 0, 12)
		if err != nil {
			b.Fatal(err)
		}
		k := cal.RecommendedK(0)
		if k == 0 {
			k = 1
		}
		b.Run(fmt.Sprintf("1-%d-(%d,%d)", k, c[0], c[1]), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := system.Run(data, system.Config{K: k, M: c[0], N: c[1]})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(res.Modeled().FPS(), "fps")
				}
			}
		})
	}
}

// BenchmarkFig7Breakdown reports the decoder runtime breakdown for the two
// profiled configurations of Figure 7.
func BenchmarkFig7Breakdown(b *testing.B) {
	data := benchStream(b, 8)
	for _, cfg := range []struct{ k, m, n int }{{2, 2, 2}, {5, 4, 4}} {
		cfg := cfg
		b.Run(fmt.Sprintf("1-%d-(%d,%d)", cfg.k, cfg.m, cfg.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := system.Run(data, system.Config{K: cfg.k, M: cfg.m, N: cfg.n})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					var work, serve, wait float64
					for _, d := range res.Decoders {
						work += d.Breakdown.PerPicture(metrics.PhaseWork)
						serve += d.Breakdown.PerPicture(metrics.PhaseServe)
						wait += d.Breakdown.PerPicture(metrics.PhaseWaitMB)
					}
					n := float64(len(res.Decoders))
					b.ReportMetric(work/n, "work_ms/pic")
					b.ReportMetric(serve/n, "serve_ms/pic")
					b.ReportMetric(wait/n, "wait_ms/pic")
				}
			}
		})
	}
}

// BenchmarkTable6Scalability plays a resolution ladder (a subset of the 16
// streams) on its matched configurations: the Figure 8 series.
func BenchmarkTable6Scalability(b *testing.B) {
	for _, id := range []int{1, 5, 8, 10, 12, 13} {
		id := id
		data, spec, err := experiments.Stream(id, benchOpts(), false)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("s%02d-1-%d-(%d,%d)", id, spec.K, spec.M, spec.N)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := system.Run(data, system.Config{K: spec.K, M: spec.M, N: spec.N})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					mt := res.Modeled()
					b.ReportMetric(mt.FPS(), "fps")
					b.ReportMetric(mt.PixelRate(), "Mpixel/s")
				}
			}
		})
	}
}

// BenchmarkFig9Bandwidth measures per-node bandwidth on the flyby stream
// with localised detail (the paper: stream 16 on 1-4-(4,4); reduced here to
// stream 13's resolution class to keep the bench tractable).
func BenchmarkFig9Bandwidth(b *testing.B) {
	data := benchStream(b, 13)
	for i := 0; i < b.N; i++ {
		res, err := system.Run(data, system.Config{K: 4, M: 4, N: 4})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			secs := res.Modeled().Elapsed.Seconds()
			var maxDec, sumDec float64
			for _, id := range res.DecoderNodeIDs {
				v := float64(res.NodeStats[id].BytesSent+res.NodeStats[id].BytesRecv) / secs / 1e6
				sumDec += v
				if v > maxDec {
					maxDec = v
				}
			}
			b.ReportMetric(maxDec, "maxDecMB/s")
			b.ReportMetric(sumDec/float64(len(res.DecoderNodeIDs)), "avgDecMB/s")
			sp := res.NodeStats[res.SplitterNodeIDs[0]]
			b.ReportMetric(float64(sp.BytesSent)/float64(sp.BytesRecv), "sphOverhead")
		}
	}
}

// BenchmarkCalibration measures the §4.6 configuration procedure itself.
func BenchmarkCalibration(b *testing.B) {
	data := benchStream(b, 8)
	for i := 0; i < b.N; i++ {
		if _, err := system.Calibrate(data, 2, 2, 0, 12); err != nil {
			b.Fatal(err)
		}
	}
}
