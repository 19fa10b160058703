// Ultra-high-resolution playback on the full hierarchy: the paper's
// headline 1-4-(4,4) system (21 PCs) playing an Orion-flyby-class stream
// with spatially localised detail, reporting frame rate, the per-decoder
// runtime breakdown (Fig. 7) and per-node bandwidth (Fig. 9).
//
//	go run ./examples/ultrahd [-frames 24] [-scale 4]
package main

import (
	"flag"
	"fmt"
	"log"

	"tiledwall/internal/catalog"
	"tiledwall/internal/metrics"
	"tiledwall/internal/system"
)

func main() {
	frames := flag.Int("frames", 24, "frames to encode")
	scale := flag.Int("scale", 4, "resolution divisor (1 = the paper's 3840x2800)")
	overlap := flag.Int("overlap", 16, "projector overlap in pixels")
	flag.Parse()

	spec, err := catalog.ByID(16) // orion4
	if err != nil {
		log.Fatal(err)
	}
	w, h := spec.Dimensions(catalog.GenOptions{Frames: *frames, Scale: *scale})
	fmt.Printf("generating %s at %dx%d (%d frames)...\n", spec.Name, w, h, *frames)
	stream, err := spec.Generate(catalog.GenOptions{Frames: *frames, Scale: *scale})
	if err != nil {
		log.Fatal(err)
	}

	cfg := system.Config{K: 4, M: 4, N: 4, Overlap: *overlap}
	res, err := system.Run(stream, cfg)
	if err != nil {
		log.Fatal(err)
	}
	tp := res.Throughput
	fmt.Printf("\n1-4-(4,4) on %d PCs: %.1f fps, %.1f Mpixel/s, %.1f Mbit/s equivalent\n",
		cfg.NumNodes(), tp.FPS(), tp.PixelRate(), tp.EquivalentBitRate(res.StreamBytes))

	fmt.Printf("\ndecoder runtime breakdown, ms/picture (Fig. 7):\n%-8s", "decoder")
	for _, p := range metrics.Phases() {
		fmt.Printf("%9s", p)
	}
	fmt.Println()
	for i, d := range res.Decoders {
		fmt.Printf("%-8d", i)
		for _, p := range metrics.Phases() {
			fmt.Printf("%9.2f", d.Breakdown.PerPicture(p))
		}
		fmt.Println()
	}

	// The flyby content concentrates detail in one corner; decoders for
	// those tiles work hardest and, being synchronised, set the pace (§5.5).
	var minW, maxW float64
	for i, d := range res.Decoders {
		w := d.Breakdown.PerPicture(metrics.PhaseWork)
		if i == 0 || w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	}
	fmt.Printf("\nload imbalance from localised detail: busiest tile %.2f ms vs lightest %.2f ms (x%.1f)\n",
		maxW, minW, maxW/minW)

	secs := tp.Elapsed.Seconds()
	fmt.Printf("\nper-node bandwidth, MB/s (Fig. 9):\n")
	for i, id := range res.Config.Grid().TileNodes() {
		st := res.NodeStats[id]
		fmt.Printf("  D%-3d recv %7.2f  send %7.2f\n", i, float64(st.BytesRecv)/secs/1e6, float64(st.BytesSent)/secs/1e6)
	}
	for i, id := range res.Config.Grid().SplitterNodes() {
		st := res.NodeStats[id]
		fmt.Printf("  S%-3d recv %7.2f  send %7.2f\n", i, float64(st.BytesRecv)/secs/1e6, float64(st.BytesSent)/secs/1e6)
	}
}
