// Command playwall plays an MPEG-2 stream on a simulated 1-k-(m,n) tiled
// display wall and reports frame rate, runtime breakdown and bandwidth —
// the interactive face of the system the paper describes.
//
// Usage:
//
//	playwall -in stream.m2v -m 4 -n 4 [-k 4 | -auto] [-overlap 40] [-verify]
//	playwall -in stream.m2v -m 4 -n 4 -k 2 -sessions 4
//	playwall -in stream.m2v -m 2 -n 2 -fleet 4 -sessions 16
//	playwall -in stream.m2v -m 6 -n 4 -k 2 -roi 0:0-1:1 -trick drop-b
//
// With -auto, k is chosen by the §4.6 calibration (ts/td); -k 0 runs the
// one-level 1-(m,n) system. With -sessions N, one resident wall decodes N
// concurrent copies of the stream and per-session plus aggregate frame rates
// are reported. With -fleet W, W warm walls of the requested shape stand
// behind one front door and the sessions are routed to the least-loaded wall,
// with per-wall placement and recycle counts reported alongside the
// aggregate. With -roi the session subscribes only a tile rectangle (the
// splitters skip everything outside its halo closure) and -trick plays
// I-only or drop-B; both print the per-session subscribed-tile and
// skipped-picture accounting.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"time"

	"tiledwall/internal/fleet"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/mpegps"
	"tiledwall/internal/recovery"
	"tiledwall/internal/service"
	"tiledwall/internal/system"
	"tiledwall/internal/video"
	"tiledwall/internal/wall"
)

func main() {
	var (
		in      = flag.String("in", "", "input MPEG-2 video elementary stream")
		k       = flag.Int("k", 0, "second-level splitters (0 = one-level)")
		auto    = flag.Bool("auto", false, "choose k by calibration (§4.6)")
		m       = flag.Int("m", 2, "tiles across")
		n       = flag.Int("n", 2, "tiles down")
		overlap = flag.Int("overlap", 0, "projector overlap in pixels")
		verify  = flag.Bool("verify", false, "compare output against the serial decoder")
		splitW  = flag.Int("split-workers", 0, "slice-parse workers per splitter (0 = GOMAXPROCS, 1 = serial)")
		snap    = flag.String("snapshot", "", "write the first displayed frame as a PPM image")
		bwBps   = flag.Float64("bandwidth", 0, "fabric throttle in bytes/s (0 = unthrottled)")
		nSess   = flag.Int("sessions", 1, "concurrent copies of the stream through one resident wall")
		roiSpec = flag.String("roi", "", "subscribe only the tile rectangle r0:c0-r1:c1 (rows r0..r1 x columns c0..c1); unwatched tiles are skipped")
		trickS  = flag.String("trick", "", "trick play: i-only (I pictures only) or drop-b (I and P only)")
		fleetW  = flag.Int("fleet", 0, "run a fleet of W warm walls of this shape and route -sessions through its front door")
		trans   = flag.String("transport", "", "message transport: fabric (default) or tcp (loopback sockets through a hub)")

		// Fault tolerance (DESIGN.md §13): -recover arms the recovery layer;
		// -chaos additionally injects seeded crashes so the repair machinery
		// is visible from the CLI. In node mode -recover also makes the TCP
		// links recoverable (redial after loss instead of aborting).
		ftRecover = flag.Bool("recover", false, "enable the fault-tolerance layer (supervised respawn, replay, deadline concealment)")
		chaosSeed = flag.Int64("chaos", 0, "seed for fault injection: kill a random decoder (and splitter when -k > 0) mid-stream; implies -recover")

		// Multi-process node mode (see node.go): every role of the wall runs
		// in its own OS process, wired over TCP through the root's hub.
		role    = flag.String("role", "", "node mode: root, splitter, decoder or all (empty = single-process wall)")
		listen  = flag.String("listen", "127.0.0.1:0", "hub listen address (roles root and all)")
		connect = flag.String("connect", "", "hub address to dial (roles splitter and decoder)")
		stall   = flag.Duration("stall", 30*time.Second, "node-mode stall watchdog (0 = disabled)")
		digest  = flag.Bool("digest", false, "node mode: print per-tile FNV digests of the displayed frames")
	)
	flag.Parse()

	// Worker roles host no root: they never read the stream.
	needsStream := *role == "" || *role == "root" || *role == "all"
	if needsStream && *in == "" {
		log.Fatal("playwall: -in is required")
	}
	var data []byte
	var err error
	if needsStream {
		if data, err = os.ReadFile(*in); err != nil {
			log.Fatal(err)
		}
		if mpegps.IsProgramStream(data) {
			if data, err = mpegps.Demux(data); err != nil {
				log.Fatal(err)
			}
		}
	}

	if *chaosSeed != 0 {
		*ftRecover = true
	}

	var sub wall.TileSet
	if *roiSpec != "" {
		var r0, c0, r1, c1 int
		if _, err := fmt.Sscanf(*roiSpec, "%d:%d-%d:%d", &r0, &c0, &r1, &c1); err != nil {
			log.Fatalf("playwall: -roi %q: want r0:c0-r1:c1 (e.g. 0:0-1:1)", *roiSpec)
		}
		if sub, err = wall.RectTileSet(*m, *n, r0, c0, r1, c1); err != nil {
			log.Fatalf("playwall: -roi: %v", err)
		}
	}
	trick := service.TrickNone
	switch *trickS {
	case "":
	case "i-only":
		trick = service.TrickIOnly
	case "drop-b":
		trick = service.TrickDropB
	default:
		log.Fatalf("playwall: -trick %q: want i-only or drop-b", *trickS)
	}
	roiActive := !sub.Full() || trick != service.TrickNone
	if roiActive {
		if *role != "" {
			log.Fatal("playwall: -roi/-trick are not supported in node mode")
		}
		// A partial subscription emits nothing for unwatched tiles and trick
		// play drops pictures, so full wall frames cannot be assembled.
		if *verify || *snap != "" {
			log.Fatal("playwall: -roi/-trick cannot be combined with -verify or -snapshot")
		}
	}

	if *role != "" {
		if (*role == "splitter" || *role == "decoder") && *connect == "" {
			log.Fatalf("playwall: -role %s requires -connect <hub address>", *role)
		}
		nodeCfg := system.Config{K: *k, M: *m, N: *n, Overlap: *overlap, SplitWorkers: *splitW}
		if *ftRecover {
			nodeCfg.Recovery.Enabled = true
		}
		// Every process of the wall must agree on the chaos plan seed, but a
		// kill only fires on the process hosting the victim node.
		nodeCfg.Chaos = chaosPlan(*chaosSeed, *k, *m, *n)
		runNode(*role, *listen, *connect, nodeCfg, *stall, *digest, data, *nSess)
		return
	}

	if *auto {
		cal, err := system.Calibrate(data, *m, *n, *overlap, 12)
		if err != nil {
			log.Fatal(err)
		}
		*k = cal.RecommendedK(0)
		fmt.Printf("calibration: ts=%v td=%v -> k=%d (predicted %.1f fps)\n",
			cal.TS, cal.TD, *k, cal.PredictedFPS(*k))
	}

	cfg := system.Config{K: *k, M: *m, N: *n, Overlap: *overlap, SplitWorkers: *splitW, CollectFrames: *verify || *snap != ""}
	cfg.Fabric.BandwidthBps = *bwBps
	cfg.Transport = *trans
	if *ftRecover {
		cfg.Recovery.Enabled = true
	}
	if plan := chaosPlan(*chaosSeed, *k, *m, *n); plan.KillDecoder {
		cfg.Chaos = plan
		fmt.Printf("chaos seed %d: kill decoder tile %d at picture %d", *chaosSeed, plan.DecoderTile, plan.KillAtPicture)
		if plan.KillSplitter {
			fmt.Printf(", kill splitter %d at picture %d", plan.SplitterIdx, plan.KillAtPicture)
		}
		fmt.Println()
	}
	if *fleetW > 0 {
		playFleet(data, cfg, *fleetW, *nSess, sub, trick)
		return
	}
	if *nSess > 1 || roiActive {
		playSessions(data, cfg, *nSess, sub, trick)
		return
	}
	// Build the wall explicitly rather than through system.Run so the health
	// state can be read before teardown — the recovery report is identical
	// over the in-process fabric and TCP (one pipeline, DESIGN.md §6).
	rw, err := system.NewResidentWall(cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := rw.Play(data)
	if err != nil {
		rw.Close()
		log.Fatal(err)
	}
	health := rw.Health()
	if err := rw.Close(); err != nil {
		log.Fatal(err)
	}
	for _, w := range res.Warnings {
		fmt.Printf("warning: %s\n", w)
	}

	name := fmt.Sprintf("1-%d-(%d,%d)", *k, *m, *n)
	if *k == 0 {
		name = fmt.Sprintf("1-(%d,%d)", *m, *n)
	}
	tp := res.Modeled()
	fmt.Printf("%s on %d PCs: %d pictures, busiest node %v\n", name, cfg.NumNodes(), tp.Pictures, tp.Elapsed)
	fmt.Printf("  pipeline throughput %.1f fps, %.1f Mpixel/s, equivalent bit rate %.1f Mbit/s\n",
		tp.FPS(), tp.PixelRate(), tp.EquivalentBitRate(res.StreamBytes))
	fmt.Printf("  (simulation wall clock: %v on %d cores)\n", res.Throughput.Elapsed, runtime.NumCPU())
	if *ftRecover {
		fmt.Printf("  recovery: %s (clean=%v), health %v\n", res.Recovery, res.Recovery.Clean(), health)
	}

	fmt.Printf("  decoder runtime breakdown (ms/picture):\n")
	fmt.Printf("  %-8s", "decoder")
	for _, p := range metrics.Phases() {
		fmt.Printf("%9s", p)
	}
	fmt.Println()
	for i, d := range res.Decoders {
		fmt.Printf("  %-8d", i)
		for _, p := range metrics.Phases() {
			fmt.Printf("%9.2f", d.Breakdown.PerPicture(p))
		}
		fmt.Println()
	}

	secs := tp.Elapsed.Seconds()
	fmt.Printf("  bandwidth over modelled playback time (MB/s):\n")
	for i, id := range res.DecoderNodeIDs {
		st := res.NodeStats[id]
		fmt.Printf("  D%-3d recv %7.2f  send %7.2f\n", i, float64(st.BytesRecv)/secs/1e6, float64(st.BytesSent)/secs/1e6)
	}
	for i, id := range res.SplitterNodeIDs {
		st := res.NodeStats[id]
		fmt.Printf("  S%-3d recv %7.2f  send %7.2f\n", i, float64(st.BytesRecv)/secs/1e6, float64(st.BytesSent)/secs/1e6)
	}

	if *snap != "" && len(res.Frames) > 0 {
		f, err := os.Create(*snap)
		if err != nil {
			log.Fatal(err)
		}
		if err := video.WritePPM(f, res.Frames[0]); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  wrote %s (%dx%d)\n", *snap, res.Frames[0].W, res.Frames[0].H)
	}

	if *verify {
		dec, err := mpeg2.NewDecoder(data)
		if err != nil {
			log.Fatal(err)
		}
		ref, err := dec.DecodeAll()
		if err != nil {
			log.Fatal(err)
		}
		if len(ref) != len(res.Frames) {
			log.Fatalf("verify: %d parallel frames vs %d serial", len(res.Frames), len(ref))
		}
		// Bit-exactness is only guaranteed when recovery never concealed:
		// concealment trades pixels for liveness by design (DESIGN.md §13).
		if res.Recovery.ConcealedFrames > 0 || res.Recovery.ConcealedMBs > 0 {
			fmt.Printf("  verify: %d frames, frame count matches serial; pixel check skipped (recovery concealed)\n", len(ref))
		} else {
			for i := range ref {
				if !video.Equal(ref[i].Buf, res.Frames[i]) {
					log.Fatalf("verify: frame %d differs from serial decode", i)
				}
			}
			fmt.Printf("  verify: %d frames bit-exact with the serial decoder\n", len(ref))
		}
	}
}

// chaosPlan derives a kill plan from a seed: one random decoder, plus one
// random second-level splitter on hierarchical walls, both dying at the same
// early picture. Seed 0 returns the zero plan (chaos off).
func chaosPlan(seed int64, k, m, n int) recovery.ChaosPlan {
	if seed == 0 {
		return recovery.ChaosPlan{}
	}
	rng := rand.New(rand.NewSource(seed))
	plan := recovery.ChaosPlan{
		KillDecoder:   true,
		DecoderTile:   rng.Intn(m * n),
		KillAtPicture: 1 + rng.Intn(8),
	}
	if k > 0 {
		// The victim must be the round-robin owner of the kill picture, or
		// the injection is a dead letter.
		plan.KillSplitter = true
		plan.SplitterIdx = plan.KillAtPicture % k
	}
	return plan
}

// subStats renders a session's subscription/trick accounting for the CLI: how
// many tiles it watched, what the root dropped, and how many per-tile skip
// markers replaced full sub-pictures.
func subStats(r *service.SessionResult, tiles int) string {
	if r.SubscribedTiles == tiles && r.SkippedPictures == 0 && r.SkippedSubPics == 0 {
		return ""
	}
	return fmt.Sprintf("  [%d/%d tiles, %d shipped / %d dropped pictures, %d skipped sub-pictures]",
		r.SubscribedTiles, tiles, r.ShippedPictures, r.SkippedPictures, r.SkippedSubPics)
}

// playSessions drives N concurrent copies of the stream through one resident
// wall and reports per-session and aggregate wall-clock frame rates, plus the
// subscription accounting when an ROI or trick mode is active.
func playSessions(data []byte, cfg system.Config, n int, sub wall.TileSet, trick service.TrickMode) {
	if cfg.MaxSessions < n {
		cfg.MaxSessions = n
	}
	w, err := system.NewResidentWall(cfg)
	if err != nil {
		log.Fatal(err)
	}
	name := fmt.Sprintf("1-%d-(%d,%d)", cfg.K, cfg.M, cfg.N)
	if cfg.K == 0 {
		name = fmt.Sprintf("1-(%d,%d)", cfg.M, cfg.N)
	}
	fmt.Printf("%s resident wall, %d concurrent sessions\n", name, n)
	if !sub.Full() {
		fmt.Printf("  subscription: %d of %d tiles (%v)\n", sub.Count(), cfg.M*cfg.N, sub)
	}
	if trick != service.TrickNone {
		fmt.Printf("  trick play: %v\n", trick)
	}

	results := make([]*service.SessionResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := w.Open(fmt.Sprintf("playwall-%d", i))
			if err != nil {
				errs[i] = err
				return
			}
			if !sub.Full() {
				if err := s.Subscribe(sub); err != nil {
					s.Close()
					errs[i] = err
					return
				}
			}
			if trick != service.TrickNone {
				if err := s.SetTrickMode(trick); err != nil {
					s.Close()
					errs[i] = err
					return
				}
			}
			if err := s.Feed(data); err != nil {
				s.Close()
				errs[i] = err
				return
			}
			results[i], errs[i] = s.Close()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if cfg.Recovery.Enabled {
		fmt.Printf("  recovery: %s, health %v\n", w.Service().Recovery(), w.Health())
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	pics := 0
	for i, err := range errs {
		if err != nil {
			log.Fatalf("session %d: %v", i, err)
		}
		r := results[i]
		fmt.Printf("  session %-3d %5d pictures in %8v (%6.1f fps)%s\n",
			i, r.Throughput.Pictures, r.Throughput.Elapsed.Round(time.Millisecond), r.Throughput.FPS(),
			subStats(r, cfg.M*cfg.N))
		pics += r.Throughput.Pictures
	}
	fmt.Printf("  aggregate   %5d pictures in %8v (%6.1f fps wall clock, %d cores)\n",
		pics, elapsed.Round(time.Millisecond), float64(pics)/elapsed.Seconds(), runtime.NumCPU())
}

// playFleet stands up W warm walls of the requested shape behind one fleet
// front door, routes n concurrent copies of the stream through it, and
// reports where each session landed plus the per-wall and aggregate figures.
func playFleet(data []byte, cfg system.Config, wallsN, n int, sub wall.TileSet, trick service.TrickMode) {
	// Size each wall so the fleet's aggregate capacity covers the run: the
	// CLI demonstrates routing spread, not admission-queue behaviour (the
	// soak harness owns that regime).
	per := (n + wallsN - 1) / wallsN
	if per < 4 {
		per = 4
	}
	wc := service.Config{
		K: cfg.K, M: cfg.M, N: cfg.N, Overlap: cfg.Overlap,
		SplitWorkers: cfg.SplitWorkers,
		MaxSessions:  per,
		Recovery:     cfg.Recovery,
	}
	walls := make([]service.Config, wallsN)
	for i := range walls {
		walls[i] = wc
	}
	f, err := fleet.New(fleet.Config{Walls: walls})
	if err != nil {
		log.Fatal(err)
	}
	name := fmt.Sprintf("1-%d-(%d,%d)", cfg.K, cfg.M, cfg.N)
	if cfg.K == 0 {
		name = fmt.Sprintf("1-(%d,%d)", cfg.M, cfg.N)
	}
	fmt.Printf("fleet of %d x %s walls, %d sessions through the front door\n", wallsN, name, n)
	if !sub.Full() {
		fmt.Printf("  subscription: %d of %d tiles (%v)\n", sub.Count(), cfg.M*cfg.N, sub)
	}
	if trick != service.TrickNone {
		fmt.Printf("  trick play: %v\n", trick)
	}

	type verdict struct {
		wall int
		res  *service.SessionResult
		err  error
	}
	out := make([]verdict, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := f.Open(fmt.Sprintf("playwall-%d", i), fleet.OpenOptions{Subscribe: sub, Trick: trick})
			if err != nil {
				out[i] = verdict{wall: -1, err: err}
				return
			}
			if err := s.Feed(data); err != nil {
				s.Close()
				out[i] = verdict{wall: s.Wall(), err: err}
				return
			}
			res, err := s.Close()
			out[i] = verdict{wall: s.Wall(), res: res, err: err}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	stats := f.Stats()
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	pics := 0
	perWall := make([]int, wallsN)
	for i, v := range out {
		if v.err != nil {
			log.Fatalf("session %d (wall %d): %v", i, v.wall, v.err)
		}
		fmt.Printf("  session %-3d wall %-2d %5d pictures in %8v (%6.1f fps)%s\n",
			i, v.wall, v.res.Throughput.Pictures, v.res.Throughput.Elapsed.Round(time.Millisecond), v.res.Throughput.FPS(),
			subStats(v.res, cfg.M*cfg.N))
		pics += v.res.Throughput.Pictures
		perWall[v.wall]++
	}
	for _, ws := range stats.Walls {
		fmt.Printf("  wall %-2d %s: %d sessions routed, %d recycles\n",
			ws.Wall, ws.Grid, perWall[ws.Wall], ws.Recycles)
	}
	fmt.Printf("  aggregate   %5d pictures in %8v (%6.1f fps wall clock, %d cores)\n",
		pics, elapsed.Round(time.Millisecond), float64(pics)/elapsed.Seconds(), runtime.NumCPU())
}
