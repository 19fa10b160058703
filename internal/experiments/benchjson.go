package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"tiledwall/internal/fleet"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/system"
	"tiledwall/internal/wall"
)

// The continuous-benchmark report: benchwall -json runs a fixed set of
// hot-path measurements — serial decode throughput and allocation rate,
// kernel timings, parallel configurations with their phase breakdowns — and
// emits them as one JSON document (BENCH_<date>.json). cmd/benchguard diffs
// two such documents and fails on regression, which is what the CI bench job
// runs on every push.

// BenchReport is the JSON document. GoArch and GoMaxProcs identify the
// machine class that produced it: absolute figures — and especially the
// split-worker scaling, which needs a core per worker to show up in wall
// time — are only comparable between reports with matching values.
type BenchReport struct {
	Date       string          `json:"date"`
	Seed       int64           `json:"seed"`
	Frames     int             `json:"frames"`
	Scale      int             `json:"scale"`
	GoArch     string          `json:"goarch,omitempty"`
	GoMaxProcs int             `json:"gomaxprocs,omitempty"`
	Serial     SerialBench     `json:"serial"`
	Kernels    []KernelBench   `json:"kernels"`
	Systems    []ParallelBench `json:"systems"`
	Service    *ServiceBench   `json:"service,omitempty"`
	Recovery   *RecoveryBench  `json:"recovery,omitempty"`
	Fleet      *FleetBench     `json:"fleet,omitempty"`
	ROI        *ROIBench       `json:"roi,omitempty"`
}

// ROIBench measures subscription/ROI decode on the paper's 6x4 wall: the same
// stream played at subscribed fractions {1, 4, 24} of 24 tiles, reporting
// modeled fps, shipped cluster bytes and aggregate decoder busy time per
// fraction. BaselineFPS is the plain session path with no Subscribe call at
// all; FullOverheadFrac prices the explicit full-wall subscription against it
// and is gated structurally at <=5% — the skip machinery must be free when
// nothing is skipped. The guard also requires shipped bytes and decoder busy
// time to grow monotonically with the subscribed fraction: that scaling is
// the point of the subsystem.
type ROIBench struct {
	Config           string        `json:"config"`
	BaselineFPS      float64       `json:"baseline_fps"`
	FullOverheadFrac float64       `json:"full_overhead_frac"`
	Fractions        []ROIFraction `json:"fractions"`
}

// ROIFraction is one subscribed fraction's cost figures, ordered by Tiles.
type ROIFraction struct {
	Tiles          int     `json:"tiles"`
	FPS            float64 `json:"fps"`
	ShippedMB      float64 `json:"shipped_mb"`
	DecoderBusyMs  float64 `json:"decoder_busy_ms"`
	SkippedSubPics int64   `json:"skipped_sub_pics"`
}

// FleetBench measures the fleet front door: many concurrent sessions admitted
// through one fleet over a heterogeneous farm of warm walls, with aggregate
// capacity below the session count so the admission queue is on the measured
// path. AggregateFPS is gated against the baseline like any system figure;
// P99OpenMs (queueing included) gets a structural cap plus a gross-regression
// gate, and Shed must stay zero — the harness sizes its queue and deadline so
// a shed open can only mean broken admission, never legitimate overload.
type FleetBench struct {
	Walls        int     `json:"walls"`
	Sessions     int     `json:"sessions"`
	AggregateFPS float64 `json:"aggregate_fps"`
	P99OpenMs    float64 `json:"p99_open_ms"`
	Shed         int64   `json:"shed"`
}

// RecoveryBench prices the fault-free cost of arming the fault-tolerance
// layer on a resident wall: the same stream through the same shape with and
// without Recovery enabled. The delta isolates the recovery machinery,
// including the refcounted slab ownership that lets retention share buffers
// with the pool (DESIGN.md §9). OverheadFrac = (baseline - recovery) /
// baseline on modeled fps, gated structurally at <10% — retainers, leases,
// stash bookkeeping and refcount traffic must stay noise against the decode
// cost.
type RecoveryBench struct {
	Config       string  `json:"config"`
	BaselineFPS  float64 `json:"baseline_fps"`
	RecoveryFPS  float64 `json:"recovery_fps"`
	OverheadFrac float64 `json:"overhead_frac"`
}

// ServiceBench measures the resident wall service: cold pipeline
// construction versus warm session admission on the splitter-bound 1-1-(4,4)
// shape, and the aggregate wall-clock throughput of concurrent sessions
// sharing that one wall. The warm/cold ratio is gated structurally (a resident
// service whose session start costs a pipeline build has lost its point);
// aggregate fps is gated against the baseline like any system figure.
type ServiceBench struct {
	Config       string  `json:"config"`
	ColdSetupMs  float64 `json:"cold_setup_ms"`
	WarmOpenMs   float64 `json:"warm_open_ms"`
	Sessions     int     `json:"sessions"`
	AggregateFPS float64 `json:"aggregate_fps"`
}

// SerialBench measures the single-PC decoder in steady state (frames
// recycled through the pixel-buffer pool).
type SerialBench struct {
	Stream        int     `json:"stream"`
	Pictures      int     `json:"pictures"`
	FPS           float64 `json:"fps"`
	MsPerPicture  float64 `json:"ms_per_picture"`
	AllocsPerPic  float64 `json:"allocs_per_picture"`
	MPixelsPerSec float64 `json:"mpixels_per_sec"`
}

// KernelBench is one kernel's per-call cost.
type KernelBench struct {
	Name string  `json:"name"`
	NsOp float64 `json:"ns_op"`
}

// ParallelBench is one parallel configuration's modeled throughput and
// decoder phase breakdown. SplitPhaseMsPP resolves the splitters' work into
// the scan/parse/sort/serialize stages (the paper's ts term); "Parse" is the
// critical path across the split workers and "ParseWall" the raw wall time
// of the same region on the reporting host.
type ParallelBench struct {
	Config         string             `json:"config"`
	SplitWorkers   int                `json:"split_workers,omitempty"`
	Transport      string             `json:"transport,omitempty"` // "" = in-process fabric, "tcp" = socket transport on loopback
	Nodes          int                `json:"nodes"`
	FPS            float64            `json:"fps"`
	PhaseMsPP      map[string]float64 `json:"phase_ms_per_picture"`
	SplitPhaseMsPP map[string]float64 `json:"split_phase_ms_per_picture,omitempty"`
}

// BenchJSON runs the continuous-benchmark suite and returns the report.
// now stamps the document (injected so callers control the clock).
func BenchJSON(o Options, now time.Time) (*BenchReport, error) {
	o.defaults()
	rep := &BenchReport{
		Date: now.Format("2006-01-02"), Seed: o.Seed, Frames: o.Frames, Scale: o.Scale,
		GoArch: runtime.GOARCH, GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	data, _, err := Stream(8, o, false)
	if err != nil {
		return nil, err
	}
	s, err := mpeg2.ParseStream(data)
	if err != nil {
		return nil, err
	}
	if rep.Serial, err = serialBench(s); err != nil {
		return nil, err
	}
	rep.Kernels = kernelBench()

	// SplitWorkers is pinned (never the GOMAXPROCS default) so every report
	// runs the same configurations regardless of host width. The 1-1-(4,4)
	// pair is the splitter-bound measurement: a single second-level splitter
	// feeding sixteen decoders is the regime where ts limits F = min(k/ts,
	// 1/td), so the 4-worker entry shows what slice parallelism buys.
	// The transport axis pairs two representative shapes with their TCP
	// twins: same grid, every hop crossing loopback sockets through the hub.
	// Diffing a pair inside one report prices the socket transport; diffing
	// reports across pushes gates it like any system.
	for _, cfg := range []system.Config{
		{K: 0, M: 2, N: 2, SplitWorkers: 1},
		{K: 2, M: 2, N: 2, SplitWorkers: 1},
		{K: 1, M: 4, N: 4, SplitWorkers: 1},
		{K: 1, M: 4, N: 4, SplitWorkers: 4},
		{K: 2, M: 2, N: 2, SplitWorkers: 1, Transport: "tcp"},
		{K: 1, M: 4, N: 4, SplitWorkers: 1, Transport: "tcp"},
	} {
		fmt.Fprintf(o.Log, "benchjson: 1-%d-(%d,%d) sw=%d transport=%s\n",
			cfg.K, cfg.M, cfg.N, cfg.SplitWorkers, transportName(cfg.Transport))
		res, err := system.Run(data, cfg)
		if err != nil {
			return nil, err
		}
		pb := ParallelBench{
			Config:       fmt.Sprintf("1-%d-(%d,%d)", cfg.K, cfg.M, cfg.N),
			SplitWorkers: cfg.SplitWorkers,
			Transport:    cfg.Transport,
			Nodes:        res.Config.NumNodes(),
			FPS:          res.Modeled().FPS(),
			PhaseMsPP:    map[string]float64{},
		}
		for _, p := range metrics.Phases() {
			var sum float64
			for _, d := range res.Decoders {
				sum += d.Breakdown.PerPicture(p)
			}
			if len(res.Decoders) > 0 {
				pb.PhaseMsPP[p.String()] = sum / float64(len(res.Decoders))
			}
		}
		var sb metrics.SplitBreakdown
		for _, sp := range res.Splitters {
			if sp != nil {
				sb.Merge(sp.Split)
			}
		}
		if sb.Pictures > 0 {
			pb.SplitPhaseMsPP = map[string]float64{}
			for _, p := range metrics.SplitPhases() {
				pb.SplitPhaseMsPP[p.String()] = sb.PerPicture(p)
			}
			pb.SplitPhaseMsPP["ParseWall"] = sb.ParseWall.Seconds() * 1000 / float64(sb.Pictures)
		}
		rep.Systems = append(rep.Systems, pb)
	}

	fmt.Fprintf(o.Log, "benchjson: resident service 1-1-(4,4)\n")
	if rep.Service, err = serviceBench(data); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "benchjson: recovery overhead 1-2-(2,2)\n")
	if rep.Recovery, err = recoveryBench(data); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "benchjson: fleet 4 walls\n")
	if rep.Fleet, err = fleetBench(data); err != nil {
		return nil, err
	}
	fmt.Fprintf(o.Log, "benchjson: roi fractions 1-2-(6,4)\n")
	if rep.ROI, err = roiBench(data); err != nil {
		return nil, err
	}
	return rep, nil
}

// roiBench plays the stream on a warm 1-2-(6,4) wall at subscribed fractions
// 1/24 (one corner tile), 4/24 (a 2x2 window) and 24/24 (an explicit full
// subscription), plus the plain no-subscription baseline. Best-of-rounds on
// the modeled fps, like recoveryBench: the overhead figure gates at 5%, so
// one scheduler stall must not masquerade as skip-machinery cost. Shipped
// bytes and skip counts are deterministic per subscription, so they are read
// from the best round without loss.
func roiBench(data []byte) (*ROIBench, error) {
	const rounds = 3
	cfg := system.Config{K: 2, M: 6, N: 4, SplitWorkers: 1}
	w, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*ROIBench, error) {
		w.Close()
		return nil, err
	}
	run := func(name string, sub wall.TileSet) (*service.SessionResult, error) {
		s, err := w.Open(name)
		if err != nil {
			return nil, err
		}
		if !sub.Full() {
			if err := s.Subscribe(sub); err != nil {
				s.Close()
				return nil, err
			}
		}
		if err := s.Feed(data); err != nil {
			s.Close()
			return nil, err
		}
		return s.Close()
	}
	best := func(name string, sub wall.TileSet) (*service.SessionResult, error) {
		var top *service.SessionResult
		for i := 0; i < rounds; i++ {
			res, err := run(fmt.Sprintf("roi-%s-%d", name, i), sub)
			if err != nil {
				return nil, err
			}
			if top == nil || res.Modeled().FPS() > top.Modeled().FPS() {
				top = res
			}
		}
		return top, nil
	}
	// Warm the wall so every measured round runs the resident pipeline.
	if _, err := run("warm", wall.TileSet{}); err != nil {
		return fail(err)
	}
	one, err := wall.RectTileSet(6, 4, 0, 0, 0, 0)
	if err != nil {
		return fail(err)
	}
	four, err := wall.RectTileSet(6, 4, 0, 0, 1, 1)
	if err != nil {
		return fail(err)
	}
	full, err := wall.RectTileSet(6, 4, 0, 0, 3, 5)
	if err != nil {
		return fail(err)
	}
	oneRes, err := best("1t", one)
	if err != nil {
		return fail(err)
	}
	fourRes, err := best("4t", four)
	if err != nil {
		return fail(err)
	}
	// The overhead figure is plain-vs-full, so those two run last — on a wall
	// the partial fractions have fully warmed — in alternating rounds with
	// extra repetitions: ambient drift (GC, scheduler) lands on both sides of
	// the fraction instead of reading as skip-machinery cost.
	var base, fullRes *service.SessionResult
	for i := 0; i < 2*rounds; i++ {
		res, err := run(fmt.Sprintf("roi-plain-%d", i), wall.TileSet{})
		if err != nil {
			return fail(err)
		}
		if base == nil || res.Modeled().FPS() > base.Modeled().FPS() {
			base = res
		}
		if res, err = run(fmt.Sprintf("roi-24t-%d", i), full); err != nil {
			return fail(err)
		}
		if fullRes == nil || res.Modeled().FPS() > fullRes.Modeled().FPS() {
			fullRes = res
		}
	}
	rb := &ROIBench{Config: "1-2-(6,4)", BaselineFPS: base.Modeled().FPS()}
	for fi, res := range []*service.SessionResult{oneRes, fourRes, fullRes} {
		sub := []wall.TileSet{one, four, full}[fi]
		var busy time.Duration
		for _, d := range res.Decoders {
			if d != nil {
				busy += d.Breakdown.Busy()
			}
		}
		rb.Fractions = append(rb.Fractions, ROIFraction{
			Tiles:          sub.Count(),
			FPS:            res.Modeled().FPS(),
			ShippedMB:      float64(res.WireBytes) / 1e6,
			DecoderBusyMs:  busy.Seconds() * 1e3,
			SkippedSubPics: res.SkippedSubPics,
		})
	}
	if rb.BaselineFPS > 0 {
		rb.FullOverheadFrac = (rb.BaselineFPS - rb.Fractions[len(rb.Fractions)-1].FPS) / rb.BaselineFPS
	}
	return rb, w.Close()
}

// fleetBench runs the fleet front door under oversubscription: 32 sessions
// against a 4-wall farm with aggregate capacity 16, so half the opens queue
// and the p99 open latency prices the admission path, not just the lock. The
// farm mixes one-level and two-level quads so the router exercises its
// heterogeneous scoring. The deadline is sized far above any plausible
// session length: a shed here is an admission bug, and the guard gates Shed
// at zero.
func fleetBench(data []byte) (*FleetBench, error) {
	const sessions = 32
	walls := []service.Config{
		{K: 0, M: 2, N: 2, MaxSessions: 4},
		{K: 0, M: 2, N: 2, MaxSessions: 4},
		{K: 1, M: 2, N: 2, SplitWorkers: 1, MaxSessions: 4},
		{K: 1, M: 2, N: 2, SplitWorkers: 1, MaxSessions: 4},
	}
	f, err := fleet.New(fleet.Config{Walls: walls, OpenDeadline: 60 * time.Second})
	if err != nil {
		return nil, err
	}
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		pics    int
		openMs  []float64
		firstNG error
	)
	start := time.Now()
	for i := 0; i < sessions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			s, err := f.Open(fmt.Sprintf("fleet-bench-%d", i), fleet.OpenOptions{
				Priority: fleet.Priority(i % 3),
			})
			d := time.Since(t0)
			if err == nil {
				err = s.Feed(data)
				var res *service.SessionResult
				if res, err = s.Close(); err == nil {
					mu.Lock()
					pics += res.Throughput.Pictures
					mu.Unlock()
				}
			}
			mu.Lock()
			openMs = append(openMs, d.Seconds()*1e3)
			if err != nil && firstNG == nil {
				firstNG = fmt.Errorf("benchjson: fleet session %d: %w", i, err)
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	shed := f.Stats().Shed
	if err := f.Close(); err != nil {
		return nil, err
	}
	if firstNG != nil {
		return nil, firstNG
	}
	sort.Float64s(openMs)
	return &FleetBench{
		Walls:        len(walls),
		Sessions:     sessions,
		AggregateFPS: float64(pics) / elapsed.Seconds(),
		P99OpenMs:    openMs[len(openMs)*99/100],
		Shed:         shed,
	}, nil
}

// recoveryBench plays the stream through two warm resident walls — one with
// and one without Recovery.Enabled — and reports the best-of-rounds modeled
// fps of each. Rounds alternate between the two walls (after an unmeasured
// warm-up round apiece) and the best per side is kept: the figures gate at
// 10%, so one GC pause or a stretch of ambient load must not land on one side
// only and read as recovery overhead.
func recoveryBench(data []byte) (*RecoveryBench, error) {
	const rounds = 5
	cfgB := system.Config{K: 2, M: 2, N: 2, SplitWorkers: 1}
	cfgR := cfgB
	cfgR.Recovery.Enabled = true
	wb, err := service.New(cfgB)
	if err != nil {
		return nil, err
	}
	defer wb.Close()
	wr, err := service.New(cfgR)
	if err != nil {
		return nil, err
	}
	defer wr.Close()
	round := func(w *service.Wall, best *float64) error {
		res, err := w.Play(data)
		if err != nil {
			return err
		}
		if f := res.Modeled().FPS(); f > *best {
			*best = f
		}
		return nil
	}
	var base, rec float64
	for i := -1; i < rounds; i++ {
		if err := round(wb, &base); err != nil {
			return nil, err
		}
		if err := round(wr, &rec); err != nil {
			return nil, err
		}
		if i < 0 {
			base, rec = 0, 0 // warm-up round: discard
		}
	}
	rb := &RecoveryBench{Config: "1-2-(2,2)", BaselineFPS: base, RecoveryFPS: rec}
	if base > 0 {
		rb.OverheadFrac = (base - rec) / base
	}
	return rb, nil
}

// transportName renders the transport axis for log lines.
func transportName(t string) string {
	if t == "" {
		return "fabric"
	}
	return t
}

// serviceBench measures the resident wall on the splitter-bound 1-1-(4,4)
// shape: cold construction, warm session admission, and 4-session aggregate
// throughput.
func serviceBench(data []byte) (*ServiceBench, error) {
	const sessions = 4
	cfg := system.Config{K: 1, M: 4, N: 4, SplitWorkers: 1, MaxSessions: sessions}

	t0 := time.Now()
	w, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	cold := time.Since(t0)

	// Prime the wall so the warm figures measure a resident pipeline.
	if _, err := w.Play(data); err != nil {
		return nil, err
	}

	t0 = time.Now()
	sess, err := w.Open("warm")
	if err != nil {
		return nil, err
	}
	warm := time.Since(t0)
	if err := sess.Feed(data); err != nil {
		return nil, err
	}
	if _, err := sess.Close(); err != nil {
		return nil, err
	}
	// Warm admission is a microsecond-scale figure gated against cold setup,
	// so take the minimum over a few more admissions: a GC pause landing on
	// one Open (the suite allocates heavily right before this) must not
	// masquerade as session-start cost. The empty sessions close with the
	// missing-sequence-header error and release their slots.
	for i := 0; i < 4; i++ {
		t0 = time.Now()
		s, err := w.Open(fmt.Sprintf("warm-%d", i))
		if err != nil {
			return nil, err
		}
		if d := time.Since(t0); d < warm {
			warm = d
		}
		s.Close()
	}

	var wg sync.WaitGroup
	results := make([]*service.SessionResult, sessions)
	errs := make([]error, sessions)
	start := time.Now()
	for i := 0; i < sessions; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = w.Play(data)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := w.Close(); err != nil {
		return nil, err
	}
	pics := 0
	for i, e := range errs {
		if e != nil {
			return nil, fmt.Errorf("benchjson: service session %d: %w", i, e)
		}
		pics += results[i].Throughput.Pictures
	}
	return &ServiceBench{
		Config:       "1-1-(4,4)",
		ColdSetupMs:  cold.Seconds() * 1e3,
		WarmOpenMs:   warm.Seconds() * 1e3,
		Sessions:     sessions,
		AggregateFPS: float64(pics) / elapsed.Seconds(),
	}, nil
}

// serialBench decodes the stream repeatedly in the pooled steady state.
func serialBench(s *mpeg2.Stream) (SerialBench, error) {
	decode := func() (int, error) {
		d := mpeg2.NewStreamDecoder(s)
		pics, err := d.DecodeAll()
		for i := range pics {
			pics[i].Buf.Release()
		}
		return len(pics), err
	}
	n, err := decode() // warm the pools
	if err != nil || n == 0 {
		return SerialBench{}, fmt.Errorf("benchjson: serial warmup decoded %d pictures: %w", n, err)
	}
	const rounds = 5
	start := time.Now()
	for i := 0; i < rounds; i++ {
		if _, err := decode(); err != nil {
			return SerialBench{}, err
		}
	}
	elapsed := time.Since(start)
	allocs := testing.AllocsPerRun(rounds, func() { decode() })

	perPic := elapsed.Seconds() / float64(rounds*n)
	return SerialBench{
		Stream:        8,
		Pictures:      n,
		FPS:           1 / perPic,
		MsPerPicture:  perPic * 1e3,
		AllocsPerPic:  allocs / float64(n),
		MPixelsPerSec: float64(s.Seq.Width) * float64(s.Seq.Height) / perPic / 1e6,
	}, nil
}

// kernelBench times the IDCT coefficient classes through the public fast
// dispatch (the motion-compensation kernels are covered indirectly by the
// serial figure and directly by the go test -bench suite).
func kernelBench() []KernelBench {
	var dc, sparse, full [64]int32
	dc[0] = 123
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() int32 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return int32(rng%512) - 256
	}
	for i := 0; i < 24; i++ {
		sparse[i] = next()
	}
	for i := range full {
		full[i] = next()
	}
	time1 := func(name string, blk *[64]int32, mask uint8) KernelBench {
		const iters = 200000
		start := time.Now()
		for i := 0; i < iters; i++ {
			tmp := *blk
			mpeg2.IDCTFast(&tmp, mask)
		}
		return KernelBench{Name: name, NsOp: float64(time.Since(start).Nanoseconds()) / iters}
	}
	return []KernelBench{
		time1("idct_dc_only", &dc, 0),
		time1("idct_sparse", &sparse, mpeg2.ACMaskOf(&sparse)),
		time1("idct_full", &full, mpeg2.ACMaskOf(&full)),
	}
}

// WriteBenchJSON encodes the report.
func WriteBenchJSON(w io.Writer, rep *BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadBenchJSON decodes a report written by WriteBenchJSON.
func ReadBenchJSON(r io.Reader) (*BenchReport, error) {
	var rep BenchReport
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// CompareBenchReports checks cur against base: any serial or parallel fps
// drop beyond tol (a fraction, e.g. 0.10), or any increase in serial
// allocations per picture beyond tol, is a regression. Kernel timings are
// informational (too noisy on shared CI hardware to gate on). Returns the
// list of violations, empty when cur is acceptable, plus warnings for
// metrics present on one side only — a grown suite must not fail against an
// older baseline (the mismatch is reported, not gated), and a shrunk one
// must not silently lose coverage.
func CompareBenchReports(base, cur *BenchReport, tol float64) (violations, warnings []string) {
	var bad []string
	check := func(name string, baseV, curV float64, lowerIsBetter bool) {
		if baseV <= 0 {
			return
		}
		var worse float64 // fractional regression
		if lowerIsBetter {
			worse = (curV - baseV) / baseV
		} else {
			worse = (baseV - curV) / baseV
		}
		if worse > tol {
			bad = append(bad, fmt.Sprintf("%s regressed %.1f%% (base %.2f, current %.2f, tolerance %.0f%%)",
				name, worse*100, baseV, curV, tol*100))
		}
	}
	check("serial fps", base.Serial.FPS, cur.Serial.FPS, false)
	// Allocations are near zero by design, so allow an absolute slack of one
	// object per picture before the relative test applies: 0.1 -> 0.2 is not
	// a meaningful regression, 2 -> 30 is.
	if cur.Serial.AllocsPerPic > base.Serial.AllocsPerPic+1 {
		check("serial allocs/picture", base.Serial.AllocsPerPic, cur.Serial.AllocsPerPic, true)
	}
	// Transport extends the key only when it is not the fabric default, so
	// reports predating the axis keep their keys and stay diffable.
	sysKey := func(p ParallelBench) string {
		key := fmt.Sprintf("%s sw=%d", p.Config, p.SplitWorkers)
		if p.Transport != "" && p.Transport != "fabric" {
			key += " transport=" + p.Transport
		}
		return key
	}
	baseSys := map[string]ParallelBench{}
	for _, b := range base.Systems {
		baseSys[sysKey(b)] = b
	}
	curSys := map[string]bool{}
	for _, c := range cur.Systems {
		curSys[sysKey(c)] = true
		if b, ok := baseSys[sysKey(c)]; ok {
			check(fmt.Sprintf("%s fps", sysKey(c)), b.FPS, c.FPS, false)
		} else {
			warnings = append(warnings, fmt.Sprintf("%s: not in baseline, skipped (regenerate the baseline to gate it)", sysKey(c)))
		}
	}
	for _, b := range base.Systems {
		if !curSys[sysKey(b)] {
			warnings = append(warnings, fmt.Sprintf("%s: in baseline but missing from current report", sysKey(b)))
		}
	}
	if cur.Service != nil {
		// Structural gate, independent of any baseline: a warm session open on
		// a resident wall must cost a small fraction of building the pipeline,
		// or the service has lost its point. 10% leaves room for scheduler
		// noise while still catching any accidental per-session construction.
		if cur.Service.WarmOpenMs > 0.10*cur.Service.ColdSetupMs {
			bad = append(bad, fmt.Sprintf("service warm open %.3fms is not < 10%% of cold setup %.3fms (%s)",
				cur.Service.WarmOpenMs, cur.Service.ColdSetupMs, cur.Service.Config))
		}
		if base.Service != nil {
			check(fmt.Sprintf("service %s %d-session aggregate fps", cur.Service.Config, cur.Service.Sessions),
				base.Service.AggregateFPS, cur.Service.AggregateFPS, false)
		} else {
			warnings = append(warnings, "service: not in baseline, skipped (regenerate the baseline to gate it)")
		}
	} else if base.Service != nil {
		warnings = append(warnings, "service: in baseline but missing from current report")
	}
	if cur.Recovery != nil {
		// Structural gates, independent of any baseline: arming the recovery
		// machinery on a fault-free run must cost under 10% of throughput,
		// slab refcount traffic for retention included.
		if cur.Recovery.OverheadFrac > 0.10 {
			bad = append(bad, fmt.Sprintf("recovery fault-free overhead %.1f%% is not < 10%% (%s: baseline %.1f fps, recovery %.1f fps)",
				cur.Recovery.OverheadFrac*100, cur.Recovery.Config, cur.Recovery.BaselineFPS, cur.Recovery.RecoveryFPS))
		}
		if base.Recovery != nil {
			check(fmt.Sprintf("recovery %s fps", cur.Recovery.Config),
				base.Recovery.RecoveryFPS, cur.Recovery.RecoveryFPS, false)
		} else {
			warnings = append(warnings, "recovery: not in baseline, skipped (regenerate the baseline to gate it)")
		}
	} else if base.Recovery != nil {
		warnings = append(warnings, "recovery: in baseline but missing from current report")
	}
	if cur.Fleet != nil {
		// Structural gates, independent of any baseline. A shed open means the
		// fleet refused admission under a queue and deadline the harness sized
		// to make refusal impossible — an admission bug, not load.
		if cur.Fleet.Shed != 0 {
			bad = append(bad, fmt.Sprintf("fleet shed %d of %d sessions under a 60s deadline",
				cur.Fleet.Shed, cur.Fleet.Sessions))
		}
		// The p99 open includes queue wait behind real decodes, so it is
		// seconds-scale and latency-noisy on shared CI hardware; the relative
		// fps tolerance would flag it constantly. Instead: an absolute ceiling
		// (queueing is bounded by capacity × session length), and a 3× gross
		// gate against the baseline that only applies above a 5ms noise floor.
		if cur.Fleet.P99OpenMs > 20000 {
			bad = append(bad, fmt.Sprintf("fleet p99 open %.0fms exceeds the 20s structural cap", cur.Fleet.P99OpenMs))
		}
		if base.Fleet != nil {
			check(fmt.Sprintf("fleet %d-wall %d-session aggregate fps", cur.Fleet.Walls, cur.Fleet.Sessions),
				base.Fleet.AggregateFPS, cur.Fleet.AggregateFPS, false)
			if cur.Fleet.P99OpenMs > 5 && cur.Fleet.P99OpenMs > 3*base.Fleet.P99OpenMs {
				bad = append(bad, fmt.Sprintf("fleet p99 open %.1fms is over 3x the baseline %.1fms",
					cur.Fleet.P99OpenMs, base.Fleet.P99OpenMs))
			}
		} else {
			warnings = append(warnings, "fleet: not in baseline, skipped (regenerate the baseline to gate it)")
		}
	} else if base.Fleet != nil {
		warnings = append(warnings, "fleet: in baseline but missing from current report")
	}
	if cur.ROI != nil {
		// Structural gate, independent of any baseline: an explicit full-wall
		// subscription must cost the same as no subscription at all — the skip
		// machinery is on every picture's path, so its empty case gates at 5%.
		if cur.ROI.FullOverheadFrac > 0.05 {
			bad = append(bad, fmt.Sprintf("roi full-subscription overhead %.1f%% is not < 5%% (%s: plain %.1f fps)",
				cur.ROI.FullOverheadFrac*100, cur.ROI.Config, cur.ROI.BaselineFPS))
		}
		// Structural gate: shipped bytes and decode work must grow with the
		// subscribed fraction — that scaling is the subsystem's claim. Bytes
		// are deterministic per subscription and gate strictly; decoder busy
		// time is a CPU measurement and gets 10% noise slack.
		for i := 0; i+1 < len(cur.ROI.Fractions); i++ {
			lo, hi := cur.ROI.Fractions[i], cur.ROI.Fractions[i+1]
			if lo.ShippedMB >= hi.ShippedMB {
				bad = append(bad, fmt.Sprintf("roi shipped bytes not monotone: %d tiles shipped %.3fMB, %d tiles %.3fMB",
					lo.Tiles, lo.ShippedMB, hi.Tiles, hi.ShippedMB))
			}
			if lo.DecoderBusyMs > 1.10*hi.DecoderBusyMs {
				bad = append(bad, fmt.Sprintf("roi decode work not monotone: %d tiles busy %.1fms, %d tiles %.1fms",
					lo.Tiles, lo.DecoderBusyMs, hi.Tiles, hi.DecoderBusyMs))
			}
		}
		if base.ROI != nil {
			baseFr := map[int]ROIFraction{}
			for _, fr := range base.ROI.Fractions {
				baseFr[fr.Tiles] = fr
			}
			for _, fr := range cur.ROI.Fractions {
				if b, ok := baseFr[fr.Tiles]; ok {
					check(fmt.Sprintf("roi %s %d-tile fps", cur.ROI.Config, fr.Tiles), b.FPS, fr.FPS, false)
				} else {
					warnings = append(warnings, fmt.Sprintf("roi %d-tile fraction: not in baseline, skipped", fr.Tiles))
				}
			}
		} else {
			warnings = append(warnings, "roi: not in baseline, skipped (regenerate the baseline to gate it)")
		}
	} else if base.ROI != nil {
		warnings = append(warnings, "roi: in baseline but missing from current report")
	}
	if base.GoMaxProcs != cur.GoMaxProcs && base.GoMaxProcs > 0 && cur.GoMaxProcs > 0 {
		warnings = append(warnings, fmt.Sprintf("gomaxprocs differs (baseline %d, current %d): absolute figures are not comparable",
			base.GoMaxProcs, cur.GoMaxProcs))
	}
	return bad, warnings
}
