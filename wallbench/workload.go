package main

import (
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/recovery"
	"tiledwall/internal/service"
	"tiledwall/internal/system"
	"tiledwall/internal/wall"
)

// workload is one benchmark input: a stream, a wall shape and a load pattern.
type workload struct {
	Name      string
	Stream    streamSpec
	K, M, N   int
	Transport string // "fabric" or "tcp"
	Recovery  bool
	// RateHz is the open-loop rate of each session, in pictures per second.
	// It is a fixed absolute rate, not derived per host, so runs on
	// different commits load the wall identically.
	RateHz float64
	// SwitchSession adds a second session that subscribes to one tile and
	// re-subscribes to another halfway through the run.
	SwitchSession bool
}

// framesPerCopy is the generated sequence length: four GOPs of the
// catalogue's 12-picture GOP. Long runs feed it back to back.
const framesPerCopy = 48

// workloads are the benchmark's inputs; NOTES.md gives the reason for each.
var workloads = []workload{
	// Every rate keeps a 2-vCPU x86-64 VM 30-40% busy at the commit that
	// introduced the benchmark; NOTES.md says why no workload runs
	// closed-loop.
	{
		// Splitter-bound: one splitter parses every picture for 16 tiles.
		Name:   "hd-4x4-paced",
		Stream: streamSpec{ID: 8, Scale: 2, Frames: framesPerCopy},
		K:      1, M: 4, N: 4,
		Transport: "fabric",
		RateHz:    100,
	},
	{
		// Decoder-heavy: latency, skew and halo waits.
		Name:   "orion-3x2-paced",
		Stream: streamSpec{ID: 13, Scale: 4, Frames: framesPerCopy},
		K:      2, M: 3, N: 2,
		Transport: "fabric",
		RateHz:    100,
	},
	{
		// The paths the other two skip: TCP, recovery, sessions, ROI.
		Name:   "tcp-recover-2sess",
		Stream: streamSpec{ID: 8, Scale: 2, Frames: framesPerCopy},
		K:      2, M: 2, N: 2,
		Transport:     "tcp",
		Recovery:      true,
		RateHz:        60,
		SwitchSession: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// config returns the wall configuration for the workload with sink as the
// display hook.
func (w workload) config(sink func(session, pic, tile int, buf *mpeg2.PixelBuf)) system.Config {
	cfg := system.Config{
		K: w.K, M: w.M, N: w.N,
		Transport:   w.Transport,
		Pooled:      true,
		OnTileFrame: sink,
		// A protocol deadlock aborts the run instead of hanging it.
		Fabric: cluster.Config{StallTimeout: 20 * time.Second},
	}
	if w.Recovery {
		cfg.Recovery = recovery.Config{Enabled: true}
	}
	return cfg
}

// feedLog is one session's feeder record: per unit, when it was due and when
// its Feed call started and ended, plus the Close call time.
type feedLog struct {
	Due, Start, End []int64
	CloseAt         int64
	OpenSpan        [2]int64
	CloseSpan       [2]int64
}

// sessionRun is the outcome of one session.
type sessionRun struct {
	ID   int
	Log  feedLog
	Rec  *sessionRec
	Plan []subChange
	Res  *service.SessionResult
	Err  error
	// Fed counts pictures fed, Passed those that were fully emitted and
	// matched the oracle.
	Fed, Passed int
}

// readyAt maps the ready-time rule onto the session's due times.
func (sr *sessionRun) readyAt(in *input) []int64 {
	ready := readyUnits(in.Types, in.Ends, sr.Fed)
	out := make([]int64, sr.Fed)
	for i, u := range ready {
		if u >= sr.Fed {
			out[i] = sr.Log.CloseAt
		} else {
			out[i] = sr.Log.Due[u]
		}
	}
	return out
}

// feeder drives one session. It feeds units copy after copy until the
// deadline (or the table's capacity), then closes the session.
type feeder struct {
	w        *system.ResidentWall
	rec      *recorder
	in       *input
	tr       *tracer
	clk      clock
	rateHz   float64     // 0: closed loop (the warm-up copy)
	deadline int64       // clock ns; feeding stops at the first unit due at or after it
	table    *sessionRec // the session's emission table
	log      feedLog     // preallocated to the table's capacity
	plan     []subChange // expected subscription; Tiles sets the initial one
	switchAt int64       // clock ns of the re-subscription (0: none)
	switchTo []bool
	name     string
}

// newFeeder allocates a feeder's table and log up front, so the timed
// window allocates nothing on the benchmark's side.
func newFeeder(rec *recorder, in *input, tr *tracer, pictures int, name string) *feeder {
	f := &feeder{rec: rec, in: in, tr: tr, clk: rec.clk, deadline: 1 << 62, name: name,
		table: newSessionRec(in.Geo.NumTiles(), pictures)}
	f.log.Due = make([]int64, 0, pictures)
	f.log.Start = make([]int64, 0, pictures)
	if tr != nil {
		f.log.End = make([]int64, 0, pictures)
	}
	return f
}

func tileSet(tiles []bool) wall.TileSet {
	ts := wall.NewTileSet(len(tiles))
	for t, on := range tiles {
		if on {
			ts.Add(t)
		}
	}
	return ts
}

func (f *feeder) run() *sessionRun {
	sr := &sessionRun{Log: f.log, Rec: f.table}
	t0 := f.clk.now()
	sess, err := f.w.Open(f.name)
	sr.Log.OpenSpan = [2]int64{t0, f.clk.now()}
	if err != nil {
		sr.Err = fmt.Errorf("open: %w", err)
		return sr
	}
	sr.ID = sess.ID()
	if !f.rec.register(sr.ID, sr.Rec) {
		sr.Err = fmt.Errorf("session id %d beyond the recorder", sr.ID)
		sess.Close()
		return sr
	}
	sr.Plan = append(sr.Plan, f.plan...)
	if len(f.plan) > 0 && f.plan[0].Tiles != nil {
		if err := sess.Subscribe(tileSet(f.plan[0].Tiles)); err != nil {
			sr.Err = fmt.Errorf("subscribe: %w", err)
			sess.Close()
			return sr
		}
	}
	per := len(f.in.Units)
	start := sr.Log.OpenSpan[1]
	period := 0.0
	if f.rateHz > 0 {
		period = 1e9 / f.rateHz
	}
	switched := f.switchAt == 0
	for i := 0; i < f.table.pictures(); i++ {
		// Closed loop: a unit is due when its Feed starts. Open loop: at its
		// scheduled time, however late the generator gets there.
		due := f.clk.now()
		if period > 0 {
			due = start + int64(float64(i)*period)
			if wait := due - f.clk.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
		}
		if due >= f.deadline {
			break
		}
		if !switched && due >= f.switchAt {
			switched = true
			// The root holds the change until the next I picture it ships;
			// the picture of the unit fed last is still in the wall's
			// scanner, so the first candidate is i-1.
			if err := sess.Subscribe(tileSet(f.switchTo)); err != nil {
				sr.Err = fmt.Errorf("re-subscribe: %w", err)
				break
			}
			from := i - 1
			for f.in.pictureType(from) != mpeg2.PictureI {
				from++
			}
			sr.Plan = append(sr.Plan, subChange{From: from, Tiles: f.switchTo})
		}
		s := due
		if period > 0 {
			s = f.clk.now()
		}
		err := sess.Feed(f.in.Units[i%per])
		sr.Log.Due = append(sr.Log.Due, due)
		sr.Log.Start = append(sr.Log.Start, s)
		if f.tr != nil {
			sr.Log.End = append(sr.Log.End, f.clk.now())
		}
		sr.Fed++
		if err != nil {
			sr.Err = fmt.Errorf("feed unit %d: %w", i, err)
			break
		}
	}
	sr.Log.CloseAt = f.clk.now()
	res, err := sess.Close()
	sr.Log.CloseSpan = [2]int64{sr.Log.CloseAt, f.clk.now()}
	if sr.Err == nil && err != nil {
		sr.Err = fmt.Errorf("close: %w", err)
	}
	sr.Res = res
	if res != nil && sr.Err == nil {
		sr.Err = checkSubscriptions(res, sr.Plan)
	}
	return sr
}

// checkSubscriptions compares the wall's own activation log with the
// expected plan: a re-subscription must activate at the predicted I picture.
func checkSubscriptions(res *service.SessionResult, plan []subChange) error {
	if len(plan) < 2 {
		return nil
	}
	for _, ev := range res.Subscriptions {
		if ev.Picture == plan[len(plan)-1].From {
			return nil
		}
	}
	return fmt.Errorf("re-subscription expected at picture %d, wall log %+v", plan[len(plan)-1].From, res.Subscriptions)
}

// window is the steady-state measurement of one workload run.
type window struct {
	Sessions   []*sessionRun
	Score      score
	Elapsed    []float64 // s, Open to Close return, per session
	CPU        time.Duration
	Mallocs    uint64
	HeapBytes  int64
	Msgs       int64
	WarmFailed int
	WarmPics   int
	Recovery   int64       // recovery interventions, wall and sessions
	Stray      int64       // tile frames of sessions the benchmark never opened
	Tiles      []tileEvent // traced runs: one instant per tile frame
	Start, End int64       // clock ns of the timed window
}

// pictures returns the pictures fed in the window.
func (w *window) pictures() int {
	n := 0
	for _, s := range w.Sessions {
		n += s.Fed
	}
	return n
}

// fps sums fully emitted pictures per wall-clock second over sessions.
func (w *window) fps() float64 {
	f := 0.0
	for i, s := range w.Sessions {
		f += float64(s.Passed) / w.Elapsed[i]
	}
	return f
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func msgsSent(tr cluster.Transport) int64 {
	var n int64
	for _, s := range tr.Stats() {
		n += s.MsgsSent
	}
	return n
}

// measure builds a fresh wall, warms it with one closed-loop copy of the
// stream, then runs the workload for seconds and scores it.
func measure(wl workload, in *input, seconds float64, tr *tracer) (*window, error) {
	rec := &recorder{clk: clock{base: time.Now()}}
	clk := rec.clk
	if tr != nil {
		tr.clk = clk
	}
	// Everything the benchmark holds during the window (tables, feed logs)
	// is allocated here, before the heap baseline and the allocation count.
	// A paced feeder stops at the first unit due at the deadline, so it
	// feeds at most seconds × rate units.
	capacity := int(seconds*wl.RateHz) + 2
	feeders := []*feeder{newFeeder(rec, in, tr, capacity, "A")}
	if wl.SwitchSession {
		nt := in.Geo.NumTiles()
		first, second := make([]bool, nt), make([]bool, nt)
		first[0], second[nt-1] = true, true
		b := newFeeder(rec, in, tr, capacity, "B")
		b.plan, b.switchTo = []subChange{{From: 0, Tiles: first}}, second
		feeders = append(feeders, b)
	}
	for _, f := range feeders {
		f.rateHz = wl.RateHz
	}
	warmup := newFeeder(rec, in, nil, len(in.Units), "warm")
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	heapBase := int64(ms.HeapAlloc)

	t0 := tr.begin()
	w, err := system.NewResidentWall(wl.config(rec.onTileFrame))
	tr.end("NewResidentWall", "system", 0, -1, t0)
	if err != nil {
		return nil, err
	}
	defer w.Close()

	for _, f := range append(feeders, warmup) {
		f.w = w
	}

	out := &window{}
	// Warm-up: one copy, closed loop, checked like the timed pictures.
	warm := warmup.run()
	if warm.Err != nil {
		return nil, fmt.Errorf("warm-up: %w", warm.Err)
	}
	ws := scoreSession(warm.Rec, in, nil, warm.readyAt(in), nil)
	out.WarmFailed, out.WarmPics = ws.Failed, ws.Attempted

	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs0, cpu0, msgs0 := ms.Mallocs, cpuTime(), msgsSent(w.Service().Transport())
	rec0 := w.Service().Recovery()

	start := clk.now()
	deadline := start + int64(seconds*1e9)
	for _, f := range feeders {
		f.deadline = deadline
		if f.switchTo != nil {
			f.switchAt = start + int64(seconds*1e9/2)
		}
	}
	runs := make([]*sessionRun, len(feeders))
	var wg sync.WaitGroup
	for i, f := range feeders {
		wg.Add(1)
		go func(i int, f *feeder) {
			defer wg.Done()
			runs[i] = f.run()
		}(i, f)
	}
	wg.Wait()
	out.Start, out.End = start, clk.now()

	out.CPU = cpuTime() - cpu0
	runtime.ReadMemStats(&ms)
	out.Mallocs = ms.Mallocs - mallocs0
	out.Msgs = msgsSent(w.Service().Transport()) - msgs0
	runtime.GC()
	runtime.ReadMemStats(&ms)
	out.HeapBytes = int64(ms.HeapAlloc) - heapBase
	out.Recovery = interventions(w.Service().Recovery()) - interventions(rec0)

	out.Sessions = runs
	for _, r := range runs {
		if r.ID == 0 {
			return nil, r.Err
		}
		out.Elapsed = append(out.Elapsed, float64(r.Log.CloseSpan[1]-r.Log.OpenSpan[0])/1e9)
		sc := scoreSession(r.Rec, in, r.Plan, r.readyAt(in), r.Err)
		r.Passed = max(0, sc.Attempted-sc.Failed)
		out.Score.add(sc)
		if r.Res != nil {
			out.Recovery += interventions(r.Res.Recovery)
		}
		tr.add(r.spans()...)
	}
	out.Stray = rec.unknown.Load()
	t0 = tr.begin()
	err = w.Close()
	tr.end("ResidentWall.Close", "system", 0, -1, t0)
	if err != nil {
		return nil, fmt.Errorf("wall close: %w", err)
	}
	if tr != nil {
		for _, r := range runs {
			for i := 0; i < r.Fed; i++ {
				for t := 0; t < r.Rec.tiles; t++ {
					if rc := r.Rec.rec(i, t); rc.n > 0 {
						out.Tiles = append(out.Tiles, tileEvent{At: rc.at, Session: r.ID, Pic: i, Tile: t})
					}
				}
			}
		}
	}
	return out, nil
}

// spans turns the session's feeder log into trace spans.
func (sr *sessionRun) spans() []span {
	ss := []span{{Name: "Open", Cat: "service", Start: sr.Log.OpenSpan[0], End: sr.Log.OpenSpan[1], Session: sr.ID, Pic: -1}}
	for i := range sr.Log.End {
		ss = append(ss, span{Name: "Feed", Cat: "service", Start: sr.Log.Start[i], End: sr.Log.End[i], Session: sr.ID, Pic: i})
	}
	return append(ss, span{Name: "Close", Cat: "service", Start: sr.Log.CloseSpan[0], End: sr.Log.CloseSpan[1], Session: sr.ID, Pic: -1})
}

// setupOnce times one cold start: NewResidentWall to the last tile of the
// first complete picture of the first session, fed one copy closed-loop. It
// runs in a process of its own (see setupTime), so the wall's pools and slab
// free lists start empty; two GCs first clear the sync.Pools that building
// the oracle filled.
func setupOnce(wl workload, in *input) (time.Duration, error) {
	rec := &recorder{clk: clock{base: time.Now()}}
	sr := newSessionRec(in.Geo.NumTiles(), len(in.Units))
	runtime.GC()
	runtime.GC()
	start := rec.clk.now()
	w, err := system.NewResidentWall(wl.config(rec.onTileFrame))
	if err != nil {
		return 0, err
	}
	defer w.Close()
	sess, err := w.Open("setup")
	if err != nil {
		return 0, err
	}
	rec.register(sess.ID(), sr)
	for j, u := range in.Units {
		if err := sess.Feed(u); err != nil {
			sess.Close()
			return 0, fmt.Errorf("feed unit %d: %w", j, err)
		}
	}
	if _, err := sess.Close(); err != nil {
		return 0, err
	}
	// The first complete picture is the one whose last tile came out first.
	first := int64(math.MaxInt64)
	for i := range in.Units {
		last, want := int64(0), in.digest(i)
		for t := range want {
			rc := sr.rec(i, t)
			if rc.n != 1 || rc.crc != want[t] {
				return 0, fmt.Errorf("picture %d, tile %d: %d frames, digest %08x, want %08x", i, t, rc.n, rc.crc, want[t])
			}
			last = max(last, rc.at)
		}
		first = min(first, last)
	}
	return time.Duration(first - start), w.Close()
}

// setupTime times reps cold starts, each in a fresh process that runs this
// binary with -setup-probe, and returns the median plus every sample.
func setupTime(wl workload, seed int64, reps int) (time.Duration, []time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, nil, err
	}
	var all []time.Duration
	for i := 0; i < reps; i++ {
		cmd := exec.Command(exe, "-workload", wl.Name, "-seed", strconv.FormatInt(seed, 10), "-setup-probe")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		all = append(all, time.Duration(ns))
	}
	sorted := append([]time.Duration(nil), all...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	return sorted[len(sorted)/2], all, nil
}
