// Command wallbench is the repository's wall-clock benchmark: it runs the
// resident tiled wall (system.NewResidentWall, GOMAXPROCS = NumCPU) on one
// of three paced workloads, checks every emitted tile against the
// serial decoder, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// is repeated with spans recorded around every call into the program, a
// Chrome-trace file is written, and the metrics are the per-layer ladder.
// NOTES.md beside this file defines every workload and metric.
//
// Run from the repository root:
//
//	bash wallbench/run.sh --workload hd-4x4-paced --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"tiledwall/internal/metrics"
)

// workDir holds generated streams and traces, relative to the repository
// root the benchmark runs from (ignored by git).
const workDir = ".bench_build/wallbench"

// setupReps is how many cold starts, each in a process of its own, one run
// times for setup_s.
const setupReps = 7

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed (stream content)")
	seconds := flag.Float64("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	probe := flag.Bool("setup-probe", false, "time one cold start and print it in ns (used by set-up timing)")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *probe); err != nil {
		fmt.Fprintln(os.Stderr, "wallbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced, probe bool) error {
	wl, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seed == 0 {
		seed = 1 // the catalogue treats seed 0 as 1
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	data, err := loadStream(filepath.Join(workDir, "streams"), wl.Stream, seed)
	if err != nil {
		return err
	}
	in, err := newInput(data, wl.M, wl.N, 0)
	if err != nil {
		return err
	}
	if probe {
		// A set-up sample: one cold start in this fresh process, in ns.
		d, err := setupOnce(wl, in)
		if err != nil {
			return err
		}
		fmt.Println(int64(d))
		return nil
	}
	p := in.props()
	fmt.Printf("# wallbench %s seed=%d seconds=%g trace=%v gomaxprocs=%d %s/%s\n",
		wl.Name, seed, seconds, traced, runtime.GOMAXPROCS(0), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("# wall 1-%d-(%d,%d) transport=%s recovery=%v pooled=true rate=%s\n",
		wl.K, wl.M, wl.N, wl.Transport, wl.Recovery, rateString(wl.RateHz))
	fmt.Printf("# stream %d %dx%d, %d pictures/copy (I %d, P %d, B %d), %.0f bytes/picture, coded-MB share per tile %s\n",
		wl.Stream.ID, p.W, p.H, p.Pictures, p.NI, p.NP, p.NB, p.BytesPerPic, shares(p.TileMBShare))

	res := result{Metrics: map[string]metric{}}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }

	// A traced run splits its time between an untraced window (the base of
	// trace.overhead_frac) and the traced one, so it lasts as long as an
	// untraced run.
	if traced {
		seconds /= 2
	}
	var setup time.Duration
	if !traced {
		var all []time.Duration
		setup, all, err = setupTime(wl, seed, setupReps)
		if err != nil {
			return err
		}
		fmt.Printf("# setup samples %v\n", all)
	}
	win, err := measure(wl, in, seconds, nil)
	if err != nil {
		return err
	}

	e2e := endToEnd(win, setup)
	report("untraced", win, e2e)
	res.Attempted, res.Failed = win.attempted(), win.failed()

	if !traced {
		for _, m := range e2eMetrics {
			put(m.name, m.unit, e2e[m.name])
		}
	} else {
		tr := &tracer{}
		twin, err := measure(wl, in, seconds, tr)
		if err != nil {
			return err
		}
		report("traced", twin, endToEnd(twin, 0))
		res.Attempted += twin.attempted()
		res.Failed += twin.failed()
		layers, err := perLayer(wl, in, win, twin, tr)
		if err != nil {
			return err
		}
		for _, m := range layerMetrics {
			put(m.name, m.unit, layers[m.name])
			fmt.Printf("%-40s %14.6g %s\n", m.name, layers[m.name], m.unit)
		}
		path := filepath.Join(workDir, "traces", fmt.Sprintf("%s-seed%d.json", wl.Name, seed))
		if err := tr.write(path, twin.Tiles); err != nil {
			return err
		}
		fmt.Printf("# trace %s (%d spans, %d tile frames)\n", path, len(tr.spans), len(twin.Tiles))
	}
	res.Correct = res.Failed == 0
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// JSON has no infinities; a failed picture's latency shows as
			// the largest float, and the run is already marked incorrect.
			m.Value = math.MaxFloat64
			res.Metrics[k] = m
			res.Correct = false
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

func rateString(hz float64) string {
	if hz == 0 {
		return "closed-loop"
	}
	return fmt.Sprintf("%gHz", hz)
}

func shares(s []float64) string {
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

var e2eMetrics = []metricDef{
	{"fps", "1/s"},
	{"ok_frac", "frac"},
	{"setup_s", "s"},
	{"cpu_ms_per_picture", "ms"},
	{"allocs_per_picture", "count"},
	{"heap_mb", "MB"},
}

func (w *window) attempted() int { return w.Score.Attempted + w.WarmPics }

func (w *window) failed() int { return w.Score.Failed + w.WarmFailed + int(w.Stray) }

// endToEnd derives the end-to-end metrics of a window.
func endToEnd(w *window, setup time.Duration) map[string]float64 {
	pics := float64(w.pictures())
	// summarize sorts the samples in place, so percentile can read them.
	lat, skew := summarize(w.Score.Latency), summarize(w.Score.Skew)
	return map[string]float64{
		"fps":                w.fps(),
		"latency_p50_ms":     lat.P50,
		"latency_p99_ms":     percentile(w.Score.Latency, 9900),
		"skew_p99_ms":        percentile(w.Score.Skew, 9900),
		"ok_frac":            1 - float64(w.failed())/float64(w.attempted()),
		"setup_s":            setup.Seconds(),
		"cpu_ms_per_picture": millis(w.CPU) / pics,
		"allocs_per_picture": float64(w.Mallocs) / pics,
		"heap_mb":            float64(w.HeapBytes) / 1e6,
		"latency_n":          float64(lat.N),
		"latency_tail_bp":    float64(lat.TailBP),
		"latency_tail_ms":    lat.Tail,
		"skew_p50_ms":        skew.P50,
		"skew_n":             float64(skew.N),
	}
}

// report prints a window's end-to-end figures with sample counts.
func report(label string, w *window, m map[string]float64) {
	fmt.Printf("# %s window: %d pictures in %d session(s), %d attempted incl. warm-up, %d failed (error_frac %.6f), %d recovery interventions\n",
		label, w.pictures(), len(w.Sessions), w.attempted(), w.failed(),
		float64(w.failed())/float64(w.attempted()), w.Recovery)
	fmt.Printf("# %s latency: n=%d p50=%.3fms p99=%.3fms, highest percentile with >=10 samples beyond: p%g=%.3fms\n",
		label, int(m["latency_n"]), m["latency_p50_ms"], m["latency_p99_ms"],
		m["latency_tail_bp"]/100, m["latency_tail_ms"])
	fmt.Printf("# %s skew: n=%d p50=%.3fms p99=%.3fms\n", label, int(m["skew_n"]), m["skew_p50_ms"], m["skew_p99_ms"])
	for _, d := range e2eMetrics {
		if d.name == "setup_s" && m[d.name] == 0 {
			continue
		}
		fmt.Printf("%-40s %14.6g %s\n", d.name, m[d.name], d.unit)
	}
}

var layerMetrics = []metricDef{
	// The wall's latency and tails. On a shared host they follow the host's
	// scheduling more than the program (NOTES.md), so they are reported
	// here, without a bound.
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"skew_p99_ms", "ms"},
	{"service.feed_ms_per_picture", "ms"},
	{"service.close_ms", "ms"},
	{"service.open_ms", "ms"},
	{"service.root_scan_ms_per_picture", "ms"},
	{"service.root_wait_ms_per_picture", "ms"},
	{"splitter.parse_ms_per_picture", "ms"},
	{"splitter.sort_serialize_ms_per_picture", "ms"},
	{"splitter.split_ms_per_picture", "ms"},
	{"splitter.skip_frac", "frac"},
	{"mpeg2.serial_fps", "1/s"},
	{"mpeg2.vld_ms_per_picture", "ms"},
	{"bits.startcode_scan_ms_per_picture", "ms"},
	{"subpic.marshal_us_per_subpic", "us"},
	{"subpic.unmarshal_us_per_subpic", "us"},
	{"subpic.bytes_per_picture", "B"},
	{"pdec.work_ms_per_picture", "ms"},
	{"pdec.work_max_over_mean", "ratio"},
	{"pdec.waitmb_ms_per_picture", "ms"},
	{"pdec.receive_ms_per_picture", "ms"},
	{"pdec.emit_frac", "frac"},
	{"cluster.wire_bytes_per_picture", "B"},
	{"cluster.msgs_per_picture", "count"},
	{"cluster.fabric_hop_us", "us"},
	{"cluster.tcp_hop_us", "us"},
	{"recovery.interventions", "count"},
	{"system.modeled_fps", "1/s"},
	{"system.calibrated_ts_ms", "ms"},
	{"system.calibrated_td_ms", "ms"},
	{"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_frac", "frac"},
}

// perLayer derives the ladder from the traced window (result breakdowns and
// spans) plus direct serial measurements of single layers.
func perLayer(wl workload, in *input, untraced, traced *window, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	pics := float64(traced.pictures())

	feed, nfeed := tr.total("Feed")
	m["service.feed_ms_per_picture"] = float64(feed) / 1e6 / float64(nfeed)
	closeNs, nclose := tr.total("Close")
	m["service.close_ms"] = float64(closeNs) / 1e6 / float64(nclose)
	openNs, nopen := tr.total("Open")
	m["service.open_ms"] = float64(openNs) / 1e6 / float64(nopen)

	nt := in.Geo.NumTiles()
	var scan, wait, parse, sortSer time.Duration
	var skipped, shipped, decoded int64
	var wireBytes int64
	work := make([]time.Duration, nt)
	waitmb := make([]time.Duration, nt)
	recv := make([]time.Duration, nt)
	var modeled float64
	for i, s := range traced.Sessions {
		r := s.Res
		if r == nil {
			return nil, fmt.Errorf("traced session %d has no result", s.ID)
		}
		if i == 0 {
			modeled = r.Modeled().FPS()
		}
		if r.Root != nil {
			scan += r.Root.ScanTime
			wait += r.Root.WaitTime
		}
		for _, sp := range r.Splitters {
			if sp == nil {
				continue
			}
			parse += sp.Split.Durations[metrics.SplitParse]
			sortSer += sp.Split.Durations[metrics.SplitSort] + sp.Split.Durations[metrics.SplitSerialize]
		}
		for t, d := range r.Decoders {
			if d == nil {
				continue
			}
			work[t] += d.Breakdown.Durations[metrics.PhaseWork]
			waitmb[t] += d.Breakdown.Durations[metrics.PhaseWaitMB]
			recv[t] += d.Breakdown.Durations[metrics.PhaseReceive]
			decoded += int64(d.Pictures)
		}
		skipped += r.SkippedSubPics
		shipped += int64(r.ShippedPictures) * int64(nt)
		wireBytes += r.WireBytes
	}
	perPic := func(d time.Duration) float64 { return millis(d) / pics }
	m["service.root_scan_ms_per_picture"] = perPic(scan)
	m["service.root_wait_ms_per_picture"] = perPic(wait)
	m["splitter.parse_ms_per_picture"] = perPic(parse)
	m["splitter.sort_serialize_ms_per_picture"] = perPic(sortSer)
	m["splitter.skip_frac"] = float64(skipped) / float64(shipped)
	mean := func(ds []time.Duration) (avg, peak time.Duration) {
		for _, d := range ds {
			avg += d
			peak = max(peak, d)
		}
		return avg / time.Duration(len(ds)), peak
	}
	avgWork, maxWork := mean(work)
	m["pdec.work_ms_per_picture"] = perPic(avgWork)
	m["pdec.work_max_over_mean"] = float64(maxWork) / float64(avgWork)
	avgWait, _ := mean(waitmb)
	m["pdec.waitmb_ms_per_picture"] = perPic(avgWait)
	avgRecv, _ := mean(recv)
	m["pdec.receive_ms_per_picture"] = perPic(avgRecv)
	m["pdec.emit_frac"] = float64(traced.Score.Emitted) / float64(decoded)
	m["cluster.wire_bytes_per_picture"] = float64(wireBytes) / pics
	m["cluster.msgs_per_picture"] = float64(traced.Msgs) / pics
	m["recovery.interventions"] = float64(untraced.Recovery + traced.Recovery)
	m["system.modeled_fps"] = modeled
	// Every load is paced, so tracing costs CPU rather than fps.
	m["trace.overhead_frac"] = millis(traced.CPU)/pics/(millis(untraced.CPU)/float64(untraced.pictures())) - 1
	// Over both windows, so each tail has at least 1000 samples.
	both := func(a, b []float64) []float64 {
		all := append(append([]float64(nil), a...), b...)
		sort.Float64s(all)
		return all
	}
	lat := both(untraced.Score.Latency, traced.Score.Latency)
	m["latency_p50_ms"] = percentile(lat, 5000)
	m["latency_p99_ms"] = percentile(lat, 9900)
	m["skew_p99_ms"] = percentile(both(untraced.Score.Skew, traced.Score.Skew), 9900)

	var lag []float64
	for _, s := range traced.Sessions {
		for i := range s.Log.Start {
			lag = append(lag, float64(s.Log.Start[i]-s.Log.Due[i])/1e6)
		}
	}
	sort.Float64s(lag)
	m["loadgen.lag_p99_ms"] = percentile(lag, 9900)

	// Direct serial measurements of single layers.
	d, err := startcodeScan(in, tr)
	if err != nil {
		return nil, err
	}
	m["bits.startcode_scan_ms_per_picture"] = millis(d)
	d, err = repeatPasses(tr, "mpeg2.SliceDecoder parse-only", func() (int, error) {
		return len(in.Pics), vldPass(in.Seq, in.Pics, nil)
	})
	if err != nil {
		return nil, err
	}
	m["mpeg2.vld_ms_per_picture"] = millis(d)
	d, err = serialDecode(in, tr)
	if err != nil {
		return nil, err
	}
	m["mpeg2.serial_fps"] = 1 / d.Seconds()
	st, err := splitLadder(in, in.Pics, tr)
	if err != nil {
		return nil, err
	}
	m["splitter.split_ms_per_picture"] = millis(st.Split)
	m["subpic.marshal_us_per_subpic"] = float64(st.Marshal) / 1e3
	m["subpic.unmarshal_us_per_subpic"] = float64(st.Unmarshal) / 1e3
	m["subpic.bytes_per_picture"] = st.BytesPerPicture
	m["cluster.fabric_hop_us"] = float64(fabricHop(st.Median, tr)) / 1e3
	th, err := tcpHop(st.Median, tr)
	if err != nil {
		return nil, err
	}
	m["cluster.tcp_hop_us"] = float64(th) / 1e3
	cal, err := calibrate(in, wl, tr)
	if err != nil {
		return nil, err
	}
	m["system.calibrated_ts_ms"] = millis(cal.TS)
	m["system.calibrated_td_ms"] = millis(cal.TD)
	return m, nil
}
