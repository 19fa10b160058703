// Allocation-regression tests: the hot-path overhaul (fast IDCT, row-wise
// motion compensation, buffer/slab pooling) promises a steady-state decode
// that stays off the heap. These tests pin that property with
// testing.AllocsPerRun so a regression fails CI rather than showing up as a
// slow drift in GC pressure.
package tiledwall

import (
	"io"
	"runtime"
	"testing"

	"tiledwall/internal/experiments"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/system"
)

func allocStream(t testing.TB) *mpeg2.Stream {
	t.Helper()
	data, _, err := experiments.Stream(8, experiments.Options{Frames: 12, Scale: 4, Seed: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := mpeg2.ParseStream(data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// decodeAllReleasing decodes the whole stream, releasing every emitted frame
// back to the pixel-buffer pool by the Decoder's release rule — a B picture
// at once, an I/P picture once the next I/P picture has been emitted — the
// steady-state wall usage pattern, where a frame is scanned out and its
// buffer recycled.
func decodeAllReleasing(t testing.TB, s *mpeg2.Stream) int {
	d := mpeg2.NewStreamDecoder(s)
	n := 0
	var anchor *mpeg2.PixelBuf
	for {
		p, err := d.Next()
		if err == io.EOF {
			anchor.Release()
			return n
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
		if p.Pic.PicType == mpeg2.PictureB {
			p.Buf.Release()
			continue
		}
		anchor.Release()
		anchor = p.Buf
	}
}

// TestDecodeSteadyStateAllocs bounds per-picture heap allocation of the
// serial decoder when the caller recycles frames. The budget is the picture
// header (which outlives the decode call in reference rotation) plus a small
// constant of amortised bookkeeping — not the megabytes per picture the
// unpooled decoder allocated.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	s := allocStream(t)
	pics := decodeAllReleasing(t, s) // warm the pixel-buffer pool
	if pics == 0 {
		t.Fatal("stream decoded to zero pictures")
	}

	allocs := testing.AllocsPerRun(8, func() {
		decodeAllReleasing(t, s)
	})
	perPicture := allocs / float64(pics)
	t.Logf("%d pictures, %.1f allocs per full decode, %.2f per picture", pics, allocs, perPicture)
	if perPicture > 4 {
		t.Fatalf("steady-state decode allocates %.2f objects per picture, budget is 4", perPicture)
	}
}

// wallAllocsPerPicture plays a stream once on a warm wall to warm the slab
// classes and the session machinery, then returns the steady-state heap
// allocations per picture of playing it again.
func wallAllocsPerPicture(t *testing.T, cfg system.Config, data []byte) float64 {
	t.Helper()
	w, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	res, err := w.Play(data)
	if err != nil {
		t.Fatal(err)
	}
	pics := res.Throughput.Pictures
	if pics == 0 {
		t.Fatal("stream decoded to zero pictures")
	}
	allocs := testing.AllocsPerRun(4, func() {
		if _, err := w.Play(data); err != nil {
			t.Fatal(err)
		}
	})
	perPicture := allocs / float64(pics)
	t.Logf("%d pictures, %.1f allocs per session, %.2f per picture", pics, allocs, perPicture)
	return perPicture
}

// TestPooledRecoveryWallAllocs pins the composition the refcounted slab
// ownership buys (DESIGN.md §9): a warm resident wall with recovery armed
// must hold a bounded per-picture allocation rate in steady state. Retention
// shares the pooled payload slabs by reference, so arming the retainer must
// not clone pictures or bleed slabs out of the pool — a regression on either
// shows up here as a per-picture alloc jump.
func TestPooledRecoveryWallAllocs(t *testing.T) {
	data, _, err := experiments.Stream(8, experiments.Options{Frames: 36, Scale: 4, Seed: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg := system.Config{K: 1, M: 2, N: 1, SplitWorkers: 1}
	cfg.Recovery.Enabled = true
	perPicture := wallAllocsPerPicture(t, cfg, data)
	// The per-session constant (open, channels, goroutines, result) amortises
	// over the pictures; the per-picture share is the retention + transport
	// bookkeeping. An unshared retainer copy alone would add the whole
	// payload-slab traffic back, blowing far past this budget; so would a
	// fresh timer per waiting receive instead of each port's reused one, or
	// a heap object per message.
	if perPicture > 16 {
		t.Fatalf("pooled+recovery wall allocates %.2f objects per picture, budget is 16", perPicture)
	}
}

// TestFabricWallAllocs pins messages as values on the wall that sends the
// most of them per picture: 1-1-(4,4) on the fabric, where every picture
// costs 16 sub-pictures, 16 acks and the halo bundles between 16 tiles. The
// measurement (17.0 per picture) is almost all the per-session constant of
// 16 decoders' set-up, amortised over 36 pictures (the exchange
// accumulators and per-picture scratch belong to each tile's server, so
// they grow once per node, not once per session, and the root and the 17
// nodes share one geometry per process); a heap object per message would
// add ~79 per picture.
func TestFabricWallAllocs(t *testing.T) {
	data, _, err := experiments.Stream(8, experiments.Options{Frames: 36, Scale: 2, Seed: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	perPicture := wallAllocsPerPicture(t, system.Config{K: 1, M: 4, N: 4, SplitWorkers: 1}, data)
	if perPicture > 20.5 {
		t.Fatalf("1-1-(4,4) fabric wall allocates %.2f objects per picture, budget is 20.5", perPicture)
	}
}

// fabricWall starts the 1-1-(4,4) fabric wall of TestFabricWallAllocs, and
// returns it with that test's stream after one warm-up session.
func fabricWall(t *testing.T) (*service.Wall, []byte) {
	t.Helper()
	data, _, err := experiments.Stream(8, experiments.Options{Frames: 36, Scale: 2, Seed: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	w, err := service.New(system.Config{K: 1, M: 4, N: 4, SplitWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if _, err := w.Play(data); err != nil {
		t.Fatal(err)
	}
	return w, data
}

// TestSessionRetentionAlloc pins what a closed session's result keeps
// alive: counters only. Each tile's result is its own small allocation, not
// a pointer into the tile's decoder, so a caller that keeps results (a
// benchmark that reads them after its heap sample, a dashboard) does not
// keep every tile's reference windows. The measure is the slope of the live
// heap, after two collections, between 2 and 6 kept results; a result that
// pinned the windows costs ≈ 3.6 MB each on this wall.
func TestSessionRetentionAlloc(t *testing.T) {
	w, data := fabricWall(t)
	var kept []*service.SessionResult
	liveAt := func(n int) int64 {
		for len(kept) < n {
			res, err := w.Play(data)
			if err != nil {
				t.Fatal(err)
			}
			kept = append(kept, res)
		}
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	h2 := liveAt(2)
	h6 := liveAt(6)
	perResult := (h6 - h2) / 4
	t.Logf("live heap %d B with 2 kept results, %d B with 6: %d B per result", h2, h6, perResult)
	if perResult > 64<<10 {
		t.Fatalf("a kept session result retains %d B, budget is %d", perResult, 64<<10)
	}
	runtime.KeepAlive(kept)
}

// TestSessionBytesAlloc pins a tile session's pixel memory on the wall of
// TestFabricWallAllocs: two halo-extended anchor windows and a B target
// without halo per tile, and no display copy under fail-stop, where the
// emitted frame is the one copy of each shown tile picture. Three windows
// and a display buffer per tile read ≈ 3.95 MB per session; the splitter's
// MEI dedup tables as two 112 KB epoch arrays instead of two 3.5 KB bitsets
// read 2.72 MB.
func TestSessionBytesAlloc(t *testing.T) {
	w, data := fabricWall(t)
	const sessions = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sessions; i++ {
		if _, err := w.Play(data); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perSession := float64(after.TotalAlloc-before.TotalAlloc) / sessions
	t.Logf("%.2f MB allocated per session", perSession/1e6)
	if perSession > 2.6e6 {
		t.Fatalf("a 1-1-(4,4) session allocates %.2f MB, budget is 2.6 MB", perSession/1e6)
	}
}

// TestWallResidentBytesAlloc pins what a warm wall keeps between sessions,
// the heap a resident wall costs when no stream plays (residentBytes), on
// the 1-1-(4,4) fabric wall. Per-kind receive channels of a fixed
// 64-message depth (≈ 350 KB on this wall) and per-peer halo accumulators
// kept for the next picture read ≈ 1.05 MB here; inboxes that grow to what
// is queued and halo bundles built in their outgoing slabs read ≈ 0.5 MB,
// most of it the tiles' upload frames.
func TestWallResidentBytesAlloc(t *testing.T) {
	grown := residentBytes(t, system.Config{K: 1, M: 4, N: 4, SplitWorkers: 1})
	const budget = 640 << 10
	if grown > budget {
		t.Fatalf("a warm idle 1-1-(4,4) wall holds %d B, budget is %d", grown, budget)
	}
}

// TestTCPWallResidentBytesAlloc is TestWallResidentBytesAlloc on the shape
// of the tcp-recover-2sess benchmark: a 1-2-(2,2) wall over loopback TCP
// with recovery on, 7 nodes and so 14 connection ends. Each end's link
// writer copying payloads into a batch buffer that kept its peak size, and a
// 64 KiB read buffer per end, read ≈ 1.24 MB here; writers that send from
// the payload slabs themselves and 4 KiB read buffers read ≈ 0.15 MB.
func TestTCPWallResidentBytesAlloc(t *testing.T) {
	cfg := system.Config{K: 2, M: 2, N: 2, SplitWorkers: 1, Transport: "tcp"}
	cfg.Recovery.Enabled = true
	grown := residentBytes(t, cfg)
	const budget = 256 << 10
	if grown > budget {
		t.Fatalf("a warm idle 1-2-(2,2) TCP wall holds %d B, budget is %d", grown, budget)
	}
}

// residentBytes returns the growth of the live heap from before a wall of
// cfg is built to after it has played one session and two collections ran.
// A first wall plays the stream and closes before the baseline, so the
// process-wide slab free lists are warm and the reading does not depend on
// which tests ran before.
func residentBytes(t *testing.T, cfg system.Config) int64 {
	t.Helper()
	data, _, err := experiments.Stream(8, experiments.Options{Frames: 36, Scale: 2, Seed: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	play := func() *service.Wall {
		w, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Play(data); err != nil {
			t.Fatal(err)
		}
		return w
	}
	live := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	play().Close()
	base := live()
	w := play()
	defer w.Close()
	grown := live() - base
	t.Logf("a warm idle wall holds %d B", grown)
	return grown
}

// TestWallLoadAllocs pins the fleet router's admission-time read: Wall.Load
// is sampled on every routing decision across every open in the fleet, so it
// must allocate nothing — it reads three atomics off to the side of the
// session machinery instead of taking the open/close lock.
func TestWallLoadAllocs(t *testing.T) {
	w, err := service.New(service.Config{K: 0, M: 1, N: 1, MaxSessions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	// Sample under live-session load, not on an idle wall, so a regression
	// that only bites with sessions registered still fails here.
	s, err := w.Open("load-alloc")
	if err != nil {
		t.Fatal(err)
	}
	var sink service.Load
	allocs := testing.AllocsPerRun(100, func() {
		sink = w.Load()
	})
	if allocs != 0 {
		t.Fatalf("Wall.Load allocates %.1f objects per call, budget is 0", allocs)
	}
	if sink.ActiveSessions != 1 || sink.MaxSessions != 2 {
		t.Fatalf("Load snapshot %+v, want 1/2 active sessions", sink)
	}
	s.Close()
}

// BenchmarkDecodeGOP is the headline hot-path benchmark: repeated
// steady-state GOP decoding with frames recycled through the pixel-buffer
// pool, the usage pattern of a wall node. allocs/op here is the whole-stream
// figure the continuous-benchmark guard watches.
func BenchmarkDecodeGOP(b *testing.B) {
	data, _, err := experiments.Stream(8, experiments.Options{Frames: 24, Scale: 2, Seed: 1}, false)
	if err != nil {
		b.Fatal(err)
	}
	s, err := mpeg2.ParseStream(data)
	if err != nil {
		b.Fatal(err)
	}
	pics := decodeAllReleasing(b, s) // warm the pool before measuring
	pixels := int64(s.Seq.Width) * int64(s.Seq.Height) * int64(pics)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeAllReleasing(b, s)
	}
	b.SetBytes(pixels)
	b.ReportMetric(float64(pics)*float64(b.N)/b.Elapsed().Seconds(), "fps")
}
