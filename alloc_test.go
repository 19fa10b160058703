// Allocation-regression tests: the hot-path overhaul (fast IDCT, row-wise
// motion compensation, buffer/slab pooling) promises a steady-state decode
// that stays off the heap. These tests pin that property with
// testing.AllocsPerRun so a regression fails CI rather than showing up as a
// slow drift in GC pressure.
package tiledwall

import (
	"io"
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
// measurement (24.7 per picture) is almost all the per-session constant of
// 16 decoders' set-up, amortised over 36 pictures (the exchange
// accumulators and per-picture scratch belong to each tile's server, so
// they grow once per node, not once per session); a heap object per message
// would add ~79 per picture.
func TestFabricWallAllocs(t *testing.T) {
	data, _, err := experiments.Stream(8, experiments.Options{Frames: 36, Scale: 2, Seed: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	perPicture := wallAllocsPerPicture(t, system.Config{K: 1, M: 4, N: 4, SplitWorkers: 1}, data)
	if perPicture > 27 {
		t.Fatalf("1-1-(4,4) fabric wall allocates %.2f objects per picture, budget is 27", perPicture)
	}
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
