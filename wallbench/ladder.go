package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"tiledwall/internal/bits"
	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/splitter"
	"tiledwall/internal/subpic"
	"tiledwall/internal/system"
)

// The ladder: direct, serial measurements of single layers on the
// workload's own stream, each timed around public calls by the benchmark.

// ladderMin is the least time one ladder measurement runs; passes over the
// stream repeat until it is reached.
const ladderMin = 150 * time.Millisecond

// repeatPasses calls pass (one pass over the stream, returning the pictures
// it covered) until ladderMin has elapsed, and returns time per picture.
func repeatPasses(tr *tracer, name string, pass func() (int, error)) (time.Duration, error) {
	t0 := tr.begin()
	defer tr.end(name, "ladder", 0, -1, t0)
	var pics int
	start := time.Now()
	for time.Since(start) < ladderMin {
		n, err := pass()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		pics += n
	}
	return time.Since(start) / time.Duration(pics), nil
}

// startcodeScan walks every start code of the stream with bits.NextStartCode.
func startcodeScan(in *input, tr *tracer) (time.Duration, error) {
	return repeatPasses(tr, "bits.NextStartCode", func() (int, error) {
		pics := 0
		for off := bits.NextStartCode(in.Data, 0); off >= 0; off = bits.NextStartCode(in.Data, off+4) {
			if in.Data[off+3] == bits.PictureStartCode {
				pics++
			}
		}
		return pics, nil
	})
}

// vldPass parses every slice of every picture with a parse-only slice
// decoder, calling onMB for each coded macroblock.
func vldPass(seq *mpeg2.SequenceHeader, pics [][]byte, onMB func(*mpeg2.Macroblock)) error {
	var (
		r    bits.Reader
		ph   mpeg2.PictureHeader
		ctx  mpeg2.PictureContext
		sd   mpeg2.SliceDecoder
		mb   mpeg2.Macroblock
		refs []mpeg2.SliceRef
	)
	for i, unit := range pics {
		r.Reset(unit)
		off, err := mpeg2.ParsePictureUnitInto(&r, unit, &ph)
		if err != nil {
			return fmt.Errorf("picture %d: %w", i, err)
		}
		if err := ctx.Init(seq, &ph); err != nil {
			return fmt.Errorf("picture %d: %w", i, err)
		}
		refs = mpeg2.IndexSlices(seq, unit, off, refs[:0])
		for _, ref := range refs {
			if err := sd.ResetFullAt(&ctx, &r, unit, ref); err != nil {
				return fmt.Errorf("picture %d: %w", i, err)
			}
			sd.SetParseOnly(true)
			for {
				ok, err := sd.Next(&mb)
				if err != nil {
					return fmt.Errorf("picture %d: %w", i, err)
				}
				if !ok {
					break
				}
				if onMB != nil {
					onMB(&mb)
				}
			}
		}
	}
	return nil
}

// codedShare returns each tile's share of the stream's coded macroblocks.
func codedShare(in *input, pics [][]byte) ([]float64, error) {
	counts := make([]float64, in.Geo.NumTiles())
	mbw := in.Seq.MBWidth()
	var total float64
	err := vldPass(in.Seq, pics, func(mb *mpeg2.Macroblock) {
		counts[in.Geo.Owner(mb.Addr%mbw, mb.Addr/mbw)]++
		total++
	})
	for t := range counts {
		counts[t] /= total
	}
	return counts, err
}

// serialDecode runs the reference serial decoder over one copy.
func serialDecode(in *input, tr *tracer) (time.Duration, error) {
	return repeatPasses(tr, "mpeg2.Decoder", func() (int, error) {
		dec, err := mpeg2.NewDecoder(in.Data)
		if err != nil {
			return 0, err
		}
		n := 0
		for {
			p, err := dec.Next()
			if err == io.EOF {
				return n, nil
			}
			if err != nil {
				return 0, err
			}
			releaseIfB(p)
			n++
		}
	})
}

// splitStats is what splitLadder measures.
type splitStats struct {
	Split              time.Duration // per picture
	Marshal, Unmarshal time.Duration // per sub-picture
	BytesPerPicture    float64
	Median             []byte
}

// splitLadder splits every picture with a serial MBSplitter, and marshals
// and unmarshals every sub-picture it produces. It returns split time per
// picture, marshal and unmarshal time per sub-picture, sub-picture bytes per
// picture, and the median sub-picture payload (for the transport hops).
func splitLadder(in *input, pics [][]byte, tr *tracer) (splitStats, error) {
	var st splitStats
	ms := splitter.NewMBSplitterOpts(in.Seq, in.Geo, splitter.SplitOptions{Workers: 1, Reuse: true})
	defer ms.Close()
	var err error
	st.Split, err = repeatPasses(tr, "splitter.MBSplitter.Split", func() (int, error) {
		for i, u := range pics {
			if _, err := ms.Split(u, i); err != nil {
				return 0, err
			}
		}
		return len(pics), nil
	})
	if err != nil {
		return st, err
	}

	// Wire images of every sub-picture of one copy.
	var wires [][]byte
	var total int
	for i, u := range pics {
		sps, err := ms.Split(u, i)
		if err != nil {
			return st, err
		}
		for _, sp := range sps {
			w := sp.AppendTo(nil)
			wires = append(wires, w)
			total += len(w)
		}
	}
	st.BytesPerPicture = float64(total) / float64(len(pics))
	bySize := append([][]byte(nil), wires...)
	sort.Slice(bySize, func(a, b int) bool { return len(bySize[a]) < len(bySize[b]) })
	st.Median = bySize[len(bySize)/2]

	// Marshal: re-split one picture at a time (Reuse recycles sub-pictures
	// on the next Split) and time only the AppendTo calls.
	buf := make([]byte, 0, 1<<16)
	var marshal time.Duration
	var nsp int
	t0 := tr.begin()
	for start := time.Now(); time.Since(start) < 2*ladderMin; {
		for i, u := range pics {
			sps, err := ms.Split(u, i)
			if err != nil {
				return st, err
			}
			m0 := time.Now()
			for _, sp := range sps {
				buf = sp.AppendTo(buf[:0])
			}
			marshal += time.Since(m0)
			nsp += len(sps)
		}
	}
	tr.end("subpic.AppendTo", "ladder", 0, -1, t0)
	st.Marshal = marshal / time.Duration(nsp)

	var sp subpic.SubPicture
	st.Unmarshal, err = repeatPasses(tr, "subpic.UnmarshalInto", func() (int, error) {
		for _, w := range wires {
			if err := subpic.UnmarshalInto(&sp, w); err != nil {
				return 0, err
			}
		}
		return len(wires), nil
	})
	return st, err
}

// hop times one Send plus the matching Recv of payload between two ports
// of a transport, and returns the median over many hops.
func hop(from, to cluster.Port, payload []byte) time.Duration {
	const hops = 2000
	samples := make([]time.Duration, hops)
	for i := range samples {
		t := time.Now()
		from.Send(to.ID(), &cluster.Message{Kind: cluster.MsgSubPicture, Seq: i, Payload: payload})
		to.Recv(cluster.MsgSubPicture)
		samples[i] = time.Since(t)
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a] < samples[b] })
	return samples[hops/2]
}

func fabricHop(payload []byte, tr *tracer) time.Duration {
	t0 := tr.begin()
	defer tr.end("cluster.Fabric hop", "ladder", 0, -1, t0)
	f := cluster.New(2, cluster.Config{})
	defer f.Shutdown()
	return hop(f.Port(0), f.Port(1), payload)
}

func tcpHop(payload []byte, tr *tracer) (time.Duration, error) {
	t0 := tr.begin()
	defer tr.end("cluster.TCPTransport hop", "ladder", 0, -1, t0)
	t, err := cluster.ListenTCP("127.0.0.1:0", cluster.TCPConfig{NumNodes: 2, LocalNodes: []int{0, 1}})
	if err != nil {
		return 0, fmt.Errorf("tcp hop: %w", err)
	}
	defer t.Shutdown()
	return hop(t.Port(0), t.Port(1), payload), nil
}

func calibrate(in *input, wl workload, tr *tracer) (*system.Calibration, error) {
	t0 := tr.begin()
	defer tr.end("system.Calibrate", "ladder", 0, -1, t0)
	return system.Calibrate(in.Data, wl.M, wl.N, 0, 0)
}

// interventions sums the recovery counters that still mean something: the
// ARQ-era retransmit, NACK and duplicate counters are never incremented.
func interventions(s metrics.RecoverySnapshot) int64 {
	return s.Restarts + s.ReplayedPictures + s.ConcealedFrames + s.AckTimeouts
}

// millis converts a duration to float milliseconds.
func millis(d time.Duration) float64 { return float64(d) / 1e6 }
