// Package system plays whole streams on the paper's one-level 1-(m,n) and
// hierarchical two-level 1-k-(m,n) walls and reports them in the batch
// Result shape the evaluation tables read (Run, ResidentWall.Play), and
// calibrates k from a stream's measured split and decode costs (Calibrate).
// The wall itself is service.Wall; each simulated PC is a goroutine on one
// of its transport's nodes.
package system

import (
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/pdec"
	"tiledwall/internal/service"
	"tiledwall/internal/splitter"
)

// Config describes a 1-k-(m,n) wall; it is the service's configuration, so
// a batch Run, a ResidentWall and tiledwall.WallConfig share one set of
// knobs and one set of defaults.
type Config = service.Config

// warnings reports configuration interactions that are accepted but change
// behaviour, so they are explicit instead of silent. They are recorded on
// Result.Warnings.
func warnings(c Config) []string {
	if c.Transport == "tcp" && c.Fabric.BandwidthBps > 0 {
		return []string{"Fabric bandwidth throttling is not applied by the TCP transport; loopback speed is what you measure"}
	}
	return nil
}

// Result reports one pipeline run.
type Result struct {
	Config     Config
	Throughput metrics.Throughput

	Root      *splitter.RootResult
	Splitters []*splitter.SecondResult
	Decoders  []*pdec.Result

	// NodeStats indexes fabric traffic by node id (root, splitters,
	// decoders in wiring order).
	NodeStats []cluster.LinkStats
	// RootNodeID, SplitterNodeIDs and DecoderNodeIDs give the wiring.
	RootNodeID      int
	SplitterNodeIDs []int
	DecoderNodeIDs  []int

	// Frames holds assembled output frames in display order when
	// CollectFrames was set.
	Frames []*mpeg2.PixelBuf

	// StreamBytes is the input size, for equivalent-bit-rate reporting.
	StreamBytes int64

	// Recovery reports the fault-tolerance interventions of the run (always
	// zero when Config.Recovery is disabled). Clean() distinguishes lossless
	// repair from visible degradation.
	Recovery metrics.RecoverySnapshot

	// TileEmissions records, per tile, the decode-order picture indices in
	// emission order (recovery runs only). Exactly-once delivery means each
	// tile's sorted list is 0..Pictures-1 with no duplicates.
	TileEmissions [][]int

	// Warnings lists accepted-but-surprising configuration interactions
	// (warnings).
	Warnings []string

	transport cluster.Transport
}

// PairBytes returns bytes sent from fabric node a to node b during the run.
func (r *Result) PairBytes(a, b int) int64 {
	if r.transport == nil {
		return 0
	}
	return r.transport.PairBytes(a, b)
}

// Modeled returns the pipeline-model throughput: pictures divided by the
// busiest node's CPU time. With the two-buffer credit protocol, a steady
// pipeline runs at the rate of its slowest stage — the paper's formula
// F = min(k/ts, 1/td) (§4.6) — and on a real cluster wall-clock throughput
// converges to this. The simulation's own wall clock (Throughput) sums every
// node's work when cores are scarce, so Modeled is what the evaluation
// tables report; EXPERIMENTS.md discusses the methodology.
func (r *Result) Modeled() metrics.Throughput {
	var busiest time.Duration
	if r.Root != nil {
		if b := r.Root.ScanTime + r.Root.CopyTime + r.Root.SendTime; b > busiest {
			busiest = b
		}
	}
	for _, sp := range r.Splitters {
		if sp == nil {
			continue
		}
		if b := sp.Breakdown.Busy(); b > busiest {
			busiest = b
		}
	}
	for _, d := range r.Decoders {
		if d == nil {
			continue
		}
		if b := d.Breakdown.Busy(); b > busiest {
			busiest = b
		}
	}
	out := r.Throughput
	if busiest > 0 {
		out.Elapsed = busiest
	}
	return out
}

// Run executes the pipeline over a complete elementary stream: it opens a
// resident wall, plays the stream as its only session, and closes the wall.
// This is the single execution path for every configuration — transports
// and recovery included. The session path is byte-identical to the
// historical batch pipeline — the conformance matrix proves it — so Run
// remains the reference entry point.
func Run(stream []byte, cfg Config) (*Result, error) {
	w, err := NewResidentWall(cfg)
	if err != nil {
		return nil, err
	}
	res, perr := w.Play(stream)
	cerr := w.Close()
	if perr == nil {
		perr = cerr
	}
	return res, perr
}
