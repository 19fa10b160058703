// Package system assembles the parallel decoding pipelines: the paper's
// one-level 1-(m,n) and hierarchical two-level 1-k-(m,n) systems, plus the
// coarse-granularity baselines of Table 1. Each simulated PC is a goroutine
// attached to a cluster fabric node.
package system

import (
	"fmt"
	"sync"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/pdec"
	"tiledwall/internal/recovery"
	"tiledwall/internal/splitter"
	"tiledwall/internal/wall"
)

// Config describes a 1-k-(m,n) run. K = 0 selects the one-level 1-(m,n)
// system in which the root itself splits at macroblock level.
type Config struct {
	K       int // second-level splitters (0 = one-level)
	M, N    int // decoder/tile grid
	Overlap int // projector overlap in pixels

	// MaxFCode bounds the stream's motion vector range and sizes the
	// decoders' halo windows; 0 defaults to 3 (±32 px), the encoder default.
	MaxFCode int

	// DynamicBalance makes the root assign pictures to the least-loaded
	// splitter instead of round-robin (the paper's §6 future work).
	DynamicBalance bool

	// SplitWorkers is the slice-parallel fan-out inside every macroblock
	// splitter (second-level and one-level combined): each picture's slices
	// are parsed concurrently by this many goroutines, shrinking the paper's
	// ts term on multicore hosts — parallelism the paper's single-CPU nodes
	// could only buy by adding splitter PCs. 0 selects GOMAXPROCS, 1 the
	// serial path; sub-pictures are byte-identical for every value (the
	// conformance matrix runs a split-workers axis to prove it).
	SplitWorkers int

	// UnbatchedExchange disables per-peer batching of MEI block messages
	// (ablation; see pdec.Config.UnbatchedSends).
	UnbatchedExchange bool

	// Fabric carries throttling options for the message fabric.
	Fabric cluster.Config

	// Transport selects the message transport: "" or "fabric" for the
	// in-process fabric, "tcp" for the socket transport over loopback (every
	// node still lives in this process, but all traffic crosses real TCP
	// connections through a hub — the single-process form of the
	// multi-process wall, and what the cross-transport conformance matrix
	// exercises). Combines with Recovery: a recovery-enabled TCP wall runs
	// the resident fault-tolerant pipeline with recoverable (redialing)
	// links.
	Transport string

	// CollectFrames assembles full output frames for verification (adds
	// memory traffic outside the measured path).
	CollectFrames bool

	// OnTileFrame, when set, receives every decoded tile frame — the
	// display-server hook, and the only per-tile output a partially
	// subscribed session produces (full wall frames cannot be assembled when
	// unwatched tiles emit nothing). picIdx is the picture's decode-order
	// index; frames arrive in display order per tile (per session).
	OnTileFrame func(session, picIdx, tile int, buf *mpeg2.PixelBuf)

	// Pooled recycles message slabs, pixel buffers and per-picture decode
	// state across the pipeline, eliminating steady-state heap allocation on
	// the decode hot path. Pixels must be bit-identical either way — the
	// conformance matrix runs a pooled axis to prove it. Composes with
	// Recovery: every holder that outlives a payload's consumer (the root's
	// retainer, the decoders' reorder stashes) carries its own slab reference
	// and the last release recycles the buffer (DESIGN.md §9).
	Pooled bool

	// Recovery enables the fault-tolerance layer (DESIGN.md §6): supervised
	// in-place respawn of crashed splitters and decoders (heartbeat leases),
	// root-side picture retention and replay, and concealment past the
	// per-picture deadline — the same model over the in-process fabric and
	// TCP. Disabled (the zero value), the pipeline keeps PR 1's fail-stop
	// behaviour.
	Recovery recovery.Config

	// Chaos injects crashes into a recovery-enabled run (tests and the
	// benchwall -chaos mode). Ignored when Recovery is disabled.
	Chaos recovery.ChaosPlan

	// MaxSessions and MaxInFlightPictures bound admission on resident walls
	// (NewResidentWall); both default to 8. A one-shot Run uses a single
	// session and is unaffected.
	MaxSessions         int
	MaxInFlightPictures int
}

// validate reports configuration interactions that are accepted but change
// behaviour, so they are explicit instead of silent. The warnings are
// recorded on Result.Warnings.
func (c Config) validate() []string {
	var warns []string
	if c.Transport == "tcp" {
		if c.Fabric.BandwidthBps > 0 || c.Fabric.Latency > 0 {
			warns = append(warns,
				"Fabric bandwidth/latency throttling is not applied by the TCP transport; loopback speed is what you measure")
		}
		if c.Fabric.Drop != nil {
			warns = append(warns,
				"Fabric.Drop is not applied by the TCP transport (TCP is reliable); use TCPTransport.InjectLinkFailure for fault tests")
		}
	}
	return warns
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
	// (Config.validate). EffectivePooled always equals Config.Pooled now
	// that pooling composes with recovery; the field survives so report
	// tooling keyed on it keeps working.
	Warnings        []string
	EffectivePooled bool

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

// NumNodes returns the PC count of the configuration (1 root + k + m*n),
// the x-axis of the paper's Figures 6 and 8.
func (c Config) NumNodes() int { return 1 + c.K + c.M*c.N }

func (c *Config) defaults() {
	if c.MaxFCode == 0 {
		c.MaxFCode = 3
	}
}

// frameCollector gathers per-tile outputs (display order per tile) and
// assembles them.
type frameCollector struct {
	mu    sync.Mutex
	geo   *wall.Geometry
	tiles [][]*mpeg2.PixelBuf // [tile][emission index]
}

func newFrameCollector(geo *wall.Geometry) *frameCollector {
	return &frameCollector{geo: geo, tiles: make([][]*mpeg2.PixelBuf, geo.NumTiles())}
}

func (fc *frameCollector) onFrame(_ int, tile int, buf *mpeg2.PixelBuf) {
	fc.mu.Lock()
	fc.tiles[tile] = append(fc.tiles[tile], buf)
	fc.mu.Unlock()
}

// onIndexedFrame stores a tile frame at an explicit display index, for
// pipelines whose display servers receive frames out of order.
func (fc *frameCollector) onIndexedFrame(displayIdx, tile int, buf *mpeg2.PixelBuf) {
	fc.mu.Lock()
	for len(fc.tiles[tile]) <= displayIdx {
		fc.tiles[tile] = append(fc.tiles[tile], nil)
	}
	fc.tiles[tile][displayIdx] = buf
	fc.mu.Unlock()
}

// assembleIndexed assembles exactly total frames, requiring every slot to be
// filled.
func (fc *frameCollector) assembleIndexed(total int) ([]*mpeg2.PixelBuf, error) {
	row := make([]*mpeg2.PixelBuf, len(fc.tiles))
	var frames []*mpeg2.PixelBuf
	for i := 0; i < total; i++ {
		for t := range fc.tiles {
			if i >= len(fc.tiles[t]) || fc.tiles[t][i] == nil {
				return nil, fmt.Errorf("system: tile %d missing display frame %d", t, i)
			}
			row[t] = fc.tiles[t][i]
		}
		f, err := fc.geo.Assemble(row)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

func (fc *frameCollector) assemble() ([]*mpeg2.PixelBuf, error) {
	n := -1
	for t, list := range fc.tiles {
		if n == -1 {
			n = len(list)
		} else if len(list) != n {
			return nil, fmt.Errorf("system: tile %d emitted %d frames, others %d", t, len(list), n)
		}
	}
	var frames []*mpeg2.PixelBuf
	row := make([]*mpeg2.PixelBuf, len(fc.tiles))
	for i := 0; i < n; i++ {
		for t := range fc.tiles {
			row[t] = fc.tiles[t][i]
		}
		f, err := fc.geo.Assemble(row)
		if err != nil {
			return nil, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// Run executes the pipeline over a complete elementary stream: it opens a
// resident wall, plays the stream as its only session, and closes the wall.
// This is the single execution path for every configuration — transports,
// pooling and recovery included. The session path is byte-identical to the
// historical batch pipeline — the conformance matrix proves it — so Run
// remains the reference entry point.
func Run(stream []byte, cfg Config) (*Result, error) {
	cfg.defaults()
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
