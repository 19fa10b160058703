// Package system plays whole streams on the paper's one-level 1-(m,n) and
// hierarchical two-level 1-k-(m,n) walls and reports them in the batch
// Result shape the evaluation tables read (Run, Play), and calibrates k from
// a stream's measured split and decode costs (Calibrate). The wall itself is
// service.Wall; each simulated PC is a goroutine on one of its transport's
// nodes.
package system

import (
	"tiledwall/internal/cluster"
	"tiledwall/internal/service"
)

// Config describes a 1-k-(m,n) wall; it is the service's configuration, so
// a batch Run, a service.Wall and tiledwall.WallConfig share one set of
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

// Result reports one batch run: the session's result, with what a whole
// run adds. Its Recovery is the run's total — the session's own
// interventions (concealment, splitter-gate timeouts) plus the wall-level
// ones (restarts, replays, root credit timeouts) accrued while it ran.
type Result struct {
	service.SessionResult
	Config Config

	// NodeStats indexes transport traffic by node id; Config.Grid() gives
	// the layout (cluster.RootNode, SplitterNodes, TileNodes).
	NodeStats []cluster.LinkStats

	// StreamBytes is the input size, for equivalent-bit-rate reporting.
	StreamBytes int64

	// Warnings lists accepted-but-surprising configuration interactions
	// (warnings).
	Warnings []string

	transport cluster.Transport
}

// PairBytes returns bytes sent from transport node a to node b during the
// run.
func (r *Result) PairBytes(a, b int) int64 {
	if r.transport == nil {
		return 0
	}
	return r.transport.PairBytes(a, b)
}

// Run executes the pipeline over a complete elementary stream: it builds a
// wall, plays the stream as its only session, and closes the wall. This is
// the single execution path for every configuration — transports and
// recovery included. The session path is byte-identical to the historical
// batch pipeline — the conformance matrix proves it — so Run remains the
// reference entry point.
func Run(stream []byte, cfg Config) (*Result, error) {
	w, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	res, perr := Play(w, cfg, stream)
	cerr := w.Close()
	if perr == nil {
		perr = cerr
	}
	return res, perr
}

// Play plays stream as one session on w, a wall built from cfg, and reports
// it in the batch Result shape. NodeStats and PairBytes read the transport's
// cumulative counters and Recovery adds the wall's: exact for a wall that
// plays one stream, as Run's does.
func Play(w *service.Wall, cfg Config, stream []byte) (*Result, error) {
	sres, err := w.Play(stream)
	if err != nil {
		return nil, err
	}
	res := &Result{
		SessionResult: *sres,
		Config:        cfg,
		NodeStats:     w.Transport().Stats(),
		StreamBytes:   int64(len(stream)),
		Warnings:      warnings(cfg),
		transport:     w.Transport(),
	}
	res.Recovery = sres.Recovery.Plus(w.Recovery())
	return res, nil
}
