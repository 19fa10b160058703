package system

import (
	"fmt"
	"sync/atomic"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/service"
)

// ResidentWall is a long-lived pipeline: the fabric, root, splitters and
// decoders are built once by NewResidentWall and serve any number of
// streams — sequentially or concurrently — until Close. Each Play is one
// session; Open gives direct access to the session API for incremental
// feeding.
type ResidentWall struct {
	cfg Config
	svc *service.Wall
	n   int64 // session name counter
}

// NewResidentWall builds the wall. Recovery-enabled configurations run the
// session-aware fault-tolerance layer: supervised node loops, root-side
// picture replay, per-session failure isolation, and — on the TCP transport —
// recoverable links that redial after a loss instead of aborting.
func NewResidentWall(cfg Config) (*ResidentWall, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	return &ResidentWall{cfg: cfg, svc: svc}, nil
}

// Health reports the wall's fault-tolerance state (Healthy without
// Recovery enabled).
func (w *ResidentWall) Health() service.Health { return w.svc.Health() }

// Service exposes the underlying session API (Open/Feed/Close per stream).
func (w *ResidentWall) Service() *service.Wall { return w.svc }

// Open starts a new session on the wall (admission-controlled).
func (w *ResidentWall) Open(name string) (*service.Session, error) {
	return w.svc.Open(name)
}

// Play decodes one complete stream as one session and reports it in the
// batch Result shape. Safe to call from concurrent goroutines, up to the
// wall's MaxSessions.
func (w *ResidentWall) Play(stream []byte) (*Result, error) {
	start := time.Now()
	sess, err := w.svc.Open(fmt.Sprintf("play-%d", atomic.AddInt64(&w.n, 1)))
	if err != nil {
		return nil, err
	}
	if err := sess.Feed(stream); err != nil {
		sess.Close()
		return nil, err
	}
	sres, err := sess.Close()
	if err != nil {
		return nil, err
	}
	res := w.result(sres, int64(len(stream)))
	// Elapsed covers open → drained, the batch run window.
	res.Throughput.Elapsed = time.Since(start)
	return res, nil
}

// Close drains and tears the wall down, returning the pipeline abort cause
// if any node failed.
func (w *ResidentWall) Close() error { return w.svc.Close() }

// result maps a session result onto the batch Result shape. NodeStats and
// PairBytes report the transport's cumulative counters — equal to the
// session's own traffic on a single-Play wall; multi-session walls read
// per-session bytes from SessionResult.WireBytes.
func (w *ResidentWall) result(sres *service.SessionResult, streamBytes int64) *Result {
	res := &Result{
		Config:      w.cfg,
		Throughput:  sres.Throughput,
		Root:        sres.Root,
		Splitters:   sres.Splitters,
		Decoders:    sres.Decoders,
		Frames:      sres.Frames,
		StreamBytes: streamBytes,
		RootNodeID:  cluster.RootNode,
		NodeStats:   w.svc.Transport().Stats(),
		// The batch Result reports one run's total interventions: the
		// session's own charges (concealment, splitter-gate timeouts) plus
		// the wall-level charges (restarts, replays, root credit timeouts)
		// accrued while it ran — cumulative across sessions on a shared wall,
		// exact for the single-Play wall that Run builds.
		Recovery:      sres.Recovery.Plus(w.svc.Recovery()),
		TileEmissions: sres.TileEmissions,
		Warnings:      warnings(w.cfg),
		transport:     w.svc.Transport(),

		SplitterNodeIDs: w.cfg.Grid().SplitterNodes(),
		DecoderNodeIDs:  w.cfg.Grid().TileNodes(),
	}
	return res
}
