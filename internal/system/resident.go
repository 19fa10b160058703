package system

import (
	"fmt"
	"sync"
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
	tcp *cluster.TCPTransport // owned when Config.Transport == "tcp"
	n   int64                 // session name counter
}

// NewResidentWall builds the wall. Recovery-enabled configurations run the
// session-aware fault-tolerance layer: supervised node loops, root-side
// picture replay, per-session failure isolation, and — on the TCP transport —
// recoverable links that redial after a loss instead of aborting.
func NewResidentWall(cfg Config) (*ResidentWall, error) {
	cfg.defaults()
	var tcp *cluster.TCPTransport
	// The wall is built after the transport, so link-state events are routed
	// through an indirection armed once the service exists.
	var linkSink struct {
		mu sync.Mutex
		w  *service.Wall
	}
	switch cfg.Transport {
	case "", "fabric":
	case "tcp":
		// All nodes local, all traffic over loopback sockets through the
		// hub: the single-process form of the multi-process wall.
		nn := cfg.NumNodes()
		ids := make([]int, nn)
		for i := range ids {
			ids[i] = i
		}
		tcfg := cluster.TCPConfig{
			NumNodes:     nn,
			LocalNodes:   ids,
			Grid:         cluster.Grid{K: cfg.K, M: cfg.M, N: cfg.N, Overlap: cfg.Overlap},
			StallTimeout: cfg.Fabric.StallTimeout,
		}
		if cfg.Recovery.Enabled {
			tcfg.Recoverable = true
			tcfg.OnLinkState = func(node int, up bool) {
				linkSink.mu.Lock()
				w := linkSink.w
				linkSink.mu.Unlock()
				if w != nil {
					w.NoteLink(node, up)
				}
			}
		}
		var err error
		tcp, err = cluster.ListenTCP("127.0.0.1:0", tcfg)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("system: unknown transport %q (want \"fabric\" or \"tcp\")", cfg.Transport)
	}
	svc, err := service.New(service.Config{
		K:                   cfg.K,
		M:                   cfg.M,
		N:                   cfg.N,
		Overlap:             cfg.Overlap,
		MaxFCode:            cfg.MaxFCode,
		DynamicBalance:      cfg.DynamicBalance,
		SplitWorkers:        cfg.SplitWorkers,
		UnbatchedExchange:   cfg.UnbatchedExchange,
		CollectFrames:       cfg.CollectFrames,
		OnTileFrame:         cfg.OnTileFrame,
		Fabric:              cfg.Fabric,
		MaxSessions:         cfg.MaxSessions,
		MaxInFlightPictures: cfg.MaxInFlightPictures,
		Transport:           transportOrNil(tcp),
		Recovery:            cfg.Recovery,
		Chaos:               cfg.Chaos,
	})
	if err != nil {
		if tcp != nil {
			tcp.Abort(err)
		}
		return nil, err
	}
	linkSink.mu.Lock()
	linkSink.w = svc
	linkSink.mu.Unlock()
	return &ResidentWall{cfg: cfg, svc: svc, tcp: tcp}, nil
}

// Health reports the wall's fault-tolerance state (Healthy without
// Recovery enabled).
func (w *ResidentWall) Health() service.Health { return w.svc.Health() }

// transportOrNil avoids handing service.New a typed-nil interface.
func transportOrNil(tcp *cluster.TCPTransport) cluster.Transport {
	if tcp == nil {
		return nil
	}
	return tcp
}

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
// if any node failed. A TCP transport built by NewResidentWall is owned here
// (service.Wall does not shut down external transports).
func (w *ResidentWall) Close() error {
	err := w.svc.Close()
	if w.tcp != nil {
		w.tcp.Shutdown()
	}
	return err
}

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
		RootNodeID:  0,
		NodeStats:   w.svc.Transport().Stats(),
		// The batch Result reports one run's total interventions: the
		// session's own charges (concealment, splitter-gate timeouts) plus
		// the wall-level charges (restarts, replays, root credit timeouts)
		// accrued while it ran — cumulative across sessions on a shared wall,
		// exact for the single-Play wall that Run builds.
		Recovery:      sres.Recovery.Plus(w.svc.Recovery()),
		TileEmissions: sres.TileEmissions,
		Warnings:      w.cfg.validate(),
		transport:     w.svc.Transport(),
	}
	for i := 0; i < w.cfg.K; i++ {
		res.SplitterNodeIDs = append(res.SplitterNodeIDs, 1+i)
	}
	for t := 0; t < w.cfg.M*w.cfg.N; t++ {
		res.DecoderNodeIDs = append(res.DecoderNodeIDs, 1+w.cfg.K+t)
	}
	return res
}
