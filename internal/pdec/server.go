package pdec

import (
	"fmt"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/recovery"
	"tiledwall/internal/wall"
)

// ServeConfig wires one resident tile-decoder node: a long-lived server that
// multiplexes any number of sessions, each an independent stream with its own
// sequence header, geometry and reference chain.
type ServeConfig struct {
	Tile          int
	M, N, Overlap int
	// MaxFCode sizes the halo windows of every session (HaloForFCode).
	MaxFCode int
	// TileNode maps a tile index to its fabric node id, RootNode is where
	// drain acks go when a session completes on this tile.
	TileNode func(tile int) int
	RootNode int

	UnbatchedSends bool

	// OnFrame receives decoded tile frames (nil when frames are not
	// collected). picIdx is the picture's decode-order index; frames arrive
	// in display order per session.
	OnFrame func(session, picIdx, tile int, buf *mpeg2.PixelBuf)
	// OnResult receives the session's decode result when it completes on
	// this tile, before the drain ack is sent to the root.
	OnResult func(session, tile int, res *Result)

	// NumSplitters is how many session-final markers a session needs before
	// its tail can be concealed: one per second-level splitter (or one from
	// the root's own splitting stage when K=0). Only fault masking reads it.
	NumSplitters int

	// Recovery, when non-nil, switches the server's protocol path to fault
	// masking: per-session decoders conceal gaps and tails instead of
	// aborting on ordering faults, leases are renewed per message, chaos
	// kills surface as recovery.ErrKilled for the supervisor, and a
	// respawned incarnation re-joins its sessions from Resume.
	Recovery *recovery.Incarnation
}

// server holds the node-level state shared by every session on one tile.
type server struct {
	cfg  ServeConfig
	port cluster.Port
	// sessions maps a live session id to its decoder instance.
	sessions map[int]*Decoder
	// pending buckets MsgBlocks bundles that arrived for a session other
	// than the one currently draining its RECVs (a peer one global picture
	// ahead may already be in the next session).
	pending map[int][]*cluster.Message
}

// sessionNet is the cluster.Net a per-session Decoder runs on: it stamps the
// session id on every send and filters MsgBlocks receives down to this
// session, parking other sessions' bundles in the server's pending buckets.
type sessionNet struct {
	srv     *server
	session int
}

func (s *sessionNet) ID() int { return s.srv.port.ID() }

func (s *sessionNet) Send(to int, msg *cluster.Message) {
	msg.Session = s.session
	s.srv.port.Send(to, msg)
}

func (s *sessionNet) Recv(kind cluster.MsgKind) *cluster.Message {
	if kind != cluster.MsgBlocks {
		// Sub-pictures are dispatched by the server loop, never received
		// through the shim; recovery kinds are unsupported in resident mode.
		return s.srv.port.Recv(kind)
	}
	m, _ := s.next(true, func() (*cluster.Message, bool) { return s.srv.port.Recv(kind), false })
	return m
}

func (s *sessionNet) TryRecv(kind cluster.MsgKind) (*cluster.Message, bool) {
	if kind != cluster.MsgBlocks {
		return s.srv.port.TryRecv(kind)
	}
	return s.next(true, func() (*cluster.Message, bool) { return s.srv.port.TryRecv(kind) })
}

func (s *sessionNet) RecvTimeout(kind cluster.MsgKind, d time.Duration) (*cluster.Message, bool) {
	if kind != cluster.MsgBlocks {
		return s.srv.port.RecvTimeout(kind, d)
	}
	deadline := time.Now().Add(d)
	return s.next(false, func() (*cluster.Message, bool) {
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, true
		}
		return s.srv.port.RecvTimeout(kind, remain)
	})
}

// next returns this session's next MsgBlocks bundle: the oldest one parked
// for it, else the first one recv delivers for it, parking other sessions'
// bundles (per-session FIFO) on the way. recv is one port receive; its nil
// message ends the wait with recv's flag. A delivered bundle comes with
// delivered, the flag value that means success for the calling receive.
func (s *sessionNet) next(delivered bool, recv func() (*cluster.Message, bool)) (*cluster.Message, bool) {
	if q := s.srv.pending[s.session]; len(q) > 0 {
		s.srv.pending[s.session] = q[1:]
		return q[0], delivered
	}
	for {
		m, flag := recv()
		if m == nil {
			return nil, flag
		}
		if m.Session == s.session {
			return m, delivered
		}
		s.srv.pending[m.Session] = append(s.srv.pending[m.Session], m)
	}
}

func (s *sessionNet) Done() <-chan struct{} { return s.srv.port.Done() }

// Serve runs the resident tile-decoder loop until a FlagShutdown message
// arrives (clean exit) or the transport aborts. Per-session protocol state is
// a fresh Decoder per session. With Recovery wired the same loop re-joins
// resumed sessions, renews the incarnation's lease on every receive, honours
// the chaos plan and sweeps reorder holes; unknown sessions and undecodable
// opens are then skipped, never fatal — a broken session must not take the
// wall down.
func Serve(port cluster.Port, cfg ServeConfig) error {
	srv := &server{
		cfg:      cfg,
		port:     port,
		sessions: map[int]*Decoder{},
		pending:  map[int][]*cluster.Message{},
	}
	rh := cfg.Recovery
	// tick is zero under fail-stop, which blocks in Recv. Fault masking
	// receives in deadline-granularity ticks so reorder holes are swept even
	// while the port is idle (the hole's successors may be the only traffic
	// a session will ever see again).
	var tick time.Duration
	if rh != nil {
		tick = max(rh.Cfg.PictureDeadline/2, time.Millisecond)
		for _, rs := range rh.Resume {
			if err := srv.open(&cluster.Message{Session: rs.ID, Payload: rs.Header}); err != nil {
				continue // undecodable header: the session fails upstream
			}
			srv.sessions[rs.ID].ResumeAt(rs.NextPic, rs.Holes)
		}
	}
	for {
		if rh != nil {
			srv.sweepDeadlines()
		}
		t0 := time.Now()
		msg, timedOut := cluster.RecvWithin(port, cluster.MsgSubPicture, tick)
		wait := time.Since(t0)
		if rh != nil && rh.Lease != nil {
			rh.Lease.Renew()
		}
		if timedOut {
			continue
		}
		if msg == nil {
			return fmt.Errorf("tile %d: fabric aborted", cfg.Tile)
		}
		switch {
		case msg.Flags&cluster.FlagShutdown != 0:
			return nil
		case msg.Flags&cluster.FlagSessionOpen != 0:
			if err := srv.open(msg); err != nil && rh == nil {
				return err
			}
		default:
			d := srv.sessions[msg.Session]
			if d == nil {
				// A session completes on the first Final that finds no
				// pictures owed; the other splitters' Finals trail in after
				// the state is gone. (A Final cannot precede its session's
				// open: every splitter forwards the open before anything
				// else, and sender order is preserved.) Under fault masking
				// the state may also be gone past the restart budget. Either
				// way the payload — marshalled for this tile alone — has no
				// consumer left.
				cluster.PutSlab(msg.Payload)
				if msg.Flags&cluster.FlagSessionFinal != 0 || rh != nil {
					continue
				}
				return fmt.Errorf("tile %d: picture for unknown session %d", cfg.Tile, msg.Session)
			}
			// Injected crash before the dispatch (and thus before the ack):
			// the sub-picture is consumed but unacknowledged, the hardest
			// loss for the upstream credit ledger.
			if rh != nil && msg.Flags&(cluster.FlagSessionFinal|cluster.FlagReplay) == 0 &&
				rh.Chaos.DecoderDies(cfg.Tile, msg.Seq) {
				return recovery.ErrKilled
			}
			// The receive wait belongs to the session whose message ended it
			// (batch attribution, per stream).
			d.Breakdown().Add(metrics.PhaseReceive, wait)
			done, err := d.HandleSubPicture(msg, cfg.NumSplitters)
			if err != nil {
				return err
			}
			if done {
				srv.finish(msg.Session, d)
			}
		}
	}
}

// open creates the per-session decoder from the header prefix carried by the
// session-open message. Each splitter forwards the open once, so duplicates
// past the first are skipped.
func (srv *server) open(msg *cluster.Message) error {
	if srv.sessions[msg.Session] != nil {
		return nil
	}
	seq, err := mpeg2.ParseSequenceHeaderBytes(msg.Payload)
	if err != nil {
		return fmt.Errorf("tile %d: session %d open: %w", srv.cfg.Tile, msg.Session, err)
	}
	geo, err := wall.NewGeometry(seq.MBWidth()*16, seq.MBHeight()*16, srv.cfg.M, srv.cfg.N, srv.cfg.Overlap)
	if err != nil {
		return fmt.Errorf("tile %d: session %d open: %w", srv.cfg.Tile, msg.Session, err)
	}
	var onFrame func(int, int, *mpeg2.PixelBuf)
	if srv.cfg.OnFrame != nil {
		sess := msg.Session
		onFrame = func(picIdx, tile int, buf *mpeg2.PixelBuf) {
			srv.cfg.OnFrame(sess, picIdx, tile, buf)
		}
	}
	dcfg := Config{
		Seq:            seq,
		Geo:            geo,
		Tile:           srv.cfg.Tile,
		HaloPx:         HaloForFCode(srv.cfg.MaxFCode),
		TileNode:       srv.cfg.TileNode,
		OnFrame:        onFrame,
		UnbatchedSends: srv.cfg.UnbatchedSends,
	}
	if rh := srv.cfg.Recovery; rh != nil {
		if rh.OnOpen != nil {
			rh.OnOpen(msg.Session, msg.Payload)
		}
		// The chaos plan stays with the serve loop (kills are injected before
		// dispatch); per-session decoders only need the tuning, the lease and
		// the session's intervention counters.
		dcfg.Recovery = &recovery.Hooks{Cfg: rh.Cfg, Lease: rh.Lease, Rec: rh.Rec(msg.Session)}
	}
	srv.sessions[msg.Session] = NewDecoder(&sessionNet{srv: srv, session: msg.Session}, dcfg)
	return nil
}

// sweepDeadlines runs the per-picture deadline over every session's reorder
// stash, finishing the sessions a sweep completes.
func (srv *server) sweepDeadlines() {
	deadline := srv.cfg.Recovery.Cfg.PictureDeadline
	for session, d := range srv.sessions {
		if d.SweepDeadline(deadline) {
			srv.finish(session, d)
		}
	}
}

// finish completes a session on this tile: flush the reorder tail, hand the
// result out, drop the state, and send the drain ack that lets the root
// close the session.
func (srv *server) finish(session int, d *Decoder) {
	d.releaseStash()
	res := d.Finish()
	delete(srv.sessions, session)
	delete(srv.pending, session)
	if srv.cfg.OnResult != nil {
		srv.cfg.OnResult(session, srv.cfg.Tile, res)
	}
	srv.port.Send(srv.cfg.RootNode, &cluster.Message{
		Kind:    cluster.MsgAck,
		Seq:     cluster.DrainAckSeq,
		Session: session,
	})
}
