package pdec

import (
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/node"
	"tiledwall/internal/recovery"
	"tiledwall/internal/subpic"
	"tiledwall/internal/wall"
)

// ServeConfig wires one resident tile-decoder node: a long-lived server that
// multiplexes any number of sessions, each an independent stream with its own
// sequence header, geometry and reference chain. Under Recovery the
// per-session decoders conceal gaps and tails instead of aborting on
// ordering faults, and a respawned incarnation resumes its sessions at their
// emission frontiers.
type ServeConfig struct {
	node.Config
	// UnbatchedSends ships every exchanged macroblock as its own message
	// instead of one bundle per peer per picture. Ablation knob: quantifies
	// how much the paper's batched pre-calculated exchange saves in message
	// count (per-message overhead dominated GM-era networks).
	UnbatchedSends bool
	// OnFrame receives a copy of every decoded tile frame (nil when frames
	// are not collected), outside the measured path. picIdx is the
	// picture's decode-order index; frames arrive in display order per
	// session. The copy comes from the pixel-buffer pool and belongs to the
	// receiver, which may Release it.
	OnFrame func(session, picIdx, tile int, buf *mpeg2.PixelBuf)
	// OnResult receives the session's decode result when it completes on
	// this tile, before the drain ack is sent to the root.
	OnResult func(session, tile int, res *Result)
}

// server is the tile decoder's node.Role: the per-session decoders and the
// node-level state they share.
type server struct {
	cfg  ServeConfig
	port cluster.Port
	// sessions maps a live session id to its decoder instance.
	sessions map[int]*Decoder
	// pending buckets MsgBlocks bundles that arrived for a session other
	// than the one currently draining its RECVs (a peer one global picture
	// ahead may already be in the next session).
	pending map[int][]cluster.Message

	// Per-picture scratch, shared by every session on the tile: the server
	// handles one message at a time, and each of these is overwritten
	// before it is read, so they carry nothing from one picture (or
	// session) to the next. Kept here they grow once per node instead of
	// once per session, and steady-state decoding allocates nothing per
	// macroblock.
	sp     subpic.SubPicture
	ph     mpeg2.PictureHeader
	ctx    mpeg2.PictureContext
	pieces PieceDecoder
	bb     subpic.BlockBundle
	// upload is the frame a shown tile picture is copied into under
	// fail-stop when no collector takes frames: the modelled frame-buffer
	// upload. It is made anew only when a session's tile size differs.
	upload *mpeg2.PixelBuf
	// bundles holds one picture's outgoing exchange while it is built,
	// emptied once it has shipped.
	bundles []outBundle
}

// outBundle is one outgoing exchange bundle under construction in its slab:
// n cells in all, put of them written.
type outBundle struct {
	peer   uint16
	n, put int
	wire   []byte
}

// bundleFor returns the index in bs of peer's bundle, len(bs) if it has
// none yet; under UnbatchedSends every macroblock is a bundle of its own,
// and the bundle is the one at seq, the macroblock's place among the sends.
func (srv *server) bundleFor(bs []outBundle, peer uint16, seq int) int {
	if srv.cfg.UnbatchedSends {
		return seq
	}
	for i := range bs {
		if bs[i].peer == peer {
			return i
		}
	}
	return len(bs)
}

func newServer(port cluster.Port, cfg ServeConfig) *server {
	srv := &server{
		cfg:      cfg,
		port:     port,
		sessions: map[int]*Decoder{},
		pending:  map[int][]cluster.Message{},
	}
	srv.pieces.Tile = cfg.Index
	return srv
}

// Serve runs the resident tile decoder (node.Serve) until a FlagShutdown
// message arrives (clean exit) or the transport aborts. Per-session protocol
// state is a fresh Decoder per session; under Recovery the server also
// sweeps every session's reorder holes against the picture deadline.
func Serve(port cluster.Port, cfg ServeConfig) error {
	srv := newServer(port, cfg)
	return node.Serve(port, &srv.cfg.Config, srv)
}

// Open creates the session's decoder (node.Role).
func (srv *server) Open(session int, _ []byte, seq *mpeg2.SequenceHeader, geo *wall.Geometry) {
	srv.sessions[session] = newDecoder(srv, session, seq, geo)
}

// uploadFrame returns the server's upload frame placed over the tile
// rectangle r.
func (srv *server) uploadFrame(r wall.Rect) *mpeg2.PixelBuf {
	if b := srv.upload; b != nil && b.W == r.W() && b.H == r.H() {
		b.X0, b.Y0 = r.X0, r.Y0
		return b
	}
	srv.upload = mpeg2.NewPixelBuf(r.X0, r.Y0, r.W(), r.H())
	return srv.upload
}

// Resume starts a re-joined session at its emission frontier (node.Role).
func (srv *server) Resume(rs recovery.ResumeSession) {
	srv.sessions[rs.ID].ResumeAt(rs.NextPic, rs.Holes)
}

// Breakdown returns an open session's phase accounting (node.Role).
func (srv *server) Breakdown(session int) *metrics.Breakdown {
	if d := srv.sessions[session]; d != nil {
		return &d.res.Breakdown
	}
	return nil
}

// Handle runs one sub-picture or session final through its session's
// decoder (node.Role).
func (srv *server) Handle(msg cluster.Message) (bool, error) {
	d := srv.sessions[msg.Session]
	done, err := d.HandleSubPicture(&msg)
	if done {
		srv.finish(msg.Session, d)
	}
	return done, err
}

// Sweep runs the per-picture deadline over every session's reorder stash,
// finishing the sessions a sweep completes (node.Role).
func (srv *server) Sweep(done func(session int)) {
	deadline := srv.cfg.Recovery.Cfg.PictureDeadline
	for session, d := range srv.sessions {
		if d.SweepDeadline(deadline) {
			srv.finish(session, d)
			done(session)
		}
	}
}

// finish completes a session on this tile: flush the reorder tail, hand the
// result out and drop the state.
func (srv *server) finish(session int, d *Decoder) {
	res := d.Finish()
	delete(srv.sessions, session)
	delete(srv.pending, session)
	if srv.cfg.OnResult != nil {
		srv.cfg.OnResult(session, srv.cfg.Index, res)
	}
}

// send stamps the decoder's session on msg and sends it from the tile's
// port. A concrete call, so a send's message literal stays on the caller's
// stack.
func (d *Decoder) send(to int, msg *cluster.Message) {
	msg.Session = d.session
	d.srv.port.Send(to, msg)
}

// recvBlocks returns this session's next MsgBlocks bundle: the oldest one
// parked for it, else the first one the port delivers for it, parking other
// sessions' bundles (per-session FIFO) on the way. It waits at most dl (a
// non-positive dl blocks, as Port.RecvTimeout) or, with wait false, takes
// only what is already queued and reports timedOut when that is nothing. ok
// is false with timedOut false once the transport aborted.
func (d *Decoder) recvBlocks(dl time.Duration, wait bool) (m cluster.Message, ok, timedOut bool) {
	pending, port := d.srv.pending, d.srv.port
	if q := pending[d.session]; len(q) > 0 {
		pending[d.session] = q[1:]
		return q[0], true, false
	}
	var deadline time.Time
	if wait && dl > 0 {
		deadline = time.Now().Add(dl)
	}
	for {
		switch {
		case !wait:
			m, ok = port.TryRecv(cluster.MsgBlocks)
			timedOut = !ok
		case dl <= 0:
			m, ok = port.Recv(cluster.MsgBlocks)
		default:
			remain := time.Until(deadline)
			if remain <= 0 {
				return cluster.Message{}, false, true
			}
			m, ok, timedOut = port.RecvTimeout(cluster.MsgBlocks, remain)
		}
		if !ok || m.Session == d.session {
			return m, ok, timedOut
		}
		pending[m.Session] = append(pending[m.Session], m)
	}
}
