package splitter

import (
	"fmt"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/node"
	"tiledwall/internal/recovery"
	"tiledwall/internal/subpic"
	"tiledwall/internal/wall"
)

// ServeConfig wires one splitter role — a resident second-level splitter
// node, or the root's own Stage on a one-level wall: a long-lived server
// multiplexing sessions, each with its own sequence header, geometry and
// macroblock splitter. Under Recovery the role deduplicates root replays and
// ships them with FlagReplay, bounds the decoder-ack gate by the picture
// deadline, and fails a session with a corrupt picture alone (SessionFailSeq
// notice to the root) instead of killing the wall.
type ServeConfig struct {
	node.Config
	SplitWorkers int
	// OnResult receives the splitter-side result when a session's final
	// marker has been forwarded.
	OnResult func(session, index int, res *SecondResult)
}

// splitSession is one session's splitter-side state.
type splitSession struct {
	ms  *MBSplitter
	res *SecondResult
	// seen records processed picture seqs under recovery: root replays after
	// a respawn overlap the node queue the dead incarnation left behind, and
	// a replayed picture may be older than originals already processed (the
	// consumed-but-unshipped loss), so a high-watermark is not enough.
	seen map[int]bool
	// live and trick hold the session's subscription state, applied by the
	// root's FlagSubscribe broadcasts at I-picture boundaries. The zero
	// TileSet is the full subscription (today's behaviour, byte-identical).
	live  wall.TileSet
	trick TrickMode
	roi   ROIScratch
}

// Stage is one splitter role's per-session state and its per-picture
// sequence: split, gate on the decoders' go-aheads, ROI rewrite, marshal,
// send. A resident second-level splitter (ServeSecond) drives one from its
// own port; the root of a one-level wall drives one in place of splitters.
type Stage struct {
	cfg      ServeConfig
	port     cluster.Port
	sessions map[int]*splitSession
	// banked counts decoder go-aheads taken ahead of the gate.
	banked int
	// onAck, when set, is handed every ack the gate receives and banks the
	// go-aheads among them (Bank): the root of a one-level wall shares its
	// ack queue with drain acks. At a splitter node every ack is a go-ahead.
	onAck func(cluster.Message)
}

// NewStage returns a splitter stage sending from port. onAck may be nil; see
// Stage.
func NewStage(port cluster.Port, cfg ServeConfig, onAck func(cluster.Message)) *Stage {
	return &Stage{cfg: cfg, port: port, sessions: map[int]*splitSession{}, onAck: onAck}
}

// Bank credits one decoder go-ahead received outside the gate.
func (st *Stage) Bank() { st.banked++ }

// Close releases every open session's splitter.
func (st *Stage) Close() {
	for _, ss := range st.sessions {
		ss.ms.Close()
	}
}

// SplitError reports a picture that does not split: the session's stream
// is corrupt, the node is fine.
type SplitError struct{ Err error }

func (e *SplitError) Error() string { return e.Err.Error() }
func (e *SplitError) Unwrap() error { return e.Err }

// ServeSecond runs the resident splitter (node.Serve) until a FlagShutdown
// message arrives or the transport aborts. Per data picture: ack the root on
// receipt (credit), then the Stage sequence with the ANID the root
// announced. Session opens are forwarded to every decoder before any of this
// splitter's sub-pictures, by sender FIFO; a session final is forwarded as
// the batch end marker.
func ServeSecond(port cluster.Port, cfg ServeConfig) error {
	st := NewStage(port, cfg, nil)
	defer st.Close()
	return node.Serve(port, &st.cfg.Config, st)
}

// Handle runs one message of an open session (node.Role): a subscription
// change, the session final, or a data picture.
func (st *Stage) Handle(msg cluster.Message) (bool, error) {
	switch {
	case msg.Flags&cluster.FlagSubscribe != 0:
		// A malformed control frame must not corrupt the session's
		// materialization state; keep the previous subscription.
		if trick, live, err := ParseSubscribe(msg.Payload); err == nil {
			st.Subscribe(msg.Session, trick, live)
		}
		return false, nil
	case msg.Flags&cluster.FlagSessionFinal != 0:
		return st.Final(msg.Session, msg.Tag), nil
	}
	rh := st.cfg.Recovery
	ss := st.sessions[msg.Session]
	replay := msg.Flags&cluster.FlagReplay != 0
	if rh != nil {
		if ss.seen[msg.Seq] {
			// Root replay overlapping the surviving node queue. Each
			// delivery carries its own slab reference (the root acquires one
			// per replay send), so the duplicate's reference is released
			// here.
			cluster.PutSlab(msg.Payload)
			return false, nil
		}
		ss.seen[msg.Seq] = true
	}
	// Ack the root immediately: the posted buffer is recycled (flow-control
	// credit) and the service releases one of the session's in-flight
	// tokens. Replays are never acked — the original ack or the root's
	// credit timeout already settled the ledger.
	if !replay {
		ss.res.Breakdown.Timed(metrics.PhaseAck, func() {
			st.port.Send(cluster.RootNode, &cluster.Message{Kind: cluster.MsgAck, Seq: msg.Seq, Session: msg.Session})
		})
	}
	switch err := st.Picture(&msg); err.(type) {
	case nil:
	case *SplitError:
		if rh == nil {
			return false, fmt.Errorf("%v: %w", &st.cfg.Config, err)
		}
		// A corrupt picture unit fails its session alone: notify the root
		// (which surfaces a typed error to the feeder) and keep serving the
		// other sessions. The picture shipped as skip markers, so the
		// go-ahead chain stays whole.
		st.port.Send(cluster.RootNode, &cluster.Message{
			Kind:    cluster.MsgAck,
			Seq:     cluster.SessionFailSeq,
			Session: msg.Session,
			Payload: []byte(err.Error()),
		})
	default:
		return false, err
	}
	return false, nil
}

// Breakdown returns an open session's phase accounting (node.Role).
func (st *Stage) Breakdown(session int) *metrics.Breakdown {
	if ss := st.sessions[session]; ss != nil {
		return &ss.res.Breakdown
	}
	return nil
}

// Resume has nothing to restore (node.Role): re-opening a session
// re-forwarded its open, which is all a splitter holds beyond its queue.
func (st *Stage) Resume(recovery.ResumeSession) {}

// Sweep has no deadlines to run (node.Role): the splitter's one bounded
// wait, the decoder-ack gate, times itself out.
func (st *Stage) Sweep(func(int)) {}

// Open creates one session's splitter state (node.Role) and forwards the
// open to every decoder. The payload is shared and read-only on the
// receiving side, so one copy serves all.
func (st *Stage) Open(session int, header []byte, seq *mpeg2.SequenceHeader, geo *wall.Geometry) {
	cfg := &st.cfg
	ss := &splitSession{
		ms:  NewMBSplitterOpts(seq, geo, SplitOptions{Workers: cfg.SplitWorkers, Reuse: true}),
		res: &SecondResult{},
	}
	if cfg.Recovery != nil {
		ss.seen = map[int]bool{}
	}
	st.sessions[session] = ss
	for t := 0; t < cfg.Grid.M*cfg.Grid.N; t++ {
		st.port.Send(cfg.Grid.TileNode(t), &cluster.Message{
			Kind:    cluster.MsgSubPicture,
			Flags:   cluster.FlagSessionOpen,
			Session: session,
			Payload: header,
		})
	}
}

// Subscribe applies a session's subscription and trick mode from the next
// picture on.
func (st *Stage) Subscribe(session int, trick TrickMode, live wall.TileSet) {
	if ss := st.sessions[session]; ss != nil {
		ss.trick, ss.live = trick, live
	}
}

// Final ends a session: the end marker goes to every decoder with the
// session's shipped-picture total (so a decoder that sees an early final
// keeps decoding until it has them all), the split statistics are folded
// and the result published. Reports false for a session not open here.
func (st *Stage) Final(session, total int) bool {
	ss := st.sessions[session]
	if ss == nil {
		return false
	}
	for t := 0; t < st.cfg.Grid.M*st.cfg.Grid.N; t++ {
		sp := &subpic.SubPicture{Final: true}
		sp.Pic.Index = int32(total)
		st.port.Send(st.cfg.Grid.TileNode(t), &cluster.Message{
			Kind:    cluster.MsgSubPicture,
			Seq:     -1,
			Tag:     st.port.ID(),
			Flags:   cluster.FlagSessionFinal,
			Session: session,
			Payload: ss.res.Marshal(sp),
		})
	}
	ss.res.FoldSplit(ss.ms)
	ss.ms.Close()
	delete(st.sessions, session)
	if st.cfg.OnResult != nil {
		st.cfg.OnResult(session, st.cfg.Index, ss.res)
	}
	return true
}

// Picture runs one data picture of an open session through the splitting
// sequence and releases its payload. msg.Seq is the session's picture index
// and msg.Tag the ANID, the node that handles the next picture. The gate
// waits for one go-ahead per decoder, except for the wall's globally first
// picture (FlagFirstPicture) and for replays (their go-aheads were consumed
// by the dead incarnation, or will never be sent — replayed sub-pictures
// are not acked). A picture that does not split returns a *SplitError;
// under recovery it first passes its gate and ships a skip marker to every
// tile.
func (st *Stage) Picture(msg *cluster.Message) error {
	ss := st.sessions[msg.Session]
	replay := msg.Flags&cluster.FlagReplay != 0
	b := &ss.res.Breakdown
	ss.res.InputBytes += int64(len(msg.Payload))

	var sps []*subpic.SubPicture
	var err error
	b.Timed(metrics.PhaseWork, func() { sps, err = ss.ms.Split(msg.Payload, msg.Seq) })
	if err != nil && st.cfg.Recovery == nil {
		cluster.PutSlab(msg.Payload)
		return &SplitError{Err: err}
	}
	if msg.Flags&cluster.FlagFirstPicture == 0 && !replay {
		var gateErr error
		b.Timed(metrics.PhaseWaitMB, func() { gateErr = st.gate(msg.Session) })
		if gateErr != nil {
			return gateErr
		}
	}

	// Partial subscription: rewrite what ships per tile (skip markers for
	// unmaterialized tiles, SEND-only shells for halo sources, NoEmit stamps
	// on unwatched anchors). The full-subscription path returns sps as-is.
	// A picture that did not split ships a skip marker to every tile: each
	// acks it to the ANID, so the next picture's gate, whichever session it
	// serves, does not wait out its deadline.
	var ship []*subpic.SubPicture
	var nSkipped int
	if err == nil {
		if ss.trick == TrickIOnly {
			// The root drops every P and B picture of this mode, so no
			// picture of an I's GOP follows it to the tiles.
			for _, sp := range sps {
				sp.Pic.Flags |= subpic.FlagIOnly
			}
		}
		ship, nSkipped = ss.roi.Apply(sps, ss.live, ss.trick == TrickIOnly)
	} else {
		ship = ss.roi.skipAll(st.cfg.Grid.M*st.cfg.Grid.N, msg.Seq)
	}
	ss.res.SkippedSubPics += int64(nSkipped)

	var spFlags uint8
	if replay {
		spFlags = cluster.FlagReplay // decoders deduplicate and do not ack
	}
	b.Timed(metrics.PhaseServe, func() {
		for t, sp := range ship {
			payload := ss.res.Marshal(sp)
			ss.res.SPBytes += int64(len(payload))
			st.port.Send(st.cfg.Grid.TileNode(t), &cluster.Message{
				Kind:    cluster.MsgSubPicture,
				Seq:     msg.Seq,
				Tag:     msg.Tag,
				Flags:   spFlags,
				Session: msg.Session,
				Payload: payload,
			})
		}
	})
	// The sub-pictures aliased the picture payload until serialisation; this
	// delivery's reference can now be released (a root retainer still holds
	// its own until the receipt ack lands), also for a picture that did not
	// split.
	cluster.PutSlab(msg.Payload)
	if err != nil {
		return &SplitError{Err: err}
	}
	ss.res.Pictures++
	b.Pictures++
	return nil
}

// gate waits for one go-ahead (redirected ack) per decoder. Under recovery
// the wait is deadline-bounded: a dead decoder's go-ahead never comes, so
// the gate moves on and the respawned decoder catches up through its queue
// and gap concealment.
func (st *Stage) gate(session int) error {
	nd := st.cfg.Grid.M * st.cfg.Grid.N
	var deadline time.Duration // zero: fail-stop blocks
	if rh := st.cfg.Recovery; rh != nil {
		deadline = rh.Cfg.PictureDeadline
	}
	for st.banked < nd {
		m, ok, timedOut := st.port.RecvTimeout(cluster.MsgAck, deadline)
		if timedOut {
			st.cfg.Recovery.Rec(session).AddAckTimeout()
			st.banked = nd
			break
		}
		if !ok {
			return fmt.Errorf("%v: fabric aborted while waiting for decoder acks", &st.cfg.Config)
		}
		if st.onAck != nil {
			st.onAck(m)
		} else {
			st.banked++
		}
	}
	st.banked -= nd
	return nil
}
