package splitter

import (
	"fmt"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/recovery"
	"tiledwall/internal/subpic"
	"tiledwall/internal/wall"
)

// ServeConfig wires one splitter role — a resident second-level splitter
// node, or the root's own Stage on a one-level wall: a long-lived server
// multiplexing sessions, each with its own sequence header, geometry and
// macroblock splitter.
type ServeConfig struct {
	// Index is this splitter's position among the k resident splitters.
	Index int
	// M, N, Overlap describe the wall grid; per-session geometry is derived
	// from them and the session's own picture dimensions.
	M, N, Overlap int
	// DecoderNodes maps tile index to decoder node id; RootNode is the
	// resident root.
	DecoderNodes []int
	RootNode     int

	SplitWorkers int

	// OnResult receives the splitter-side result when a session's final
	// marker has been forwarded.
	OnResult func(session, index int, res *SecondResult)

	// Recovery, when non-nil, switches the server's protocol path to fault
	// masking: leases are renewed per message, chaos kills surface as
	// recovery.ErrKilled, root replays are deduplicated and shipped with
	// FlagReplay, the decoder-ack gate is deadline-bounded, and a corrupt
	// picture fails its session alone (SessionFailSeq notice to the root)
	// instead of killing the wall.
	Recovery *recovery.Incarnation
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
	onAck func(*cluster.Message)
}

// NewStage returns a splitter stage sending from port. onAck may be nil; see
// Stage.
func NewStage(port cluster.Port, cfg ServeConfig, onAck func(*cluster.Message)) *Stage {
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

// ServeSecond runs the resident splitter loop until a FlagShutdown message
// arrives or the transport aborts. Per data picture: ack the root on receipt
// (credit), then the Stage sequence with the ANID the root announced. The
// control path adds session opens (forwarded to every decoder before any of
// this splitter's sub-pictures, by sender FIFO) and session finals (the
// batch end marker, per session). With Recovery wired the same loop renews
// the lease per message, honours the chaos plan, deduplicates root replays
// and fails a session with a corrupt picture alone (SessionFailSeq notice to
// the root) instead of killing the wall.
func ServeSecond(port cluster.Port, cfg ServeConfig) error {
	st := NewStage(port, cfg, nil)
	defer st.Close()
	rh := st.cfg.Recovery
	if rh != nil {
		for _, rs := range rh.Resume {
			// Re-forward each resumed open: the decoders deduplicate, and a
			// session whose open every splitter lost stays reachable.
			_ = st.Open(rs.ID, rs.Header)
		}
	}
	for {
		t0 := time.Now()
		msg := port.Recv(cluster.MsgPicture)
		wait := time.Since(t0)
		if msg == nil {
			return fmt.Errorf("splitter %d: fabric aborted", cfg.Index)
		}
		if rh != nil && rh.Lease != nil {
			rh.Lease.Renew()
		}
		switch {
		case msg.Flags&cluster.FlagShutdown != 0:
			return nil
		case msg.Flags&cluster.FlagSessionOpen != 0:
			if err := st.Open(msg.Session, msg.Payload); err != nil && rh == nil {
				return err // under recovery: a broken session, not a broken wall
			}
		case msg.Flags&cluster.FlagSubscribe != 0:
			trick, live, err := ParseSubscribe(msg.Payload)
			if err != nil {
				// A malformed control frame must not corrupt the session's
				// materialization state; keep the previous subscription.
				continue
			}
			st.Subscribe(msg.Session, trick, live)
		case msg.Flags&cluster.FlagSessionFinal != 0:
			if ss := st.sessions[msg.Session]; ss != nil {
				ss.res.Breakdown.Add(metrics.PhaseReceive, wait)
			}
			if !st.Final(msg.Session, msg.Tag) {
				continue
			}
			// The root closes the session only after a drain ack from every
			// splitter and every decoder, so results are published before a
			// waiting Session.Close can read them.
			port.Send(cfg.RootNode, &cluster.Message{
				Kind:    cluster.MsgAck,
				Seq:     cluster.DrainAckSeq,
				Session: msg.Session,
			})
		default:
			ss := st.sessions[msg.Session]
			if ss == nil {
				if rh != nil {
					// Session failed or completed; drop quietly, releasing
					// this delivery's reference to the payload.
					cluster.PutSlab(msg.Payload)
					continue
				}
				return fmt.Errorf("splitter %d: picture for unknown session %d", cfg.Index, msg.Session)
			}
			replay := msg.Flags&cluster.FlagReplay != 0
			if rh != nil {
				if ss.seen[msg.Seq] {
					// Root replay overlapping the surviving node queue. Each
					// delivery carries its own slab reference (the root
					// acquires one per replay send), so the duplicate's
					// reference is released here.
					cluster.PutSlab(msg.Payload)
					continue
				}
				ss.seen[msg.Seq] = true
				// Injected crash before the receipt ack: the picture is
				// consumed but unacknowledged, so the root must both time the
				// credit out and replay it to the next incarnation.
				if !replay && rh.Chaos.SplitterDies(cfg.Index, msg.Seq) {
					return recovery.ErrKilled
				}
			}
			b := &ss.res.Breakdown
			b.Add(metrics.PhaseReceive, wait)
			// Ack the root immediately: the posted buffer is recycled
			// (flow-control credit) and the service releases one of the
			// session's in-flight tokens. Replays are never acked — the
			// original ack or the root's credit timeout already settled the
			// ledger.
			if !replay {
				b.Timed(metrics.PhaseAck, func() {
					port.Send(cfg.RootNode, &cluster.Message{Kind: cluster.MsgAck, Seq: msg.Seq, Session: msg.Session})
				})
			}
			switch err := st.Picture(msg); err.(type) {
			case nil:
			case *SplitError:
				if rh == nil {
					return fmt.Errorf("splitter %d: %w", cfg.Index, err)
				}
				// A corrupt picture unit fails its session alone: notify the
				// root (which surfaces a typed error to the feeder) and keep
				// serving the other sessions. Nothing is shipped, so the
				// decoders conceal the gap.
				port.Send(cfg.RootNode, &cluster.Message{
					Kind:    cluster.MsgAck,
					Seq:     cluster.SessionFailSeq,
					Session: msg.Session,
					Payload: []byte(err.Error()),
				})
			default:
				return err
			}
		}
	}
}

// Open creates one session's splitter state and forwards the open to every
// decoder. The payload is shared and read-only on the receiving side, so one
// copy serves all. Opens of a session already open are skipped.
func (st *Stage) Open(session int, header []byte) error {
	if st.sessions[session] != nil {
		return nil
	}
	cfg := &st.cfg
	seq, err := mpeg2.ParseSequenceHeaderBytes(header)
	if err != nil {
		return fmt.Errorf("splitter %d: session %d open: %w", cfg.Index, session, err)
	}
	geo, err := wall.NewGeometry(seq.MBWidth()*16, seq.MBHeight()*16, cfg.M, cfg.N, cfg.Overlap)
	if err != nil {
		return fmt.Errorf("splitter %d: session %d open: %w", cfg.Index, session, err)
	}
	ss := &splitSession{
		ms:  NewMBSplitterOpts(seq, geo, SplitOptions{Workers: cfg.SplitWorkers, Reuse: true}),
		res: &SecondResult{},
	}
	if rh := cfg.Recovery; rh != nil {
		ss.seen = map[int]bool{}
		if rh.OnOpen != nil {
			rh.OnOpen(session, header)
		}
	}
	st.sessions[session] = ss
	for _, id := range cfg.DecoderNodes {
		st.port.Send(id, &cluster.Message{
			Kind:    cluster.MsgSubPicture,
			Flags:   cluster.FlagSessionOpen,
			Session: session,
			Payload: header,
		})
	}
	return nil
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
	for _, id := range st.cfg.DecoderNodes {
		sp := &subpic.SubPicture{Final: true}
		sp.Pic.Index = int32(total)
		st.port.Send(id, &cluster.Message{
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
// are not acked). A picture that does not split returns a *SplitError.
func (st *Stage) Picture(msg *cluster.Message) error {
	ss := st.sessions[msg.Session]
	replay := msg.Flags&cluster.FlagReplay != 0
	b := &ss.res.Breakdown
	ss.res.InputBytes += int64(len(msg.Payload))

	var sps []*subpic.SubPicture
	var err error
	b.Timed(metrics.PhaseWork, func() { sps, err = ss.ms.Split(msg.Payload, msg.Seq) })
	if err != nil {
		// This consumer is done with the picture payload; the root's retainer
		// may still hold its own reference, in which case the release only
		// drops this delivery's.
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
	ship, nSkipped := ss.roi.Apply(sps, ss.live, ss.trick == TrickIOnly)
	ss.res.SkippedSubPics += int64(nSkipped)

	var spFlags uint8
	if replay {
		spFlags = cluster.FlagReplay // decoders deduplicate and do not ack
	}
	b.Timed(metrics.PhaseServe, func() {
		for t, id := range st.cfg.DecoderNodes {
			payload := ss.res.Marshal(ship[t])
			ss.res.SPBytes += int64(len(payload))
			st.port.Send(id, &cluster.Message{
				Kind:    cluster.MsgSubPicture,
				Seq:     msg.Seq,
				Tag:     msg.Tag,
				Flags:   spFlags,
				Session: msg.Session,
				Payload: payload,
			})
		}
	})
	ss.res.Pictures++
	b.Pictures++
	// The sub-pictures aliased the picture payload until serialisation; this
	// delivery's reference can now be released (a root retainer still holds
	// its own until the receipt ack lands).
	cluster.PutSlab(msg.Payload)
	return nil
}

// gate waits for one go-ahead (redirected ack) per decoder. Under recovery
// the wait is deadline-bounded: a dead decoder's go-ahead never comes, so
// the gate moves on and the respawned decoder catches up through its queue
// and gap concealment.
func (st *Stage) gate(session int) error {
	nd := len(st.cfg.DecoderNodes)
	var deadline time.Duration // zero: fail-stop blocks
	if rh := st.cfg.Recovery; rh != nil {
		deadline = rh.Cfg.PictureDeadline
	}
	for st.banked < nd {
		m, timedOut := cluster.RecvWithin(st.port, cluster.MsgAck, deadline)
		if timedOut {
			st.cfg.Recovery.Rec(session).AddAckTimeout()
			st.banked = nd
			break
		}
		if m == nil {
			return fmt.Errorf("splitter %d: fabric aborted while waiting for decoder acks", st.cfg.Index)
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
