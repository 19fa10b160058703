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

// ServeConfig wires one resident second-level splitter node: a long-lived
// server multiplexing sessions, each with its own sequence header, geometry
// and macroblock splitter.
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

	// Recovery, when non-nil, switches the server to the fault-masking
	// protocol: leases are renewed per message, chaos kills surface as
	// recovery.ErrKilled, root replays are deduplicated and shipped with
	// FlagReplay, the decoder-ack gate is deadline-bounded, and a corrupt
	// picture fails its session alone (SessionFailSeq notice to the root)
	// instead of killing the wall.
	Recovery *ServeRecovery
}

// ServeRecovery wires fault masking into one resident splitter server
// incarnation.
type ServeRecovery struct {
	Cfg   recovery.Config
	Lease *recovery.Lease
	Chaos recovery.ChaosPlan
	// Rec returns the recovery counters to charge for a session's
	// interventions (must not return nil).
	Rec func(session int) *metrics.Recovery
	// OnOpen reports session opens for the service registry.
	OnOpen func(session int, header []byte)
	// Resume lists the sessions a respawned incarnation must re-join. Their
	// opens are re-forwarded to the decoders (deduplicated there) so the
	// session survives even if every splitter died before forwarding it.
	Resume []ResumeSession
}

// ResumeSession re-opens one session on a respawned splitter server.
type ResumeSession struct {
	ID     int
	Header []byte
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

// ServeSecond runs the resident splitter loop until a FlagShutdown message
// arrives or the transport aborts. The data path per session is RunSecond's:
// ack the root on receipt (credit), split, gate on nd decoder acks (skipped
// only for the wall's globally first picture), ship with the ANID the root
// announced. The control path adds session opens (forwarded to every decoder
// before any of this splitter's sub-pictures, by sender FIFO) and session
// finals (the batch end marker, per session).
func ServeSecond(port cluster.Port, cfg ServeConfig) error {
	sessions := map[int]*splitSession{}
	nd := len(cfg.DecoderNodes)
	rh := cfg.Recovery
	if rh != nil {
		rh.Cfg = rh.Cfg.WithDefaults()
		for _, rs := range rh.Resume {
			// Re-forward each resumed open: the decoders deduplicate, and a
			// session whose open every splitter lost stays reachable.
			_ = openSession(port, cfg, sessions, rs.ID, rs.Header)
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
			for _, ss := range sessions {
				ss.ms.Close()
			}
			return nil
		case msg.Flags&cluster.FlagSessionOpen != 0:
			if sessions[msg.Session] != nil {
				continue
			}
			if err := openSession(port, cfg, sessions, msg.Session, msg.Payload); err != nil {
				if rh != nil {
					continue // broken session, not a broken wall
				}
				return err
			}
		case msg.Flags&cluster.FlagSubscribe != 0:
			ss := sessions[msg.Session]
			if ss == nil {
				continue
			}
			trick, live, err := ParseSubscribe(msg.Payload)
			if err != nil {
				// A malformed control frame must not corrupt the session's
				// materialization state; keep the previous subscription.
				continue
			}
			ss.trick, ss.live = trick, live
		case msg.Flags&cluster.FlagSessionFinal != 0:
			ss := sessions[msg.Session]
			if ss == nil {
				continue
			}
			ss.res.Breakdown.Add(metrics.PhaseReceive, wait)
			// Forward the end marker to every decoder; Tag carries the
			// session's total picture count so a decoder that sees an early
			// final keeps decoding until it has them all.
			for t := 0; t < nd; t++ {
				sp := &subpic.SubPicture{Final: true}
				sp.Pic.Index = int32(msg.Tag)
				port.Send(cfg.DecoderNodes[t], &cluster.Message{
					Kind:    cluster.MsgSubPicture,
					Seq:     -1,
					Tag:     port.ID(),
					Flags:   cluster.FlagSessionFinal,
					Session: msg.Session,
					Payload: ss.res.Marshal(sp),
				})
			}
			ss.res.FoldSplit(ss.ms)
			ss.ms.Close()
			delete(sessions, msg.Session)
			if cfg.OnResult != nil {
				cfg.OnResult(msg.Session, cfg.Index, ss.res)
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
			ss := sessions[msg.Session]
			if ss == nil {
				if rh != nil {
					// Session failed or completed; drop quietly, releasing
					// this delivery's reference to the payload.
					cluster.PutSlab(msg.Payload)
					continue
				}
				return fmt.Errorf("splitter %d: picture for unknown session %d", cfg.Index, msg.Session)
			}
			if err := splitOne(port, cfg, ss, msg, wait, nd); err != nil {
				return err
			}
		}
	}
}

// openSession creates one session's splitter state and forwards the open to
// every decoder. The payload is shared and read-only on the receiving side,
// so one copy serves all.
func openSession(port cluster.Port, cfg ServeConfig, sessions map[int]*splitSession, session int, header []byte) error {
	if sessions[session] != nil {
		return nil
	}
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
	sessions[session] = ss
	for t := 0; t < len(cfg.DecoderNodes); t++ {
		port.Send(cfg.DecoderNodes[t], &cluster.Message{
			Kind:    cluster.MsgSubPicture,
			Flags:   cluster.FlagSessionOpen,
			Session: session,
			Payload: header,
		})
	}
	return nil
}

// splitOne handles one data picture: the body of RunSecond's loop, keyed to
// the message's session.
func splitOne(port cluster.Port, cfg ServeConfig, ss *splitSession, msg *cluster.Message, wait time.Duration, nd int) error {
	rh := cfg.Recovery
	replay := msg.Flags&cluster.FlagReplay != 0
	if rh != nil {
		if ss.seen[msg.Seq] {
			// Root replay overlapping the surviving node queue. Each delivery
			// carries its own slab reference (the root acquires one per replay
			// send), so the duplicate's reference is released here.
			cluster.PutSlab(msg.Payload)
			return nil
		}
		ss.seen[msg.Seq] = true
		// Injected crash before the receipt ack: the picture is consumed but
		// unacknowledged, so the root must both time the credit out and
		// replay it to the next incarnation.
		if !replay && rh.Chaos.SplitterDies(cfg.Index, msg.Seq) {
			return recovery.ErrKilled
		}
	}
	b := &ss.res.Breakdown
	b.Add(metrics.PhaseReceive, wait)
	// Ack the root immediately: the posted buffer is recycled (flow-control
	// credit) and the service releases one of the session's in-flight tokens.
	// Replays are never acked — the original ack or the root's credit timeout
	// already settled the ledger.
	if !replay {
		b.Timed(metrics.PhaseAck, func() {
			port.Send(cfg.RootNode, &cluster.Message{Kind: cluster.MsgAck, Seq: msg.Seq, Session: msg.Session})
		})
	}
	ss.res.InputBytes += int64(len(msg.Payload))

	var sps []*subpic.SubPicture
	var err error
	b.Timed(metrics.PhaseWork, func() { sps, err = ss.ms.Split(msg.Payload, msg.Seq) })
	if err != nil {
		// This consumer is done with the picture payload; the root's retainer
		// may still hold its own reference, in which case the release only
		// drops this delivery's.
		cluster.PutSlab(msg.Payload)
		if rh != nil {
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
			return nil
		}
		return fmt.Errorf("splitter %d: %w", cfg.Index, err)
	}

	// Wait for the go-ahead from every decoder (redirected acks), except for
	// the wall's globally first picture. Every ack arriving at a splitter
	// node is a go-ahead — drain acks go to the root only — so counting
	// without inspecting the session is exactly the batch protocol. Under
	// recovery the wait is deadline-bounded (a dead decoder's ack never
	// comes) and skipped for replays (their go-aheads were consumed by the
	// dead incarnation, or will never be sent — replayed sub-pictures are
	// not acked).
	if msg.Flags&cluster.FlagFirstPicture == 0 && !replay {
		aborted := false
		b.Timed(metrics.PhaseWaitMB, func() {
			for i := 0; i < nd; i++ {
				if rh != nil {
					m, timedOut := port.RecvTimeout(cluster.MsgAck, rh.Cfg.PictureDeadline)
					if timedOut {
						rh.Rec(msg.Session).AddAckTimeout()
						return
					}
					if m == nil {
						aborted = true
						return
					}
					continue
				}
				if port.Recv(cluster.MsgAck) == nil {
					aborted = true
					return
				}
			}
		})
		if aborted {
			return fmt.Errorf("splitter %d: fabric aborted while waiting for decoder acks", cfg.Index)
		}
	}

	// Partial subscription: rewrite what ships per tile (skip markers for
	// unmaterialized tiles, SEND-only shells for halo sources, NoEmit stamps
	// on unwatched anchors). The full-subscription path returns sps as-is.
	ship, nSkipped := ss.roi.Apply(sps, ss.live, ss.trick == TrickIOnly)
	ss.res.SkippedSubPics += int64(nSkipped)

	anid := msg.Tag // root told us who handles the next picture
	var spFlags uint8
	if replay {
		spFlags = cluster.FlagReplay // decoders deduplicate and do not ack
	}
	b.Timed(metrics.PhaseServe, func() {
		for t := 0; t < nd; t++ {
			payload := ss.res.Marshal(ship[t])
			ss.res.SPBytes += int64(len(payload))
			port.Send(cfg.DecoderNodes[t], &cluster.Message{
				Kind:    cluster.MsgSubPicture,
				Seq:     msg.Seq,
				Tag:     anid,
				Flags:   spFlags,
				Session: msg.Session,
				Payload: payload,
			})
		}
	})
	ss.res.Pictures++
	b.Pictures++
	// The sub-pictures aliased the picture payload until serialisation; this
	// delivery's reference can now be released (the root's retainer still
	// holds its own until the receipt ack above lands).
	cluster.PutSlab(msg.Payload)
	return nil
}
