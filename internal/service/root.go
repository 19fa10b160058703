package service

import (
	"fmt"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/node"
	"tiledwall/internal/recovery"
	"tiledwall/internal/splitter"
)

// picTypeOf peeks a picture unit's coding type without parsing: the unit
// starts with the picture start code (00 00 01 00), then 10 bits of
// temporal_reference and 3 bits of picture_coding_type — the type therefore
// sits in bits 5..3 of byte 5. Trick play and subscription activation key
// off this peek so dropped pictures never reach the splitters.
func picTypeOf(unit []byte) mpeg2.PictureType {
	if len(unit) < 6 {
		return 0
	}
	return mpeg2.PictureType((unit[5] >> 3) & 7)
}

// applySubscribe stages a session's subscription change (root goroutine).
// The activation itself waits for the next I picture.
func applySubscribe(s *Session, payload []byte) {
	trick, tiles, err := splitter.ParseSubscribe(payload)
	if err != nil {
		return // validated at Subscribe; never happens in-process
	}
	s.pendTrick, s.pendSub = trick, tiles
	s.subPending = true
}

// trickDrops reports whether trick mode m drops pictures of type t.
func trickDrops(m splitter.TrickMode, t mpeg2.PictureType) bool {
	switch m {
	case splitter.TrickIOnly:
		return t != mpeg2.PictureI
	case splitter.TrickDropB:
		return t == mpeg2.PictureB
	}
	return false
}

// activateSub promotes a pending subscription at an I-picture boundary and
// logs the activation against the picture index the I will ship with.
func activateSub(s *Session) (changed bool) {
	if !s.subPending {
		return false
	}
	s.subPending = false
	s.rootSub, s.rootTrick = s.pendSub, s.pendTrick
	s.subEvents = append(s.subEvents, SubscriptionEvent{
		Picture: s.shippedPics,
		Tiles:   s.rootSub,
		Trick:   s.rootTrick,
	})
	return true
}

// subControlPayload encodes a session's active subscription for the
// splitter broadcast.
func subControlPayload(s *Session) []byte {
	return splitter.AppendSubscribe(nil, s.rootTrick, s.rootSub)
}

// hasSubState reports whether the session deviates from the defaults (used
// to skip the respawn re-broadcast for ordinary sessions).
func hasSubState(s *Session) bool {
	return !s.rootSub.Full() || s.rootTrick != splitter.TrickNone || s.subPending
}

// runRoot is the resident root: it serialises every session's pictures into
// one global order on the batch credit protocol, so the ANID/NSID chain —
// and its deadlock-freedom — is exactly the single-stream pipeline's. The
// session id is routing state only. A one-level wall (k = 0) runs the same
// loop; it differs only in where opens, subscriptions, pictures and finals
// go: into the root's own splitting stage, which splits for the decoders
// and gates on their go-aheads, instead of out to the splitters.
func (w *Wall) runRoot() error {
	port := w.tr.Port(cluster.RootNode)
	k := w.cfg.K
	rv := w.rv
	// drainTarget: one drain ack from each splitter and each decoder closes
	// a session. By sender FIFO every data ack precedes its sender's drain ack,
	// so when the count is met no stale ack for the session remains.
	drainTarget := k + len(w.decoderIDs)
	byID := map[int]*Session{}

	credits := make([]int, k)
	nodeIdx := make(map[int]int, k)
	for i, id := range w.splitterIDs {
		credits[i] = 2
		nodeIdx[id] = i
	}
	credit := func(i int) {
		if credits[i] < 2 {
			credits[i]++
		}
	}
	// local is the root's own splitting stage on a one-level wall, nil
	// otherwise.
	var local *splitter.Stage
	var localCfg splitter.ServeConfig
	// final ends a session downstream with its shipped-picture total.
	// Finals to splitters are retained under recovery when retain is set: a
	// splitter that dies between receiving and forwarding one would
	// otherwise hang the session's drain.
	final := func(session, total int, retain bool) {
		if local != nil {
			local.Final(session, total)
			return
		}
		for i, id := range w.splitterIDs {
			if retain && rv != nil {
				rv.picRet.Retain(session, i, -1, total, cluster.FlagSessionFinal, nil)
			}
			port.Send(id, &cluster.Message{
				Kind:    cluster.MsgPicture,
				Seq:     -1,
				Tag:     total,
				Flags:   cluster.FlagSessionFinal,
				Session: session,
			})
		}
	}
	onAck := func(m cluster.Message) {
		switch {
		case m.Seq == cluster.DrainAckSeq:
			w.drainAck(byID, &m, drainTarget)
		case rv != nil && m.Seq == cluster.SessionFailSeq:
			// A splitter declared this session's stream undecodable: fail it
			// alone, keep the wall running.
			w.failSession(byID, m.Session, string(m.Payload), final)
		case local != nil:
			// A decoder's go-ahead, banked for the next gate.
			local.Bank()
		default:
			credit(nodeIdx[m.From])
			if rv != nil {
				rv.picRet.Ack(m.Session, nodeIdx[m.From], m.Seq)
			}
			// A splitter's receipt ack frees one of the session's in-flight
			// slots.
			if s := byID[m.Session]; s != nil {
				s.releaseToken()
			}
		}
	}
	if k == 0 {
		localCfg = w.splitterServeCfg(0, w.rv.incarnation(nil, recovery.ChaosPlan{}, nil))
		local = splitter.NewStage(port, localCfg, onAck)
		defer local.Close()
	}
	// takeAck waits for a splitter ack; under recovery the wait is bounded
	// by the picture deadline — a dead splitter's receipt ack never comes —
	// after which the assignee is granted synthetic credit, and the oldest
	// retained (unacked) picture's feed token is released so no feeder hangs
	// on a dead node.
	takeAck := func(a int) error {
		var deadline time.Duration // zero: fail-stop blocks
		if rv != nil {
			deadline = rv.cfg.PictureDeadline
		}
		m, ok, timedOut := port.RecvTimeout(cluster.MsgAck, deadline)
		if timedOut {
			rv.rec.AddAckTimeout()
			credit(a)
			if sess, ok := rv.picRet.OldestSession(a); ok {
				if s := byID[sess]; s != nil {
					s.releaseToken()
				}
			}
			return nil
		}
		if !ok {
			return fmt.Errorf("service: root aborted while waiting for splitter ack")
		}
		onAck(m)
		return nil
	}
	// drainAcks takes every queued ack without blocking.
	drainAcks := func() {
		for {
			m, ok := port.TryRecv(cluster.MsgAck)
			if !ok {
				return
			}
			onAck(m)
		}
	}
	rr := 0
	choose := func() int {
		if !w.cfg.DynamicBalance {
			c := rr
			rr = (rr + 1) % k
			return c
		}
		best := rr
		for off := 0; off < k; off++ {
			i := (rr + off) % k
			if credits[i] > credits[best] {
				best = i
			}
		}
		rr = (best + 1) % k
		return best
	}

	// The assignee of the next picture is fixed before the current one ships
	// (NSID), and survives session boundaries: the global picture order does
	// not restart per stream.
	var a int
	if k > 0 {
		a = choose()
	}
	shipped := false
	emit := func(it workItem) error {
		s := it.sess
		if rv != nil && s.failCause() != nil {
			s.releaseToken() // failed in isolation; drop queued pictures
			cluster.PutSlab(it.payload)
			return nil
		}
		pt := picTypeOf(it.payload)
		if pt == mpeg2.PictureI && activateSub(s) {
			// Deliver the new subscription immediately before the activating
			// I picture; per-sender FIFO makes every splitter switch at the
			// same picture boundary. Control-only: no ack, no credit, no
			// retention (respawn re-broadcasts instead).
			if local != nil {
				local.Subscribe(s.id, s.rootTrick, s.rootSub)
			} else {
				payload := subControlPayload(s)
				for _, id := range w.splitterIDs {
					port.Send(id, &cluster.Message{
						Kind:    cluster.MsgPicture,
						Flags:   cluster.FlagSubscribe,
						Session: s.id,
						Payload: payload,
					})
				}
			}
		}
		if trickDrops(s.rootTrick, pt) {
			// Trick play drops the picture at the root: it never reaches a
			// splitter, costs no credit, and frees its feed slot at once.
			s.droppedPics++
			s.releaseToken()
			cluster.PutSlab(it.payload)
			return nil
		}
		// Shipped pictures are re-indexed densely so the downstream protocol
		// (per-session Seq, decoder index checks, the final's total) never
		// sees gaps from trick-play drops.
		sIdx := s.shippedPics
		var flags uint8
		if !shipped {
			// Only the wall's globally first picture exempts its splitter
			// from the decoder-ack gate (the batch "very first picture").
			flags = cluster.FlagFirstPicture
		}
		if local != nil {
			// The root splits here; the picture's feed slot frees once its
			// sub-pictures have shipped (or it failed to split).
			err := local.Picture(&cluster.Message{
				Seq:     sIdx,
				Tag:     port.ID(),
				Flags:   flags,
				Session: s.id,
				Payload: it.payload,
			})
			if _, corrupt := err.(*splitter.SplitError); corrupt && rv != nil {
				// It shipped as skip markers, whose acks the next picture's
				// gate takes.
				w.failSession(byID, s.id, err.Error(), final)
			} else if err != nil {
				return err
			} else {
				s.shippedPics++
			}
			shipped = true
			s.releaseToken()
			return nil
		}
		t0 := time.Now()
		for credits[a] == 0 {
			if err := takeAck(a); err != nil {
				return err
			}
		}
		s.rootRes.WaitTime += time.Since(t0)
		// Drain any further acks without blocking so Dynamic sees fresh
		// credit counts.
		drainAcks()
		credits[a]--
		next := choose()

		t0 = time.Now()
		shipped = true
		s.shippedPics++
		if rv != nil {
			// Retain until the assignee acks receipt; a respawned splitter
			// gets everything its predecessor consumed without finishing.
			rv.picRet.Retain(s.id, a, sIdx, w.splitterIDs[next], flags, it.payload)
		}
		port.Send(w.splitterIDs[a], &cluster.Message{
			Kind:    cluster.MsgPicture,
			Seq:     sIdx, // per-session shipped-picture index (dense)
			Tag:     w.splitterIDs[next],
			Flags:   flags,
			Session: s.id,
			Payload: it.payload,
		})
		s.rootRes.SendTime += time.Since(t0)
		a = next
		return nil
	}

	var respawn chan int // nil (never fires) without recovery
	if rv != nil {
		respawn = rv.respawn
	}
	for {
		select {
		case <-port.Ready(cluster.MsgAck):
			drainAcks()
		case idx := <-respawn:
			// A splitter respawned: first restore every live session's
			// subscription/trick state (the predecessor's copy died with it;
			// a fresh splitter defaults to full subscription), then replay its
			// retained pictures — every session's, in original send order —
			// with FlagReplay so the new incarnation deduplicates against its
			// surviving queue and the decoders never double-ack.
			for _, s := range byID {
				if !hasSubState(s) {
					continue
				}
				port.Send(w.splitterIDs[idx], &cluster.Message{
					Kind:    cluster.MsgPicture,
					Flags:   cluster.FlagSubscribe,
					Session: s.id,
					Payload: subControlPayload(s),
				})
			}
			for _, p := range rv.picRet.PendingSplitter(idx) {
				rv.rec.AddReplayed(1)
				// Each replay delivery shares the retained bytes and the
				// consumer releases per delivery, so every send acquires its
				// own slab reference (nil Final payloads are no-ops).
				cluster.SlabRef(p.Payload)
				port.Send(w.splitterIDs[idx], &cluster.Message{
					Kind:    cluster.MsgPicture,
					Seq:     p.Seq,
					Tag:     p.Tag,
					Flags:   (p.Flags &^ cluster.FlagFirstPicture) | cluster.FlagReplay,
					Session: p.Session,
					Payload: p.Payload,
				})
			}
		case it := <-w.work:
			switch it.kind {
			case workShutdown:
				w.broadcastShutdown(port)
				return nil
			case workOpen:
				byID[it.sess.id] = it.sess
				if local != nil {
					if err := node.Open(&localCfg.Config, local, it.sess.id, it.payload); err != nil {
						return err
					}
				}
				for _, id := range w.splitterIDs {
					port.Send(id, &cluster.Message{
						Kind:    cluster.MsgPicture,
						Flags:   cluster.FlagSessionOpen,
						Session: it.sess.id,
						Payload: it.payload,
					})
				}
			case workPicture:
				w.loadBytes.Add(-int64(len(it.payload)))
				if err := emit(it); err != nil {
					return err
				}
			case workSubscribe:
				applySubscribe(it.sess, it.payload)
			case workFinal:
				// The total counts shipped pictures, not fed ones: trick-play
				// drops must not make decoders wait for pictures that never
				// existed downstream.
				final(it.sess.id, it.sess.shippedPics, true)
			}
		case <-w.tr.Done():
			return w.tr.AbortCause()
		}
	}
}

// drainAck counts one node's session-drained notification; the last node's
// releases the session's waiter. A node counts once: a respawned splitter
// re-acks the session final the root replays to it, and that duplicate must
// not stand in for a node still draining.
func (w *Wall) drainAck(byID map[int]*Session, m *cluster.Message, target int) {
	s := byID[m.Session]
	if s == nil || s.drainedBy[m.From] {
		return
	}
	if s.drainedBy == nil {
		s.drainedBy = map[int]bool{}
	}
	s.drainedBy[m.From] = true
	if len(s.drainedBy) == target {
		delete(byID, m.Session)
		close(s.drained)
	}
}

// broadcastShutdown tells every node server to exit cleanly. Sessions are all
// drained by the time Close submits the shutdown item, so every server is
// idle in its receive loop.
func (w *Wall) broadcastShutdown(port cluster.Port) {
	for _, id := range w.splitterIDs {
		port.Send(id, &cluster.Message{Kind: cluster.MsgPicture, Flags: cluster.FlagShutdown})
	}
	for _, id := range w.decoderIDs {
		port.Send(id, &cluster.Message{Kind: cluster.MsgSubPicture, Flags: cluster.FlagShutdown})
	}
}
