package service

import (
	"fmt"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/splitter"
	"tiledwall/internal/subpic"
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
// session id is routing state only.
func (w *Wall) runRoot() error {
	if w.cfg.K == 0 {
		return w.runRootCombined()
	}
	port := w.tr.Port(0)
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
	onAck := func(m *cluster.Message) {
		if m.Seq == cluster.DrainAckSeq {
			w.drainAck(byID, m, drainTarget)
			return
		}
		if rv != nil && m.Seq == cluster.SessionFailSeq {
			// A splitter declared this session's stream undecodable: fail it
			// alone, keep the wall running.
			w.failSession(byID, port, m.Session, string(m.Payload))
			return
		}
		credit(nodeIdx[m.From])
		if rv != nil {
			rv.picRet.Ack(m.Session, nodeIdx[m.From], m.Seq)
		}
		// A splitter's receipt ack frees one of the session's in-flight slots.
		if s := byID[m.Session]; s != nil {
			s.releaseToken()
		}
	}
	// takeAck waits for a splitter ack; under recovery the wait is bounded
	// by the picture deadline — a dead splitter's receipt ack never comes —
	// after which the assignee is granted synthetic credit, and the oldest
	// retained (unacked) picture's feed token is released so no feeder hangs
	// on a dead node.
	takeAck := func(a int) error {
		if rv != nil {
			m, timedOut := port.RecvTimeout(cluster.MsgAck, rv.cfg.PictureDeadline)
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
			if m == nil {
				return fmt.Errorf("service: root aborted while waiting for splitter ack")
			}
			onAck(m)
			return nil
		}
		m := port.Recv(cluster.MsgAck)
		if m == nil {
			return fmt.Errorf("service: root aborted while waiting for splitter ack")
		}
		onAck(m)
		return nil
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
	a := choose()
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
			// Broadcast the new subscription to every splitter immediately
			// before the activating I picture; per-sender FIFO makes every
			// splitter switch at the same picture boundary. Control-only: no
			// ack, no credit, no retention (respawn re-broadcasts instead).
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
		s.shippedPics++
		t0 := time.Now()
		for credits[a] == 0 {
			if err := takeAck(a); err != nil {
				return err
			}
		}
		s.rootRes.WaitTime += time.Since(t0)
		// Drain any further acks without blocking so Dynamic sees fresh
		// credit counts.
		for {
			m, ok := port.TryRecv(cluster.MsgAck)
			if !ok {
				break
			}
			onAck(m)
		}
		credits[a]--
		next := choose()

		t0 = time.Now()
		var flags uint8
		if !shipped {
			// Only the wall's globally first picture exempts its splitter
			// from the decoder-ack gate (the batch "very first picture").
			flags = cluster.FlagFirstPicture
			shipped = true
		}
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
		case m := <-port.Queue(cluster.MsgAck):
			onAck(m)
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
				total := it.sess.shippedPics
				for i, id := range w.splitterIDs {
					if rv != nil {
						// Finals are retained too: a splitter that dies
						// between receiving and forwarding one would
						// otherwise hang the session's drain.
						rv.picRet.Retain(it.sess.id, i, -1, total, cluster.FlagSessionFinal, nil)
					}
					port.Send(id, &cluster.Message{
						Kind:    cluster.MsgPicture,
						Seq:     -1,
						Tag:     total, // session shipped-picture total
						Flags:   cluster.FlagSessionFinal,
						Session: it.sess.id,
					})
				}
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

// combinedSession is a session's splitter-side state on a one-level wall,
// where the root is also the (single) macroblock splitter.
type combinedSession struct {
	ms  *splitter.MBSplitter
	res *splitter.SecondResult
	roi splitter.ROIScratch
}

// runRootCombined is the K=0 root: the combined splitter of the batch
// one-level pipeline, made session-aware. Decoder go-ahead acks arriving
// between pictures are banked for the next gate.
func (w *Wall) runRootCombined() error {
	port := w.tr.Port(0)
	nd := len(w.decoderIDs)
	rv := w.rv
	byID := map[int]*Session{}
	sessions := map[int]*combinedSession{}
	banked := 0
	shipped := false

	onAck := func(m *cluster.Message) {
		if m.Seq == cluster.DrainAckSeq {
			w.drainAck(byID, m, nd)
			return
		}
		banked++
	}
	gate := func(b *metrics.Breakdown) error {
		aborted := false
		b.Timed(metrics.PhaseWaitMB, func() {
			for banked < nd {
				if rv != nil {
					// A dead decoder's go-ahead never comes: bound the wait
					// and move on — the respawned decoder catches up through
					// its queue and gap concealment.
					m, timedOut := port.RecvTimeout(cluster.MsgAck, rv.cfg.PictureDeadline)
					if timedOut {
						rv.rec.AddAckTimeout()
						banked = nd
						break
					}
					if m == nil {
						aborted = true
						return
					}
					onAck(m)
					continue
				}
				m := port.Recv(cluster.MsgAck)
				if m == nil {
					aborted = true
					return
				}
				onAck(m)
			}
		})
		if aborted {
			return fmt.Errorf("service: fabric aborted while waiting for decoder acks")
		}
		banked -= nd
		return nil
	}
	// failCombined fails one session in isolation: the feeder gets a typed
	// error, and a final sized to what already shipped lets every decoder
	// finish and drop the session's state.
	failCombined := func(s *Session, cs *combinedSession, shippedPics int, cause error) {
		delete(byID, s.id)
		delete(sessions, s.id)
		s.fail(fmt.Errorf("%w: session %q: %v", ErrSessionFailed, s.name, cause))
		for _, id := range w.decoderIDs {
			sp := &subpic.SubPicture{Final: true}
			sp.Pic.Index = int32(shippedPics)
			port.Send(id, &cluster.Message{
				Kind:    cluster.MsgSubPicture,
				Seq:     -1,
				Tag:     port.ID(),
				Flags:   cluster.FlagSessionFinal,
				Session: s.id,
				Payload: cs.res.Marshal(sp),
			})
		}
		cs.ms.Close()
	}

	for {
		select {
		case m := <-port.Queue(cluster.MsgAck):
			onAck(m)
		case it := <-w.work:
			switch it.kind {
			case workShutdown:
				for _, cs := range sessions {
					cs.ms.Close()
				}
				w.broadcastShutdown(port)
				return nil
			case workOpen:
				s := it.sess
				byID[s.id] = s
				sessions[s.id] = &combinedSession{
					ms: splitter.NewMBSplitterOpts(s.seq, s.geo, splitter.SplitOptions{
						Workers: w.cfg.SplitWorkers,
						Reuse:   true,
					}),
					res: &splitter.SecondResult{},
				}
				for _, id := range w.decoderIDs {
					port.Send(id, &cluster.Message{
						Kind:    cluster.MsgSubPicture,
						Flags:   cluster.FlagSessionOpen,
						Session: s.id,
						Payload: it.payload,
					})
				}
			case workSubscribe:
				applySubscribe(it.sess, it.payload)
			case workPicture:
				w.loadBytes.Add(-int64(len(it.payload)))
				s := it.sess
				cs := sessions[s.id]
				if cs == nil {
					s.releaseToken() // session already failed in isolation
					cluster.PutSlab(it.payload)
					continue
				}
				// The root is the (single) splitter here, so subscription
				// activation needs no broadcast: the state lives on s and the
				// ROI rewrite happens right after the split below.
				pt := picTypeOf(it.payload)
				if pt == mpeg2.PictureI {
					activateSub(s)
				}
				if trickDrops(s.rootTrick, pt) {
					s.droppedPics++
					s.releaseToken()
					cluster.PutSlab(it.payload)
					continue
				}
				sIdx := s.shippedPics
				b := &cs.res.Breakdown
				cs.res.InputBytes += int64(len(it.payload))
				var sps []*subpic.SubPicture
				var err error
				b.Timed(metrics.PhaseWork, func() { sps, err = cs.ms.Split(it.payload, sIdx) })
				if err != nil {
					if rv != nil {
						failCombined(s, cs, sIdx, err)
						s.releaseToken()
						cluster.PutSlab(it.payload)
						continue
					}
					return err
				}
				if shipped {
					if err := gate(b); err != nil {
						return err
					}
				}
				shipped = true
				ship, nSkipped := cs.roi.Apply(sps, s.rootSub, s.rootTrick == splitter.TrickIOnly)
				cs.res.SkippedSubPics += int64(nSkipped)
				b.Timed(metrics.PhaseServe, func() {
					for t := 0; t < nd; t++ {
						payload := cs.res.Marshal(ship[t])
						cs.res.SPBytes += int64(len(payload))
						port.Send(w.decoderIDs[t], &cluster.Message{
							Kind:    cluster.MsgSubPicture,
							Seq:     sIdx,
							Tag:     port.ID(),
							Session: s.id,
							Payload: payload,
						})
					}
				})
				s.shippedPics = sIdx + 1
				cs.res.Pictures++
				b.Pictures++
				s.releaseToken()
				// The sub-pictures aliased the picture payload until the
				// serialisation above; there is no retainer on a one-level
				// wall, so the root's release is the last.
				cluster.PutSlab(it.payload)
			case workFinal:
				s := it.sess
				cs := sessions[s.id]
				if cs == nil {
					continue // session already failed in isolation
				}
				for _, id := range w.decoderIDs {
					sp := &subpic.SubPicture{Final: true}
					sp.Pic.Index = int32(s.shippedPics)
					port.Send(id, &cluster.Message{
						Kind:    cluster.MsgSubPicture,
						Seq:     -1,
						Tag:     port.ID(),
						Flags:   cluster.FlagSessionFinal,
						Session: s.id,
						Payload: cs.res.Marshal(sp),
					})
				}
				cs.res.FoldSplit(cs.ms)
				cs.ms.Close()
				delete(sessions, s.id)
				// Published before the last drain ack can close s.drained: this
				// goroutine processes that ack only after finishing here.
				s.splitters[0] = cs.res
			}
		case <-w.tr.Done():
			return w.tr.AbortCause()
		}
	}
}
