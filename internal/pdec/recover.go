package pdec

import (
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/subpic"
)

// This file is the decoder's fault-masking path (DESIGN.md §6), active when
// Config.Recovery is wired. Sub-pictures may arrive out of order (the root
// replays retained pictures to a respawned splitter while the others keep
// sending new ones), duplicated (replay overlaps the queue a dead
// incarnation left behind), or not at all (a splitter died mid-distribution
// after its credit was settled). The strict path treats all of these as
// protocol violations; this path reorders, deduplicates, and — past the
// per-picture deadline — conceals. It runs identically over the in-process
// fabric and TCP: the serving layer owns the receive loop, this file owns
// the protocol.

// stashedSubPic is one out-of-order sub-picture parked until the frontier
// reaches it. The entry keeps the message payload (which the parsed pieces
// alias) so it can be released when the entry is consumed.
type stashedSubPic struct {
	sp      *subpic.SubPicture
	payload []byte
}

// doneByTotal reports whether every picture of the stream has been handled.
func (d *Decoder) doneByTotal() bool {
	return d.finalTotal >= 0 && d.nextPic >= d.finalTotal
}

// ResumeAt restores a respawned resident decoder's position in one session:
// pictures below next were emitted by the dead incarnation and stay on the
// projector; everything the new incarnation holds is untrusted, so it
// conceals (grey, then freeze) until an I picture re-anchors the chain.
// holes lists decode indices below next the dead incarnation held back
// (B-reorder anchors) and never emitted; they are conceal-emitted here, once,
// so every index still reaches the projector exactly once.
func (d *Decoder) ResumeAt(next int, holes []int) {
	d.nextPic = next
	d.validAnchors = 0
	for _, b := range d.bufs {
		b.Fill(128, 128, 128)
	}
	d.display.Fill(128, 128, 128)
	for _, idx := range holes {
		d.concealEmit(idx)
	}
}

// releaseStash returns every parked payload to the slab pool: called when
// the session ends with the stash non-empty — entries beyond the final total
// that no frontier will ever consume.
func (d *Decoder) releaseStash() {
	for idx, e := range d.spStash {
		cluster.PutSlab(e.payload)
		delete(d.spStash, idx)
	}
}

// HandleSubPictureRecover is HandleSubPicture on the fault-masking protocol,
// for resident servers that receive on the decoder's behalf. Duplicates
// (replay overlap) are dropped; pictures that overtake the frontier — root
// replays after a splitter respawn, or a sibling session's failure skewing
// the cross-splitter ack chain — wait in the reorder stash; a hole older than
// the per-picture deadline (SweepDeadline) is declared lost and concealed. A
// session completes when all pictures are handled or when every one of
// numFinals splitters has delivered its final marker (its last message, by
// sender FIFO) and the stash has been flushed around the true holes.
func (d *Decoder) HandleSubPictureRecover(msg *cluster.Message, numFinals int) (bool, error) {
	b := &d.res.Breakdown
	d.cfg.Recovery.Renew()
	sp := &d.spScratch
	if err := subpic.UnmarshalInto(sp, msg.Payload); err != nil {
		// Undecodable sub-picture: drop it; the deadline path conceals the
		// picture once later ones arrive.
		cluster.PutSlab(msg.Payload)
		return false, nil
	}
	if sp.Final {
		cluster.PutSlab(msg.Payload)
		d.finalTotal = int(sp.Pic.Index)
		if d.finalsFrom == nil {
			d.finalsFrom = map[int]bool{}
		}
		d.finalsFrom[msg.From] = true
		if len(d.finalsFrom) >= numFinals {
			// Every splitter's stream is exhausted: by sender FIFO nothing
			// more is coming. Decode what the reorder stash holds and conceal
			// the true holes so the session can drain.
			d.flushToTotal()
		}
		return d.doneByTotal(), nil
	}
	// Replays are not acked: the original ack (or the upstream credit
	// timeout) already settled the flow-control ledger.
	if msg.Flags&cluster.FlagReplay == 0 {
		b.Timed(metrics.PhaseAck, func() {
			d.node.Send(msg.Tag, &cluster.Message{Kind: cluster.MsgAck, Seq: msg.Seq, Session: msg.Session})
		})
	}
	idx := int(sp.Pic.Index)
	switch {
	case idx < d.nextPic:
		// Duplicate of a handled (or concealed) picture. Each duplicate is a
		// distinct marshalled slab (splitters serialise per send), so this
		// copy is released independently of the one already consumed.
		cluster.PutSlab(msg.Payload)
		return false, nil
	case idx > d.nextPic:
		if _, dup := d.spStash[idx]; dup {
			cluster.PutSlab(msg.Payload)
		} else if stSp, err := subpic.Unmarshal(msg.Payload); err == nil {
			// The stash outlives this call and the scratch sub-picture: park
			// a heap-parsed copy whose pieces keep aliasing the payload, and
			// carry the payload for release when the entry is consumed.
			d.spStash[idx] = stashedSubPic{sp: stSp, payload: msg.Payload}
		} else {
			cluster.PutSlab(msg.Payload)
		}
		if d.gapSince.IsZero() {
			d.gapSince = time.Now()
		}
		return false, nil
	}
	d.nextPic++
	d.decodePictureRecover(sp)
	// Every piece aliased the message payload and has been decoded (or
	// concealed); nothing references the slab anymore.
	cluster.PutSlab(msg.Payload)
	d.res.Pictures++
	b.Pictures++
	d.drainStashRecover()
	return d.doneByTotal(), nil
}

// drainStashRecover decodes stashed successors that the advancing frontier
// has made in-order, then re-arms the hole timer: an empty stash means
// delivery is in order again, a non-empty one starts a fresh deadline for the
// next hole.
func (d *Decoder) drainStashRecover() {
	for {
		e, ok := d.spStash[d.nextPic]
		if !ok {
			break
		}
		delete(d.spStash, d.nextPic)
		d.nextPic++
		d.decodePictureRecover(e.sp)
		cluster.PutSlab(e.payload)
		d.res.Pictures++
		d.res.Breakdown.Pictures++
	}
	if len(d.spStash) == 0 {
		d.gapSince = time.Time{}
	} else {
		d.gapSince = time.Now()
	}
}

// flushToTotal drives the session to its known total: stashed pictures are
// decoded, holes are concealed.
func (d *Decoder) flushToTotal() {
	for d.nextPic < d.finalTotal {
		if e, ok := d.spStash[d.nextPic]; ok {
			delete(d.spStash, d.nextPic)
			d.nextPic++
			d.decodePictureRecover(e.sp)
			cluster.PutSlab(e.payload)
			d.res.Pictures++
			d.res.Breakdown.Pictures++
		} else {
			d.concealUnknown(d.nextPic)
		}
	}
	d.gapSince = time.Time{}
	d.releaseStash()
}

// SweepDeadline conceals past a reorder hole that has outlived the
// per-picture deadline: pictures below the oldest stashed index are lost for
// good (their splitter died, or their session failed upstream), so the
// frontier freezes through them and the stash drains. Returns whether the
// session is now complete.
func (d *Decoder) SweepDeadline(deadline time.Duration) bool {
	if len(d.spStash) == 0 || d.gapSince.IsZero() || time.Since(d.gapSince) < deadline {
		return false
	}
	oldest := -1
	for idx := range d.spStash {
		if oldest == -1 || idx < oldest {
			oldest = idx
		}
	}
	for d.nextPic < oldest {
		d.concealUnknown(d.nextPic)
	}
	d.drainStashRecover()
	return d.doneByTotal()
}

// decodePictureRecover is decodePicture with every abort turned into
// concealment. The exchange halves always execute — peers block on this
// tile's SENDs whether or not it can decode, and expected RECVs must be
// drained to stay in step — so a concealing tile ships its stale reference
// pixels and keeps the wall live.
func (d *Decoder) decodePictureRecover(sp *subpic.SubPicture) {
	b := &d.res.Breakdown
	if sp.Skipped {
		// Subscription skip marker: advances the frontier (the caller already
		// did) with nothing to decode, exchange, or conceal — skip markers
		// only replace pictures that feed no reference this tile needs.
		d.res.Skipped++
		return
	}
	ph := sp.Pic.Header()
	idx := int(sp.Pic.Index)

	needed := 0
	switch ph.PicType {
	case mpeg2.PictureP:
		needed = 1
	case mpeg2.PictureB:
		needed = 2
	}
	ctx, ctxErr := mpeg2.NewPictureContext(d.cfg.Seq, ph)
	ok := d.validAnchors >= needed && ctxErr == nil

	var sendErr error
	b.Timed(metrics.PhaseServe, func() { sendErr = d.executeSends(sp, ph.PicType) })
	if sendErr != nil {
		ok = false
	}
	b.Timed(metrics.PhaseWaitMB, func() { d.drainRecvsRecover(sp, ph.PicType, ok) })

	if ok {
		var workErr error
		b.Timed(metrics.PhaseWork, func() { workErr = d.decodePieces(ctx, sp) })
		if workErr != nil {
			ok = false
		}
	}
	if !ok {
		d.concealKnown(idx, ph.PicType)
		return
	}

	if !sp.NoEmit {
		b.Timed(metrics.PhaseWork, func() {
			d.display.CopyRect(d.bufs[d.cur], d.rect.X0, d.rect.Y0, d.rect.W(), d.rect.H())
		})
	}

	if ph.PicType == mpeg2.PictureB {
		if !sp.NoEmit {
			d.emitFrame(idx, d.bufs[d.cur])
		}
	} else {
		d.flushPending()
		d.pendingAnchor = true
		d.pendingAnchorEmit = !sp.NoEmit
		d.pendingAnchorIdx = idx
		d.rotate()
		if d.validAnchors < 2 {
			d.validAnchors++
		}
	}
}

// rotate advances the three-buffer ring after an anchor: the decoded picture
// becomes the backward reference, the old forward reference is recycled.
func (d *Decoder) rotate() {
	old := d.refA
	d.refA = d.refB
	d.refB = d.cur
	d.cur = old
}

// flushPending emits the held anchor, if any (its pixels are real). A held
// NoEmit anchor — decoded for reference exactness on an unwatched tile — is
// released without display.
func (d *Decoder) flushPending() {
	if d.pendingAnchor {
		if d.pendingAnchorEmit {
			d.emitFrame(d.pendingAnchorIdx, d.bufs[d.refB])
		}
		d.pendingAnchor = false
	}
}

// concealKnown freezes the last displayed frame in place of picture idx,
// whose sub-picture arrived but could not be decoded (untrusted reference
// chain after a respawn, or a decode failure).
func (d *Decoder) concealKnown(idx int, picType mpeg2.PictureType) {
	if picType == mpeg2.PictureB {
		d.concealEmit(idx) // anchors untouched; trust is unchanged
		return
	}
	// A concealed anchor breaks the reference chain: flush the held anchor,
	// emit the frozen frame now (there is nothing worth holding back), and
	// rotate so the buffer roles stay aligned with the peers'.
	d.flushPending()
	d.concealEmit(idx)
	d.rotate()
	d.validAnchors = 0
}

// concealUnknown handles a picture that never arrived: its type is unknown,
// so the ring is not rotated (the contents are untrusted either way) and the
// anchor trust conservatively drops to zero.
func (d *Decoder) concealUnknown(idx int) {
	d.flushPending()
	d.concealEmit(idx)
	d.validAnchors = 0
	d.nextPic = idx + 1
}

// concealEmit emits the projector's current frame for picture idx — the
// freeze-last-frame degradation — and counts the intervention.
func (d *Decoder) concealEmit(idx int) {
	if rec := d.cfg.Recovery.Rec; rec != nil {
		rec.AddConcealedFrame()
	}
	d.emitFrame(idx, d.display)
}

// drainRecvsRecover is drainRecvs with the per-picture deadline: halo
// macroblocks that do not arrive in time are concealed by copy-from-reference
// (the window simply keeps the previous picture's pixels there) rather than
// stalling the wall. Stale bundles from replayed pictures are dropped. When
// the picture is headed for concealment anyway (willDecode=false — e.g. a
// respawned incarnation catching up through replayed pictures whose peers
// have long moved on), the drain is non-blocking so catch-up does not pay a
// full deadline per picture.
func (d *Decoder) drainRecvsRecover(sp *subpic.SubPicture, picType mpeg2.PictureType, willDecode bool) {
	rh := d.cfg.Recovery
	expected := 0
	for _, in := range sp.MEI {
		if in.Kind == subpic.MEIRecv {
			expected++
		}
	}
	if expected == 0 {
		return
	}
	concealMBs := func(n int) {
		if rh.Rec != nil {
			rh.Rec.AddConcealedMBs(n)
		}
	}
	apply := func(bb *subpic.BlockBundle) {
		if len(bb.Pixels) != len(bb.Cells)*mpeg2.MacroblockBytes {
			concealMBs(len(bb.Cells))
			expected -= len(bb.Cells)
			return
		}
		for i, c := range bb.Cells {
			buf := d.bufs[d.refFor(c.Ref, picType)]
			if !buf.Contains(int(c.MBX)*16, int(c.MBY)*16, 16, 16) {
				concealMBs(1)
				continue
			}
			buf.InjectMacroblock(int(c.MBX), int(c.MBY), bb.Pixels[i*mpeg2.MacroblockBytes:(i+1)*mpeg2.MacroblockBytes])
		}
		expected -= len(bb.Cells)
	}
	keep := d.stash[:0]
	for _, bb := range d.stash {
		switch {
		case int(bb.PicIndex) == int(sp.Pic.Index):
			apply(bb)
		case int(bb.PicIndex) > int(sp.Pic.Index):
			keep = append(keep, bb)
		}
	}
	d.stash = keep
	for expected > 0 {
		var msg *cluster.Message
		if willDecode {
			var timedOut bool
			msg, timedOut = d.node.RecvTimeout(cluster.MsgBlocks, rh.Cfg.PictureDeadline)
			if timedOut {
				concealMBs(expected)
				return
			}
		} else {
			var got bool
			msg, got = d.node.TryRecv(cluster.MsgBlocks)
			if !got {
				concealMBs(expected)
				return
			}
		}
		if msg == nil {
			return // fabric aborted; the next sub-picture Recv reports it
		}
		bb := &d.bbScratch
		if err := subpic.UnmarshalBlocksInto(bb, msg.Payload); err != nil {
			cluster.PutSlab(msg.Payload)
			continue
		}
		switch {
		case int(bb.PicIndex) == int(sp.Pic.Index):
			apply(bb)
			// Pixels were injected into the halo above; the payload they
			// alias can go back to the pool.
			cluster.PutSlab(msg.Payload)
		case int(bb.PicIndex) > int(sp.Pic.Index):
			// The payload the detached pixels alias is (like the strict
			// path's ahead-stash) left to the garbage collector once
			// applied — ahead-bundles are rare.
			d.stash = append(d.stash, detach(bb))
		default:
			// Stale bundle from a replayed picture: this decoder is its only
			// consumer, so the payload is done.
			cluster.PutSlab(msg.Payload)
		}
	}
}
