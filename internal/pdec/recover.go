package pdec

import (
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/subpic"
)

// This file holds the fault-masking side of the decoder's one protocol path
// (DESIGN.md §6), reached when ServeConfig.Recovery is wired. Sub-pictures may
// arrive out of order (the root replays retained pictures to a respawned
// splitter while the others keep sending new ones), duplicated (replay
// overlaps the queue a dead incarnation left behind), or not at all (a
// splitter died mid-distribution after its credit was settled). Where
// fail-stop returns an error at those points (Decoder.fault), fault masking
// parks, drops, and — past the per-picture deadline — conceals, with the
// helpers below. It runs identically over the in-process fabric and TCP:
// the serving layer owns the receive loop, the decoder owns the protocol.

// stashedSubPic is one out-of-order sub-picture parked until the frontier
// reaches it. The entry keeps the message payload (which the parsed pieces
// alias) so it can be released when the entry is consumed.
type stashedSubPic struct {
	sp      *subpic.SubPicture
	payload []byte
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
	d.prevAnchorTR = trUnknown
	for _, b := range [...]*mpeg2.PixelBuf{d.fwd, d.bwd, d.bpic, d.display} {
		b.Fill(128, 128, 128)
	}
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

// park handles a sub-picture off the frontier. A duplicate of a handled (or
// concealed) picture is dropped: each duplicate is a distinct marshalled
// slab (splitters serialise per send), so this copy is released on its own.
// A picture that overtook the frontier — a root replay after a splitter
// respawn, or a sibling session's failure skewing the cross-splitter ack
// chain — waits in the reorder stash, and the hole it leaves starts the
// deadline that SweepDeadline enforces.
func (d *Decoder) park(idx int, payload []byte) {
	if idx < d.nextPic {
		cluster.PutSlab(payload)
		return
	}
	if _, dup := d.spStash[idx]; dup {
		cluster.PutSlab(payload)
	} else if sp, err := subpic.Unmarshal(payload); err == nil {
		// The stash outlives the scratch sub-picture: park a heap-parsed
		// copy whose pieces keep aliasing the payload.
		d.spStash[idx] = stashedSubPic{sp: sp, payload: payload}
	} else {
		cluster.PutSlab(payload)
	}
	if d.gapSince.IsZero() {
		d.gapSince = time.Now()
	}
}

// drainStash decodes stashed successors that the advancing frontier has made
// in-order, then re-arms the hole timer: an empty stash means delivery is in
// order again, a non-empty one starts a fresh deadline for the next hole.
// Under fail-stop the stash is always empty.
func (d *Decoder) drainStash() {
	if len(d.spStash) == 0 {
		d.gapSince = time.Time{}
		return
	}
	for {
		e, ok := d.spStash[d.nextPic]
		if !ok {
			break
		}
		delete(d.spStash, d.nextPic)
		_ = d.advance(e.sp, e.payload) // fault masking never errs
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
			_ = d.advance(e.sp, e.payload)
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
	d.drainStash()
	return d.doneByTotal()
}

// concealKnown freezes the last displayed frame in place of picture idx,
// whose sub-picture arrived but could not be decoded (untrusted reference
// chain after a respawn, or a decode failure). A concealed picture releases
// no held anchor, and the previous anchor is no longer known.
func (d *Decoder) concealKnown(idx int, picType mpeg2.PictureType) {
	d.prevAnchorTR = trUnknown
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
// so the anchors are not swapped (the contents are untrusted either way)
// and the anchor trust conservatively drops to zero.
func (d *Decoder) concealUnknown(idx int) {
	d.flushPending()
	d.concealEmit(idx)
	d.validAnchors = 0
	d.prevAnchorTR = trUnknown
	d.nextPic = idx + 1
}

// concealEmit emits the projector's current frame for picture idx — the
// freeze-last-frame degradation — and counts the intervention.
func (d *Decoder) concealEmit(idx int) {
	if d.rec != nil {
		d.rec.AddConcealedFrame()
	}
	d.emitFrame(idx, d.display)
}

// concealMBs counts halo macroblocks concealed by copy-from-reference.
func (d *Decoder) concealMBs(n int) {
	if d.rec != nil {
		d.rec.AddConcealedMBs(n)
	}
}
