// Package pdec implements the tile decoder of the parallel system: it
// receives sub-pictures from the splitters, executes pre-calculated
// macroblock exchange instructions (SEND before decoding, RECV into the halo
// of its reference windows), decodes the partial slices seeded from State
// Propagation Headers, and displays its tile. Acknowledgements are redirected
// to the splitter named by the message's ANID, which both grants flow-control
// credit and keeps pictures in order across splitters (paper §4.4-§4.5).
package pdec

import (
	"fmt"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/subpic"
	"tiledwall/internal/wall"
)

// HaloForFCode returns a macroblock-aligned halo margin covering the reach
// of motion vectors with the given maximum f_code.
func HaloForFCode(fcode int) int {
	if fcode < 1 {
		fcode = 1
	}
	reach := (16 << uint(fcode-1)) / 2 // max |mv| in full pixels
	return (reach + 16 + 15) &^ 15     // + interpolation + alignment
}

// Result reports a decoder's run.
type Result struct {
	Breakdown metrics.Breakdown
	Pictures  int
	// Skipped counts sub-pictures that arrived as subscription skip markers:
	// acked and sequenced but neither decoded nor displayed. A decoder whose
	// tile nobody watches spends its session here, at near-zero cost.
	Skipped int
}

// Decoder is one session's decode engine on a tile: its reference chain,
// display reordering and protocol position. The tile's server holds what
// every session shares: the port, the configuration and the per-picture
// scratch.
type Decoder struct {
	srv     *server
	session int
	seq     *mpeg2.SequenceHeader
	rect    wall.Rect
	// rec counts the session's fault-masking interventions; nil under
	// fail-stop.
	rec *metrics.Recovery

	bufs             [3]*mpeg2.PixelBuf // ring of halo-extended windows
	cur, refA, refB  int                // indices into bufs
	display          *mpeg2.PixelBuf
	pendingAnchor    bool
	pendingAnchorIdx int
	// pendingAnchorEmit is false when the held anchor was decoded for
	// reference exactness only (subscription NoEmit): it still gates the
	// reorder window but is discarded instead of displayed.
	pendingAnchorEmit bool
	displayCount      int

	// Out-of-order stash for block bundles from peers that run ahead.
	stash []*subpic.BlockBundle

	// The stream total once a Final marker has been seen (-1 before), and
	// how many of refA/refB hold trustworthy pixels: 0 until the first
	// anchor, 1 once P pictures are decodable, 2 once B pictures are. A
	// respawned incarnation restarts at 0 and conceals until an I picture
	// and then a P restore the chain.
	finalTotal   int
	validAnchors int
	// spStash holds out-of-order sub-pictures keyed by picture index
	// (fault-masking only).
	spStash map[int]stashedSubPic
	// finalsFrom tracks which splitter nodes delivered this session's final
	// marker (resident recovery): only when every splitter's last message is
	// in can a missing tail be declared lost and concealed.
	finalsFrom map[int]bool
	// gapSince is when the resident reorder stash first stalled on the
	// current frontier hole; zero while delivery is in order. A hole older
	// than the per-picture deadline is declared lost and concealed.
	gapSince time.Time

	res     Result
	nextPic int
}

// newDecoder allocates a decoder's buffers for one session of srv's tile. A
// respawned incarnation is then restored with ResumeAt, which starts it at
// the session's emission frontier in concealment.
func newDecoder(srv *server, session int, seq *mpeg2.SequenceHeader, geo *wall.Geometry) *Decoder {
	rect := geo.Tile(srv.cfg.Index)
	halo := HaloForFCode(srv.cfg.MaxFCode)
	x0 := max(rect.X0-halo, 0)
	y0 := max(rect.Y0-halo, 0)
	x1 := min(rect.X1+halo, geo.PicW)
	y1 := min(rect.Y1+halo, geo.PicH)
	// All three windows are live from the start, so MEI SEND/RECV stays
	// structurally valid even while the reference chain is untrusted;
	// validAnchors gates what may actually be decoded.
	d := &Decoder{srv: srv, session: session, seq: seq, rect: rect, cur: 0, refA: 1, refB: 2, finalTotal: -1}
	for i := range d.bufs {
		d.bufs[i] = mpeg2.NewPixelBuf(x0, y0, x1-x0, y1-y0)
	}
	d.display = mpeg2.NewPixelBuf(rect.X0, rect.Y0, rect.W(), rect.H())
	if rh := srv.cfg.Recovery; rh != nil {
		d.rec = rh.Rec(session)
		d.spStash = map[int]stashedSubPic{}
		d.finalsFrom = map[int]bool{}
	}
	return d
}

// Finish ends the session on this tile: it releases what the reorder stash
// still holds past the final total, flushes the display-reorder tail (the
// held anchor frame) and returns the accumulated result.
func (d *Decoder) Finish() *Result {
	d.releaseStash()
	d.flushPending()
	return &d.res
}

// fault is where fail-stop and fault-masking part ways. At each point where
// the protocol finds something wrong, fail-stop returns err and the wall
// aborts; fault-masking gets nil and the caller drops, stashes or conceals.
func (d *Decoder) fault(err error) error {
	if d.masking() {
		return nil
	}
	return err
}

// masking reports whether the tile runs fault masking rather than fail-stop.
func (d *Decoder) masking() bool { return d.srv.cfg.Recovery != nil }

// HandleSubPicture runs the decoder's protocol on one already-received
// sub-picture message: unmarshal, ack to the ANID node, enforce ordering,
// decode, display. done=true reports stream (or session) completion.
func (d *Decoder) HandleSubPicture(msg *cluster.Message) (bool, error) {
	sp := &d.srv.sp
	if err := subpic.UnmarshalInto(sp, msg.Payload); err != nil {
		// Fault masking drops an undecodable sub-picture; the deadline path
		// conceals its picture once later ones arrive.
		cluster.PutSlab(msg.Payload)
		return false, d.fault(fmt.Errorf("tile %d: %w", d.srv.cfg.Index, err))
	}
	if sp.Final {
		// Finals are never acked: in a resident wall the splitters keep
		// running, and a stray ack would inflate the go-ahead count of the
		// next session's pictures. A splitter that ran out of pictures early
		// may deliver its final before the other splitters' last pictures,
		// so the stream is done only once every picture has been handled.
		cluster.PutSlab(msg.Payload)
		d.finalTotal = int(sp.Pic.Index)
		if d.masking() {
			// Under fault masking, once every splitter's final (its last
			// message, by sender FIFO) is in, nothing more is coming: decode
			// what the reorder stash holds and conceal the true holes. A
			// one-level wall's root splits for itself and sends one final.
			d.finalsFrom[msg.From] = true
			if len(d.finalsFrom) >= max(1, d.srv.cfg.Grid.K) {
				d.flushToTotal()
			}
		}
		return d.doneByTotal(), nil
	}
	// Ack to the ANID node: grants the splitter holding the next picture its
	// go-ahead (credit) — the ordering protocol of §4.5. Replays are not
	// acked: the original ack (or the upstream credit timeout) already
	// settled the flow-control ledger.
	if msg.Flags&cluster.FlagReplay == 0 {
		d.res.Breakdown.Timed(metrics.PhaseAck, func() {
			d.send(msg.Tag, &cluster.Message{Kind: cluster.MsgAck, Seq: msg.Seq, Session: msg.Session})
		})
	}
	if idx := int(sp.Pic.Index); idx != d.nextPic {
		if !d.masking() {
			return false, fmt.Errorf("tile %d: picture %d arrived, expected %d (ordering protocol violated)",
				d.srv.cfg.Index, idx, d.nextPic)
		}
		d.park(idx, msg.Payload)
		return false, nil
	}
	if err := d.advance(sp, msg.Payload); err != nil {
		return false, err
	}
	d.drainStash()
	// Fail-stop completes on a final that finds nothing owed (every
	// splitter's final does come); fault masking completes as soon as the
	// known total is reached, since a dead splitter's final may never come.
	return d.masking() && d.doneByTotal(), nil
}

// doneByTotal reports whether every picture of the stream has been handled.
func (d *Decoder) doneByTotal() bool {
	return d.finalTotal >= 0 && d.nextPic >= d.finalTotal
}

// advance consumes sp, the frontier picture, whose pieces alias payload.
func (d *Decoder) advance(sp *subpic.SubPicture, payload []byte) error {
	d.nextPic++
	err := d.decodePicture(sp)
	// Every piece has been decoded into pixels (or concealed), so nothing
	// references the slab any more; a sender can only obtain it again
	// through the pool, i.e. after this call.
	cluster.PutSlab(payload)
	return err
}

// refFor maps a reference selector to a buffer index for the picture type.
func (d *Decoder) refFor(sel subpic.RefSel, picType mpeg2.PictureType) int {
	if picType == mpeg2.PictureB && sel == subpic.RefFwd {
		return d.refA
	}
	return d.refB
}

// decodePicture runs one in-order sub-picture: exchange, decode, display
// and reference rotation. A picture that cannot be decoded — an untrusted
// or missing reference, a decode error — is an error under fail-stop and is
// concealed under fault masking. The exchange halves still run before the
// concealment: peers block on this tile's SENDs whether or not it can
// decode, and expected RECVs must be drained to stay in step, so a
// concealing tile ships its stale reference pixels and keeps the wall live.
func (d *Decoder) decodePicture(sp *subpic.SubPicture) error {
	if sp.Skipped {
		// Subscription skip marker: the ack kept the go-ahead protocol whole
		// and the sequence check kept ordering honest; there is nothing to
		// decode, exchange, display or rotate (the splitter only skips
		// pictures that feed no reference this tile will ever need).
		d.res.Skipped++
		return nil
	}
	b := &d.res.Breakdown
	ph := &d.srv.ph
	sp.Pic.HeaderInto(ph)
	idx := int(sp.Pic.Index)
	ctx := &d.srv.ctx
	bad := ctx.Init(d.seq, ph)
	if needed := anchorsFor(ph.PicType); bad == nil && d.validAnchors < needed {
		bad = fmt.Errorf("tile %d: %s picture %d with %d of its %d reference anchors",
			d.srv.cfg.Index, ph.PicType, idx, d.validAnchors, needed)
	}
	if bad != nil && !d.masking() {
		return bad
	}

	// Serve: execute SEND instructions, batched into one bundle per peer.
	b.Timed(metrics.PhaseServe, func() { d.executeSends(sp, ph.PicType) })

	// Wait: drain expected RECVs into the halo of the reference windows.
	var waitErr error
	b.Timed(metrics.PhaseWaitMB, func() { waitErr = d.drainRecvs(sp, ph.PicType, bad == nil) })
	if waitErr != nil {
		return waitErr
	}

	// Work: decode every piece, then display.
	if bad == nil {
		b.Timed(metrics.PhaseWork, func() { bad = d.decodePieces(ctx, sp) })
	}
	d.res.Pictures++
	b.Pictures++
	if bad != nil {
		if err := d.fault(bad); err != nil {
			return err
		}
		d.concealKnown(idx, ph.PicType)
		return nil
	}

	if !sp.NoEmit {
		b.Timed(metrics.PhaseWork, func() {
			// Display: blit the tile's visible rectangle (models the frame
			// buffer upload the paper counts inside Work). NoEmit pictures —
			// decoded for reference exactness on unwatched tiles — skip it.
			d.display.CopyRect(d.bufs[d.cur], d.rect.X0, d.rect.Y0, d.rect.W(), d.rect.H())
		})
	}

	// Reordering and reference management, as in the serial decoder.
	if ph.PicType == mpeg2.PictureB {
		if !sp.NoEmit {
			d.emitFrame(idx, d.bufs[d.cur])
		}
		return nil
	}
	d.flushPending()
	d.pendingAnchor = true
	d.pendingAnchorEmit = !sp.NoEmit
	d.pendingAnchorIdx = idx
	d.rotate()
	if d.validAnchors < 2 {
		d.validAnchors++
	}
	return nil
}

// anchorsFor is how many trustworthy reference anchors a picture type needs.
func anchorsFor(t mpeg2.PictureType) int {
	switch t {
	case mpeg2.PictureP:
		return 1
	case mpeg2.PictureB:
		return 2
	}
	return 0
}

// rotate advances the three-buffer ring after an anchor: the decoded picture
// becomes the backward reference, the old forward reference is recycled.
func (d *Decoder) rotate() {
	d.cur, d.refA, d.refB = d.refA, d.refB, d.cur
}

// flushPending emits the held anchor, if any. A held NoEmit anchor —
// decoded for reference exactness on an unwatched tile — is released
// without display.
func (d *Decoder) flushPending() {
	if d.pendingAnchor {
		if d.pendingAnchorEmit {
			d.emitFrame(d.pendingAnchorIdx, d.bufs[d.refB])
		}
		d.pendingAnchor = false
	}
}

// emitFrame hands a copy of the tile pixels to the collector. The copy comes
// from the pixel-buffer pool and belongs to the collector, which may Release
// it for reuse once done with it.
func (d *Decoder) emitFrame(picIndex int, buf *mpeg2.PixelBuf) {
	d.displayCount++
	if d.srv.cfg.OnFrame == nil {
		return
	}
	out := mpeg2.AcquirePixelBuf(d.rect.X0, d.rect.Y0, d.rect.W(), d.rect.H())
	out.CopyRect(buf, d.rect.X0, d.rect.Y0, d.rect.W(), d.rect.H())
	d.srv.cfg.OnFrame(d.session, picIndex, d.srv.cfg.Index, out)
}

// marshalBundle serialises bb into a slab (the receiving tile releases it
// after injecting the pixels).
func marshalBundle(bb *subpic.BlockBundle) []byte {
	return bb.AppendTo(cluster.GetSlab(bb.WireSize()))
}

// executeSends ships owed reference macroblocks, one bundle per peer.
func (d *Decoder) executeSends(sp *subpic.SubPicture, picType mpeg2.PictureType) {
	srv := d.srv
	grid := &srv.cfg.Grid
	srv.sendOrder = srv.sendOrder[:0]
	for _, in := range sp.MEI {
		if in.Kind != subpic.MEISend {
			continue
		}
		ref := d.refFor(in.Ref, picType)
		if srv.cfg.UnbatchedSends {
			d.bufs[ref].ExtractMacroblock(int(in.MBX), int(in.MBY), srv.xferPix[:])
			bb := subpic.BlockBundle{
				PicIndex: sp.Pic.Index,
				Cells:    []subpic.BlockCell{{Ref: in.Ref, MBX: in.MBX, MBY: in.MBY}},
				Pixels:   srv.xferPix[:],
			}
			d.send(grid.TileNode(int(in.Peer)), &cluster.Message{
				Kind:    cluster.MsgBlocks,
				Seq:     int(sp.Pic.Index),
				Payload: marshalBundle(&bb),
			})
			continue
		}
		peer := int(in.Peer)
		bu := srv.sendBundles[peer]
		if bu == nil {
			bu = &sendBundle{}
			srv.sendBundles[peer] = bu
		}
		if len(bu.cells) == 0 {
			srv.sendOrder = append(srv.sendOrder, peer)
		}
		bu.cells = append(bu.cells, subpic.BlockCell{Ref: in.Ref, MBX: in.MBX, MBY: in.MBY})
		off := len(bu.pixels)
		if n := off + mpeg2.MacroblockBytes; n <= cap(bu.pixels) {
			bu.pixels = bu.pixels[:n]
		} else {
			bu.pixels = append(bu.pixels, make([]byte, mpeg2.MacroblockBytes)...)
		}
		d.bufs[ref].ExtractMacroblock(int(in.MBX), int(in.MBY), bu.pixels[off:])
	}
	for _, peer := range srv.sendOrder {
		bu := srv.sendBundles[peer]
		bb := subpic.BlockBundle{PicIndex: sp.Pic.Index, Cells: bu.cells, Pixels: bu.pixels}
		d.send(grid.TileNode(peer), &cluster.Message{
			Kind:    cluster.MsgBlocks,
			Seq:     int(sp.Pic.Index),
			Payload: marshalBundle(&bb),
		})
		// The payload copy is on the wire; reset the accumulator for the
		// next picture, keeping its storage.
		bu.cells = bu.cells[:0]
		bu.pixels = bu.pixels[:0]
	}
}

// drainRecvs waits for every expected macroblock, stashing bundles from
// decoders running ahead. Under fault masking the wait is bounded by the
// picture deadline — or skipped when the picture is headed for concealment
// anyway (willDecode=false: a respawned incarnation catching up through
// replayed pictures whose peers have long moved on) — and halo macroblocks
// that are malformed or do not arrive in time are concealed by
// copy-from-reference: the window keeps the previous picture's pixels there.
func (d *Decoder) drainRecvs(sp *subpic.SubPicture, picType mpeg2.PictureType, willDecode bool) error {
	expected := 0
	for _, in := range sp.MEI {
		if in.Kind == subpic.MEIRecv {
			expected++
		}
	}
	if expected == 0 {
		return nil
	}
	idx := int(sp.Pic.Index)
	apply := func(bb *subpic.BlockBundle) error {
		expected -= len(bb.Cells)
		if len(bb.Pixels) != len(bb.Cells)*mpeg2.MacroblockBytes {
			d.concealMBs(len(bb.Cells))
			return d.fault(fmt.Errorf("tile %d: malformed block bundle", d.srv.cfg.Index))
		}
		for i, c := range bb.Cells {
			buf := d.bufs[d.refFor(c.Ref, picType)]
			if !buf.Contains(int(c.MBX)*16, int(c.MBY)*16, 16, 16) {
				d.concealMBs(1)
				if err := d.fault(fmt.Errorf("tile %d: RECV cell (%d,%d) outside halo window [%d,%d %dx%d] — increase MaxFCode",
					d.srv.cfg.Index, c.MBX, c.MBY, buf.X0, buf.Y0, buf.W, buf.H)); err != nil {
					return err
				}
				continue
			}
			buf.InjectMacroblock(int(c.MBX), int(c.MBY), bb.Pixels[i*mpeg2.MacroblockBytes:(i+1)*mpeg2.MacroblockBytes])
		}
		return nil
	}
	// First serve the stash; bundles of pictures already handled are stale.
	keep := d.stash[:0]
	for _, bb := range d.stash {
		switch {
		case int(bb.PicIndex) == idx:
			if err := apply(bb); err != nil {
				return err
			}
		case int(bb.PicIndex) > idx:
			keep = append(keep, bb)
		}
	}
	d.stash = keep
	var deadline time.Duration // zero: fail-stop blocks
	if rh := d.srv.cfg.Recovery; rh != nil {
		deadline = rh.Cfg.PictureDeadline
	}
	for expected > 0 {
		msg, ok, timedOut := d.recvBlocks(deadline, willDecode)
		if timedOut {
			d.concealMBs(expected)
			return nil
		}
		if !ok {
			// Under fault masking the next sub-picture receive reports the
			// abort.
			return d.fault(fmt.Errorf("tile %d: fabric aborted while waiting for reference macroblocks", d.srv.cfg.Index))
		}
		bb := &d.srv.bb
		if err := subpic.UnmarshalBlocksInto(bb, msg.Payload); err != nil {
			cluster.PutSlab(msg.Payload)
			if err := d.fault(err); err != nil {
				return err
			}
			continue
		}
		switch bi := int(bb.PicIndex); {
		case bi == idx:
			err := apply(bb)
			// Pixels were injected into the halo above; the payload they
			// alias can go back to the pool.
			cluster.PutSlab(msg.Payload)
			if err != nil {
				return err
			}
		case bi == idx+1, bi > idx && d.masking():
			// A peer running ahead (by one picture under fail-stop; replays
			// skew peers further under fault masking). The stash outlives
			// this call, so detach it from the scratch bundle; its pixels
			// keep aliasing the payload, which is left to the garbage
			// collector once applied — ahead-bundles are rare.
			d.stash = append(d.stash, detach(bb))
		default:
			// A stale bundle (a replayed picture's) or one too far ahead:
			// this decoder is its only consumer, so the payload is done.
			cluster.PutSlab(msg.Payload)
			if err := d.fault(fmt.Errorf("tile %d: block bundle for picture %d while decoding %d (sync broken)",
				d.srv.cfg.Index, bi, idx)); err != nil {
				return err
			}
		}
	}
	return nil
}

// detach copies a scratch-parsed bundle's cells so it can be stashed past the
// call that parsed it; its pixels keep aliasing the (unreleased) payload.
func detach(bb *subpic.BlockBundle) *subpic.BlockBundle {
	return &subpic.BlockBundle{
		PicIndex: bb.PicIndex,
		Cells:    append([]subpic.BlockCell(nil), bb.Cells...),
		Pixels:   bb.Pixels,
	}
}

// decodePieces decodes every partial slice of the sub-picture into the
// current window of the ring.
func (d *Decoder) decodePieces(ctx *mpeg2.PictureContext, sp *subpic.SubPicture) error {
	var fwd, bwd *mpeg2.PixelBuf
	switch ctx.Pic.PicType {
	case mpeg2.PictureP:
		fwd = d.bufs[d.refB]
	case mpeg2.PictureB:
		fwd, bwd = d.bufs[d.refA], d.bufs[d.refB]
	}
	return d.srv.pieces.Decode(ctx, sp, d.bufs[d.cur], fwd, bwd)
}
