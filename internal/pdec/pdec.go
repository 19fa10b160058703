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

	// fwd and bwd are the halo-extended anchor windows: the older and the
	// newer reference, the forward and backward references of a B picture.
	// An I or P picture decodes into fwd, whose picture is already emitted
	// and no longer referenced, and the two then swap. bpic is the B
	// pictures' target: they are never references, so it covers only the
	// tile's rectangle, with no halo.
	fwd, bwd, bpic *mpeg2.PixelBuf
	// display is the freeze frame concealment emits: the last decoded tile
	// pixels, kept under fault masking only (nil under fail-stop).
	display *mpeg2.PixelBuf
	// The held anchor: decoded, not yet shown, because a picture decoded
	// later may still be displayed before it (the display-order release
	// rule: showsAtOnce, afterB). pendingAnchorEmit is false when it was
	// decoded for reference exactness only (subscription NoEmit): it is
	// then discarded instead of displayed.
	pendingAnchor     bool
	pendingAnchorIdx  int
	pendingAnchorTR   int
	pendingAnchorEmit bool
	// prevAnchorTR is the temporal reference of the last decoded anchor,
	// 1023 before the session's first one (so an I at tr 0 follows it at
	// once), and trUnknown after an I-only picture or once a concealment or
	// a resume has broken the chain of known anchors.
	prevAnchorTR int
	displayCount int

	// Out-of-order stash for block bundles from peers that run ahead.
	stash []*subpic.BlockBundle

	// The stream total once a Final marker has been seen (-1 before), and
	// how many of fwd/bwd hold trustworthy pixels: 0 until the first
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
	// Both anchor windows are live from the start, so MEI SEND/RECV stays
	// structurally valid even while the reference chain is untrusted;
	// validAnchors gates what may actually be decoded. Tile rectangles are
	// macroblock-aligned and the splitter routes a tile only the
	// macroblocks that overlap it, so the B target holds every macroblock
	// the tile decodes.
	d := &Decoder{srv: srv, session: session, seq: seq, rect: rect, finalTotal: -1, prevAnchorTR: trModulus - 1,
		fwd:  mpeg2.NewPixelBuf(x0, y0, x1-x0, y1-y0),
		bwd:  mpeg2.NewPixelBuf(x0, y0, x1-x0, y1-y0),
		bpic: mpeg2.NewPixelBuf(rect.X0, rect.Y0, rect.W(), rect.H()),
	}
	if rh := srv.cfg.Recovery; rh != nil {
		d.display = mpeg2.NewPixelBuf(rect.X0, rect.Y0, rect.W(), rect.H())
		d.rec = rh.Rec(session)
		d.spStash = map[int]stashedSubPic{}
		d.finalsFrom = map[int]bool{}
	}
	return d
}

// Finish ends the session on this tile: it releases what the reorder stash
// still holds past the final total, flushes the display-reorder tail (the
// held anchor frame) and returns a copy of the accumulated result, so a
// caller that keeps it does not keep the session's windows.
func (d *Decoder) Finish() *Result {
	d.releaseStash()
	d.flushPending()
	res := d.res
	return &res
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
		// conceals its picture once later ones arrive. It still acks a data
		// sub-picture, so the splitter holding the next picture is not left
		// waiting out its credit timeout; finals carry Seq -1 and never ack.
		cluster.PutSlab(msg.Payload)
		if d.masking() && msg.Seq >= 0 {
			d.ack(msg)
		}
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
	d.ack(msg)
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

// ack acks a data sub-picture to its ANID node: it grants the splitter
// holding the next picture its go-ahead (credit) — the ordering protocol of
// §4.5. Replays are not acked: the original ack (or the upstream credit
// timeout) already settled the flow-control ledger.
func (d *Decoder) ack(msg *cluster.Message) {
	if msg.Flags&cluster.FlagReplay != 0 {
		return
	}
	d.res.Breakdown.Timed(metrics.PhaseAck, func() {
		d.send(msg.Tag, &cluster.Message{Kind: cluster.MsgAck, Seq: msg.Seq, Session: msg.Session})
	})
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

// refFor maps a reference selector to its anchor window for the picture
// type: a P picture's one reference is the newer anchor.
func (d *Decoder) refFor(sel subpic.RefSel, picType mpeg2.PictureType) *mpeg2.PixelBuf {
	if picType == mpeg2.PictureB && sel == subpic.RefFwd {
		return d.fwd
	}
	return d.bwd
}

// target is the window a picture of type t decodes into: the B target, or
// the older anchor for an I or P picture.
func (d *Decoder) target(t mpeg2.PictureType) *mpeg2.PixelBuf {
	if t == mpeg2.PictureB {
		return d.bpic
	}
	return d.fwd
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
		// pictures that feed no reference this tile will ever need). The
		// marker still carries the picture header, so display order still
		// counts it; the marker of a picture that failed to split carries
		// no type, and leaves the previous anchor unknown.
		d.res.Skipped++
		switch tr := int(sp.Pic.TemporalRef) & (trModulus - 1); mpeg2.PictureType(sp.Pic.PicType) {
		case mpeg2.PictureB:
			d.afterB(tr)
		case mpeg2.PictureI, mpeg2.PictureP:
			d.prevAnchorTR = anchorTR(&sp.Pic, tr)
		default:
			d.prevAnchorTR = trUnknown
		}
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

	cur := d.target(ph.PicType)
	if d.display != nil && !sp.NoEmit {
		b.Timed(metrics.PhaseWork, func() {
			// Fault masking keeps the freeze frame: blit the tile's visible
			// rectangle, the frame buffer upload the paper counts inside
			// Work. NoEmit pictures — decoded for reference exactness on
			// unwatched tiles — skip it.
			d.display.CopyRect(cur, d.rect.X0, d.rect.Y0, d.rect.W(), d.rect.H())
		})
	}

	// Display reordering and reference management.
	tr := ph.TemporalRef & (trModulus - 1)
	if ph.PicType == mpeg2.PictureB {
		if !sp.NoEmit {
			d.emitFrame(idx, cur)
		}
		d.afterB(tr)
		return nil
	}
	atOnce := sp.Pic.Flags&subpic.FlagIOnly != 0 || d.showsAtOnce(ph.PicType, tr)
	d.flushPending()
	d.pendingAnchor = true
	d.pendingAnchorEmit = !sp.NoEmit
	d.pendingAnchorIdx = idx
	d.pendingAnchorTR = tr
	d.prevAnchorTR = anchorTR(&sp.Pic, tr)
	d.rotate()
	if d.validAnchors < 2 {
		d.validAnchors++
	}
	if atOnce {
		d.flushPending()
	}
	return nil
}

// temporal_reference is a 10-bit counter; trUnknown is the previous-anchor
// state that holds no value of it.
const (
	trModulus = 1024
	trUnknown = -1
)

// trAfter returns how far temporal reference b lies after a, modulo the
// counter's wrap.
func trAfter(a, b int) int { return (b - a) & (trModulus - 1) }

// The display-order release rule. The serial decoder holds every I and P
// picture until the next one is decoded; a tile shows its anchor as soon as
// temporal_reference proves that no picture decoded later is displayed
// before it, and otherwise holds it as the serial decoder does, until the
// next anchor, a concealment or Finish. Emission order is the serial
// decoder's either way; only the time changes (DESIGN.md §11).
//
// An I picture shipped in I-only trick play (subpic.FlagIOnly) is shown at
// once: the root drops the rest of its GOP. Its tr says nothing about the
// first I after a switch back to another mode, whose leading B pictures
// are still to come, so it leaves the previous anchor unknown (anchorTR).
//
// showsAtOnce reports whether an anchor of type t with temporal reference
// tr, about to be decoded after the previous anchor, is shown at once:
//   - an I picture with tr 0 restarts display order: nothing of its GOP is
//     shown before it. But a stream that does not restart
//     temporal_reference at each GOP (this repository's encoder writes the
//     display index mod 1024) reaches tr 0 by a wrap, and its B pictures
//     numbered from the previous anchor's tr up to 1023 still follow. As in
//     serial-number arithmetic, 0 is taken for a wrap when it lies at most
//     half the counter after the previous anchor's tr, and then only an
//     anchor at 1023 (or 0) leaves no value in between. Before the
//     session's first anchor the previous one reads 1023; after a
//     concealment or a resume it is unknown, and the I is held;
//   - a P picture whose tr is one more than the previous anchor's has no B
//     picture between them: its previous anchor is always in its own GOP.
func (d *Decoder) showsAtOnce(t mpeg2.PictureType, tr int) bool {
	switch prev := d.prevAnchorTR; t {
	case mpeg2.PictureI:
		gap := trAfter(prev, 0)
		return prev != trUnknown && tr == 0 && (gap <= 1 || gap > trModulus/2)
	case mpeg2.PictureP:
		return prev != trUnknown && trAfter(prev, tr) == 1
	}
	return false
}

// anchorTR is the previous-anchor state an anchor with picture info p and
// temporal reference tr leaves behind.
func anchorTR(p *subpic.PicInfo, tr int) int {
	if p.Flags&subpic.FlagIOnly != 0 {
		return trUnknown
	}
	return tr
}

// afterB applies the release rule to a handled B picture (decoded, decoded
// NoEmit, or skip-marked with its picture header) with temporal reference
// tr: the B pictures between two anchors come in display order, so the one
// with the held anchor's tr − 1 is the last shown before it.
func (d *Decoder) afterB(tr int) {
	if d.pendingAnchor && trAfter(tr, d.pendingAnchorTR) == 1 {
		d.flushPending()
	}
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

// rotate swaps the anchor windows after an anchor: the picture just decoded
// into fwd becomes the backward reference, the old backward reference the
// forward one.
func (d *Decoder) rotate() {
	d.fwd, d.bwd = d.bwd, d.fwd
}

// flushPending emits the held anchor, if any. A held NoEmit anchor —
// decoded for reference exactness on an unwatched tile — is released
// without display.
func (d *Decoder) flushPending() {
	if d.pendingAnchor {
		if d.pendingAnchorEmit {
			d.emitFrame(d.pendingAnchorIdx, d.bwd)
		}
		d.pendingAnchor = false
	}
}

// emitFrame hands a copy of the tile pixels to the collector. The copy comes
// from the pixel-buffer pool and belongs to the collector, which may Release
// it for reuse once done with it. Under fail-stop the copy is the frame
// buffer upload, timed in Work; with no collector it goes into the server's
// upload frame, so Work counts one upload either way. Under fault masking
// the freeze-frame blit is the upload, and the copy is made only for a
// collector.
func (d *Decoder) emitFrame(picIndex int, buf *mpeg2.PixelBuf) {
	d.displayCount++
	onFrame := d.srv.cfg.OnFrame
	var out *mpeg2.PixelBuf
	switch {
	case onFrame != nil:
		out = mpeg2.AcquirePixelBuf(d.rect.X0, d.rect.Y0, d.rect.W(), d.rect.H())
	case d.display == nil:
		out = d.srv.uploadFrame(d.rect)
	default:
		return
	}
	upload := func() { out.CopyRect(buf, d.rect.X0, d.rect.Y0, d.rect.W(), d.rect.H()) }
	if d.display == nil {
		d.res.Breakdown.Timed(metrics.PhaseWork, upload)
	} else {
		upload()
	}
	if onFrame != nil {
		onFrame(d.session, picIndex, d.srv.cfg.Index, out)
	}
}

// executeSends ships owed reference macroblocks: one bundle per peer, or
// one per macroblock under UnbatchedSends. Each bundle is built in the slab
// it is sent in (the receiving tile releases it after injecting the
// pixels): the cells are counted per bundle first, then every macroblock is
// extracted straight into its bundle's pixel area.
func (d *Decoder) executeSends(sp *subpic.SubPicture, picType mpeg2.PictureType) {
	srv := d.srv
	bs := srv.bundles[:0]
	for _, in := range sp.MEI {
		if in.Kind == subpic.MEISend {
			i := srv.bundleFor(bs, in.Peer, len(bs))
			if i == len(bs) {
				bs = append(bs, outBundle{peer: in.Peer})
			}
			bs[i].n++
		}
	}
	for i := range bs {
		bs[i].wire = subpic.PutBundleHeader(cluster.GetSlab(subpic.BundleSize(bs[i].n)), sp.Pic.Index, bs[i].n)
	}
	next := 0
	for _, in := range sp.MEI {
		if in.Kind == subpic.MEISend {
			b := &bs[srv.bundleFor(bs, in.Peer, next)]
			next++
			pix := subpic.PutCell(b.wire, b.n, b.put, subpic.BlockCell{Ref: in.Ref, MBX: in.MBX, MBY: in.MBY})
			d.refFor(in.Ref, picType).ExtractMacroblock(int(in.MBX), int(in.MBY), pix)
			b.put++
		}
	}
	for i := range bs {
		d.send(srv.cfg.Grid.TileNode(int(bs[i].peer)), &cluster.Message{
			Kind:    cluster.MsgBlocks,
			Seq:     int(sp.Pic.Index),
			Payload: bs[i].wire,
		})
		bs[i] = outBundle{}
	}
	srv.bundles = bs[:0]
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
			buf := d.refFor(c.Ref, picType)
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

// decodePieces decodes every partial slice of the sub-picture into its
// picture type's target window.
func (d *Decoder) decodePieces(ctx *mpeg2.PictureContext, sp *subpic.SubPicture) error {
	var fwd, bwd *mpeg2.PixelBuf
	switch ctx.Pic.PicType {
	case mpeg2.PictureP:
		fwd = d.bwd
	case mpeg2.PictureB:
		fwd, bwd = d.fwd, d.bwd
	}
	return d.srv.pieces.Decode(ctx, sp, d.target(ctx.Pic.PicType), fwd, bwd)
}
