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

	"tiledwall/internal/bits"
	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/recovery"
	"tiledwall/internal/subpic"
	"tiledwall/internal/wall"
)

// Config wires one tile decoder.
type Config struct {
	Seq  *mpeg2.SequenceHeader
	Geo  *wall.Geometry
	Tile int
	// HaloPx is the reference-window margin in pixels, which must cover the
	// maximum motion vector reach (derive it with HaloForFCode).
	HaloPx int
	// TileNode maps a tile index to its fabric node id (for peer exchanges).
	TileNode func(tile int) int
	// OnFrame, when non-nil, receives a copy of the tile's decoded pixels
	// (outside the measured path; used for verification). picIdx is the
	// picture's decode-order index; frames arrive in display order.
	OnFrame func(picIdx int, tile int, buf *mpeg2.PixelBuf)

	// UnbatchedSends ships every exchanged macroblock as its own message
	// instead of one bundle per peer per picture. Ablation knob: quantifies
	// how much the paper's batched pre-calculated exchange saves in message
	// count (per-message overhead dominated GM-era networks).
	UnbatchedSends bool

	// Pooled recycles decode state across pictures: message slabs return to
	// the cluster slab pool once fully consumed, outgoing bundles are
	// serialised into pooled slabs, and the picture context, reconstructor,
	// slice decoder and bit reader are reused in place, making steady-state
	// decoding allocation-free per macroblock. Composes with Recovery: every
	// holder that outlives the consumer (the reorder stash, upstream
	// retainers) carries its own slab reference, so the last release — not a
	// fixed "final consumer" — recycles the payload.
	Pooled bool

	// Recovery, when non-nil, switches the decoder from fail-stop to
	// fault-masking behaviour: sub-pictures may arrive out of order (reorder
	// stash), duplicated (dropped), or not at all (concealed after the
	// per-picture deadline); a respawned incarnation resumes at its emission
	// frontier (ResumeAt) in freeze-last-frame concealment until an I
	// picture re-anchors its reference chain.
	Recovery *recovery.DecoderHooks
}

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

// Decoder is the per-tile decode engine, usable standalone (one-level
// system tests) or inside Run.
type Decoder struct {
	cfg  Config
	rect wall.Rect
	node cluster.Net

	bufs             []*mpeg2.PixelBuf // ring of 3 halo-extended windows
	cur, refA, refB  int               // indices into bufs (-1 = none)
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

	// Recovery mode state: out-of-order sub-pictures keyed by picture
	// index, the stream total once a Final marker has been seen (-1
	// before), and how many of refA/refB hold trustworthy pixels — a
	// respawned incarnation starts at 0 and conceals until I (1 anchor,
	// P decodable) then P (2, B decodable) restore the chain.
	spStash      map[int]stashedSubPic
	finalTotal   int
	validAnchors int
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

	// Reusable per-picture state for cfg.Pooled mode. The zero values work
	// unpooled too; pooling only changes who allocates.
	spScratch  subpic.SubPicture
	phScratch  mpeg2.PictureHeader
	ctxScratch mpeg2.PictureContext
	rcScratch  *mpeg2.Reconstructor
	sdScratch  mpeg2.SliceDecoder
	brScratch  bits.Reader
	bbScratch  subpic.BlockBundle
	xferPix    [mpeg2.MacroblockBytes]byte

	sendOrder   []int
	sendBundles map[int]*sendBundle
}

// sendBundle accumulates one outgoing per-peer exchange bundle; pooled mode
// keeps them across pictures so the cells and pixels grow once and stick.
type sendBundle struct {
	cells  []subpic.BlockCell
	pixels []byte
}

// NewDecoder allocates the decoder's buffers. A respawned incarnation is
// restored by the serving layer with ResumeAt, which starts it at the
// session's emission frontier in concealment.
func NewDecoder(node cluster.Net, cfg Config) *Decoder {
	rect := cfg.Geo.Tile(cfg.Tile)
	halo := cfg.HaloPx
	x0 := rect.X0 - halo
	y0 := rect.Y0 - halo
	x1 := rect.X1 + halo
	y1 := rect.Y1 + halo
	if x0 < 0 {
		x0 = 0
	}
	if y0 < 0 {
		y0 = 0
	}
	if x1 > cfg.Geo.PicW {
		x1 = cfg.Geo.PicW
	}
	if y1 > cfg.Geo.PicH {
		y1 = cfg.Geo.PicH
	}
	d := &Decoder{cfg: cfg, rect: rect, node: node, cur: 0, refA: -1, refB: -1, finalTotal: -1}
	d.rcScratch = mpeg2.NewReconstructor(nil)
	for i := 0; i < 3; i++ {
		d.bufs = append(d.bufs, mpeg2.NewPixelBuf(x0, y0, x1-x0, y1-y0))
	}
	d.display = mpeg2.NewPixelBuf(rect.X0, rect.Y0, rect.W(), rect.H())
	if rh := cfg.Recovery; rh != nil {
		rh.Cfg = rh.Cfg.WithDefaults()
		d.spStash = map[int]stashedSubPic{}
		// Recovery mode keeps all three windows live from the start so MEI
		// SEND/RECV stays structurally valid even while the reference chain
		// is untrusted; validAnchors gates what may actually be decoded.
		d.cur, d.refA, d.refB = 0, 1, 2
	}
	return d
}

// Finish flushes the display-reorder tail (the held anchor frame) and
// returns the accumulated result. Run calls it after the Final marker; a
// resident server calls it when the decoder's session completes.
func (d *Decoder) Finish() *Result {
	if d.pendingAnchor {
		if d.pendingAnchorEmit {
			d.emitFrame(d.pendingAnchorIdx, d.bufs[d.refB])
		}
		d.pendingAnchor = false
	}
	return &d.res
}

// Breakdown exposes the decoder's phase accounting so a resident server,
// which performs the fabric receive on the decoder's behalf, can attribute
// the receive wait to the session that the arriving message belongs to.
func (d *Decoder) Breakdown() *metrics.Breakdown { return &d.res.Breakdown }

// HandleSubPicture runs the strict fail-stop protocol on one already-received
// sub-picture message: ack to the ANID node, unmarshal, enforce ordering,
// decode, display. done=true reports stream (or session) completion — a
// Final marker with no pictures still owed.
func (d *Decoder) HandleSubPicture(msg *cluster.Message) (bool, error) {
	b := &d.res.Breakdown
	// Ack to the ANID node: grants the splitter holding the next picture
	// its go-ahead (credit) — the ordering protocol of §4.5. Session-final
	// control messages are never acked: in a resident wall the splitters
	// keep running, and a stray ack would inflate the go-ahead count of the
	// next session's pictures. (Unflagged Final markers — standalone
	// single-decoder tests — keep their harmless ack.)
	if msg.Flags&cluster.FlagSessionFinal == 0 {
		b.Timed(metrics.PhaseAck, func() {
			d.node.Send(msg.Tag, &cluster.Message{Kind: cluster.MsgAck, Seq: msg.Seq, Session: msg.Session})
		})
	}
	var sp *subpic.SubPicture
	if d.cfg.Pooled {
		sp = &d.spScratch
		if err := subpic.UnmarshalInto(sp, msg.Payload); err != nil {
			return false, fmt.Errorf("tile %d: %w", d.cfg.Tile, err)
		}
	} else {
		var err error
		sp, err = subpic.Unmarshal(msg.Payload)
		if err != nil {
			return false, fmt.Errorf("tile %d: %w", d.cfg.Tile, err)
		}
	}
	if sp.Final {
		if d.cfg.Pooled {
			cluster.PutSlab(msg.Payload)
		}
		// A splitter that ran out of pictures early may deliver its end
		// marker before the last pictures from the other splitters; only
		// exit once every picture has been decoded.
		if total := int(sp.Pic.Index); d.nextPic < total {
			return false, nil
		}
		return true, nil
	}
	if int(sp.Pic.Index) != d.nextPic {
		return false, fmt.Errorf("tile %d: picture %d arrived, expected %d (ordering protocol violated)",
			d.cfg.Tile, sp.Pic.Index, d.nextPic)
	}
	d.nextPic++
	if sp.Skipped {
		// Subscription skip marker: the ack above kept the go-ahead protocol
		// whole and the sequence check kept ordering honest; there is nothing
		// to decode, display, or rotate (the splitter only skips pictures
		// that feed no reference this tile will ever need).
		if d.cfg.Pooled {
			cluster.PutSlab(msg.Payload)
		}
		d.res.Skipped++
		return false, nil
	}
	if err := d.decodePicture(sp); err != nil {
		return false, err
	}
	if d.cfg.Pooled {
		// Every piece payload (which aliases the message) has been decoded
		// into pixels, so nothing references the slab anymore; a sender can
		// only obtain it again through the pool, i.e. after this call.
		cluster.PutSlab(msg.Payload)
	}
	d.res.Pictures++
	b.Pictures++
	return false, nil
}

// refFor maps a reference selector to a buffer index for the picture type.
func (d *Decoder) refFor(sel subpic.RefSel, picType mpeg2.PictureType) int {
	if picType == mpeg2.PictureB && sel == subpic.RefFwd {
		return d.refA
	}
	return d.refB
}

func (d *Decoder) decodePicture(sp *subpic.SubPicture) error {
	b := &d.res.Breakdown
	ph := &d.phScratch
	sp.Pic.HeaderInto(ph)
	ctx := &d.ctxScratch
	if err := ctx.Init(d.cfg.Seq, ph); err != nil {
		return err
	}

	// Serve: execute SEND instructions, batched into one bundle per peer.
	var serveErr error
	b.Timed(metrics.PhaseServe, func() { serveErr = d.executeSends(sp, ph.PicType) })
	if serveErr != nil {
		return serveErr
	}

	// Wait: drain expected RECVs into the halo of the reference windows.
	var waitErr error
	b.Timed(metrics.PhaseWaitMB, func() { waitErr = d.drainRecvs(sp, ph.PicType) })
	if waitErr != nil {
		return waitErr
	}

	// Work: decode every piece, then display.
	var workErr error
	b.Timed(metrics.PhaseWork, func() { workErr = d.decodePieces(ctx, sp) })
	if workErr != nil {
		return workErr
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
			d.emitFrame(int(sp.Pic.Index), d.bufs[d.cur])
		}
	} else {
		if d.pendingAnchor && d.pendingAnchorEmit {
			d.emitFrame(d.pendingAnchorIdx, d.bufs[d.refB])
		}
		d.pendingAnchor = true
		d.pendingAnchorEmit = !sp.NoEmit
		d.pendingAnchorIdx = int(sp.Pic.Index)
		// Rotate: the old refA buffer becomes the next current buffer.
		old := d.refA
		d.refA = d.refB
		d.refB = d.cur
		if old >= 0 {
			d.cur = old
		} else {
			for i := 0; i < 3; i++ {
				if i != d.refA && i != d.refB {
					d.cur = i
				}
			}
		}
	}
	return nil
}

// emitFrame hands a copy of the tile pixels to the collector. In pooled mode
// the copy comes from the pixel-buffer pool; a collector done with a frame
// may Release it for reuse.
func (d *Decoder) emitFrame(picIndex int, buf *mpeg2.PixelBuf) {
	d.displayCount++
	if d.cfg.OnFrame == nil {
		return
	}
	var out *mpeg2.PixelBuf
	if d.cfg.Pooled {
		out = mpeg2.AcquirePixelBuf(d.rect.X0, d.rect.Y0, d.rect.W(), d.rect.H())
	} else {
		out = mpeg2.NewPixelBuf(d.rect.X0, d.rect.Y0, d.rect.W(), d.rect.H())
	}
	out.CopyRect(buf, d.rect.X0, d.rect.Y0, d.rect.W(), d.rect.H())
	d.cfg.OnFrame(picIndex, d.cfg.Tile, out)
}

// marshalBundle serialises bb into a fresh buffer, or a pooled slab when
// cfg.Pooled (the receiving tile releases it after injecting the pixels).
func (d *Decoder) marshalBundle(bb *subpic.BlockBundle) []byte {
	if d.cfg.Pooled {
		return bb.AppendTo(cluster.GetSlab(bb.WireSize()))
	}
	return bb.Marshal()
}

// executeSends ships owed reference macroblocks, one bundle per peer.
func (d *Decoder) executeSends(sp *subpic.SubPicture, picType mpeg2.PictureType) error {
	if d.sendBundles == nil {
		d.sendBundles = map[int]*sendBundle{}
	}
	d.sendOrder = d.sendOrder[:0]
	for _, in := range sp.MEI {
		if in.Kind != subpic.MEISend {
			continue
		}
		ref := d.refFor(in.Ref, picType)
		if ref < 0 {
			return fmt.Errorf("tile %d: SEND against missing reference (pic %d)", d.cfg.Tile, sp.Pic.Index)
		}
		if d.cfg.UnbatchedSends {
			d.bufs[ref].ExtractMacroblock(int(in.MBX), int(in.MBY), d.xferPix[:])
			bb := subpic.BlockBundle{
				PicIndex: sp.Pic.Index,
				Cells:    []subpic.BlockCell{{Ref: in.Ref, MBX: in.MBX, MBY: in.MBY}},
				Pixels:   d.xferPix[:],
			}
			d.node.Send(d.cfg.TileNode(int(in.Peer)), &cluster.Message{
				Kind:    cluster.MsgBlocks,
				Seq:     int(sp.Pic.Index),
				Payload: d.marshalBundle(&bb),
			})
			continue
		}
		peer := int(in.Peer)
		bu := d.sendBundles[peer]
		if bu == nil {
			bu = &sendBundle{}
			d.sendBundles[peer] = bu
		}
		if len(bu.cells) == 0 {
			d.sendOrder = append(d.sendOrder, peer)
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
	for _, peer := range d.sendOrder {
		bu := d.sendBundles[peer]
		bb := subpic.BlockBundle{PicIndex: sp.Pic.Index, Cells: bu.cells, Pixels: bu.pixels}
		d.node.Send(d.cfg.TileNode(peer), &cluster.Message{
			Kind:    cluster.MsgBlocks,
			Seq:     int(sp.Pic.Index),
			Payload: d.marshalBundle(&bb),
		})
		// The payload copy is on the wire; reset the accumulator for the
		// next picture, keeping its storage.
		bu.cells = bu.cells[:0]
		bu.pixels = bu.pixels[:0]
	}
	return nil
}

// drainRecvs waits for every expected macroblock, stashing bundles from
// decoders running one picture ahead.
func (d *Decoder) drainRecvs(sp *subpic.SubPicture, picType mpeg2.PictureType) error {
	expected := 0
	for _, in := range sp.MEI {
		if in.Kind == subpic.MEIRecv {
			expected++
		}
	}
	if expected == 0 {
		return nil
	}
	apply := func(bb *subpic.BlockBundle) error {
		if len(bb.Pixels) != len(bb.Cells)*mpeg2.MacroblockBytes {
			return fmt.Errorf("tile %d: malformed block bundle", d.cfg.Tile)
		}
		for i, c := range bb.Cells {
			ref := d.refFor(c.Ref, picType)
			if ref < 0 {
				return fmt.Errorf("tile %d: RECV into missing reference", d.cfg.Tile)
			}
			buf := d.bufs[ref]
			if !buf.Contains(int(c.MBX)*16, int(c.MBY)*16, 16, 16) {
				return fmt.Errorf("tile %d: RECV cell (%d,%d) outside halo window [%d,%d %dx%d] — increase HaloPx",
					d.cfg.Tile, c.MBX, c.MBY, buf.X0, buf.Y0, buf.W, buf.H)
			}
			buf.InjectMacroblock(int(c.MBX), int(c.MBY), bb.Pixels[i*mpeg2.MacroblockBytes:(i+1)*mpeg2.MacroblockBytes])
		}
		expected -= len(bb.Cells)
		return nil
	}
	// First serve the stash.
	keep := d.stash[:0]
	for _, bb := range d.stash {
		if int(bb.PicIndex) == int(sp.Pic.Index) {
			if err := apply(bb); err != nil {
				return err
			}
		} else {
			keep = append(keep, bb)
		}
	}
	d.stash = keep
	for expected > 0 {
		msg := d.node.Recv(cluster.MsgBlocks)
		if msg == nil {
			return fmt.Errorf("tile %d: fabric aborted while waiting for reference macroblocks", d.cfg.Tile)
		}
		var bb *subpic.BlockBundle
		if d.cfg.Pooled {
			bb = &d.bbScratch
			if err := subpic.UnmarshalBlocksInto(bb, msg.Payload); err != nil {
				return err
			}
		} else {
			var err error
			bb, err = subpic.UnmarshalBlocks(msg.Payload)
			if err != nil {
				return err
			}
		}
		switch {
		case int(bb.PicIndex) == int(sp.Pic.Index):
			if err := apply(bb); err != nil {
				return err
			}
			if d.cfg.Pooled {
				// Pixels were injected into the halo above; the payload they
				// alias can go back to the pool.
				cluster.PutSlab(msg.Payload)
			}
		case int(bb.PicIndex) == int(sp.Pic.Index)+1:
			if d.cfg.Pooled {
				// The stash outlives this call, so detach it from the scratch
				// bundle; its pixels keep aliasing the (unreleased) payload.
				clone := &subpic.BlockBundle{
					PicIndex: bb.PicIndex,
					Cells:    append([]subpic.BlockCell(nil), bb.Cells...),
					Pixels:   bb.Pixels,
				}
				d.stash = append(d.stash, clone)
			} else {
				d.stash = append(d.stash, bb)
			}
		default:
			return fmt.Errorf("tile %d: block bundle for picture %d while decoding %d (sync broken)",
				d.cfg.Tile, bb.PicIndex, sp.Pic.Index)
		}
	}
	return nil
}

// decodePieces decodes every partial slice of the sub-picture.
func (d *Decoder) decodePieces(ctx *mpeg2.PictureContext, sp *subpic.SubPicture) error {
	picType := ctx.Pic.PicType
	rc := d.rcScratch
	rc.Reset(ctx.Pic)
	cur := d.bufs[d.cur]
	var fwd, bwd *mpeg2.PixelBuf
	switch picType {
	case mpeg2.PictureP:
		if d.refB < 0 {
			return fmt.Errorf("tile %d: P picture before any anchor", d.cfg.Tile)
		}
		fwd = d.bufs[d.refB]
	case mpeg2.PictureB:
		if d.refA < 0 || d.refB < 0 {
			return fmt.Errorf("tile %d: B picture without two anchors", d.cfg.Tile)
		}
		fwd, bwd = d.bufs[d.refA], d.bufs[d.refB]
	}

	// Reconstruction writes into the window unchecked (the splitter only
	// routes owned macroblocks here), so a malformed SPH must be rejected
	// before its addresses index the tile buffer.
	inWindow := func(addr int) bool {
		if addr < 0 || addr >= ctx.MBW*ctx.MBH {
			return false
		}
		return cur.Contains(addr%ctx.MBW*16, addr/ctx.MBW*16, 16, 16)
	}
	skipped := func(addr int, prev mpeg2.MotionInfo) error {
		if !inWindow(addr) {
			return fmt.Errorf("tile %d: skipped macroblock %d outside tile window (corrupt SPH)", d.cfg.Tile, addr)
		}
		return rc.Skipped(cur, fwd, bwd, addr%ctx.MBW, addr/ctx.MBW, prev)
	}

	for pi := range sp.Pieces {
		p := &sp.Pieces[pi]
		if p.FirstAddr < 0 || int(p.LeadingSkip) > int(p.FirstAddr) || p.CodedCount < 0 {
			return fmt.Errorf("tile %d pic %d piece %d: malformed SPH (first %d, lead %d, coded %d)",
				d.cfg.Tile, sp.Pic.Index, pi, p.FirstAddr, p.LeadingSkip, p.CodedCount)
		}
		// Leading skipped macroblocks inherit the SPH's previous-macroblock
		// motion (the predecessor may live on another tile).
		for k := int(p.LeadingSkip); k > 0; k-- {
			if err := skipped(int(p.FirstAddr)-k, p.Prev); err != nil {
				return fmt.Errorf("tile %d pic %d: leading skip: %w", d.cfg.Tile, sp.Pic.Index, err)
			}
		}
		if p.CodedCount == 0 {
			continue
		}
		r := &d.brScratch
		r.Reset(p.Payload)
		r.Skip(int(p.SkipBits))
		sd := &d.sdScratch
		sd.ResetPartial(ctx, r, p.State(), p.Prev, int(p.FirstAddr), int(p.CodedCount))
		var mb mpeg2.Macroblock
		lastAddr := int(p.FirstAddr)
		for {
			ok, err := sd.Next(&mb)
			if err != nil {
				return fmt.Errorf("tile %d pic %d piece %d: %w", d.cfg.Tile, sp.Pic.Index, pi, err)
			}
			if !ok {
				break
			}
			for k := mb.Addr - mb.SkippedBefore; k < mb.Addr; k++ {
				if err := skipped(k, mb.PrevMotion); err != nil {
					return fmt.Errorf("tile %d pic %d: interior skip: %w", d.cfg.Tile, sp.Pic.Index, err)
				}
			}
			if !inWindow(mb.Addr) {
				return fmt.Errorf("tile %d pic %d: macroblock %d outside tile window (corrupt SPH)",
					d.cfg.Tile, sp.Pic.Index, mb.Addr)
			}
			if err := rc.Macroblock(cur, fwd, bwd, &mb, ctx.MBW); err != nil {
				return fmt.Errorf("tile %d pic %d addr %d: %w", d.cfg.Tile, sp.Pic.Index, mb.Addr, err)
			}
			lastAddr = mb.Addr
		}
		// Trailing skipped macroblocks inherit the last coded macroblock's
		// motion, which this decoder just parsed.
		for k := 1; k <= int(p.TrailingSkip); k++ {
			if err := skipped(lastAddr+k, sd.PrevMotion()); err != nil {
				return fmt.Errorf("tile %d pic %d: trailing skip: %w", d.cfg.Tile, sp.Pic.Index, err)
			}
		}
	}
	return nil
}
