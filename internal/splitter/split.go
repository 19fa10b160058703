// Package splitter implements the two splitter levels of the paper's
// hierarchical decoder: the root splitter that scans the stream at picture
// level (start codes only) and the second-level splitter that performs full
// variable-length parsing, sorts macroblocks into per-tile sub-pictures with
// State Propagation Headers, and pre-calculates the macroblock exchange
// instructions (MEI) that replace on-demand remote fetches (§4.2-§4.3).
// It also provides the coarse-granularity baseline splitters of Table 1.
//
// The second-level splitter is slice-parallel: MPEG-2 slices are
// independently parseable (each slice header resets the DC and motion vector
// predictors and the quantiser scale, ISO 13818-2 §6.3.16), so Split can fan
// a picture's slices out to a worker pool and merge the per-slice results in
// slice order. The merged output is byte-identical to a serial split — the
// paper's ts term shrinks with core count instead of requiring more splitter
// PCs (DESIGN.md §10).
package splitter

import (
	"fmt"
	"runtime"
	"time"

	"tiledwall/internal/bits"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/subpic"
	"tiledwall/internal/wall"
)

// SplitOptions tunes an MBSplitter beyond its stream/geometry pair.
type SplitOptions struct {
	// Workers is the slice-parallel fan-out inside Split: 0 selects
	// GOMAXPROCS, 1 is the serial path. Any value produces byte-identical
	// sub-pictures; the conformance matrix holds parallel splits to the
	// serial oracle.
	Workers int
	// Reuse makes Split return sub-pictures owned by the splitter: the
	// SubPicture values and their Pieces/MEI backing arrays are recycled on
	// the next Split call. Callers that serialise every sub-picture before
	// splitting the next picture (the resident wall) get a
	// zero-allocation steady state; everyone else leaves Reuse off and
	// receives fresh copies.
	Reuse bool
}

// MBSplitter splits picture units into per-tile sub-pictures. It is not safe
// for concurrent use; one splitter per splitting goroutine. A splitter with
// Workers > 1 owns a lazily started goroutine pool — call Close when done
// with it (Close is cheap and safe for serial splitters too).
type MBSplitter struct {
	seq     *mpeg2.SequenceHeader
	geo     *wall.Geometry
	workers int
	reuse   bool

	// Per-picture scratch, reused across pictures.
	ph     mpeg2.PictureHeader
	ctx    mpeg2.PictureContext
	r      bits.Reader
	slices []mpeg2.SliceRef
	accs   []sliceAcc
	seen   meiSeen // merge-level dedup, one scope per picture
	outPcs [][]subpic.Piece
	outMEI [][]subpic.MEIInstr
	sps    []*subpic.SubPicture // Reuse-mode output storage

	stats metrics.SplitBreakdown

	// Worker pool. ws[0] runs on the Split caller; ws[1:] have goroutines,
	// started on first parallel Split. curUnit is published to the workers by
	// the start-channel sends and read back at the done-channel receives, so
	// all worker writes happen-before the merge.
	ws      []*sliceWorker
	started bool
	curUnit []byte
	start   []chan struct{}
	done    chan struct{}
	quit    chan struct{}
}

// sliceAcc accumulates one slice's split products: per-tile piece lists plus
// the slice's MEI discovery sequence. Slots are indexed by slice, so workers
// write without sharing; the merge walks them in slice order.
type sliceAcc struct {
	pcs [][]subpic.Piece
	mei []meiRecord
}

// meiRecord is one deduplicated (within its slice) MEI discovery. The merge
// expands it into the SEND/RECV pair, after picture-level dedup.
type meiRecord struct {
	tile, owner uint16
	mbx, mby    uint16
	ref         subpic.RefSel
}

type openPiece struct {
	active   bool
	sph      subpic.SPH
	startBit int
	endBit   int
	lastAddr int
}

// NewMBSplitter creates a serial splitter for one stream/geometry pair
// (Workers 1, fresh output copies) — the paper's second-level splitter.
func NewMBSplitter(seq *mpeg2.SequenceHeader, geo *wall.Geometry) *MBSplitter {
	return NewMBSplitterOpts(seq, geo, SplitOptions{Workers: 1})
}

// NewMBSplitterOpts creates a splitter with explicit options.
func NewMBSplitterOpts(seq *mpeg2.SequenceHeader, geo *wall.Geometry, opt SplitOptions) *MBSplitter {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	nt := geo.NumTiles()
	mbs := seq.MBWidth() * seq.MBHeight()
	s := &MBSplitter{
		seq:     seq,
		geo:     geo,
		workers: w,
		reuse:   opt.Reuse,
		outPcs:  make([][]subpic.Piece, nt),
		outMEI:  make([][]subpic.MEIInstr, nt),
		ws:      make([]*sliceWorker, w),
	}
	s.seen.init(nt, mbs)
	for i := range s.ws {
		k := &sliceWorker{sp: s, open: make([]openPiece, nt)}
		k.seen.init(nt, mbs)
		s.ws[i] = k
	}
	return s
}

// Workers returns the resolved slice-parallel fan-out.
func (s *MBSplitter) Workers() int { return s.workers }

// Breakdown returns the accumulated splitter-phase timings (scan, parse,
// merge; serialization is the caller's).
func (s *MBSplitter) Breakdown() metrics.SplitBreakdown { return s.stats }

// Close stops the worker pool's goroutines. The splitter must not be used
// after Close. No-op for serial splitters and before the first parallel
// Split.
func (s *MBSplitter) Close() {
	if s.started {
		close(s.quit)
		s.started = false
	}
}

// startPool launches the persistent worker goroutines (ws[1:]; ws[0] runs
// inline on the Split caller).
func (s *MBSplitter) startPool() {
	if s.started {
		return
	}
	s.started = true
	s.quit = make(chan struct{})
	s.done = make(chan struct{}, s.workers)
	s.start = make([]chan struct{}, s.workers)
	for w := 1; w < s.workers; w++ {
		w := w
		s.start[w] = make(chan struct{}, 1)
		go func() {
			for {
				select {
				case <-s.quit:
					return
				case <-s.start[w]:
					s.ws[w].run(w)
					s.done <- struct{}{}
				}
			}
		}()
	}
}

// Split parses one picture unit and produces one sub-picture per tile.
// The returned sub-pictures alias unit's bytes (zero copy); under
// SplitOptions.Reuse they additionally alias splitter-owned accumulators and
// are only valid until the next Split call.
func (s *MBSplitter) Split(unit []byte, picIndex int) ([]*subpic.SubPicture, error) {
	// Scan: headers plus the byte-aligned slice index.
	t0 := time.Now()
	s.r.Reset(unit)
	sliceOff, err := mpeg2.ParsePictureUnitInto(&s.r, unit, &s.ph)
	if err != nil {
		return nil, err
	}
	if err := s.ctx.Init(s.seq, &s.ph); err != nil {
		return nil, err
	}
	s.slices = mpeg2.IndexSlices(s.seq, unit, sliceOff, s.slices[:0])
	s.stats.Add(metrics.SplitScan, time.Since(t0))

	// Parse: every slice through a re-entrant slice VLD, into its own
	// accumulator slot. Workers take contiguous slice blocks, so slots are
	// disjoint and adjacent accumulators stay on one worker's cache lines.
	t0 = time.Now()
	nt := s.geo.NumTiles()
	s.growAccs(len(s.slices), nt)
	if s.workers > 1 && len(s.slices) > 1 {
		s.startPool()
		s.curUnit = unit
		for w := 1; w < s.workers; w++ {
			s.start[w] <- struct{}{}
		}
		s.ws[0].run(0)
		for w := 1; w < s.workers; w++ {
			<-s.done
		}
	} else {
		s.curUnit = unit
		s.ws[0].runSerial()
	}
	// Fold the lanes: the stage's critical path is the slowest worker (what
	// a core-per-worker splitter PC spends); wall time is what this host
	// spent, inflated by timesharing when cores are scarce. Errors resolve
	// to the lowest slice index so failure reports match the serial split.
	errIdx := -1
	var werr error
	var critical time.Duration
	for _, k := range s.ws {
		if k.busy > critical {
			critical = k.busy
		}
		k.busy = 0
		if k.err != nil && (errIdx < 0 || k.errSlice < errIdx) {
			errIdx, werr = k.errSlice, k.err
		}
		k.err = nil
	}
	s.stats.Add(metrics.SplitParse, critical)
	s.stats.ParseWall += time.Since(t0)
	if werr != nil {
		return nil, fmt.Errorf("picture %d slice row %d: %w", picIndex, s.slices[errIdx].VPos, werr)
	}

	// Merge: stitch piece lists in slice order and expand the MEI discovery
	// sequences with picture-level dedup. Both reproduce the serial append
	// order exactly — pieces never span slices and serial dedup also keeps
	// only the first occurrence of a key.
	t0 = time.Now()
	for t := 0; t < nt; t++ {
		s.outPcs[t] = s.outPcs[t][:0]
		s.outMEI[t] = s.outMEI[t][:0]
	}
	s.seen.begin()
	for i := range s.slices {
		acc := &s.accs[i]
		for t := 0; t < nt; t++ {
			s.outPcs[t] = append(s.outPcs[t], acc.pcs[t]...)
		}
		for _, m := range acc.mei {
			t, owner := int(m.tile), int(m.owner)
			if s.seen.seen(t, int(m.mby)*s.ctx.MBW+int(m.mbx), m.ref) {
				continue
			}
			s.outMEI[owner] = append(s.outMEI[owner], subpic.MEIInstr{
				Kind: subpic.MEISend, Ref: m.ref, MBX: m.mbx, MBY: m.mby, Peer: m.tile,
			})
			s.outMEI[t] = append(s.outMEI[t], subpic.MEIInstr{
				Kind: subpic.MEIRecv, Ref: m.ref, MBX: m.mbx, MBY: m.mby, Peer: m.owner,
			})
		}
	}
	out := s.emit(picIndex)
	s.stats.Add(metrics.SplitSort, time.Since(t0))
	s.stats.Pictures++
	return out, nil
}

// growAccs sizes the per-slice accumulators and resets them for a picture.
func (s *MBSplitter) growAccs(n, nt int) {
	for len(s.accs) < n {
		s.accs = append(s.accs, sliceAcc{pcs: make([][]subpic.Piece, nt)})
	}
	for i := 0; i < n; i++ {
		acc := &s.accs[i]
		for t := 0; t < nt; t++ {
			acc.pcs[t] = acc.pcs[t][:0]
		}
		acc.mei = acc.mei[:0]
	}
}

// emit builds the per-tile sub-pictures from the merged accumulators.
func (s *MBSplitter) emit(picIndex int) []*subpic.SubPicture {
	nt := s.geo.NumTiles()
	if s.reuse {
		if s.sps == nil {
			s.sps = make([]*subpic.SubPicture, nt)
			for t := range s.sps {
				s.sps[t] = &subpic.SubPicture{}
			}
		}
		for t := 0; t < nt; t++ {
			sp := s.sps[t]
			sp.Final = false
			sp.Pieces = s.outPcs[t]
			sp.MEI = s.outMEI[t]
			sp.Pic.FromHeader(picIndex, &s.ph)
		}
		return s.sps
	}
	out := make([]*subpic.SubPicture, nt)
	for t := 0; t < nt; t++ {
		sp := &subpic.SubPicture{
			Pieces: append([]subpic.Piece(nil), s.outPcs[t]...),
			MEI:    append([]subpic.MEIInstr(nil), s.outMEI[t]...),
		}
		sp.Pic.FromHeader(picIndex, &s.ph)
		out[t] = sp
	}
	return out
}

// sliceWorker is one lane of the slice-parallel splitter: a re-entrant slice
// VLD with its own bit reader, piece state and skip-routing scratch. ws[0]
// doubles as the serial path's engine, so serial and parallel splits share
// one code path and bit-exactness between them is structural, not tested-in.
type sliceWorker struct {
	sp *MBSplitter

	r  bits.Reader
	sd mpeg2.SliceDecoder
	mb mpeg2.Macroblock

	open    []openPiece
	tileSet []int
	skipSet []int
	orphans []int
	seen    meiSeen // worker-local dedup, one scope per slice

	busy     time.Duration
	err      error
	errSlice int
}

// run parses this worker's contiguous block of the picture's slices. A
// worker's whole block runs far below the scheduler's preemption quantum,
// so busy approximates the lane's genuine work even when lanes timeshare
// one core.
func (k *sliceWorker) run(w int) {
	t0 := time.Now()
	s := k.sp
	n := len(s.slices)
	lo, hi := w*n/s.workers, (w+1)*n/s.workers
	for i := lo; i < hi; i++ {
		if err := k.splitSlice(s.curUnit, s.slices[i], &s.accs[i]); err != nil {
			k.err, k.errSlice = err, i
			break
		}
	}
	k.busy = time.Since(t0)
}

// runSerial parses every slice in order on the caller's goroutine.
func (k *sliceWorker) runSerial() {
	t0 := time.Now()
	s := k.sp
	for i := range s.slices {
		if err := k.splitSlice(s.curUnit, s.slices[i], &s.accs[i]); err != nil {
			k.err, k.errSlice = err, i
			break
		}
	}
	k.busy = time.Since(t0)
}

// splitSlice parses one slice in parse-only mode, routing macroblocks to
// tiles and recording exchange instructions into acc.
func (k *sliceWorker) splitSlice(unit []byte, ref mpeg2.SliceRef, acc *sliceAcc) error {
	ctx := &k.sp.ctx
	geo := k.sp.geo
	if err := k.sd.ResetFullAt(ctx, &k.r, unit, ref); err != nil {
		return err
	}
	k.sd.SetParseOnly(true)
	k.seen.begin()
	// A slice that failed part-way returned with pieces still open; they
	// belong to a discarded picture and must not leak into this slice.
	for t := range k.open {
		k.open[t].active = false
	}
	picType := ctx.Pic.PicType

	// The parser leaves fields of directions a macroblock does not code
	// untouched, and SPH.Prev serialises all of MotionInfo — so the scratch
	// macroblock must start each slice zeroed, exactly like the serial
	// splitter's per-slice stack variable did.
	mb := &k.mb
	*mb = mpeg2.Macroblock{}
	for {
		ok, err := k.sd.Next(mb)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		mbx, mby := mb.Addr%ctx.MBW, mb.Addr/ctx.MBW
		k.tileSet = geo.TilesForMB(mbx, mby, k.tileSet[:0])

		// Route the preceding skipped run. Tiles covering skipped
		// macroblocks but not this coded one get leading/trailing
		// bookkeeping; skipped B macroblocks also generate MEIs since they
		// inherit the previous macroblock's (possibly boundary-crossing)
		// motion.
		if mb.SkippedBefore > 0 {
			k.routeSkipped(ctx, acc, mb, mbx, mby)
		}

		for _, t := range k.tileSet {
			p := &k.open[t]
			if !p.active {
				p.active = true
				p.startBit = mb.BitStart
				p.sph = subpic.SPH{
					SkipBits:   uint8(mb.BitStart & 7),
					FirstAddr:  int32(mb.Addr),
					CodedCount: 0,
					Prev:       mb.PrevMotion,
				}
				p.sph.SetState(mb.StateBefore)
				// Leading skips covered by this tile (suffix of the run).
				if mb.SkippedBefore > 0 {
					p.sph.LeadingSkip = k.countSkipsIn(t, mb, mbx, mby)
				}
			}
			p.sph.CodedCount++
			p.endBit = mb.BitEnd
			p.lastAddr = mb.Addr
		}
		// Close pieces of tiles whose run has ended (open but not covering
		// this coded macroblock): the part of the skipped run they cover
		// becomes their trailing count.
		for t := range k.open {
			p := &k.open[t]
			if !p.active || covers(k.tileSet, t) {
				continue
			}
			trailing := int32(0)
			if mb.SkippedBefore > 0 {
				trailing = k.countSkipsIn(t, mb, mbx, mby)
			}
			k.closePiece(acc, t, unit, trailing)
		}

		// Exchange instructions for this coded macroblock.
		if picType != mpeg2.PictureI && !mb.Intra() {
			k.addMEIForMB(ctx, acc, k.tileSet, mbx, mby, mb.Motion(), picType)
		}
	}
	// Slice end: close everything (a conformant slice ends with a coded
	// macroblock, so there are no trailing skips here).
	for t := range k.open {
		if k.open[t].active {
			k.closePiece(acc, t, unit, 0)
		}
	}
	return nil
}

func covers(set []int, t int) bool {
	for _, v := range set {
		if v == t {
			return true
		}
	}
	return false
}

// countSkipsIn counts the skipped macroblocks before mb that tile t covers.
func (k *sliceWorker) countSkipsIn(t int, mb *mpeg2.Macroblock, mbx, mby int) int32 {
	var n int32
	for i := 1; i <= mb.SkippedBefore; i++ {
		if k.sp.geo.TileHasMB(t, mbx-i, mby) {
			n++
		}
	}
	return n
}

// routeSkipped handles tiles that cover part of a skipped run:
//
//   - tiles that also cover the following coded macroblock count the skips
//     as LeadingSkip when their piece opens (done by the caller);
//   - tiles with an open piece count them as TrailingSkip when the run
//     leaves them (done by the caller's close path);
//   - tiles covering only skipped macroblocks of this slice get a
//     self-contained empty piece (CodedCount 0) carrying just the count.
//
// Skipped B macroblocks also generate MEIs, since they inherit the previous
// macroblock's possibly boundary-crossing motion; skipped P macroblocks are
// zero-vector co-located copies that never reference remote data.
func (k *sliceWorker) routeSkipped(ctx *mpeg2.PictureContext, acc *sliceAcc, mb *mpeg2.Macroblock, mbx, mby int) {
	geo := k.sp.geo
	k.orphans = k.orphans[:0]
	for i := 1; i <= mb.SkippedBefore; i++ {
		sx := mbx - i
		k.skipSet = geo.TilesForMB(sx, mby, k.skipSet[:0])
		for _, t := range k.skipSet {
			if k.open[t].active || covers(k.tileSet, t) || covers(k.orphans, t) {
				continue
			}
			k.orphans = append(k.orphans, t)
		}
		if ctx.Pic.PicType == mpeg2.PictureB {
			k.addMEIForMB(ctx, acc, k.skipSet, sx, mby, mb.PrevMotion, mpeg2.PictureB)
		}
	}
	for _, t := range k.orphans {
		// Decoders reconstruct leading skips at [FirstAddr-LeadingSkip,
		// FirstAddr), so FirstAddr points one past the tile's last owned
		// skipped macroblock (the tile's coverage is a contiguous column
		// interval, so its owned skips are contiguous).
		lastOwned := -1
		for a := mb.Addr - mb.SkippedBefore; a < mb.Addr; a++ {
			if geo.TileHasMB(t, a%ctx.MBW, mby) {
				lastOwned = a
			}
		}
		sph := subpic.SPH{
			FirstAddr:   int32(lastOwned + 1),
			LeadingSkip: k.countSkipsIn(t, mb, mbx, mby),
			Prev:        mb.PrevMotion,
		}
		sph.SetState(mb.StateBefore)
		acc.pcs[t] = append(acc.pcs[t], subpic.Piece{SPH: sph})
	}
}

// closePiece finalises tile t's open piece, extracting the payload bytes.
func (k *sliceWorker) closePiece(acc *sliceAcc, t int, unit []byte, trailing int32) {
	p := &k.open[t]
	p.active = false
	p.sph.TrailingSkip = trailing
	var payload []byte
	if p.sph.CodedCount > 0 {
		start := p.startBit >> 3
		end := (p.endBit + 7) >> 3
		payload = unit[start:end:end]
	}
	acc.pcs[t] = append(acc.pcs[t], subpic.Piece{SPH: p.sph, Payload: payload})
}

// addMEIForMB computes the reference cells needed by the macroblock at
// (mbx, mby) with motion m, for every tile that will decode it (tiles, the
// caller's geo.TilesForMB of the macroblock), and records
// a discovery for cells outside the tile. The worker-local dedup only
// filters within-slice repeats; cross-slice dedup happens at the merge,
// where the global first-occurrence order is known.
func (k *sliceWorker) addMEIForMB(ctx *mpeg2.PictureContext, acc *sliceAcc, tiles []int, mbx, mby int, m mpeg2.MotionInfo, picType mpeg2.PictureType) {
	if !m.Fwd && !m.Bwd && picType == mpeg2.PictureP {
		// Parser guarantees P macroblocks always carry a forward prediction
		// ("no MC" becomes a zero vector), but be safe.
		m.Fwd = true
	}
	if m.Fwd {
		k.addMEIForVector(ctx, acc, tiles, mbx, mby, m.MVFwd, subpic.RefFwd)
	}
	if m.Bwd {
		k.addMEIForVector(ctx, acc, tiles, mbx, mby, m.MVBwd, subpic.RefBwd)
	}
}

func (k *sliceWorker) addMEIForVector(ctx *mpeg2.PictureContext, acc *sliceAcc, tiles []int, mbx, mby int, mv [2]int32, ref subpic.RefSel) {
	geo := k.sp.geo
	// Luma reference footprint (the chroma footprint is contained within the
	// same macroblock cells; see recon.go).
	x0 := mbx*16 + int(mv[0]>>1)
	y0 := mby*16 + int(mv[1]>>1)
	x1 := x0 + 16 + int(mv[0]&1) - 1
	y1 := y0 + 16 + int(mv[1]&1) - 1
	cx0, cx1 := x0>>4, x1>>4
	cy0, cy1 := y0>>4, y1>>4
	if cx0 < 0 {
		cx0 = 0
	}
	if cy0 < 0 {
		cy0 = 0
	}
	maxX, maxY := ctx.MBW-1, ctx.MBH-1
	if cx1 > maxX {
		cx1 = maxX
	}
	if cy1 > maxY {
		cy1 = maxY
	}
	for _, t := range tiles {
		for cy := cy0; cy <= cy1; cy++ {
			for cx := cx0; cx <= cx1; cx++ {
				if geo.TileHasMB(t, cx, cy) {
					continue // available locally
				}
				if k.seen.seen(t, cy*ctx.MBW+cx, ref) {
					continue
				}
				acc.mei = append(acc.mei, meiRecord{
					tile: uint16(t), owner: uint16(geo.Owner(cx, cy)),
					mbx: uint16(cx), mby: uint16(cy), ref: ref,
				})
			}
		}
	}
}
