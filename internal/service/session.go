package service

import (
	"fmt"
	"sync"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/pdec"
	"tiledwall/internal/splitter"
	"tiledwall/internal/wall"
)

// Session is one stream flowing through a resident wall. Feed and Close must
// be called from a single goroutine; distinct sessions are independent and
// may run concurrently.
type Session struct {
	w        *Wall
	id       int
	name     string
	openedAt time.Time

	scanner unitScanner
	cbTime  time.Duration // time inside scan callbacks, excluded from ScanTime

	// tokens is the in-flight bound: one taken per picture at Feed, returned
	// by the root when a splitter acks receipt (K>0) or the picture ships
	// (K=0).
	tokens chan struct{}
	// drained is closed by the root once every tile has sent its drain ack.
	drained chan struct{}

	// failedCh is closed (once) when the pipeline fails this session in
	// isolation; failErr carries the typed cause. Written by the root
	// goroutine, read by the feeder — hence the mutex, unlike the
	// feeder-only failed field.
	failMu   sync.Mutex
	failErr  error
	failedCh chan struct{}

	opened bool
	closed bool
	failed error
	pics   int

	seq       *mpeg2.SequenceHeader
	geo       *wall.Geometry
	collector *collector

	// sub and trick are the feeder-side subscription state (same
	// single-goroutine contract as Feed; the root applies its own copy at
	// I-picture boundaries).
	sub   wall.TileSet
	trick splitter.TrickMode

	rootRes   splitter.RootResult
	splitters []*splitter.SecondResult
	decoders  []*pdec.Result

	// Root-goroutine-only state: the nodes that have drained the session,
	// the active subscription, the pending one awaiting the next I picture,
	// the dense shipped-picture counter trick play re-indexes with, and the
	// activation log.
	drainedBy   map[int]bool
	rootSub     wall.TileSet
	rootTrick   splitter.TrickMode
	pendSub     wall.TileSet
	pendTrick   splitter.TrickMode
	subPending  bool
	shippedPics int
	droppedPics int
	subEvents   []SubscriptionEvent
}

// SubscriptionEvent records one subscription/trick activation: the change
// took effect at the shipped picture with index Picture (always an I
// picture, or 0 for a subscription set before the first picture).
type SubscriptionEvent struct {
	Picture int
	Tiles   wall.TileSet
	Trick   splitter.TrickMode
}

// TrickMode selects the root's trick-play drop ladder (re-exported from the
// splitter package for the façade).
type TrickMode = splitter.TrickMode

// Trick-play modes.
const (
	TrickNone  = splitter.TrickNone
	TrickIOnly = splitter.TrickIOnly
	TrickDropB = splitter.TrickDropB
)

// Subscribe sets the session's tile subscription: only subscribed tiles (plus
// the halo sources their motion vectors need) are materialized, serialised
// and shipped; everything else is skipped. The zero TileSet subscribes every
// tile (the default). The change is delivered in-band and takes effect at the
// next I picture the root ships, so every splitter applies it at the same
// consistent picture boundary; anchors keep materializing everywhere (stamped
// no-emit on unwatched tiles), so a newly subscribed tile resumes exactly at
// activation. Same goroutine contract as Feed; may be called before the
// first Feed (active from the first picture) and again mid-session.
func (s *Session) Subscribe(tiles wall.TileSet) error {
	if !tiles.Full() && tiles.Size() != s.w.cfg.M*s.w.cfg.N {
		return fmt.Errorf("service: session %q: subscription sized for %d tiles, wall has %d",
			s.name, tiles.Size(), s.w.cfg.M*s.w.cfg.N)
	}
	if tiles.Empty() {
		return fmt.Errorf("service: session %q: empty subscription", s.name)
	}
	s.sub = tiles.Clone()
	return s.sendSubscribe()
}

// SetTrickMode sets the session's trick-play mode: TrickDropB ships I and P
// pictures only, TrickIOnly ships I pictures only; dropped pictures never
// reach the splitters. Like Subscribe, the change activates at the next I
// picture. Switching back to TrickNone resumes full decode; output is exact
// again from the next closed GOP (pictures referencing a dropped anchor
// decode against the nearest shipped one until then).
func (s *Session) SetTrickMode(m splitter.TrickMode) error {
	if m > splitter.TrickDropB {
		return fmt.Errorf("service: session %q: unknown trick mode %d", s.name, m)
	}
	s.trick = m
	return s.sendSubscribe()
}

func (s *Session) sendSubscribe() error {
	if s.closed {
		return ErrSessionClosed
	}
	if s.failed != nil {
		return s.failed
	}
	return s.submit(workItem{
		sess:    s,
		kind:    workSubscribe,
		payload: splitter.AppendSubscribe(nil, s.trick, s.sub),
	})
}

// ID returns the session's wall-unique id (the wire session key).
func (s *Session) ID() int { return s.id }

// Name returns the label given to Open.
func (s *Session) Name() string { return s.name }

// SessionResult is what a closed session decoded and how fast.
type SessionResult struct {
	Name string
	// Throughput measures wall-clock Open→drain, so it includes any time the
	// feeder idled between chunks.
	Throughput metrics.Throughput
	Root       *splitter.RootResult // nil on one-level walls (K=0)
	Splitters  []*splitter.SecondResult
	Decoders   []*pdec.Result
	// Frames holds assembled wall frames in display order when the wall
	// collects frames.
	Frames []*mpeg2.PixelBuf
	// WireBytes is the fabric traffic attributed to this session.
	WireBytes int64
	// Recovery counts the fault-tolerance interventions charged to this
	// session (zero-valued without recovery enabled). Frames are guaranteed
	// byte-identical to a serial decode only when Recovery.Clean() holds.
	Recovery metrics.RecoverySnapshot
	// TileEmissions lists, per tile, the decode-order picture indices
	// emitted in display order — the exactly-once evidence chaos soaks
	// assert. Populated only under recovery.
	TileEmissions [][]int

	// SubscribedTiles is the session's final subscription size (the wall's
	// tile count when no partial subscription was set).
	SubscribedTiles int
	// ShippedPictures counts pictures that reached the pipeline; with trick
	// play active it is smaller than Throughput.Pictures.
	ShippedPictures int
	// SkippedPictures counts pictures the root dropped for trick play.
	SkippedPictures int
	// SkippedSubPics counts per-tile skip markers shipped in place of full
	// sub-pictures (summed over splitters; zero on a full subscription).
	SkippedSubPics int64
	// Subscriptions logs every subscription/trick activation with the
	// shipped picture index it took effect at.
	Subscriptions []SubscriptionEvent
}

// Modeled returns the pipeline-model throughput, what the evaluation tables
// report: Throughput's pictures over the busiest node's timed busy phases,
// the rate of the slowest stage, F = min(k/ts, 1/td) (DESIGN.md §7). A
// result with no timed node work reports Throughput unchanged.
func (r *SessionResult) Modeled() metrics.Throughput {
	var busiest time.Duration
	if r.Root != nil {
		busiest = r.Root.ScanTime + r.Root.CopyTime + r.Root.SendTime
	}
	for _, sr := range r.Splitters {
		if sr != nil {
			busiest = max(busiest, sr.Breakdown.Busy())
		}
	}
	for _, dr := range r.Decoders {
		if dr != nil {
			busiest = max(busiest, dr.Breakdown.Busy())
		}
	}
	out := r.Throughput
	if busiest > 0 {
		out.Elapsed = busiest
	}
	return out
}

// Feed hands the session the next chunk of the elementary stream. Chunks may
// split anywhere — picture units are reassembled internally. Blocks when the
// session's in-flight picture bound is reached (backpressure).
func (s *Session) Feed(chunk []byte) error {
	if s.closed {
		return ErrSessionClosed
	}
	if s.failed != nil {
		return s.failed
	}
	if err := s.failCause(); err != nil {
		s.failed = err
		return err
	}
	if err := s.w.tr.AbortCause(); err != nil {
		s.failed = err
		return err
	}
	scanStart := time.Now()
	s.cbTime = 0
	err := s.scanner.feed(chunk, s.onHeader, s.onUnit)
	s.rootRes.ScanTime += time.Since(scanStart) - s.cbTime
	if err != nil {
		s.failed = err
	}
	return err
}

// Close flushes the trailing picture, sends the session final through the
// pipeline, and blocks until every tile has drained the session.
func (s *Session) Close() (*SessionResult, error) {
	if s.closed {
		return nil, ErrSessionClosed
	}
	s.closed = true
	if s.failed == nil {
		s.failed = s.failCause()
	}
	if s.failed == nil {
		scanStart := time.Now()
		s.cbTime = 0
		err := s.scanner.flush(s.onUnit)
		s.rootRes.ScanTime += time.Since(scanStart) - s.cbTime
		if err != nil {
			s.failed = err
		}
	}
	if s.failed == nil && !s.opened {
		s.failed = fmt.Errorf("service: session %q: no sequence header in stream", s.name)
	}
	if s.failed != nil {
		s.finishFailed()
		return nil, s.failed
	}
	if err := s.submit(workItem{sess: s, kind: workFinal, index: s.pics}); err != nil {
		s.finishFailed()
		return nil, err
	}
	// Under recovery the drain wait is bounded: a node dead past its restart
	// budget never drain-acks, and that must disrupt this session, not hang
	// its feeder. The budget scales with the session length so a loaded wall
	// concealing its way to the end still drains cleanly.
	var timeout <-chan time.Time
	if s.w.rv != nil {
		budget := time.Duration(s.pics) * s.w.rv.cfg.PictureDeadline
		if budget < 10*time.Second {
			budget = 10 * time.Second
		}
		timer := time.NewTimer(budget)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-s.drained:
	case <-s.failedCh:
		s.failed = s.failCause()
		s.finishFailed()
		return nil, s.failed
	case <-timeout:
		s.failed = fmt.Errorf("%w: session %q: drain incomplete", ErrSessionDisrupted, s.name)
		s.finishFailed()
		return nil, s.failed
	case <-s.w.tr.Done():
		s.w.sessionDone(s)
		return nil, s.w.tr.AbortCause()
	}
	s.rootRes.Pictures = s.pics
	res := &SessionResult{
		Name: s.name,
		Throughput: metrics.Throughput{
			Pictures:         s.pics,
			Elapsed:          time.Since(s.openedAt),
			PixelsPerPicture: int64(s.geo.PicW) * int64(s.geo.PicH),
		},
		Splitters: s.splitters,
		Decoders:  s.decoders,
		WireBytes: s.w.tr.SessionBytes(s.id),
		// Root-goroutine fields are settled: workFinal was processed before
		// the finals whose drain acks closed s.drained.
		ShippedPictures: s.shippedPics,
		SkippedPictures: s.droppedPics,
		Subscriptions:   s.subEvents,
	}
	res.SubscribedTiles = s.geo.NumTiles()
	if !s.sub.Full() {
		res.SubscribedTiles = s.sub.Count()
	}
	for _, sr := range s.splitters {
		if sr != nil {
			res.SkippedSubPics += sr.SkippedSubPics
		}
	}
	if s.w.cfg.K > 0 {
		// A copy: a pointer into the session would keep its scan buffer
		// (the fed stream) alive for as long as the caller keeps the result.
		root := s.rootRes
		res.Root = &root
	}
	strict := true
	if rv := s.w.rv; rv != nil {
		res.Recovery, res.TileEmissions = rv.dropSession(s.id)
		rv.noteSessionClose(res.Recovery.Clean())
		// A degraded session may have lost tail frames on some tiles (a
		// decoder dead past its budget): assemble what every tile emitted
		// instead of refusing the whole session.
		strict = res.Recovery.Clean()
	}
	var err error
	// A partial subscription emits nothing on unwatched tiles, so full wall
	// frames cannot be assembled; per-tile output rides on OnTileFrame.
	if s.collector != nil && s.sub.Full() {
		res.Frames, err = s.collector.assemble(strict)
	}
	s.w.sessionDone(s)
	return res, err
}

// finishFailed releases a failed session's admission slot and recovery
// registry state, and records the close in the wall health machine.
func (s *Session) finishFailed() {
	if rv := s.w.rv; rv != nil {
		rv.dropSession(s.id)
		rv.noteSessionClose(false)
	}
	s.w.sessionDone(s)
}

// onHeader parses the stream prefix, derives this session's geometry, and
// announces the session to the pipeline.
func (s *Session) onHeader(prefix []byte) error {
	t0 := time.Now()
	defer func() { s.cbTime += time.Since(t0) }()
	seq, err := mpeg2.ParseSequenceHeaderBytes(prefix)
	if err != nil {
		return fmt.Errorf("service: session %q: %w", s.name, err)
	}
	geo, err := wall.SharedGeometry(seq.MBWidth()*16, seq.MBHeight()*16, s.w.cfg.M, s.w.cfg.N, s.w.cfg.Overlap)
	if err != nil {
		return fmt.Errorf("service: session %q: %w", s.name, err)
	}
	s.seq, s.geo = seq, geo
	if s.w.cfg.CollectFrames {
		s.collector = newCollector(geo)
	}
	s.opened = true
	hdr := make([]byte, len(prefix))
	copy(hdr, prefix)
	return s.submit(workItem{sess: s, kind: workOpen, payload: hdr})
}

// onUnit copies one complete picture unit out of the scanner, takes an
// in-flight token (backpressure), and queues the picture for the root.
func (s *Session) onUnit(u []byte) error {
	t0 := time.Now()
	defer func() { s.cbTime += time.Since(t0) }()
	// Picture units travel as slabs so the root's retainer and the consuming
	// splitter can share the payload by reference count.
	buf := append(cluster.GetSlab(len(u)), u...)
	s.rootRes.CopyTime += time.Since(t0)
	select {
	case <-s.tokens:
	case <-s.failedCh:
		return s.failCause()
	case <-s.w.tr.Done():
		return s.w.tr.AbortCause()
	}
	idx := s.pics
	s.pics++
	s.w.loadPics.Add(1)
	s.w.loadBytes.Add(int64(len(buf)))
	return s.submit(workItem{sess: s, kind: workPicture, payload: buf, index: idx})
}

func (s *Session) submit(it workItem) error {
	select {
	case s.w.work <- it:
		return nil
	case <-s.w.tr.Done():
		return s.w.tr.AbortCause()
	}
}

// releaseToken is called by the root goroutine when a picture's feed slot is
// free again.
func (s *Session) releaseToken() {
	select {
	case s.tokens <- struct{}{}:
		// The load counter mirrors tokens actually outstanding: synthetic
		// releases into a full bucket (recovery ack timeouts) change nothing.
		s.w.loadPics.Add(-1)
	default:
	}
}

// fail marks the session failed in isolation (root goroutine); the first
// cause wins and unblocks the feeder.
func (s *Session) fail(err error) {
	s.failMu.Lock()
	if s.failErr == nil {
		s.failErr = err
		close(s.failedCh)
	}
	s.failMu.Unlock()
}

// failCause returns the isolated-failure cause, if any.
func (s *Session) failCause() error {
	s.failMu.Lock()
	defer s.failMu.Unlock()
	return s.failErr
}
