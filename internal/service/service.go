package service

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/pdec"
	"tiledwall/internal/recovery"
	"tiledwall/internal/splitter"
)

// Config describes a 1-k-(m,n) wall: the one configuration of the resident
// service, the batch system.Run and tiledwall.WallConfig (system.Config is
// an alias of it). The wall builds and owns its transport unless the caller
// brings one in Wired.
type Config struct {
	// K is the number of second-level splitters; 0 selects the one-level
	// 1-(m,n) wall in which the root itself splits at macroblock level.
	K int
	// M, N is the decoder/tile grid; Overlap the projector blend band in
	// pixels.
	M, N, Overlap int
	// MaxFCode bounds the streams' motion vector range and sizes the
	// decoders' halo windows for the whole wall lifetime; every session's
	// motion vectors must fit it. 0 defaults to 3 (±32 px), the encoder
	// default.
	MaxFCode int

	// DynamicBalance makes the root assign pictures to the least-loaded
	// splitter instead of round-robin (the paper's §6 future work).
	DynamicBalance bool

	// SplitWorkers is the slice-parallel fan-out inside every macroblock
	// splitter (second-level and one-level combined): each picture's slices
	// are parsed concurrently by this many goroutines, shrinking the paper's
	// ts term on multicore hosts — parallelism the paper's single-CPU nodes
	// could only buy by adding splitter PCs. 0 selects GOMAXPROCS, 1 the
	// serial path; sub-pictures are byte-identical for every value (the
	// conformance matrix runs a split-workers axis to prove it).
	SplitWorkers int

	// UnbatchedExchange disables per-peer batching of MEI block messages
	// (ablation; see pdec.Config.UnbatchedSends).
	UnbatchedExchange bool

	// Fabric configures the in-process fabric New builds for Transport ""
	// or "fabric"; of its options only StallTimeout also applies to the
	// loopback TCP transport.
	Fabric cluster.Config
	// Transport selects the transport New builds: "" or "fabric" for the
	// in-process fabric, "tcp" for the socket transport over loopback
	// (every node still lives in this process, but all traffic crosses
	// real TCP connections through a hub — the single-process form of the
	// multi-process wall). With Recovery the loopback links are recoverable
	// (they redial after a loss) and their state feeds Health. The wall
	// owns the transport it builds and shuts it down on Close. Ignored when
	// Wired is set.
	Transport string
	// Wired, when set, is a transport the caller built (e.g. a
	// cluster.TCPTransport spanning processes). It must have exactly
	// NumNodes() nodes and is not shut down by Wall.Close.
	Wired cluster.Transport
	// LocalNodes restricts which node loops this process runs (nil = all).
	// A multi-process wall gives each process the same grid and transport
	// topology but a disjoint LocalNodes subset; only the process hosting
	// node 0 (the root) can open sessions, the others Wait.
	LocalNodes []int

	// CollectFrames assembles full output frames per session for
	// verification (adds memory traffic outside the measured path).
	CollectFrames bool
	// OnTileFrame, when set, receives every decoded tile frame hosted by
	// this process — the display-server hook, independent of CollectFrames,
	// and the only per-tile output a partially subscribed session produces.
	// picIdx is the picture's decode-order index; frames arrive in display
	// order per tile (per session).
	OnTileFrame func(session, picIdx, tile int, buf *mpeg2.PixelBuf)

	// Deprecated: buffers are always pooled; ignored.
	Pooled bool

	// Recovery, when Enabled, makes the wall fault-tolerant (DESIGN.md §6):
	// the local splitter and decoder loops run supervised (heartbeat
	// leases, respawn with in-band session re-join), the root retains and
	// replays unacked pictures, credit waits are deadline-bounded, decoders
	// conceal lost pictures, and a broken session fails alone with a typed
	// error — the same model over the in-process fabric and TCP. Retained
	// payloads carry slab references, so replay and recycling share buffers
	// safely (DESIGN.md §9). Disabled (the zero value), the wall is
	// fail-stop.
	Recovery recovery.Config
	// Chaos injects crashes for tests and soaks; each kill fires on the
	// named node's first incarnation only. Ignored without Recovery.
	Chaos recovery.ChaosPlan

	// MaxSessions bounds concurrently open sessions (default 8); Open fails
	// with a *TooManySessionsError (wrapping ErrTooManySessions) beyond it.
	MaxSessions int
	// MaxInFlightPictures bounds pictures per session between Feed and the
	// splitter's receipt ack; Feed blocks when the bound is reached
	// (default 8).
	MaxInFlightPictures int
}

func (c *Config) defaults() {
	if c.MaxFCode == 0 {
		c.MaxFCode = 3
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 8
	}
	if c.MaxInFlightPictures <= 0 {
		c.MaxInFlightPictures = 8
	}
}

// NumNodes returns the node count the wall's transport must provide — root,
// k splitters, m×n decoders — the PC count on the x-axis of the paper's
// Figures 6 and 8.
func (c Config) NumNodes() int { return 1 + c.K + c.M*c.N }

// transport returns the wall's transport and whether the wall owns it: the
// caller's Wired transport, else the one Transport selects. The link events
// of a recoverable loopback TCP transport feed rv.
func (c *Config) transport(rv *wallRecovery) (cluster.Transport, bool, error) {
	if c.Wired != nil {
		if c.Wired.NumNodes() != c.NumNodes() {
			return nil, false, fmt.Errorf("service: transport has %d nodes, grid 1-%d-(%d,%d) needs %d",
				c.Wired.NumNodes(), c.K, c.M, c.N, c.NumNodes())
		}
		return c.Wired, false, nil
	}
	switch c.Transport {
	case "", "fabric":
		return cluster.New(c.NumNodes(), c.Fabric), true, nil
	case "tcp":
		ids := make([]int, c.NumNodes())
		for i := range ids {
			ids[i] = i
		}
		tcfg := cluster.TCPConfig{
			NumNodes:     c.NumNodes(),
			LocalNodes:   ids,
			Grid:         cluster.Grid{K: c.K, M: c.M, N: c.N, Overlap: c.Overlap},
			StallTimeout: c.Fabric.StallTimeout,
		}
		if rv != nil {
			tcfg.Recoverable = true
			tcfg.OnLinkState = rv.noteLink
		}
		tcp, err := cluster.ListenTCP("127.0.0.1:0", tcfg)
		if err != nil {
			return nil, false, err
		}
		return tcp, true, nil
	}
	return nil, false, fmt.Errorf("service: unknown transport %q (want \"fabric\" or \"tcp\")", c.Transport)
}

var (
	// ErrTooManySessions is returned by Open when MaxSessions sessions are
	// already active.
	ErrTooManySessions = errors.New("service: too many open sessions")
	// ErrWallClosed is returned by Open after Close has begun.
	ErrWallClosed = errors.New("service: wall closed")
	// ErrSessionClosed is returned by Feed/Close on an already-closed session.
	ErrSessionClosed = errors.New("service: session closed")
	// ErrNoLocalRoot is returned by Open on a wall whose LocalNodes subset
	// does not include the root; sessions are fed from the root process.
	ErrNoLocalRoot = errors.New("service: root node is not local to this process")
)

// workKind tags items on the feed→root work queue.
type workKind uint8

const (
	workOpen workKind = iota
	workPicture
	workFinal
	workShutdown
	// workSubscribe carries a subscription/trick-play change (payload is the
	// FlagSubscribe control encoding). The root holds it until the next I
	// picture it ships for the session, then broadcasts it to the splitters.
	workSubscribe
)

type workItem struct {
	sess    *Session
	kind    workKind
	payload []byte // header prefix (open) or picture unit (picture)
	index   int    // per-session picture index, or the total for a final
}

// Wall is a resident decoding pipeline: transport, root, splitters and tile
// decoders built once by New and alive until Close.
type Wall struct {
	cfg   Config
	tr    cluster.Transport
	ownTr bool

	splitterIDs []int
	decoderIDs  []int
	hasRoot     bool

	work chan workItem
	quit chan struct{}
	wg   sync.WaitGroup

	mu         sync.Mutex
	idle       *sync.Cond
	sessions   map[int]*Session
	nextID     int
	active     int
	closed     bool
	closeOnce  sync.Once
	closeErr   error
	avgSession time.Duration // EWMA of completed session durations (RetryAfter)

	// rv is the recovery state; nil unless Config.Recovery.Enabled.
	rv *wallRecovery

	// Load-snapshot counters, maintained with atomics so Load never touches
	// w.mu and the feed hot path never touches a lock: loadAct mirrors
	// active, loadPics counts feed tokens held (pictures between Feed and
	// the splitter's receipt ack), loadBytes counts picture bytes queued
	// between Feed and the root's dequeue.
	loadAct   atomic.Int64
	loadPics  atomic.Int64
	loadBytes atomic.Int64
}

// Load is a cheap point-in-time load snapshot of a wall, read by fleet
// routers on every admission decision. It is maintained with atomic counters
// off to the side of the session machinery: taking it contends with neither
// the open/close lock nor the feed hot path, and allocates nothing.
type Load struct {
	// ActiveSessions and MaxSessions are the admission occupancy.
	ActiveSessions int
	MaxSessions    int
	// InFlightPictures counts pictures between Session.Feed and the
	// splitter's receipt ack (the feed tokens currently held), summed over
	// all sessions — the backlog the pipeline is chewing on.
	InFlightPictures int
	// QueuedBytes counts picture bytes accepted by Feed but not yet
	// dequeued by the root — the feed queue depth in bytes.
	QueuedBytes int64
}

// Load snapshots the wall's current load without taking the open/close lock.
// The three counters are read independently, so a snapshot taken mid-update
// may be momentarily inconsistent between fields; each field is exact.
func (w *Wall) Load() Load {
	return Load{
		ActiveSessions:   int(w.loadAct.Load()),
		MaxSessions:      w.cfg.MaxSessions,
		InFlightPictures: int(w.loadPics.Load()),
		QueuedBytes:      w.loadBytes.Load(),
	}
}

// New builds the wall and starts every node server. The caller must Close it.
func New(cfg Config) (*Wall, error) {
	cfg.defaults()
	if cfg.M < 1 || cfg.N < 1 || cfg.K < 0 {
		return nil, fmt.Errorf("service: invalid grid 1-%d-(%d,%d)", cfg.K, cfg.M, cfg.N)
	}
	local := func(int) bool { return true }
	if cfg.LocalNodes != nil {
		set := map[int]bool{}
		for _, id := range cfg.LocalNodes {
			if id < 0 || id >= cfg.NumNodes() {
				return nil, fmt.Errorf("service: local node %d out of range [0,%d)", id, cfg.NumNodes())
			}
			set[id] = true
		}
		local = func(id int) bool { return set[id] }
	}
	nTiles := cfg.M * cfg.N
	var rv *wallRecovery
	if cfg.Recovery.Enabled {
		rv = newWallRecovery(cfg.Recovery, cfg.Chaos, cfg.K, nTiles)
	}
	tr, own, err := cfg.transport(rv)
	if err != nil {
		if rv != nil {
			rv.sup.Close()
		}
		return nil, err
	}
	w := &Wall{
		cfg:      cfg,
		tr:       tr,
		ownTr:    own,
		hasRoot:  local(0),
		work:     make(chan workItem, cfg.MaxSessions*cfg.MaxInFlightPictures),
		quit:     make(chan struct{}),
		sessions: map[int]*Session{},
		rv:       rv,
	}
	w.idle = sync.NewCond(&w.mu)
	for i := 0; i < cfg.K; i++ {
		w.splitterIDs = append(w.splitterIDs, 1+i)
	}
	for t := 0; t < nTiles; t++ {
		w.decoderIDs = append(w.decoderIDs, 1+cfg.K+t)
	}

	// Wake a Close blocked on active sessions if the transport aborts.
	go func() {
		select {
		case <-tr.Done():
			w.mu.Lock()
			w.idle.Broadcast()
			w.mu.Unlock()
		case <-w.quit:
		}
	}()

	for i, id := range w.splitterIDs {
		if local(id) {
			w.wg.Add(1)
			go func(i int) {
				defer w.wg.Done()
				w.runSplitter(i)
			}(i)
		}
	}
	for t, id := range w.decoderIDs {
		if local(id) {
			w.wg.Add(1)
			go func(t int) {
				defer w.wg.Done()
				w.runDecoder(t)
			}(t)
		}
	}
	if w.hasRoot {
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			if err := w.runRoot(); err != nil {
				tr.Abort(err)
			}
		}()
	}
	return w, nil
}

// Wait blocks until this process's node loops exit — a clean shutdown
// broadcast from the (possibly remote) root, or a transport abort, whose
// cause is returned. Worker processes of a multi-process wall call Wait;
// the root process drives sessions and calls Close.
func (w *Wall) Wait() error {
	w.wg.Wait()
	return w.tr.AbortCause()
}

// Transport exposes the wall's transport (stats, per-pair and per-session
// byte counters).
func (w *Wall) Transport() cluster.Transport { return w.tr }

// Open admits a new session. The name is informational (results, errors).
func (w *Wall) Open(name string) (*Session, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.tr.AbortCause(); err != nil {
		return nil, err
	}
	if !w.hasRoot {
		return nil, ErrNoLocalRoot
	}
	if w.closed {
		return nil, ErrWallClosed
	}
	if w.active >= w.cfg.MaxSessions {
		return nil, &TooManySessionsError{
			Active:     w.active,
			Max:        w.cfg.MaxSessions,
			RetryAfter: w.retryAfterLocked(),
		}
	}
	w.nextID++
	s := &Session{
		w:         w,
		id:        w.nextID,
		name:      name,
		openedAt:  time.Now(),
		scanner:   newUnitScanner(),
		tokens:    make(chan struct{}, w.cfg.MaxInFlightPictures),
		drained:   make(chan struct{}),
		failedCh:  make(chan struct{}),
		splitters: make([]*splitter.SecondResult, maxInt(1, w.cfg.K)),
		decoders:  make([]*pdec.Result, w.cfg.M*w.cfg.N),
	}
	for i := 0; i < cap(s.tokens); i++ {
		s.tokens <- struct{}{}
	}
	w.active++
	w.loadAct.Store(int64(w.active))
	w.sessions[s.id] = s
	return s, nil
}

// retryAfterLocked estimates how long a rejected Open should back off: the
// wall's average session duration minus the progress of the oldest in-flight
// session — an optimistic guess at when the next admission slot drains.
// Callers hold w.mu.
func (w *Wall) retryAfterLocked() time.Duration {
	const floor = 10 * time.Millisecond
	avg := w.avgSession
	if avg <= 0 {
		return 100 * time.Millisecond // no history yet
	}
	var oldest time.Duration
	for _, s := range w.sessions {
		if el := time.Since(s.openedAt); el > oldest {
			oldest = el
		}
	}
	if hint := avg - oldest; hint > floor {
		return hint
	}
	return floor
}

// Close drains the wall: it waits for every open session to close, shuts the
// node servers down, and (when the transport is owned) releases it. Returns
// the abort cause if the pipeline failed.
func (w *Wall) Close() error {
	w.closeOnce.Do(func() {
		w.mu.Lock()
		w.closed = true
		for w.active > 0 && w.tr.AbortCause() == nil {
			w.idle.Wait()
		}
		w.mu.Unlock()
		if w.hasRoot && w.tr.AbortCause() == nil {
			select {
			case w.work <- workItem{kind: workShutdown}:
			case <-w.tr.Done():
			}
		}
		w.wg.Wait()
		close(w.quit)
		if w.rv != nil {
			w.rv.sup.Close()
		}
		if w.ownTr {
			w.tr.Shutdown()
		}
		w.closeErr = w.tr.AbortCause()
	})
	return w.closeErr
}

// sessionDone releases a session's admission slot and folds its duration
// into the EWMA behind Open's RetryAfter hint.
func (w *Wall) sessionDone(s *Session) {
	w.mu.Lock()
	delete(w.sessions, s.id)
	w.active--
	w.loadAct.Store(int64(w.active))
	dur := time.Since(s.openedAt)
	if w.avgSession == 0 {
		w.avgSession = dur
	} else {
		w.avgSession = (3*w.avgSession + dur) / 4
	}
	w.idle.Broadcast()
	w.mu.Unlock()
}

// onSecondResult and onDecoderResult publish a node's session result. The
// first publication wins: a respawned splitter re-processes a session final
// the root replays to it, and its late duplicate must not overwrite a result
// that Session.Close may already be reading (the node's first drain ack
// released the session's waiter).
func (w *Wall) onSecondResult(session, idx int, res *splitter.SecondResult) {
	w.mu.Lock()
	if s := w.sessions[session]; s != nil && s.splitters[idx] == nil {
		s.splitters[idx] = res
	}
	w.mu.Unlock()
}

func (w *Wall) onFrame(session, picIdx, tile int, buf *mpeg2.PixelBuf) {
	if w.rv != nil {
		w.rv.noteFrame(session, picIdx, tile)
	}
	if w.cfg.OnTileFrame != nil {
		w.cfg.OnTileFrame(session, picIdx, tile, buf)
	}
	if !w.cfg.CollectFrames {
		return
	}
	w.mu.Lock()
	s := w.sessions[session]
	w.mu.Unlock()
	if s != nil && s.collector != nil {
		s.collector.add(tile, buf)
	}
}

func (w *Wall) onDecoderResult(session, tile int, res *pdec.Result) {
	w.mu.Lock()
	if s := w.sessions[session]; s != nil && s.decoders[tile] == nil {
		s.decoders[tile] = res
	}
	w.mu.Unlock()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
