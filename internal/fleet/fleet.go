// Package fleet is the front door for a farm of resident walls: one admission
// point that owns W warm service.Walls (heterogeneous geometries allowed),
// routes each Open to the least-loaded compatible wall, queues admissions
// instead of refusing them, and recycles walls whose pipeline died.
//
// The router applies the paper's DynamicBalance idea one level up: just as the
// root picks the splitter with the most credit for the next picture, the fleet
// picks the wall with the lowest load (active sessions + an EWMA of in-flight
// pictures) for the next session. Admission control turns the wall-level
// TooManySessionsError into a queue: an Open that cannot be placed waits up to
// its deadline, is granted in priority order under a weighted-credit scheme
// (so bulk traffic never starves but never crowds out interactive opens), and
// is shed with a typed AdmissionTimeoutError carrying the wall-level retry
// hint when the deadline expires.
package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tiledwall/internal/service"
	"tiledwall/internal/wall"
)

// RoutePolicy selects how Open picks among eligible walls.
type RoutePolicy int

const (
	// LeastLoaded routes to the eligible wall with the lowest score
	// (active sessions + EWMA in-flight pictures), with a rotating
	// tie-break so equal walls share work. The default.
	LeastLoaded RoutePolicy = iota
	// RoundRobin rotates over eligible walls regardless of load. Kept as the
	// baseline the routing property test beats, and as an escape hatch.
	RoundRobin
)

// Priority is a session's admission class. Under overload, grants are
// interleaved by weighted credits (4:2:1 interactive:standard:bulk per
// cycle), so higher classes go first but lower classes always progress.
type Priority int

const (
	Interactive Priority = iota
	Standard
	Bulk

	numClasses = 3
)

func (p Priority) String() string {
	switch p {
	case Interactive:
		return "interactive"
	case Standard:
		return "standard"
	case Bulk:
		return "bulk"
	}
	return fmt.Sprintf("priority(%d)", int(p))
}

// classCredits is the per-cycle grant budget of each class. A grant cycle
// hands out up to 4 interactive, 2 standard, and 1 bulk admission; when every
// class with waiters is out of credit the budgets refill. Bulk therefore gets
// at least one grant per seven even under a sustained interactive flood.
var classCredits = [numClasses]int{4, 2, 1}

// Tenant is a per-tenant QoS budget, enforced at the router.
type Tenant struct {
	// MaxSessions caps the tenant's concurrently open sessions across the
	// whole fleet. 0 means unlimited.
	MaxSessions int
	// MaxInFlightPictures caps the tenant's aggregate in-flight-picture
	// reservation: each admitted session reserves its wall's per-session
	// in-flight bound against this budget, so a tenant cannot occupy more
	// pipeline backlog than it paid for no matter how it feeds. 0 means
	// unlimited.
	MaxInFlightPictures int
}

// Config configures a fleet.
type Config struct {
	// Walls are the wall shapes to spawn, one warm service.Wall each.
	// Wired and LocalNodes must be unset: the fleet owns its walls'
	// transports (it needs Abort/Done for recycling).
	Walls []service.Config

	// OpenDeadline bounds how long a queued Open waits for capacity before
	// it is shed with an AdmissionTimeoutError. Open's per-call Deadline
	// overrides it. Default 10s.
	OpenDeadline time.Duration

	// MaxQueue bounds the admission queue across all classes; an Open
	// arriving at a full queue is shed immediately (QueueFull set).
	// Default 4x the fleet's aggregate session capacity.
	MaxQueue int

	// Route selects the routing policy. Default LeastLoaded.
	Route RoutePolicy

	// Tenants maps tenant names to QoS budgets. Sessions naming an
	// unlisted tenant (or none) are unconstrained.
	Tenants map[string]Tenant

	// DisableRecycle turns off automatic wall recycling (watcher + health
	// poller still run, but never respawn). Tests use it to observe a dead
	// wall staying dead.
	DisableRecycle bool

	// HealthInterval is the health poller period: a wall observed Degraded
	// on two consecutive polls is drained and respawned. Default 250ms.
	HealthInterval time.Duration
}

var (
	// ErrFleetClosed is returned by Open after Close, and delivered to
	// waiters shed by Close.
	ErrFleetClosed = errors.New("fleet: fleet closed")
	// ErrAdmissionTimeout is the sentinel wrapped by AdmissionTimeoutError.
	ErrAdmissionTimeout = errors.New("fleet: admission timed out")
	// ErrNoCompatibleWall means no wall in the fleet can ever satisfy the
	// open's constraints (MinTiles exceeds every wall), regardless of load.
	ErrNoCompatibleWall = errors.New("fleet: no compatible wall")
)

// AdmissionTimeoutError reports a shed Open: the fleet stayed at capacity for
// the caller's whole deadline (or the queue itself was full). It wraps both
// ErrAdmissionTimeout and the wall-level TooManySessionsError so existing
// errors.Is(err, service.ErrTooManySessions) retry loops keep working, and
// Busy.RetryAfter carries the fleet's EWMA-derived backoff hint.
type AdmissionTimeoutError struct {
	// Waited is how long the open was queued before shedding (zero when
	// QueueFull).
	Waited time.Duration
	// Queued is the admission-queue depth at shed time.
	Queued int
	// QueueFull marks an immediate shed: the queue was at MaxQueue.
	QueueFull bool
	// Busy is the capacity picture at shed time, including the retry hint.
	Busy *service.TooManySessionsError
}

func (e *AdmissionTimeoutError) Error() string {
	if e.QueueFull {
		return fmt.Sprintf("%v: queue full (%d waiting, %d/%d sessions, retry after %v)",
			ErrAdmissionTimeout, e.Queued, e.Busy.Active, e.Busy.Max, e.Busy.RetryAfter)
	}
	return fmt.Sprintf("%v: waited %v (%d waiting, %d/%d sessions, retry after %v)",
		ErrAdmissionTimeout, e.Waited, e.Queued, e.Busy.Active, e.Busy.Max, e.Busy.RetryAfter)
}

func (e *AdmissionTimeoutError) Unwrap() []error {
	return []error{ErrAdmissionTimeout, e.Busy}
}

// foldEWMA folds one observation into the session-duration EWMA with the same
// 3:1 weighting the wall-level RetryAfter hint uses. A zero prev seeds from
// the observation.
func foldEWMA(prev, d time.Duration) time.Duration {
	if prev == 0 {
		return d
	}
	return (3*prev + d) / 4
}

// incarnation is one lifetime of a wall in a slot: a recycle retires the
// incarnation and installs a fresh one with gen+1.
type incarnation struct {
	w   *service.Wall
	gen int
	// active is the fleet's own count of open sessions on this incarnation,
	// guarded by Fleet.mu. It is authoritative for admission (all opens go
	// through the fleet), so the fleet never trips the wall's own limit.
	active int
	// tileLoad is the subscribed-tile load: the sum of each active session's
	// subscribed fraction of the wall (1 for full-wall sessions). Guarded by
	// Fleet.mu; the router scores on this, so windowed sessions pack.
	tileLoad float64
	// down marks the incarnation dead or draining: no further routes.
	down bool

	stop     chan struct{}
	stopOnce sync.Once
}

func (inc *incarnation) retire() { inc.stopOnce.Do(func() { close(inc.stop) }) }

// wallSlot is a stable position in the fleet: the slot's shape never changes,
// its incarnation does.
type wallSlot struct {
	idx   int
	cfg   service.Config // normalized: explicit MaxSessions/MaxInFlightPictures
	tiles int

	cur *incarnation
	// ewma smooths the wall's in-flight-picture count, sampled at every
	// scoring pass; fresh incarnations start at zero.
	ewma float64
	// recycles counts completed drain→close→respawn cycles for this slot.
	recycles int
	// degradedTicks counts consecutive health polls observing Degraded.
	degradedTicks int
}

// waiter is one queued Open. ch is buffered so grant and shed never block
// under the fleet lock; done flips under the lock so the opener's deadline
// timer and a racing grant agree on who won.
type waiter struct {
	name string
	opt  OpenOptions
	enq  time.Time
	ch   chan *Session
	done bool
	err  error
}

type tenantState struct {
	cfg      Tenant
	sessions int
	reserved int
}

// Fleet is the admission front door over a set of warm walls.
type Fleet struct {
	cfg Config

	mu     sync.Mutex
	slots  []*wallSlot
	queues [numClasses][]*waiter
	queued int
	// credits is the remaining grant budget of each class this cycle.
	credits [numClasses]int
	tenants map[string]*tenantState
	rr      int
	// avgSession is the EWMA of completed session durations, behind the
	// RetryAfter hint on shed opens.
	avgSession time.Duration

	granted  int64
	shed     int64
	recycled int64

	closed    bool
	closeOnce sync.Once
	closeErr  error

	quit chan struct{}
	wg   sync.WaitGroup
}

// New builds the fleet and spawns every wall warm. The wall configs are
// normalized (defaults made explicit) so the router knows each wall's exact
// admission and in-flight bounds; respawns reuse the normalized config.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Walls) == 0 {
		return nil, errors.New("fleet: config needs at least one wall")
	}
	if cfg.OpenDeadline <= 0 {
		cfg.OpenDeadline = 10 * time.Second
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 250 * time.Millisecond
	}
	f := &Fleet{
		cfg:     cfg,
		credits: classCredits,
		tenants: map[string]*tenantState{},
		quit:    make(chan struct{}),
	}
	for name, t := range cfg.Tenants {
		f.tenants[name] = &tenantState{cfg: t}
	}
	capacity := 0
	for i := range cfg.Walls {
		wc := cfg.Walls[i]
		if wc.Wired != nil || wc.LocalNodes != nil {
			return nil, fmt.Errorf("fleet: wall %d: the fleet owns its walls' transports", i)
		}
		if wc.M <= 0 {
			wc.M = 1
		}
		if wc.N <= 0 {
			wc.N = 1
		}
		if wc.MaxSessions <= 0 {
			wc.MaxSessions = 8
		}
		if wc.MaxInFlightPictures <= 0 {
			wc.MaxInFlightPictures = 8
		}
		f.slots = append(f.slots, &wallSlot{idx: i, cfg: wc, tiles: wc.M * wc.N})
		capacity += wc.MaxSessions
	}
	if f.cfg.MaxQueue <= 0 {
		f.cfg.MaxQueue = 4 * capacity
	}
	for _, sl := range f.slots {
		w, err := service.New(sl.cfg)
		if err != nil {
			for _, prev := range f.slots {
				if prev.cur != nil {
					prev.cur.retire()
					prev.cur.w.Close()
				}
			}
			return nil, fmt.Errorf("fleet: wall %d: %w", sl.idx, err)
		}
		inc := &incarnation{w: w, stop: make(chan struct{})}
		sl.cur = inc
		f.wg.Add(1)
		go f.watch(sl, inc)
	}
	f.wg.Add(1)
	go f.poll()
	return f, nil
}

// OpenOptions parameterize one admission.
type OpenOptions struct {
	// Tenant names the QoS budget the session draws from; empty or unknown
	// tenants are unconstrained.
	Tenant string
	// Priority is the admission class under overload. Zero value is
	// Interactive (the highest).
	Priority Priority
	// Deadline overrides the fleet's OpenDeadline for this open.
	Deadline time.Duration
	// MinTiles restricts routing to walls with at least this many tiles.
	// With a partial Subscribe it constrains the subscription instead: the
	// session must watch at least MinTiles tiles, since that — not the wall
	// shape — is the output the caller gets.
	MinTiles int
	// Subscribe is the session's initial tile subscription, applied to the
	// admitted session before the caller sees it. Tile indices are
	// geometry-specific, so a partial set routes only to walls with exactly
	// Subscribe.Size() tiles; the router then charges the wall the subscribed
	// tile fraction rather than a whole session, so windowed sessions pack
	// densely where full-wall sessions would not. The zero value subscribes
	// the whole wall (no routing constraint, full load charge).
	Subscribe wall.TileSet
	// Trick is the session's initial trick-play mode (service.TrickNone,
	// TrickIOnly, TrickDropB), set on the admitted session before the caller
	// sees it.
	Trick service.TrickMode
}

// eligibleTiles reports whether a wall of nt tiles satisfies the open's
// geometry constraints. A partial subscription binds the open to the geometry
// the set was built for; MinTiles applies to the wall shape only when the
// session watches the whole wall.
func eligibleTiles(nt int, opt OpenOptions) bool {
	if !opt.Subscribe.Full() {
		return nt == opt.Subscribe.Size()
	}
	return nt >= opt.MinTiles
}

// loadWeight is the routing charge of one session: the fraction of the wall's
// tiles it subscribes. Full-wall sessions cost 1; a 4-of-24-tile window costs
// a sixth of that, which is (to first order) its share of the wall's decode
// work once the splitters skip unwatched tiles.
func loadWeight(tiles int, opt OpenOptions) float64 {
	if opt.Subscribe.Full() || tiles <= 0 {
		return 1
	}
	return float64(opt.Subscribe.Count()) / float64(tiles)
}

// Open admits one session: immediately when a compatible wall has room,
// otherwise queued until capacity frees or the deadline sheds it. The
// returned Session has the same Feed/Close single-goroutine contract as
// service.Session.
func (f *Fleet) Open(name string, opt OpenOptions) (*Session, error) {
	if opt.Priority < 0 || opt.Priority >= numClasses {
		return nil, fmt.Errorf("fleet: open %q: unknown priority %d", name, int(opt.Priority))
	}
	if opt.Trick < service.TrickNone || opt.Trick > service.TrickDropB {
		return nil, fmt.Errorf("fleet: open %q: unknown trick mode %d", name, int(opt.Trick))
	}
	if !opt.Subscribe.Full() {
		if opt.Subscribe.Count() == 0 {
			return nil, fmt.Errorf("fleet: open %q: empty subscription", name)
		}
		if opt.Subscribe.Count() < opt.MinTiles {
			return nil, fmt.Errorf("%w: subscription watches %d tiles, MinTiles wants %d",
				ErrNoCompatibleWall, opt.Subscribe.Count(), opt.MinTiles)
		}
	}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrFleetClosed
	}
	compatible := false
	for _, sl := range f.slots {
		if eligibleTiles(sl.tiles, opt) {
			compatible = true
			break
		}
	}
	if !compatible {
		f.mu.Unlock()
		if !opt.Subscribe.Full() {
			return nil, fmt.Errorf("%w: subscription is sized for a %d-tile wall",
				ErrNoCompatibleWall, opt.Subscribe.Size())
		}
		return nil, fmt.Errorf("%w: no wall has %d tiles", ErrNoCompatibleWall, opt.MinTiles)
	}
	if s, ok := f.admitLocked(name, opt); ok {
		f.granted++
		f.mu.Unlock()
		return s, nil
	}
	if f.queued >= f.cfg.MaxQueue {
		f.shed++
		err := f.admissionTimeoutLocked(0, true)
		f.mu.Unlock()
		return nil, err
	}
	wt := &waiter{name: name, opt: opt, enq: time.Now(), ch: make(chan *Session, 1)}
	f.queues[opt.Priority] = append(f.queues[opt.Priority], wt)
	f.queued++
	f.mu.Unlock()

	deadline := opt.Deadline
	if deadline <= 0 {
		deadline = f.cfg.OpenDeadline
	}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case s := <-wt.ch:
		if s == nil {
			return nil, wt.err
		}
		return s, nil
	case <-timer.C:
		f.mu.Lock()
		if wt.done {
			// A grant (or Close) beat the timer to the lock: honor it —
			// the session is already in the channel.
			f.mu.Unlock()
			s := <-wt.ch
			if s == nil {
				return nil, wt.err
			}
			return s, nil
		}
		f.removeWaiterLocked(wt)
		f.shed++
		err := f.admissionTimeoutLocked(time.Since(wt.enq), false)
		f.mu.Unlock()
		return nil, err
	}
}

func (f *Fleet) removeWaiterLocked(wt *waiter) {
	q := f.queues[wt.opt.Priority]
	for i, w := range q {
		if w == wt {
			f.queues[wt.opt.Priority] = append(q[:i], q[i+1:]...)
			f.queued--
			return
		}
	}
}

func (f *Fleet) admissionTimeoutLocked(waited time.Duration, full bool) *AdmissionTimeoutError {
	active, capacity := 0, 0
	for _, sl := range f.slots {
		capacity += sl.cfg.MaxSessions
		if sl.cur != nil && !sl.cur.down {
			active += sl.cur.active
		}
	}
	retry := f.avgSession
	if retry == 0 {
		retry = 100 * time.Millisecond
	} else if retry < 10*time.Millisecond {
		retry = 10 * time.Millisecond
	}
	return &AdmissionTimeoutError{
		Waited:    waited,
		Queued:    f.queued,
		QueueFull: full,
		Busy: &service.TooManySessionsError{
			Active:     active,
			Max:        capacity,
			RetryAfter: retry,
		},
	}
}

// admitLocked tries to place one session now. It walks eligible walls in
// routing order; a wall whose Open fails for anything other than capacity is
// marked down (its watcher recycles it) and the next candidate is tried.
func (f *Fleet) admitLocked(name string, opt OpenOptions) (*Session, bool) {
	tried := make(map[*wallSlot]bool)
	for {
		sl := f.pickLocked(opt, tried)
		if sl == nil {
			return nil, false
		}
		tried[sl] = true
		inc := sl.cur
		s, err := inc.w.Open(name)
		if err != nil {
			if !errors.Is(err, service.ErrTooManySessions) {
				inc.down = true
			}
			continue
		}
		// The subscription and trick mode were validated in Open and the wall
		// geometry matched by eligibility, so these only fail if the wall is
		// dying under us — treat that like a failed route and move on.
		var serr error
		if !opt.Subscribe.Full() {
			serr = s.Subscribe(opt.Subscribe)
		}
		if serr == nil && opt.Trick != service.TrickNone {
			serr = s.SetTrickMode(opt.Trick)
		}
		if serr != nil {
			s.Close()
			inc.down = true
			continue
		}
		inc.active++
		weight := loadWeight(sl.tiles, opt)
		inc.tileLoad += weight
		reserve := 0
		if ts := f.tenants[opt.Tenant]; ts != nil {
			ts.sessions++
			reserve = sl.cfg.MaxInFlightPictures
			ts.reserved += reserve
		}
		return &Session{
			f:        f,
			sl:       sl,
			inc:      inc,
			s:        s,
			tenant:   opt.Tenant,
			reserve:  reserve,
			weight:   weight,
			openedAt: time.Now(),
		}, true
	}
}

// pickLocked returns the next wall to try for this open, or nil when no
// untried wall is eligible. Eligibility: incarnation up, enough tiles, below
// its session cap, and within the tenant's budgets.
func (f *Fleet) pickLocked(opt OpenOptions, tried map[*wallSlot]bool) *wallSlot {
	ts := f.tenants[opt.Tenant]
	if ts != nil {
		if ts.cfg.MaxSessions > 0 && ts.sessions >= ts.cfg.MaxSessions {
			return nil
		}
	}
	var best *wallSlot
	var bestScore float64
	n := len(f.slots)
	for off := 0; off < n; off++ {
		sl := f.slots[(f.rr+off)%n]
		if tried[sl] {
			continue
		}
		inc := sl.cur
		if inc == nil || inc.down {
			continue
		}
		if !eligibleTiles(sl.tiles, opt) {
			continue
		}
		if inc.active >= sl.cfg.MaxSessions {
			continue
		}
		if ts != nil && ts.cfg.MaxInFlightPictures > 0 &&
			ts.reserved+sl.cfg.MaxInFlightPictures > ts.cfg.MaxInFlightPictures {
			continue
		}
		if f.cfg.Route == RoundRobin {
			f.rr = (sl.idx + 1) % n
			return sl
		}
		sc := f.scoreLocked(sl)
		if best == nil || sc < bestScore {
			best, bestScore = sl, sc
		}
	}
	if best != nil {
		// Rotate the tie-break start so equally-loaded walls share work.
		f.rr = (best.idx + 1) % n
	}
	return best
}

// scoreLocked is the wall's routing load: its subscribed-tile load (each
// session charged its subscribed fraction of the wall, so a 4-of-24-tile
// window costs a sixth of a full session) plus an EWMA of its in-flight
// pictures, sampled from the lock-free Load snapshot. The blend mirrors the
// root's DynamicBalance: occupancy steers, backlog breaks ties between
// equally-occupied walls.
func (f *Fleet) scoreLocked(sl *wallSlot) float64 {
	ld := sl.cur.w.Load()
	sl.ewma = 0.75*sl.ewma + 0.25*float64(ld.InFlightPictures)
	return sl.cur.tileLoad + sl.ewma
}

// dispatchLocked grants queued opens while capacity allows.
func (f *Fleet) dispatchLocked() {
	for f.queued > 0 {
		if !f.grantOneLocked() {
			return
		}
	}
}

// grantOneLocked hands one queued open a session, honoring class credits:
// classes are scanned in priority order, skipping exhausted budgets. Budgets
// refill only when the scan was blocked by credits alone (a placeable waiter
// sat in a class with none left) — never on a capacity-blocked scan, so a
// grant cycle spans many capacity releases and the 4:2:1 interleave holds
// under sustained overload. Within a class the queue is FIFO, but a waiter
// its tenant budget blocks does not block the waiters behind it.
func (f *Fleet) grantOneLocked() bool {
	refilled := false
	for {
		creditBlocked := false
		for c := 0; c < numClasses; c++ {
			q := f.queues[c]
			if len(q) == 0 {
				continue
			}
			if f.credits[c] <= 0 {
				for _, wt := range q {
					if f.placeableLocked(wt.opt) {
						creditBlocked = true
						break
					}
				}
				continue
			}
			for i := 0; i < len(q); i++ {
				wt := q[i]
				s, ok := f.admitLocked(wt.name, wt.opt)
				if !ok {
					continue
				}
				f.queues[c] = append(q[:i], q[i+1:]...)
				f.queued--
				f.credits[c]--
				f.granted++
				wt.done = true
				wt.ch <- s
				return true
			}
		}
		if !creditBlocked || refilled {
			return false
		}
		f.credits = classCredits
		refilled = true
	}
}

// placeableLocked reports whether an open with these options could be placed
// right now — the pure check behind credit-refill decisions, with none of
// pickLocked's routing side effects.
func (f *Fleet) placeableLocked(opt OpenOptions) bool {
	ts := f.tenants[opt.Tenant]
	if ts != nil && ts.cfg.MaxSessions > 0 && ts.sessions >= ts.cfg.MaxSessions {
		return false
	}
	for _, sl := range f.slots {
		inc := sl.cur
		if inc == nil || inc.down {
			continue
		}
		if !eligibleTiles(sl.tiles, opt) || inc.active >= sl.cfg.MaxSessions {
			continue
		}
		if ts != nil && ts.cfg.MaxInFlightPictures > 0 &&
			ts.reserved+sl.cfg.MaxInFlightPictures > ts.cfg.MaxInFlightPictures {
			continue
		}
		return true
	}
	return false
}

// noteClosed releases a closed session's slot and budgets, folds its duration
// into the retry-hint EWMA, and grants waiting opens the freed capacity.
func (f *Fleet) noteClosed(s *Session) {
	f.mu.Lock()
	s.inc.active--
	s.inc.tileLoad -= s.weight
	if ts := f.tenants[s.tenant]; ts != nil {
		ts.sessions--
		ts.reserved -= s.reserve
	}
	f.avgSession = foldEWMA(f.avgSession, time.Since(s.openedAt))
	f.dispatchLocked()
	f.mu.Unlock()
}

// watch waits for an incarnation's transport to die and recycles it. retire()
// (recycle or Close) ends the watch without recycling.
func (f *Fleet) watch(sl *wallSlot, inc *incarnation) {
	defer f.wg.Done()
	select {
	case <-inc.stop:
	case <-inc.w.Transport().Done():
		f.recycle(sl, inc)
	}
}

// recycle retires an incarnation — drain (the wall's own Close waits for live
// sessions; on a dead transport the sessions fail out instead), close,
// respawn — and installs the successor. Idempotent per incarnation: the
// first caller through the guard does the work.
func (f *Fleet) recycle(sl *wallSlot, inc *incarnation) {
	f.mu.Lock()
	if sl.cur != inc {
		// Another recycle already claimed this incarnation.
		f.mu.Unlock()
		return
	}
	if f.closed || f.cfg.DisableRecycle {
		// No respawn: just take the wall out of rotation so the router
		// stops picking it. (down alone does not dedup recycles — a failed
		// route marks an incarnation down too; claiming sl.cur does.)
		inc.down = true
		f.mu.Unlock()
		return
	}
	inc.down = true
	sl.cur = nil
	f.mu.Unlock()

	inc.retire()
	inc.w.Close()

	w, err := service.New(sl.cfg)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		if err == nil {
			w.Transport().Abort(ErrFleetClosed)
			go w.Close()
		}
		return
	}
	if err != nil {
		// Respawn failed: the slot stays empty and fleet capacity shrinks;
		// nothing routes here again.
		return
	}
	ni := &incarnation{w: w, gen: inc.gen + 1, stop: make(chan struct{})}
	sl.cur = ni
	sl.ewma = 0
	sl.degradedTicks = 0
	sl.recycles++
	f.recycled++
	f.wg.Add(1)
	go f.watch(sl, ni)
	f.dispatchLocked()
}

// poll is the health loop: a wall observed Degraded on two consecutive polls
// is recycled (drained and respawned). Recovering walls are left alone —
// they are already self-healing below the fleet.
func (f *Fleet) poll() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-f.quit:
			return
		case <-t.C:
			var kick []*wallSlot
			var kickInc []*incarnation
			f.mu.Lock()
			for _, sl := range f.slots {
				inc := sl.cur
				if inc == nil || inc.down {
					continue
				}
				if inc.w.Health() == service.Degraded {
					sl.degradedTicks++
					if sl.degradedTicks >= 2 {
						kick = append(kick, sl)
						kickInc = append(kickInc, inc)
					}
				} else {
					sl.degradedTicks = 0
				}
			}
			f.mu.Unlock()
			for i, sl := range kick {
				f.recycle(sl, kickInc[i])
			}
		}
	}
}

// RecycleWall drains wall i and respawns it: the ops hook for rolling a wall
// without dropping its live sessions (its Close waits for them).
func (f *Fleet) RecycleWall(i int) error {
	f.mu.Lock()
	if i < 0 || i >= len(f.slots) {
		f.mu.Unlock()
		return fmt.Errorf("fleet: no wall %d", i)
	}
	sl := f.slots[i]
	inc := sl.cur
	f.mu.Unlock()
	if inc == nil {
		return fmt.Errorf("fleet: wall %d is already recycling", i)
	}
	f.recycle(sl, inc)
	return nil
}

// InjectWallFailure aborts wall i's transport with cause: the chaos hook
// fleet tests use to kill a wall mid-run. The watcher observes the abort and
// recycles the wall.
func (f *Fleet) InjectWallFailure(i int, cause error) error {
	f.mu.Lock()
	if i < 0 || i >= len(f.slots) {
		f.mu.Unlock()
		return fmt.Errorf("fleet: no wall %d", i)
	}
	inc := f.slots[i].cur
	f.mu.Unlock()
	if inc == nil {
		return fmt.Errorf("fleet: wall %d is already recycling", i)
	}
	inc.w.Transport().Abort(cause)
	return nil
}

// WallStats is one wall's slice of Stats.
type WallStats struct {
	Wall     int
	Grid     string // "K<k> <m>x<n>"
	Up       bool
	Health   service.Health
	Load     service.Load
	Recycles int
}

// Stats is a point-in-time fleet snapshot.
type Stats struct {
	Walls          []WallStats
	ActiveSessions int
	Capacity       int
	Queued         int
	Granted        int64
	Shed           int64
	Recycled       int64
}

// Stats snapshots the fleet.
func (f *Fleet) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := Stats{
		Queued:   f.queued,
		Granted:  f.granted,
		Shed:     f.shed,
		Recycled: f.recycled,
	}
	for _, sl := range f.slots {
		ws := WallStats{
			Wall:     sl.idx,
			Grid:     fmt.Sprintf("K%d %dx%d", sl.cfg.K, sl.cfg.M, sl.cfg.N),
			Recycles: sl.recycles,
		}
		st.Capacity += sl.cfg.MaxSessions
		if inc := sl.cur; inc != nil && !inc.down {
			ws.Up = true
			ws.Health = inc.w.Health()
			ws.Load = inc.w.Load()
			st.ActiveSessions += inc.active
		}
		st.Walls = append(st.Walls, ws)
	}
	return st
}

// NumWalls returns the fleet's slot count (including recycling slots).
func (f *Fleet) NumWalls() int { return len(f.slots) }

// Close sheds every waiter with ErrFleetClosed, drains and closes every wall
// concurrently, and waits for the watchers and health poller to exit. Errors
// from walls that were already down (mid-recycle abort causes) are not
// surfaced; the first close error from a live wall is.
func (f *Fleet) Close() error {
	f.closeOnce.Do(func() {
		f.mu.Lock()
		f.closed = true
		close(f.quit)
		for c := range f.queues {
			for _, wt := range f.queues[c] {
				if wt.done {
					continue
				}
				wt.done = true
				wt.err = ErrFleetClosed
				wt.ch <- nil
			}
			f.queues[c] = nil
		}
		f.queued = 0
		var live []*incarnation
		var down []*incarnation
		for _, sl := range f.slots {
			if sl.cur == nil {
				continue
			}
			sl.cur.retire()
			if sl.cur.down {
				down = append(down, sl.cur)
			} else {
				live = append(live, sl.cur)
			}
			sl.cur = nil
		}
		f.mu.Unlock()

		var wg sync.WaitGroup
		var errMu sync.Mutex
		for _, inc := range live {
			wg.Add(1)
			go func(inc *incarnation) {
				defer wg.Done()
				if err := inc.w.Close(); err != nil {
					errMu.Lock()
					if f.closeErr == nil {
						f.closeErr = err
					}
					errMu.Unlock()
				}
			}(inc)
		}
		for _, inc := range down {
			wg.Add(1)
			go func(inc *incarnation) {
				defer wg.Done()
				inc.w.Close()
			}(inc)
		}
		wg.Wait()
		f.wg.Wait()
	})
	return f.closeErr
}
