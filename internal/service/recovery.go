package service

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"tiledwall/internal/metrics"
	"tiledwall/internal/pdec"
	"tiledwall/internal/recovery"
	"tiledwall/internal/splitter"
)

// This file is the wall's recovery wiring (DESIGN.md §6) — the one recovery
// model the repo has, identical over the in-process fabric and TCP:
// supervised incarnation loops for the local splitter and decoder servers, a
// session registry that snapshots what a respawned incarnation must re-join,
// root-side picture retention and replay, and the wall health state machine.
// Failure isolation is per session: a corrupt stream or an exhausted deadline
// budget fails that session with a typed error while the other sessions keep
// flowing. The retainer holds slab references (DESIGN.md §9), so retention
// composes with buffer recycling.

// Health is the resident wall's fault-tolerance state.
type Health int32

const (
	// Healthy: every node loop is live and no session has degraded since the
	// last clean close.
	Healthy Health = iota
	// Recovering: at least one node loop or transport link is down and being
	// respawned or redialed.
	Recovering
	// Degraded: all nodes are back but the most recent recovery left
	// concealed output behind; cleared by the next clean session close.
	Degraded
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Recovering:
		return "recovering"
	case Degraded:
		return "degraded"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

var (
	// ErrSessionFailed marks a session that failed alone — corrupt stream,
	// geometry mismatch — while the wall kept serving the others.
	ErrSessionFailed = errors.New("service: session failed")
	// ErrSessionDisrupted marks a session whose drain never completed within
	// the recovery deadline budget (a node died past its restart budget).
	ErrSessionDisrupted = errors.New("service: session disrupted")
)

// TooManySessionsError is the admission error returned by Open when
// MaxSessions sessions are already active. It wraps ErrTooManySessions and
// adds a retry hint: callers should back off at least RetryAfter (derived
// from the wall's observed session durations and the oldest in-flight
// session's progress), ideally with jitter, before re-trying Open.
type TooManySessionsError struct {
	Active     int
	Max        int
	RetryAfter time.Duration
}

func (e *TooManySessionsError) Error() string {
	return fmt.Sprintf("%v (%d active, max %d, retry after %v)",
		ErrTooManySessions, e.Active, e.Max, e.RetryAfter)
}

func (e *TooManySessionsError) Unwrap() error { return ErrTooManySessions }

// sessionRecState is the registry entry recovery keeps per open session.
type sessionRecState struct {
	header  []byte
	rec     *metrics.Recovery
	emitted [][]int // per tile, emitted decode-order indices in display order
}

// wallRecovery is the service-side recovery state shared by the supervised
// loops, the root, and the health API.
type wallRecovery struct {
	cfg    recovery.Config
	chaos  recovery.ChaosPlan
	rec    *metrics.Recovery // wall-level counters (root-side interventions)
	sup    *recovery.Supervisor
	picRet *recovery.PictureRetainer
	// respawn carries splitter indices whose pending pictures the root must
	// replay after a respawn.
	respawn chan int

	mu       sync.Mutex
	nTiles   int
	down     int
	degraded bool
	sessions map[int]*sessionRecState
}

func newWallRecovery(cfg recovery.Config, chaos recovery.ChaosPlan, k, nTiles int) *wallRecovery {
	rcfg := cfg.WithDefaults()
	rec := &metrics.Recovery{}
	return &wallRecovery{
		cfg:      rcfg,
		chaos:    chaos,
		rec:      rec,
		sup:      recovery.NewSupervisor(rcfg, rec),
		picRet:   recovery.NewPictureRetainer(),
		respawn:  make(chan int, k+1),
		nTiles:   nTiles,
		sessions: map[int]*sessionRecState{},
	}
}

// state returns (creating on demand) the registry entry for a session. The
// create-on-demand path covers counters charged before the open is observed.
func (rv *wallRecovery) stateLocked(session int) *sessionRecState {
	st := rv.sessions[session]
	if st == nil {
		st = &sessionRecState{rec: &metrics.Recovery{}, emitted: make([][]int, rv.nTiles)}
		rv.sessions[session] = st
	}
	return st
}

// noteOpen records a session's header for future respawn resumes. Called
// from every local node server; the first sighting wins.
func (rv *wallRecovery) noteOpen(session int, header []byte) {
	rv.mu.Lock()
	st := rv.stateLocked(session)
	if st.header == nil {
		st.header = append([]byte(nil), header...)
	}
	rv.mu.Unlock()
}

// recFor returns the session's intervention counters.
func (rv *wallRecovery) recFor(session int) *metrics.Recovery {
	rv.mu.Lock()
	rec := rv.stateLocked(session).rec
	rv.mu.Unlock()
	return rec
}

// noteFrame records one tile emission: the registry's emission frontier is
// what a respawned decoder resumes from, and the per-tile index lists are
// the exactly-once evidence chaos tests assert.
func (rv *wallRecovery) noteFrame(session, picIdx, tile int) {
	rv.mu.Lock()
	st := rv.stateLocked(session)
	if tile >= 0 && tile < len(st.emitted) {
		st.emitted[tile] = append(st.emitted[tile], picIdx)
	}
	rv.mu.Unlock()
}

// dropSession removes a closed session from the registry and the root
// retainer, returning its intervention snapshot and emission log.
func (rv *wallRecovery) dropSession(session int) (metrics.RecoverySnapshot, [][]int) {
	rv.mu.Lock()
	st := rv.sessions[session]
	delete(rv.sessions, session)
	rv.mu.Unlock()
	rv.picRet.Drop(session)
	if st == nil {
		return metrics.RecoverySnapshot{}, nil
	}
	return st.rec.Snapshot(), st.emitted
}

// resume snapshots the sessions a respawned incarnation must re-join. A
// splitter (tile < 0) needs only their headers; a decoder also gets each
// session's emission frontier on its tile. B-picture reordering means the
// emitted indices are not contiguous: the dead incarnation's held anchor may
// be missing below indices it already emitted. The frontier is therefore one
// past the highest emitted index, and every hole below it — the lost held
// anchor — is listed for the respawned decoder to conceal-emit once,
// preserving exactly-once delivery.
func (rv *wallRecovery) resume(tile int) []recovery.ResumeSession {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	var out []recovery.ResumeSession
	for id, st := range rv.sessions {
		if st.header == nil {
			continue
		}
		next := 0
		var holes []int
		if tile >= 0 && tile < len(st.emitted) {
			done := map[int]bool{}
			for _, idx := range st.emitted[tile] {
				done[idx] = true
				if idx+1 > next {
					next = idx + 1
				}
			}
			for i := 0; i < next; i++ {
				if !done[i] {
					holes = append(holes, i)
				}
			}
		}
		out = append(out, recovery.ResumeSession{ID: id, Header: st.header, NextPic: next, Holes: holes})
	}
	return out
}

// incarnation builds one node-server incarnation's recovery wiring; nil on a
// wall without recovery.
func (rv *wallRecovery) incarnation(lease *recovery.Lease, chaos recovery.ChaosPlan, resume []recovery.ResumeSession) *recovery.Incarnation {
	if rv == nil {
		return nil
	}
	return &recovery.Incarnation{
		Cfg:    rv.cfg,
		Lease:  lease,
		Chaos:  chaos,
		Rec:    rv.recFor,
		OnOpen: rv.noteOpen,
		Resume: resume,
	}
}

// noteDown and noteUp track node loops and transport links that are down.
// A node death also degrades the wall: what the dead incarnation held is
// lost. A link loss alone does not, because the redial re-sends the queued
// window; whatever it did lose surfaces as an unclean session close.
func (rv *wallRecovery) noteDown(nodeDeath bool) {
	rv.mu.Lock()
	rv.down++
	rv.degraded = rv.degraded || nodeDeath
	rv.mu.Unlock()
}

func (rv *wallRecovery) noteUp() {
	rv.mu.Lock()
	if rv.down > 0 {
		rv.down--
	}
	rv.mu.Unlock()
}

// noteLink is the wall's cluster.TCPConfig.OnLinkState: a lost socket marks
// the wall Recovering until the redial lands, and no longer. It must not
// block (it does not).
func (rv *wallRecovery) noteLink(_ int, up bool) {
	if up {
		rv.noteUp()
	} else {
		rv.noteDown(false)
	}
}

// noteSessionClose feeds the health state machine: a clean close clears the
// degraded flag, a degraded or failed one sets it.
func (rv *wallRecovery) noteSessionClose(clean bool) {
	rv.mu.Lock()
	rv.degraded = !clean
	rv.mu.Unlock()
}

func (rv *wallRecovery) health() Health {
	rv.mu.Lock()
	defer rv.mu.Unlock()
	switch {
	case rv.down > 0:
		return Recovering
	case rv.degraded:
		return Degraded
	default:
		return Healthy
	}
}

// Health reports the wall's fault-tolerance state: Healthy on a wall without
// recovery enabled, otherwise the healthy → recovering → degraded → healthy
// machine driven by node deaths, link losses and session closes.
func (w *Wall) Health() Health {
	if w.rv == nil {
		return Healthy
	}
	return w.rv.health()
}

// Recovery returns the wall-level recovery counters' snapshot (root-side
// interventions; per-session counters ride on SessionResult.Recovery).
func (w *Wall) Recovery() metrics.RecoverySnapshot {
	if w.rv == nil {
		return metrics.RecoverySnapshot{}
	}
	return w.rv.rec.Snapshot()
}

// NoteLink feeds transport link state into the wall's health — wire it to
// the cluster.TCPConfig.OnLinkState of a transport passed in as Wired (New
// wires the loopback transport it builds itself). No-op without recovery
// enabled; safe from any goroutine and must not block (it does not).
func (w *Wall) NoteLink(node int, up bool) {
	if w.rv != nil {
		w.rv.noteLink(node, up)
	}
}

// supervise runs incarnations of the local node server id until clean
// shutdown or a fatal error, which aborts the wall. Without recovery that is
// the one incarnation, with no lease and no respawn. With recovery an
// injected kill parks the node until the supervisor sees its lease expire
// and grants a respawn; the next incarnation re-joins the registry's
// sessions (tile < 0 for a splitter, see resume), after onRespawn, if set,
// has prepared it (false when the wall is unwinding). An exhausted restart
// budget leaves the node dead: its sessions end through concealment and
// drain timeouts — never a wall abort.
func (w *Wall) supervise(id, tile int, serve func(inc *recovery.Incarnation) error, onRespawn func() bool) {
	rv := w.rv
	var lease *recovery.Lease
	var chaos recovery.ChaosPlan
	if rv != nil {
		lease = recovery.NewLease()
		rv.sup.Watch(id, lease)
		chaos = rv.chaos
	}
	inc := rv.incarnation(lease, chaos, nil)
	for {
		err := serve(inc)
		if err == nil {
			return
		}
		if rv == nil || !errors.Is(err, recovery.ErrKilled) {
			w.tr.Abort(err)
			return
		}
		rv.noteDown(true)
		if _, ok := rv.sup.AwaitRespawn(id, w.tr.Done()); !ok {
			return // budget exhausted or wall unwinding; node stays down
		}
		// Each injected kill fires once: later incarnations run no chaos.
		inc = rv.incarnation(lease, recovery.ChaosPlan{}, rv.resume(tile))
		if onRespawn != nil && !onRespawn() {
			return
		}
		rv.noteUp()
	}
}

// runSplitter runs local splitter i. A respawned incarnation re-joins the
// registry's sessions, and the root replays its predecessor's unacked
// pictures.
func (w *Wall) runSplitter(i int) {
	id := w.splitterIDs[i]
	w.supervise(id, -1, func(inc *recovery.Incarnation) error {
		return splitter.ServeSecond(w.tr.Port(id), w.splitterServeCfg(i, inc))
	}, func() bool {
		if w.hasRoot {
			// Ask the root to replay this splitter's unacked pictures; the
			// new incarnation deduplicates overlap with its surviving queue.
			select {
			case w.rv.respawn <- i:
			case <-w.tr.Done():
				return false
			}
		}
		return true
	})
}

// runDecoder runs local tile decoder t. Respawned decoders are not replayed
// to: they resume at their emission frontier and conceal forward until an I
// picture re-anchors the chain.
func (w *Wall) runDecoder(t int) {
	id := w.decoderIDs[t]
	w.supervise(id, t, func(inc *recovery.Incarnation) error {
		return pdec.Serve(w.tr.Port(id), w.decoderServeCfg(t, inc))
	}, nil)
}

// splitterServeCfg builds splitter i's serve configuration — also the
// root's own splitting stage on a one-level wall — with the incarnation's
// recovery wiring (nil without recovery).
func (w *Wall) splitterServeCfg(i int, inc *recovery.Incarnation) splitter.ServeConfig {
	return splitter.ServeConfig{
		Index:        i,
		M:            w.cfg.M,
		N:            w.cfg.N,
		Overlap:      w.cfg.Overlap,
		DecoderNodes: w.decoderIDs,
		RootNode:     0,
		SplitWorkers: w.cfg.SplitWorkers,
		OnResult:     w.onSecondResult,
		Recovery:     inc,
	}
}

// decoderServeCfg builds tile decoder t's serve configuration, with the
// incarnation's recovery wiring as for splitterServeCfg.
func (w *Wall) decoderServeCfg(t int, inc *recovery.Incarnation) pdec.ServeConfig {
	cfg := pdec.ServeConfig{
		Tile:           t,
		M:              w.cfg.M,
		N:              w.cfg.N,
		Overlap:        w.cfg.Overlap,
		MaxFCode:       w.cfg.MaxFCode,
		TileNode:       func(tile int) int { return w.decoderIDs[tile] },
		RootNode:       0,
		UnbatchedSends: w.cfg.UnbatchedExchange,
		OnResult:       w.onDecoderResult,
		NumSplitters:   maxInt(1, w.cfg.K),
		Recovery:       inc,
	}
	// Recovery always observes emissions: the registry's per-tile frontier
	// is what a respawned decoder resumes from.
	if w.cfg.CollectFrames || w.cfg.OnTileFrame != nil || w.rv != nil {
		cfg.OnFrame = w.onFrame
	}
	return cfg
}

// failSession fails one session in isolation (root goroutine only): the
// feeder unblocks with a typed error, and a zero-total session final (sent
// with final, unretained) sweeps the session's state out of every node
// server.
func (w *Wall) failSession(byID map[int]*Session, session int, cause string, final func(session, total int, retain bool)) {
	s := byID[session]
	if s == nil {
		return
	}
	delete(byID, session)
	s.fail(fmt.Errorf("%w: session %q: %s", ErrSessionFailed, s.name, cause))
	final(session, 0, false)
}
