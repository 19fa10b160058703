package conformance

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/service"
	"tiledwall/internal/system"
	"tiledwall/internal/wall"
)

// Resident chaos extends the chaos oracle from the one-shot pipeline to the
// resident service: ONE warm wall, several concurrent ragged-chunk sessions,
// and seeded faults — decoder/splitter kills, and on the TCP transport hard
// link resets (RST) mid-session. The contract:
//
//   - every session returns (no hang): success, or a typed error
//     (ErrSessionFailed / ErrSessionDisrupted / a stream syntax error);
//   - a fault never aborts the wall or a sibling session;
//   - successful sessions emit every picture index exactly once per tile;
//   - sessions whose recovery snapshot is Clean are byte-identical with the
//     serial reference, faults elsewhere on the wall notwithstanding.

// ResidentChaosOptions parameterises one resident chaos soak.
type ResidentChaosOptions struct {
	// Seed derives every per-configuration random stream (kill sites, link
	// failure schedule), making a soak reproducible from one number.
	Seed int64
	// Transport selects "fabric" or "tcp" (the recoverable socket transport).
	Transport string
	// Sessions is the number of concurrent ragged-chunk sessions per wall.
	Sessions int
	// KillDecoder / KillSplitter arm one seeded node crash per wall.
	KillDecoder  bool
	KillSplitter bool
	// LinkFailures injects this many seeded hard connection resets
	// (TCPTransport.InjectLinkFailure) while sessions are in flight. TCP
	// only; ignored on the fabric.
	LinkFailures int
	// StallTimeout bounds a hung run (watchdog backstop); 0 means 30s.
	StallTimeout time.Duration
}

// ResidentSessionOutcome is one session's verdict.
type ResidentSessionOutcome struct {
	Name     string
	Err      error
	Recovery metrics.RecoverySnapshot
	// ExactlyOnceViolation describes the first emission-log violation on a
	// successful session, or "".
	ExactlyOnceViolation string
	// Divergence is the serial diff, populated only for Clean sessions.
	Divergence *Divergence
}

// ResidentChaosResult is the outcome of one wall configuration under chaos.
type ResidentChaosResult struct {
	Config   system.Config
	Sessions []ResidentSessionOutcome
	// WallRecovery is the wall-level intervention snapshot (restarts and
	// replays are charged to the wall, not a session).
	WallRecovery metrics.RecoverySnapshot
	// Health is the wall state observed after all sessions closed.
	Health service.Health
	// CloseErr is the wall teardown error (a fault must not poison it).
	CloseErr error
	// KilledTile, KilledSplitter and KilledAt record armed kills (-1 = none).
	KilledTile, KilledSplitter, KilledAt int
}

// Name renders the configuration in the paper's notation.
func (r ResidentChaosResult) Name() string {
	return fmt.Sprintf("1-%d-(%d,%d)ov%d/%s", r.Config.K, r.Config.M, r.Config.N,
		r.Config.Overlap, r.Config.Transport)
}

// TypedSessionError reports whether err is one of the bounded failure modes a
// chaos session is allowed to end with.
func TypedSessionError(err error) bool {
	return errors.Is(err, service.ErrSessionFailed) ||
		errors.Is(err, service.ErrSessionDisrupted) ||
		errors.Is(err, mpeg2.ErrCorruptStream) ||
		errors.Is(err, mpeg2.ErrUnsupported)
}

// RunResidentChaos soaks every configuration on one resident wall each under
// seeded faults and reports per-session verdicts. The serial decode error, if
// any, is returned directly.
func RunResidentChaos(stream []byte, configs []system.Config, opt ResidentChaosOptions) ([]ResidentChaosResult, error) {
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		return nil, fmt.Errorf("conformance: serial parse: %w", err)
	}
	ref, err := dec.DecodeAll()
	if err != nil {
		return nil, fmt.Errorf("conformance: serial decode: %w", err)
	}
	picW, picH := dec.Seq().MBWidth()*16, dec.Seq().MBHeight()*16
	if opt.Sessions <= 0 {
		opt.Sessions = 3
	}
	stall := opt.StallTimeout
	if stall <= 0 {
		stall = 30 * time.Second
	}
	out := make([]ResidentChaosResult, 0, len(configs))
	for ci, cfg := range configs {
		rng := rand.New(rand.NewSource(opt.Seed*1000003 + int64(ci)))
		cfg.CollectFrames = true
		cfg.Transport = opt.Transport
		cfg.Recovery = chaosRecoveryConfig()
		cfg.Fabric.StallTimeout = stall
		if cfg.MaxSessions < opt.Sessions {
			cfg.MaxSessions = opt.Sessions
		}
		res := ResidentChaosResult{KilledTile: -1, KilledSplitter: -1, KilledAt: -1}
		if (opt.KillDecoder || opt.KillSplitter) && len(ref) > 2 {
			res.KilledAt = 1 + rng.Intn(len(ref)-2)
			cfg.Chaos.KillAtPicture = res.KilledAt
			if opt.KillDecoder {
				res.KilledTile = rng.Intn(cfg.M * cfg.N)
				cfg.Chaos.KillDecoder = true
				cfg.Chaos.DecoderTile = res.KilledTile
			}
			if opt.KillSplitter && cfg.K > 0 {
				res.KilledSplitter = rng.Intn(cfg.K)
				cfg.Chaos.KillSplitter = true
				cfg.Chaos.SplitterIdx = res.KilledSplitter
			}
		}
		res.Config = cfg
		w, err := service.New(cfg)
		if err != nil {
			res.Sessions = []ResidentSessionOutcome{{Name: "wall", Err: err}}
			out = append(out, res)
			continue
		}

		// Link failure schedule, computed up front so the rng stays
		// deterministic: each entry resets one decoder node's socket after a
		// seeded delay, while sessions are mid-flight.
		type linkHit struct {
			after time.Duration
			node  int
		}
		var hits []linkHit
		if opt.Transport == "tcp" && opt.LinkFailures > 0 {
			for j := 0; j < opt.LinkFailures; j++ {
				hits = append(hits, linkHit{
					after: time.Duration(20+rng.Intn(120)) * time.Millisecond,
					node:  cfg.Grid().TileNode(rng.Intn(cfg.M * cfg.N)),
				})
			}
		}
		var wg sync.WaitGroup
		if len(hits) > 0 {
			if tp, ok := w.Transport().(*cluster.TCPTransport); ok {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for _, h := range hits {
						time.Sleep(h.after)
						tp.InjectLinkFailure(h.node)
					}
				}()
			}
		}

		outcomes := make([]ResidentSessionOutcome, opt.Sessions)
		for i := 0; i < opt.Sessions; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				outcomes[i].Name = fmt.Sprintf("chaos-%d", i)
				sres, err := playChunkedResult(w, stream, i)
				if err != nil {
					outcomes[i].Err = err
					return
				}
				outcomes[i].Recovery = sres.Recovery
				outcomes[i].ExactlyOnceViolation = emissionViolation(sres.TileEmissions, len(ref))
				if sres.Recovery.Clean() {
					geo, gerr := wall.NewGeometry(picW, picH, cfg.M, cfg.N, cfg.Overlap)
					if gerr != nil {
						geo = nil
					}
					outcomes[i].Divergence = Diff(ref, sres.Frames, geo)
				}
			}()
		}
		wg.Wait()
		res.Sessions = outcomes
		res.WallRecovery = w.Recovery()
		res.Health = w.Health()
		res.CloseErr = w.Close()
		out = append(out, res)
	}
	return out, nil
}

// ResidentChaosConfigs is the mixed-geometry sweep RunResidentChaos soaks:
// hierarchical walls with one and two splitters plus the one-level system, so
// root replay, splitter respawn and the combined-root path are all exercised,
// each with the slab-refcount composition with recovery (DESIGN.md §9) under
// kills.
func ResidentChaosConfigs() []system.Config {
	return []system.Config{
		{K: 2, M: 2, N: 2},
		{K: 1, M: 2, N: 1, Overlap: 8},
		{K: 0, M: 2, N: 2},
	}
}

// recoveryForIsolation builds a recovery-enabled wall config for the failure
// isolation tests (no chaos plan: the fault is the stream itself).
func recoveryForIsolation(base system.Config, transport string, sessions int) system.Config {
	base.CollectFrames = true
	base.Transport = transport
	base.Recovery = chaosRecoveryConfig()
	base.Fabric.StallTimeout = 30 * time.Second
	if base.MaxSessions < sessions {
		base.MaxSessions = sessions
	}
	return base
}

// RunCorruptIsolation plays one corrupt stream concurrently with good
// sessions on a recovery-enabled resident wall, and reports (corruptErr,
// per-good-session divergences, wall close error). The corrupt session must
// fail typed — or at worst degrade — without touching its siblings. A good
// session that comes back degraded gets an error carrying the wall's
// recovery counters and health, the corrupt session's outcome and a dump of
// every goroutine's stack, all taken before the wall closes.
func RunCorruptIsolation(stream []byte, base system.Config, transport string, kind CorruptionKind, seed int64) (corruptErr error, goodErrs []error, divs []*Divergence, closeErr error, err error) {
	dec, derr := mpeg2.NewDecoder(stream)
	if derr != nil {
		return nil, nil, nil, nil, fmt.Errorf("conformance: serial parse: %w", derr)
	}
	ref, derr := dec.DecodeAll()
	if derr != nil {
		return nil, nil, nil, nil, fmt.Errorf("conformance: serial decode: %w", derr)
	}
	picW, picH := dec.Seq().MBWidth()*16, dec.Seq().MBHeight()*16
	const good = 2
	cfg := recoveryForIsolation(base, transport, good+1)
	w, werr := service.New(cfg)
	if werr != nil {
		return nil, nil, nil, nil, werr
	}
	bad := Corrupt(stream, kind, seed)
	goodErrs = make([]error, good)
	divs = make([]*Divergence, good)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sess, oerr := w.Open("corrupt")
		if oerr != nil {
			corruptErr = oerr
			return
		}
		if ferr := sess.Feed(bad); ferr != nil {
			sess.Close()
			corruptErr = ferr
			return
		}
		_, corruptErr = sess.Close()
	}()
	for i := 0; i < good; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			sres, serr := playChunkedResult(w, stream, i)
			if serr != nil {
				goodErrs[i] = serr
				return
			}
			if !sres.Recovery.Clean() {
				goodErrs[i] = fmt.Errorf("%w: %+v", errSiblingDegraded, sres.Recovery)
				return
			}
			geo, gerr := wall.NewGeometry(picW, picH, cfg.M, cfg.N, cfg.Overlap)
			if gerr != nil {
				geo = nil
			}
			divs[i] = Diff(ref, sres.Frames, geo)
		}()
	}
	wg.Wait()
	var diag string
	for i, gerr := range goodErrs {
		if errors.Is(gerr, errSiblingDegraded) {
			if diag == "" {
				diag = isolationDiagnostics(w, corruptErr)
			}
			goodErrs[i] = fmt.Errorf("%w\n%s", gerr, diag)
		}
	}
	closeErr = w.Close()
	return corruptErr, goodErrs, divs, closeErr, nil
}

// errSiblingDegraded marks a good session that came back with concealment
// or timeouts while a corrupt sibling shared its wall.
var errSiblingDegraded = errors.New("good session degraded by sibling corruption")

// isolationDiagnostics captures, while the wall is still open, what one
// failed isolation run needs for diagnosis: the wall's recovery counters
// and health, the corrupt session's outcome and every goroutine's stack.
func isolationDiagnostics(w *service.Wall, corruptErr error) string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) || len(buf) >= 64<<20 {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	return fmt.Sprintf("wall recovery: %+v\nwall health: %v\ncorrupt session outcome: %v\ngoroutines:\n%s",
		w.Recovery(), w.Health(), corruptErr, buf)
}
