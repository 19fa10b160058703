// Package tiledwall is a from-scratch Go reproduction of "A Parallel
// Ultra-High Resolution MPEG-2 Video Decoder for PC Cluster Based Tiled
// Display Systems" (Chen, Li, Wei — IPDPS 2002): a hierarchical 1-k-(m,n)
// parallel MPEG-2 decoder in which a root splitter distributes pictures to k
// macroblock-level splitters feeding an m×n grid of tile decoders, plus
// every substrate the paper depends on — an MPEG-2 MP video codec, a
// GM/Myrinet-like message fabric, the tiled-wall geometry, the
// coarse-granularity baseline systems of Table 1, and the full benchmark
// harness for the paper's evaluation.
//
// This file is the façade over the implementation packages:
//
//	internal/mpeg2       MPEG-2 bitstream syntax, VLD, IDCT, MC, serial decoder
//	internal/encoder     closed-loop MPEG-2 encoder (test content generation)
//	internal/video       synthetic scene generators (Table 4 analogues)
//	internal/catalog     the 16-stream catalogue and wall configurations
//	internal/cluster     in-process message fabric with GM semantics
//	internal/wall        tile geometry, overlap, frame assembly
//	internal/subpic      sub-pictures: SPH headers and MEI instructions
//	internal/splitter    root + second-level splitters, bit-exact SP cutting
//	internal/pdec        tile decoders (MEI execution, halo windows)
//	internal/system      pipeline assembly, baselines, §4.6 calibration
//	internal/service     resident wall service, session multiplexing
//	internal/experiments the Table/Figure regeneration harness
//
// Quick start (see examples/quickstart for the runnable version):
//
//	stream, _ := tiledwall.GenerateStream(8, tiledwall.GenOptions{Frames: 48})
//	res, _ := tiledwall.Play(stream, tiledwall.WallConfig{K: 2, M: 2, N: 2})
//	fmt.Printf("%.1f fps\n", res.Throughput.FPS())
package tiledwall

import (
	"tiledwall/internal/catalog"
	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/recovery"
	"tiledwall/internal/service"
	"tiledwall/internal/system"
	"tiledwall/internal/wall"
)

// Typed sentinels for the failure modes the pipeline promises to bound.
// Callers match them with errors.Is, without importing internal packages.
var (
	// ErrStalled is returned when fabric traffic dries up while nodes are
	// still blocked — a protocol deadlock, converted by the stall watchdog
	// into a clean, attributable error instead of a hang.
	ErrStalled = cluster.ErrStalled
	// ErrCorruptStream wraps every syntax-level decode failure on malformed
	// input.
	ErrCorruptStream = mpeg2.ErrCorruptStream
	// ErrUnsupported wraps failures on syntax that is valid MPEG-2 but
	// outside the profile this reproduction implements.
	ErrUnsupported = mpeg2.ErrUnsupported
)

// RecoveryConfig tunes the fault-tolerance layer (WallConfig.Recovery):
// heartbeat leases, the per-picture concealment deadline, and the restart
// budget. The zero value leaves recovery off; setting Enabled with zero
// fields picks sensible defaults.
type RecoveryConfig = recovery.Config

// RecoverySnapshot reports the fault-tolerance interventions of a run
// (WallResult.Recovery): restarts, replayed pictures, concealed frames and
// macroblocks, and ack timeouts.
type RecoverySnapshot = metrics.RecoverySnapshot

// WallConfig selects a 1-k-(m,n) configuration (K = 0 for one-level).
type WallConfig = system.Config

// WallResult reports a pipeline run.
type WallResult = system.Result

// GenOptions controls catalogue stream generation.
type GenOptions = catalog.GenOptions

// StreamSpec describes one catalogue stream (paper Table 4).
type StreamSpec = catalog.StreamSpec

// Streams lists the 16 catalogue streams.
func Streams() []StreamSpec { return catalog.Streams }

// GenerateStream renders and encodes catalogue stream id (1..16).
func GenerateStream(id int, opts GenOptions) ([]byte, error) {
	spec, err := catalog.ByID(id)
	if err != nil {
		return nil, err
	}
	return spec.Generate(opts)
}

// Play decodes an MPEG-2 elementary stream on a simulated tiled wall.
func Play(stream []byte, cfg WallConfig) (*WallResult, error) {
	return system.Run(stream, cfg)
}

// ErrTooManySessions is returned by Wall.Open/Wall.Play when the wall's
// MaxSessions admission bound is reached. The concrete error is a
// *TooManySessionsError carrying a RetryAfter hint; see that type for the
// caller backoff contract.
var ErrTooManySessions = service.ErrTooManySessions

// TooManySessionsError is the concrete admission-rejection error: Active and
// Max report the bound that was hit, RetryAfter is the wall's estimate of
// when a slot frees up (derived from observed session durations and the
// oldest active session's progress).
//
// Backoff contract: sleep RetryAfter, then retry; on repeated rejection,
// multiply the wait (e.g. 1.5–2×) and cap it — RetryAfter is a hint, not a
// reservation, so concurrent openers may still race for the freed slot.
// errors.Is(err, ErrTooManySessions) matches it.
type TooManySessionsError = service.TooManySessionsError

// Typed sentinels for session-isolated recovery failures on a resident wall.
var (
	// ErrSessionFailed wraps errors from sessions that failed in isolation
	// (e.g. a corrupt stream poisoning its own splitter) while the wall and
	// its other sessions kept running.
	ErrSessionFailed = service.ErrSessionFailed
	// ErrSessionDisrupted wraps errors from sessions torn down because a
	// fault exhausted the recovery budget mid-session (e.g. a node dead past
	// its restart budget, a drain that never completed).
	ErrSessionDisrupted = service.ErrSessionDisrupted
)

// Health is a resident wall's fault-tolerance state: Healthy (all node loops
// live), Recovering (a node loop died and is being respawned), Degraded (all
// loops live again, but a session closed unclean since — concealed or lost
// frames were served). A clean session close returns the wall to Healthy.
type Health = service.Health

// Health states, re-exported for switch statements.
const (
	Healthy    = service.Healthy
	Recovering = service.Recovering
	Degraded   = service.Degraded
)

// Wall is a resident decoding service: the pipeline is built once by NewWall
// and serves any number of streams — sequentially or concurrently — until
// Close. Play on a warm wall skips the per-run pipeline construction that
// dominates short batch runs.
type Wall struct {
	w *system.ResidentWall
}

// Session is an incrementally-fed stream on a resident wall (Wall.Open).
type Session = service.Session

// TileSet is a session subscription: the set of tiles whose output the
// session wants (Session.Subscribe). The zero value subscribes every tile.
// Build partial sets with NewTileSet/Add or RectTileSet.
type TileSet = wall.TileSet

// NewTileSet returns an empty subscription over n tiles (n = M*N); add tiles
// with Add (row-major index row*M+col).
func NewTileSet(n int) TileSet { return wall.NewTileSet(n) }

// RectTileSet subscribes the inclusive tile rectangle rows r0..r1 × columns
// c0..c1 of an M-column, N-row wall.
func RectTileSet(m, n, r0, c0, r1, c1 int) (TileSet, error) {
	return wall.RectTileSet(m, n, r0, c0, r1, c1)
}

// TrickMode selects a session's trick-play drop ladder
// (Session.SetTrickMode): dropped pictures never reach the splitters.
type TrickMode = service.TrickMode

// Trick-play modes: TrickNone ships every picture, TrickDropB ships I and P
// only (fast forward at full reference fidelity), TrickIOnly ships I only
// (seek/scrub preview).
const (
	TrickNone  = service.TrickNone
	TrickIOnly = service.TrickIOnly
	TrickDropB = service.TrickDropB
)

// SubscriptionEvent records one subscription/trick activation on a session
// (SessionResult.Subscriptions): the change took effect at shipped picture
// index Picture, always an I-picture boundary.
type SubscriptionEvent = service.SubscriptionEvent

// NewWall builds a resident wall for the configuration. With
// WallConfig.Recovery enabled the wall is fault-tolerant as a service:
// crashed splitter/decoder loops are respawned and their sessions resumed
// (replay + concealment), a corrupt stream fails only its own session
// (ErrSessionFailed), faults past the budget disrupt rather than hang
// (ErrSessionDisrupted), and Wall.Health reports the state machine.
func NewWall(cfg WallConfig) (*Wall, error) {
	w, err := system.NewResidentWall(cfg)
	if err != nil {
		return nil, err
	}
	return &Wall{w: w}, nil
}

// Play decodes one complete stream as one session on the resident wall.
// Safe to call from concurrent goroutines, up to the wall's MaxSessions.
func (w *Wall) Play(stream []byte) (*WallResult, error) { return w.w.Play(stream) }

// Open starts a session for incremental feeding: Session.Feed accepts chunks
// split at arbitrary byte boundaries, Session.Close drains and reports.
func (w *Wall) Open(name string) (*Session, error) { return w.w.Open(name) }

// Close drains open sessions, shuts the pipeline down, and reports the abort
// cause if any node failed.
func (w *Wall) Close() error { return w.w.Close() }

// Health reports the wall's fault-tolerance state (always Healthy when
// Recovery is disabled).
func (w *Wall) Health() Health { return w.w.Health() }

// Decode runs the serial reference decoder, returning pictures in display
// order.
func Decode(stream []byte) ([]mpeg2.DecodedPicture, error) {
	dec, err := mpeg2.NewDecoder(stream)
	if err != nil {
		return nil, err
	}
	return dec.DecodeAll()
}

// Calibrate measures the §4.6 split/decode costs and recommends k.
func Calibrate(stream []byte, m, n, overlap, maxPics int) (*system.Calibration, error) {
	return system.Calibrate(stream, m, n, overlap, maxPics)
}
