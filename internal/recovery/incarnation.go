package recovery

import (
	"tiledwall/internal/metrics"
)

// Incarnation wires fault masking into one resident node-server incarnation,
// splitter or tile decoder. The wall builds one per (re)spawn from its
// recovery state.
type Incarnation struct {
	// Cfg is the wall's tuned configuration (WithDefaults already applied).
	Cfg Config
	// Lease is renewed on every receive of the node's serve loop (nil for
	// an unsupervised stage, such as the root's own splitting stage).
	Lease *Lease
	// Chaos is the incarnation's kill plan; the serve loop injects it.
	Chaos ChaosPlan
	// Rec returns the recovery counters to charge for a session's
	// interventions (must not return nil); a tile decoder fetches them once
	// per session.
	Rec func(session int) *metrics.Recovery
	// OnOpen reports every session open the server sees, so the wall's
	// registry can snapshot it for future respawns.
	OnOpen func(session int, header []byte)
	// Resume lists the sessions a respawned incarnation must re-join.
	Resume []ResumeSession
}

// ResumeSession re-opens one session on a respawned node server. A splitter
// needs only ID and Header: it re-forwards the open to the decoders
// (deduplicated there), so a session survives even if every splitter died
// before forwarding it. For a tile decoder, NextPic is the emission frontier
// the dead incarnation reached (one past the highest emitted decode index):
// pictures below it were already displayed and stay displayed; the
// reference chain restarts untrusted and conceals until an I picture
// re-anchors it. Holes lists the decode indices below NextPic the dead
// incarnation never emitted — its held anchor, lost with it — which the
// respawned decoder conceal-emits once so no tile skips a frame.
type ResumeSession struct {
	ID      int
	Header  []byte
	NextPic int
	Holes   []int
}
