// Package recovery is the supervision layer of the resident wall (DESIGN.md
// §6). The paper's wall must keep projecting when a node hiccups; PR 1's
// fault injection could only *detect* loss (a dropped message stalls the
// pipeline into ErrStalled). One recovery model serves every transport —
// the in-process fabric and TCP alike — masking faults at two levels:
//
//   - node: per-node leases renewed on every picture; a supervisor declares
//     a decoder or second-level splitter dead after missed leases and
//     respawns it in place. A respawned splitter is replayed the unacked
//     pictures the root retained for it (PictureRetainer, preserving the
//     ANID/NSID ordering chain across sessions); a respawned decoder is not
//     replayed to — it resumes at its emission frontier and conceals forward
//     until an I picture re-anchors the reference chain;
//   - output: when a sub-picture or exchanged reference macroblock stays
//     unrecoverable past a per-picture deadline, the owning decoder conceals
//     instead of aborting — freeze-last-frame for a lost tile picture,
//     copy-from-reference for missing halo macroblocks — and every
//     intervention is counted in metrics.Recovery.
//
// The retainer participates in slab reference counting
// (cluster.SlabRef/PutSlab): retaining a payload acquires a reference,
// replaying shares the retained bytes, and the releasing ack or session
// drop returns the reference — the last holder recycles the slab.
package recovery

import (
	"errors"
	"time"
)

// ErrKilled is returned by a supervised worker whose chaos plan told it to
// die: the simulated equivalent of a process crash. The supervision loop in
// internal/system treats it as a death to detect (via lease expiry) and
// recover from; any other error still aborts the run.
var ErrKilled = errors.New("recovery: node killed (injected fault)")

// Config tunes the recovery layer. The zero value disables it entirely,
// preserving PR 1's fail-stop behaviour.
type Config struct {
	// Enabled turns on supervision, picture retention and replay, bounded
	// waits and concealment.
	Enabled bool

	// LeaseInterval is the heartbeat period: workers renew their lease at
	// least this often while making progress. A lease not renewed for
	// LeaseExpiry is declared dead. Defaults: 10ms / 4*LeaseInterval.
	LeaseInterval time.Duration
	LeaseExpiry   time.Duration

	// PictureDeadline bounds how long a decoder waits for a missing
	// sub-picture or reference macroblock before concealing, and how long a
	// splitter waits for credit acks before proceeding. It should comfortably
	// exceed LeaseExpiry so the restart+replay path wins the race against
	// concealment. Default: 400ms.
	PictureDeadline time.Duration

	// MaxRestarts bounds respawns per node; a node that keeps dying past the
	// bound stays dead and the run degrades to concealment (or stalls into
	// the watchdog). Default: 3.
	MaxRestarts int
}

// WithDefaults returns c with zero fields filled in.
func (c Config) WithDefaults() Config {
	if c.LeaseInterval <= 0 {
		c.LeaseInterval = 10 * time.Millisecond
	}
	if c.LeaseExpiry <= 0 {
		c.LeaseExpiry = 4 * c.LeaseInterval
	}
	if c.PictureDeadline <= 0 {
		c.PictureDeadline = 400 * time.Millisecond
	}
	if c.MaxRestarts == 0 {
		c.MaxRestarts = 3
	}
	return c
}

// ChaosPlan injects crashes for tests and the benchwall -chaos mode. The
// zero value injects nothing. Each kill fires once, on the named node's
// first incarnation only: the respawned node must survive.
type ChaosPlan struct {
	// KillDecoder arms a decoder crash: the decoder of DecoderTile dies just
	// before processing picture KillAtPicture.
	KillDecoder bool
	DecoderTile int
	// KillSplitter arms a splitter crash: the second-level splitter with
	// index SplitterIdx dies just before splitting picture KillAtPicture.
	KillSplitter bool
	SplitterIdx  int
	// KillAtPicture selects the decode-order picture index for both kills.
	KillAtPicture int
}

// DecoderDies reports whether tile's decoder should crash at picture pic.
func (p ChaosPlan) DecoderDies(tile, pic int) bool {
	return p.KillDecoder && p.DecoderTile == tile && p.KillAtPicture == pic
}

// SplitterDies reports whether splitter idx should crash at picture pic.
func (p ChaosPlan) SplitterDies(idx, pic int) bool {
	return p.KillSplitter && p.SplitterIdx == idx && p.KillAtPicture == pic
}
