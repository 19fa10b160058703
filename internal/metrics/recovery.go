package metrics

import (
	"fmt"
	"sync/atomic"
)

// Recovery counts the fault-tolerance machinery's interventions during one
// pipeline run. It is shared by every node of a run and bumped concurrently,
// so all fields are atomics; read a consistent view with Snapshot after the
// run. A run with an all-zero snapshot took no recovery action at all and is
// therefore bit-exact with the fault-free pipeline.
type Recovery struct {
	// Supervision layer.
	Restarts         int64 // node incarnations respawned after lease expiry
	ReplayedPictures int64 // pictures/sub-pictures re-sent from retained windows

	// Degradation layer.
	ConcealedFrames int64 // tile frames emitted as freeze/grey instead of decoded
	ConcealedMBs    int64 // halo macroblocks concealed by copy-from-reference
	AckTimeouts     int64 // credit waits abandoned after the per-picture deadline
}

// AddRestart, AddReplayed, etc. are the concurrent increment points.
func (r *Recovery) AddRestart()           { atomic.AddInt64(&r.Restarts, 1) }
func (r *Recovery) AddReplayed(n int)     { atomic.AddInt64(&r.ReplayedPictures, int64(n)) }
func (r *Recovery) AddConcealedFrame()    { atomic.AddInt64(&r.ConcealedFrames, 1) }
func (r *Recovery) AddConcealedMBs(n int) { atomic.AddInt64(&r.ConcealedMBs, int64(n)) }
func (r *Recovery) AddAckTimeout()        { atomic.AddInt64(&r.AckTimeouts, 1) }

// RecoverySnapshot is a plain-value copy of the counters.
type RecoverySnapshot struct {
	Restarts         int64
	ReplayedPictures int64
	ConcealedFrames  int64
	ConcealedMBs     int64
	AckTimeouts      int64
}

// Snapshot returns a consistent copy (call after the run's goroutines join).
func (r *Recovery) Snapshot() RecoverySnapshot {
	if r == nil {
		return RecoverySnapshot{}
	}
	return RecoverySnapshot{
		Restarts:         atomic.LoadInt64(&r.Restarts),
		ReplayedPictures: atomic.LoadInt64(&r.ReplayedPictures),
		ConcealedFrames:  atomic.LoadInt64(&r.ConcealedFrames),
		ConcealedMBs:     atomic.LoadInt64(&r.ConcealedMBs),
		AckTimeouts:      atomic.LoadInt64(&r.AckTimeouts),
	}
}

// Clean reports whether the run needed no degradation or respawn:
// concealment trades pixels for liveness, so output is guaranteed bit-exact
// only when Clean holds.
func (s RecoverySnapshot) Clean() bool {
	return s.ConcealedFrames == 0 && s.ConcealedMBs == 0 && s.Restarts == 0
}

// Plus returns the fieldwise sum of two snapshots — used to combine a
// session's own charges with the wall-level charges (restarts, replays)
// accrued while it ran.
func (s RecoverySnapshot) Plus(o RecoverySnapshot) RecoverySnapshot {
	return RecoverySnapshot{
		Restarts:         s.Restarts + o.Restarts,
		ReplayedPictures: s.ReplayedPictures + o.ReplayedPictures,
		ConcealedFrames:  s.ConcealedFrames + o.ConcealedFrames,
		ConcealedMBs:     s.ConcealedMBs + o.ConcealedMBs,
		AckTimeouts:      s.AckTimeouts + o.AckTimeouts,
	}
}

// Zero reports whether no recovery machinery fired at all.
func (s RecoverySnapshot) Zero() bool {
	return s == RecoverySnapshot{}
}

func (s RecoverySnapshot) String() string {
	return fmt.Sprintf("restarts=%d replayed=%d concealed_frames=%d concealed_mbs=%d ack_timeouts=%d",
		s.Restarts, s.ReplayedPictures, s.ConcealedFrames, s.ConcealedMBs, s.AckTimeouts)
}
