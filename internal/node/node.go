// Package node is the resident node server that both pipeline roles run
// (DESIGN.md §11). In the paper every splitter and decoder is the same kind
// of PC running one role program over one messaging layer; here every
// second-level splitter and tile decoder runs Serve over its port, and a
// Role supplies only the per-session protocol. Serve owns the rest, once for
// both roles: the timed receive, lease renewal, the chaos kill point,
// shutdown, session open and resume, unknown sessions, the receive-wait
// accounting and the drain ack to the root.
package node

import (
	"fmt"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/recovery"
	"tiledwall/internal/wall"
)

// Kind is the role a node server plays.
type Kind uint8

const (
	// Splitter is a second-level splitter, or the root's own splitting
	// stage on a one-level wall.
	Splitter Kind = iota
	// Decoder is a tile decoder.
	Decoder
)

// Config is one node server: what it is, the wall it serves and its
// recovery wiring. Each role's serve config embeds it and adds only what
// that role alone has.
type Config struct {
	Kind Kind
	// Index is the node's place in its role: a splitter's index among the
	// K, a decoder's tile.
	Index int
	// Grid is the wall, and with it the node layout (cluster.Grid).
	Grid cluster.Grid
	// MaxFCode bounds every session's motion vector range; decoders size
	// their halo windows from it (pdec.HaloForFCode).
	MaxFCode int
	// Recovery, when non-nil, switches the node to fault masking: the lease
	// is renewed on every receive, the chaos plan is honoured, a respawned
	// incarnation re-joins Recovery.Resume, unknown sessions and bad opens
	// are skipped, and the server wakes every half picture deadline to run
	// the role's deadline sweep. Nil is fail-stop.
	Recovery *recovery.Incarnation
}

func (c *Config) String() string {
	if c.Kind == Splitter {
		return fmt.Sprintf("splitter %d", c.Index)
	}
	return fmt.Sprintf("tile %d", c.Index)
}

// Role is one node kind's per-session protocol; Serve drives it.
type Role interface {
	// Open creates the state of a session not open here, from its header
	// prefix and what that header implies for this wall.
	Open(session int, header []byte, seq *mpeg2.SequenceHeader, geo *wall.Geometry)
	// Resume positions a session a respawned incarnation has just re-joined.
	Resume(rs recovery.ResumeSession)
	// Breakdown returns an open session's phase accounting, and nil for a
	// session not open here.
	Breakdown(session int) *metrics.Breakdown
	// Handle runs one message of an open session: a data message, a session
	// final or a control message. done reports that the session completed
	// here, its result published and its state dropped. The message is
	// passed by value: a pointer through an interface would move every
	// received message to the heap.
	Handle(msg cluster.Message) (done bool, err error)
	// Sweep runs the fault-masking deadlines and calls done for each
	// session they complete, as Handle reports done.
	Sweep(done func(session int))
}

// Open opens session on role from its header: parse the sequence header,
// derive the session's geometry on the grid, report the open to the
// recovery registry and create the role's state. An open of a session
// already open is skipped. The error is the session's, not the node's.
func Open(cfg *Config, role Role, session int, header []byte) error {
	if role.Breakdown(session) != nil {
		return nil
	}
	seq, err := mpeg2.ParseSequenceHeaderBytes(header)
	var geo *wall.Geometry
	if err == nil {
		geo, err = wall.NewGeometry(seq.MBWidth()*16, seq.MBHeight()*16, cfg.Grid.M, cfg.Grid.N, cfg.Grid.Overlap)
	}
	if err != nil {
		return fmt.Errorf("%v: session %d open: %w", cfg, session, err)
	}
	if rh := cfg.Recovery; rh != nil && rh.OnOpen != nil {
		rh.OnOpen(session, header)
	}
	role.Open(session, header, seq, geo)
	return nil
}

// Serve runs the node server on port until a FlagShutdown message arrives
// (nil) or the transport aborts. A splitter is fed MsgPicture, a decoder
// MsgSubPicture; either way every message is, in this order:
//   - a shutdown, which ends the loop;
//   - a session open, which creates the session (Open), fatal only under
//     fail-stop;
//   - for a session not open here: a final or a control message is dropped
//     (a session completes on its first final that finds nothing owed, and
//     the other splitters' finals trail in after it), and data is an error
//     under fail-stop and dropped, its slab released, under fault masking
//     (the session failed or outlived a restart budget);
//   - data the chaos plan kills at, which returns recovery.ErrKilled before
//     anything is acknowledged;
//   - otherwise the role's, charged the receive wait (batch attribution, per
//     session). When the session completes the root gets its drain ack: the
//     root closes a session only once every splitter and decoder has sent
//     one, so results are published before a waiting Session.Close reads
//     them.
func Serve(port cluster.Port, cfg *Config, role Role) error {
	inbox := cluster.MsgSubPicture
	if cfg.Kind == Splitter {
		inbox = cluster.MsgPicture
	}
	drained := func(session int) {
		port.Send(cluster.RootNode, &cluster.Message{Kind: cluster.MsgAck, Seq: cluster.DrainAckSeq, Session: session})
	}
	rh := cfg.Recovery
	// tick is zero under fail-stop, which blocks in Recv. Fault masking
	// receives in half-deadline ticks so reorder holes are swept even while
	// the port is idle (the hole's successors may be the only traffic a
	// session will ever see again).
	var tick time.Duration
	if rh != nil {
		tick = max(rh.Cfg.PictureDeadline/2, time.Millisecond)
		for _, rs := range rh.Resume {
			// A splitter re-forwards the open (the decoders deduplicate), so
			// a session whose open every splitter lost stays reachable. An
			// undecodable header fails its session upstream.
			if Open(cfg, role, rs.ID, rs.Header) == nil {
				role.Resume(rs)
			}
		}
	}
	for {
		if rh != nil {
			role.Sweep(drained)
		}
		t0 := time.Now()
		msg, ok, timedOut := port.RecvTimeout(inbox, tick)
		wait := time.Since(t0)
		if rh != nil && rh.Lease != nil {
			rh.Lease.Renew()
		}
		if timedOut {
			continue
		}
		if !ok {
			return fmt.Errorf("%v: fabric aborted", cfg)
		}
		if msg.Flags&cluster.FlagShutdown != 0 {
			return nil
		}
		if msg.Flags&cluster.FlagSessionOpen != 0 {
			if err := Open(cfg, role, msg.Session, msg.Payload); err != nil && rh == nil {
				return err
			}
			continue
		}
		data := msg.Flags&(cluster.FlagSessionFinal|cluster.FlagSubscribe) == 0
		b := role.Breakdown(msg.Session)
		if b == nil {
			if msg.Flags&cluster.FlagSubscribe == 0 {
				// The payload was marshalled for this node alone (a
				// subscription's is shared by every splitter).
				cluster.PutSlab(msg.Payload)
			}
			if !data || rh != nil {
				continue
			}
			return fmt.Errorf("%v: picture for unknown session %d", cfg, msg.Session)
		}
		// Injected crash before the role runs, and thus before the receipt
		// ack: the message is consumed but unacknowledged, the hardest loss
		// for the upstream credit ledger. Replays are not kill points.
		if rh != nil && data && msg.Flags&cluster.FlagReplay == 0 && cfg.killedAt(msg.Seq) {
			return recovery.ErrKilled
		}
		b.Add(metrics.PhaseReceive, wait)
		done, err := role.Handle(msg)
		if err != nil {
			return err
		}
		if done {
			drained(msg.Session)
		}
	}
}

// killedAt reports whether the chaos plan kills this node at picture pic.
func (c *Config) killedAt(pic int) bool {
	if c.Kind == Splitter {
		return c.Recovery.Chaos.SplitterDies(c.Index, pic)
	}
	return c.Recovery.Chaos.DecoderDies(c.Index, pic)
}
