// Package cluster provides the in-process message-passing fabric standing in
// for the paper's Myrinet/GM user-level network (DESIGN.md §2). It preserves
// the properties the algorithms depend on:
//
//   - addressed, reliable messages with per-sender FIFO order but NO global
//     ordering across senders (GM's semantics — the reason the paper needs
//     the ANID ack-redirect protocol);
//   - zero-copy transfer (payload slices are handed over, never copied;
//     the message header itself travels by value);
//   - receive into posted buffers, modelled by one unbounded inbox per
//     (port, kind) whose depth the credit protocols bound;
//   - per-link byte accounting for the bandwidth experiments (Fig. 9) and
//     optional bandwidth throttling.
//
// It carries the wall's four message kinds and nothing else: pictures,
// sub-pictures, exchanged reference macroblocks and acks. The Table 1
// baselines never touch a transport (internal/experiments models them).
package cluster

import (
	"errors"
	"fmt"
	"time"
)

// MsgKind tags a message with its protocol role.
type MsgKind uint8

const (
	// MsgPicture is a picture unit from the root splitter to a second-level
	// splitter (paper Fig. 5: root -> splitter).
	MsgPicture MsgKind = iota
	// MsgSubPicture is an SP+MEI bundle from a splitter to a decoder.
	MsgSubPicture
	// MsgBlocks carries exchanged reference macroblocks between decoders.
	MsgBlocks
	// MsgAck is the credit/go-ahead message of the flow-control protocol.
	MsgAck
	numKinds
)

func (k MsgKind) String() string {
	switch k {
	case MsgPicture:
		return "picture"
	case MsgSubPicture:
		return "subpicture"
	case MsgBlocks:
		return "blocks"
	case MsgAck:
		return "ack"
	}
	return fmt.Sprintf("MsgKind(%d)", int(k))
}

// messageHeaderBytes approximates the per-message wire overhead counted in
// the bandwidth statistics (GM header + our tags).
const messageHeaderBytes = 16

// Message flag bits (recovery layer and resident-service control plane).
const (
	// FlagRetransmit is unused: no layer retransmits messages any more (the
	// transports are reliable and recovery replays at the picture level with
	// FlagReplay). The bit stays reserved so the TCP frame format keeps its
	// flag layout.
	FlagRetransmit uint8 = 1 << iota
	// FlagReplay marks a sub-picture or picture replayed from a retained
	// window after a node restart. Replays must not generate protocol acks
	// (the original delivery already did, or the credit was written off).
	FlagReplay
	// FlagSessionOpen announces a new stream to a resident node; the payload
	// is the stream's header prefix (sequence header + extension). Control
	// messages are never acked and consume no flow-control credit.
	FlagSessionOpen
	// FlagSessionFinal is the end-of-stream control message of a session
	// (the resident equivalent of the batch end marker). Like every control
	// message it must not be acked: in a long-lived wall the splitters keep
	// running, and a stray ack would inflate the next picture's go-ahead
	// count.
	FlagSessionFinal
	// FlagShutdown tells a resident node loop to exit cleanly (graceful wall
	// teardown, after every session has drained).
	FlagShutdown
	// FlagFirstPicture marks the globally first data picture a resident wall
	// ships. The Table 3 exemption — the very first picture needs no decoder
	// go-ahead — belongs to the wall's lifetime, not to any one session, so
	// the root pins it to a flag instead of `Seq == 0`.
	FlagFirstPicture
	// FlagSubscribe is the subscription/trick-play control message the root
	// broadcasts to its splitters when a session's ROI or trick mode changes
	// (DESIGN.md §15). The payload is one trick-mode byte followed by the
	// wall.TileSet wire form (empty = full subscription). Like every control
	// message it is never acked and consumes no flow-control credit; per-
	// sender FIFO delivery makes every splitter apply it at the same picture
	// boundary.
	FlagSubscribe
)

// DrainAckSeq is the Seq sentinel of the drain acknowledgement a resident
// decoder sends the root when a session completes on its tile. It keeps
// drain acks distinguishable from go-ahead/credit acks (picture index >= 0)
// in the root's single ack stream.
const DrainAckSeq = -2

// SessionFailSeq is the Seq sentinel of the failure notice a recovery-enabled
// resident splitter sends the root when one session's stream is undecodable
// (corrupt unit, geometry mismatch). The payload carries the cause text. The
// root fails that session alone; the splitter keeps serving the others.
const SessionFailSeq = -3

// Message is one fabric message. Messages are values: the transports queue
// and deliver copies, Port.Send copies the caller's header before it
// returns, and a receive hands out a copy, so no message is a heap object of
// its own. Only the payload is shared, under the slab rules of DESIGN.md §9.
type Message struct {
	From, To int
	// Seq carries a protocol sequence number (picture index for data
	// messages, acked index for acks).
	Seq int
	// Tag carries protocol-specific routing info (NSID for pictures, ANID
	// for sub-pictures, reference selector for block messages).
	Tag int
	// Session identifies the resident-service stream this message belongs to
	// (0 = the single implicit stream of a batch run). Long-lived nodes key
	// their per-stream state off it, and the fabric accounts bytes per
	// session under it.
	Session int
	// Payload is handed over without copying.
	Payload []byte
	Kind    MsgKind
	// Flags carries the Flag* bits: replay and the resident control plane.
	Flags uint8
}

// consumerReleases reports whether the receiving node gives the payload back
// to the slab pool once it is done with it: data pictures, sub-pictures
// (session finals included) and block bundles. Acks and the control payloads
// one sender shares across many destinations (a session-open header, a
// subscription) are never released by their consumers. A holder that
// consumes a message on the receiver's behalf — the TCP link writer, once
// the payload is encoded — releases by the same rule, so a shared control
// payload never enters the free list twice.
func (m *Message) consumerReleases() bool {
	return m.Kind != MsgAck && m.Flags&(FlagSessionOpen|FlagSubscribe) == 0
}

func (m *Message) wireBytes() int64 { return int64(len(m.Payload) + messageHeaderBytes) }

// LinkStats counts traffic of one node.
type LinkStats struct {
	BytesSent, BytesRecv int64
	MsgsSent, MsgsRecv   int64
}

// Config tunes the fabric.
type Config struct {
	// BandwidthBps throttles each sender's links (bytes per second);
	// 0 disables throttling. The paper's Myrinet delivered on the order of
	// 100 MB/s per link.
	BandwidthBps float64
	// StallTimeout, when positive, arms a watchdog that aborts the fabric
	// with ErrStalled if no message is sent or received for the given
	// duration. It turns a protocol deadlock into a clean, attributable
	// error instead of a hung pipeline. Callers that set it should also
	// call Fabric.Shutdown when the run completes.
	StallTimeout time.Duration
}

// ErrStalled is the abort cause recorded by the StallTimeout watchdog when
// fabric traffic dries up while nodes are still blocked.
var ErrStalled = errors.New("cluster: fabric stalled (no traffic within StallTimeout)")

// Fabric connects a fixed set of nodes.
type Fabric struct {
	core
	cfg   Config
	nodes []*endpoint
}

// New creates a fabric with n nodes.
func New(n int, cfg Config) *Fabric {
	f := &Fabric{
		cfg:   cfg,
		nodes: make([]*endpoint, n),
	}
	f.core.init(n)
	for i := range f.nodes {
		f.nodes[i] = &endpoint{id: i, c: &f.core, in: newInboxes(), out: f}
	}
	f.watch(cfg.StallTimeout, f.Abort)
	return f
}

// Shutdown stops the watchdog goroutine, if one is armed. It is safe to call
// multiple times and on fabrics without a watchdog; pipeline drivers call it
// when their run completes so an idle-but-finished fabric is not aborted.
func (f *Fabric) Shutdown() { f.stopWatch() }

// Port returns the port of node id.
func (f *Fabric) Port(id int) Port { return Port{f.nodes[id]} }

// send delivers m to its destination's inbox for its kind; it never blocks
// (the protocols' credit schemes keep inboxes shallow).
func (f *Fabric) send(m Message) {
	f.touch()
	if f.cfg.BandwidthBps > 0 {
		time.Sleep(time.Duration(float64(m.wireBytes()) / f.cfg.BandwidthBps * 1e9))
	}
	f.account(m.From, m.To, &m)
	f.nodes[m.To].in[m.Kind].push(m)
}

// Abort unblocks every pending receive so node loops can unwind after a
// peer failed. The first recorded cause wins.
func (f *Fabric) Abort(cause error) { f.abort(cause) }
