package cluster

import "time"

// Port is one node's messaging endpoint, the same concrete type on every
// transport: the pipeline nodes program against it, and so do a resident
// decoder's per-session view and the test fault injector. It is a small
// value (one pointer) over the transport's endpoint; copies share it.
//
// Send copies the message, so a sender's &Message{...} literal stays on its
// stack (the call is static and nothing keeps the pointer), and nobody may
// assume the transport sees a change made to it after Send returns. A
// port's receive side must be driven by a single goroutine (the node's
// process, one PC per role).
type Port struct{ e *endpoint }

// endpoint is what a transport plugs into a Port: the node id, the abort
// domain and ledger, the per-kind receive queues (the fabric's posted
// buffers, or a TCP port's pump outputs), the sending half and the port's
// one receive timer.
type endpoint struct {
	id    int
	c     *core
	in    [numKinds]chan Message
	out   sender
	timer recvTimer
}

// sender delivers one addressed message (From and To set). It takes the
// message by value: an interface call that took a pointer would make every
// sender's message literal escape to the heap.
type sender interface{ send(m Message) }

// ID returns the node id.
func (p Port) ID() int { return p.e.id }

// Send delivers a copy of msg, addressed from this port to node to. On the
// fabric it blocks only when the receiver's queue for the kind is full; on
// TCP it never blocks on the network (the link writer batches).
func (p Port) Send(to int, msg *Message) {
	m := *msg
	m.From, m.To = p.e.id, to
	p.e.out.send(m)
}

// Recv blocks until a message of the given kind arrives; ok is false once
// the transport has aborted.
func (p Port) Recv(kind MsgKind) (m Message, ok bool) {
	return p.e.c.recv(p.e.in[kind])
}

// TryRecv returns a queued message of the given kind, if any.
func (p Port) TryRecv(kind MsgKind) (m Message, ok bool) {
	select {
	case m = <-p.e.in[kind]:
		return m, true
	default:
		return Message{}, false
	}
}

// RecvTimeout waits up to d for a message of the given kind, with the port's
// reused timer; a non-positive d blocks and arms no timer — the fail-stop
// protocols' wait. ok means delivered; otherwise timedOut tells a passed
// deadline from an abort.
func (p Port) RecvTimeout(kind MsgKind, d time.Duration) (m Message, ok, timedOut bool) {
	if d <= 0 {
		m, ok = p.Recv(kind)
		return m, ok, false
	}
	return p.e.c.recvTimeout(p.e.in[kind], &p.e.timer, d)
}

// Queue exposes the receive channel for one kind so a node process can
// select across kinds and local work (the service root multiplexes acks with
// session hand-offs this way). Combine with Done for abort handling.
// Receiving from the channel is equivalent to TryRecv/Recv for ownership.
func (p Port) Queue(kind MsgKind) <-chan Message { return p.e.in[kind] }

// Done is closed when the transport aborts.
func (p Port) Done() <-chan struct{} { return p.e.c.done }

// Dropping returns a view of p that shares its receive side and loses every
// message drop reports true for: no delivery, no accounting. It is fault
// injection for tests (a lost credit message must stall the pipeline for
// the watchdog to catch); drop sees the message addressed, From and To set.
// The view has a receive timer of its own.
func (p Port) Dropping(drop func(m *Message) bool) Port {
	e := &endpoint{id: p.e.id, c: p.e.c, in: p.e.in, out: dropSender{p.e.out, drop}}
	return Port{e}
}

type dropSender struct {
	sender
	drop func(m *Message) bool
}

func (s dropSender) send(m Message) {
	if !s.drop(&m) {
		s.sender.send(m)
	}
}

// Transport is the seam between the resident pipeline and its message
// fabric. The in-process Fabric is the reference implementation; a TCP (or
// real GM/Myrinet) backend would satisfy the same contract: a fixed set of
// addressed ports with per-sender FIFO delivery, per-node and per-session
// byte accounting, and a single abort domain that unblocks every pending
// operation.
type Transport interface {
	// NumNodes returns the port count (root + splitters + decoders).
	NumNodes() int
	// Port returns the messaging endpoint of node id. Each port's receive
	// side must be driven by a single goroutine.
	Port(id int) Port
	// Stats snapshots per-node traffic counters.
	Stats() []LinkStats
	// PairBytes returns bytes sent from node a to node b.
	PairBytes(a, b int) int64
	// SessionBytes returns bytes sent on behalf of one resident session.
	SessionBytes(session int) int64
	// Done is closed when the transport aborts; Abort records the first
	// cause and unblocks every pending send/receive.
	Done() <-chan struct{}
	Abort(cause error)
	AbortCause() error
	// Shutdown releases background resources (watchdogs, connections) after
	// a clean run; it must be safe to call multiple times.
	Shutdown()
}

var _ Transport = (*Fabric)(nil)
