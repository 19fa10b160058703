package cluster

// Port is the fabric surface a resident node loop programs against: the
// plain Net messaging methods plus direct access to the per-kind receive
// channels, which a multiplexing server (the service root) needs to select
// across fabric traffic and local work hand-offs.
type Port interface {
	Net
	// Queue exposes the receive channel for one kind; combine with Done for
	// abort handling. Receiving from the channel directly is equivalent to
	// TryRecv/Recv for ownership purposes: one consumer goroutine per node.
	Queue(kind MsgKind) <-chan *Message
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

// Port returns the port of node id (the node itself: *Node is Net plus
// Queue).
func (f *Fabric) Port(id int) Port { return f.nodes[id] }

var _ Transport = (*Fabric)(nil)
var _ Port = (*Node)(nil)
