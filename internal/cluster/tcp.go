package cluster

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// TCP transport: the cluster.Transport seam implemented over real sockets,
// so the root, splitters and decoders can run as separate OS processes or
// hosts (DESIGN.md §12). This file holds the transport, its ports and
// dialing; tcphub.go the hub; link.go the connection end both share.
//
// Topology is a star: the root process listens (ListenTCP) and runs a hub
// that routes frames between links; every node — including the nodes local
// to the hub process — dials the hub and handshakes. One uniform path means
// the conformance matrix exercises the full wire format even in a single
// process, and a port's traffic crosses exactly two links regardless of
// where its peer lives.
//
// The invariants the pipeline protocols rely on survive by construction:
//
//   - per-sender FIFO: a sender's frames traverse one ordered byte stream to
//     the hub, the hub routes them in arrival order into one ordered
//     per-destination queue, and the destination dispatches in stream order;
//   - no transport-level deadlock: receive queues are unbounded (the credit
//     protocol, not the transport, bounds memory), so a full queue can never
//     create a cross-kind dependency the protocols don't know about;
//   - single abort domain: any link failure aborts the local transport,
//     which broadcasts an abort frame carrying the cause class, so every
//     process observes the same errors.Is-matchable cause.

// TCPConfig configures one process's share of a TCP-transported wall.
type TCPConfig struct {
	// NumNodes is the wall's total port count (1 root + k + m*n); every
	// process of the wall must agree (enforced by the handshake).
	NumNodes int
	// LocalNodes lists the node ids this process drives. The hub process may
	// include any subset (typically node 0); dialing processes must name at
	// least one.
	LocalNodes []int
	// Grid is the wall shape carried in the handshake so mismatched
	// processes fail fast instead of deadlocking mid-stream.
	Grid Grid
	// StallTimeout arms the same watchdog as the in-process fabric: if no
	// local traffic moves for this long, the transport aborts with
	// ErrStalled. Each process watches independently, so a dead peer
	// eventually terminates every survivor.
	StallTimeout time.Duration

	// Recoverable keeps the transport alive through individual link failures
	// instead of aborting the wall. A port whose connection dies redials the
	// hub with the dial backoff (within the dial window) and resumes; the hub
	// re-admits the reconnecting node — replacing its dead connection and
	// resuming its queued outbound window on the new one — instead of
	// rejecting it as a duplicate. Frames in flight on the dead connection
	// may be lost or (when a broken batch is re-sent whole) duplicated;
	// repairing that is the job of the recovery layer above (deadline
	// concealment, replay windows, duplicate-tolerant receivers), so
	// Recoverable is meant for recovery-enabled walls.
	Recoverable bool
	// OnLinkState, when set, observes recoverable link transitions:
	// up=false when a local port loses its connection, up=true when its
	// redial completes. Called from transport goroutines — must not block.
	OnLinkState func(node int, up bool)
}

// Dial timing. Dialing (the initial connect and a recoverable redial alike)
// retries within dialTimeout so the wall's processes can start in any
// order, sleeping a capped exponential backoff from dialRetryBase up to
// dialRetryMax between attempts; handshakeTimeout bounds each link's
// hello/accept exchange. No deployment tunes them; the in-package test of
// the handshake deadline passes a shorter one to listenTCP.
const (
	handshakeTimeout = 10 * time.Second
	dialTimeout      = 15 * time.Second
	dialRetryBase    = 25 * time.Millisecond
	dialRetryMax     = time.Second
)

// TCPTransport implements Transport over TCP links through a hub.
type TCPTransport struct {
	core
	cfg          TCPConfig
	helloTimeout time.Duration // handshake deadline: handshakeTimeout outside tests
	addr         string        // hub address every local port dialed (redial target)
	hub          *hub          // non-nil on the listening process

	// ports holds the local ports by node id (nil for non-local nodes).
	// connectLocal publishes them, with their I/O loops started, under
	// portsMu: on the listening process the hub's accept loop already runs
	// while the ports are dialed, so an abort teardown can race construction
	// and reads the ports through localPorts.
	portsMu sync.Mutex
	ports   []*tcpPort

	closing atomic.Bool
	shut1   sync.Once
}

var _ Transport = (*TCPTransport)(nil)

// ListenTCP starts the hub process's transport: a listener at addr (use
// ":0"/"127.0.0.1:0" for an ephemeral port, then Addr), plus a dialed,
// handshaken port for every node in cfg.LocalNodes.
func ListenTCP(addr string, cfg TCPConfig) (*TCPTransport, error) {
	return listenTCP(addr, cfg, handshakeTimeout)
}

func listenTCP(addr string, cfg TCPConfig, handshake time.Duration) (*TCPTransport, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	t := newTCPTransport(cfg, handshake)
	t.hub = newHub(t, ln)
	go t.hub.acceptLoop()
	if err := t.connectLocal(ln.Addr().String()); err != nil {
		return nil, err
	}
	return t, nil
}

// DialTCP starts a worker process's transport: one dialed, handshaken link
// per node in cfg.LocalNodes, connected to a ListenTCP hub at addr.
func DialTCP(addr string, cfg TCPConfig) (*TCPTransport, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if len(cfg.LocalNodes) == 0 {
		return nil, fmt.Errorf("cluster: DialTCP needs at least one local node")
	}
	t := newTCPTransport(cfg, handshakeTimeout)
	if err := t.connectLocal(addr); err != nil {
		return nil, err
	}
	return t, nil
}

func (c TCPConfig) check() error {
	if c.NumNodes < 1 || c.NumNodes > 0xffff {
		return fmt.Errorf("cluster: TCP transport NumNodes %d out of range", c.NumNodes)
	}
	seen := map[int]bool{}
	for _, id := range c.LocalNodes {
		if id < 0 || id >= c.NumNodes {
			return fmt.Errorf("cluster: local node %d out of range [0,%d)", id, c.NumNodes)
		}
		if seen[id] {
			return fmt.Errorf("cluster: duplicate local node %d", id)
		}
		seen[id] = true
	}
	return nil
}

func newTCPTransport(cfg TCPConfig, handshake time.Duration) *TCPTransport {
	t := &TCPTransport{cfg: cfg, helloTimeout: handshake, ports: make([]*tcpPort, cfg.NumNodes)}
	t.core.init(cfg.NumNodes)
	return t
}

// connectLocal dials and handshakes every local port, then arms the stall
// watchdog; on failure it aborts the transport.
func (t *TCPTransport) connectLocal(addr string) error {
	t.addr = addr
	var dialed []*tcpPort
	fail := func(err error) error {
		for _, p := range dialed {
			p.conn.Close()
		}
		t.Abort(err)
		return err
	}
	for _, id := range t.cfg.LocalNodes {
		p := &tcpPort{link: newLink(t, id, false)}
		var err error
		if p.conn, p.br, err = t.dial(id); err != nil {
			return fail(err)
		}
		dialed = append(dialed, p)
	}
	// Publish the ports and start their I/O loops only once every local port
	// is handshaken, and only if no abort got there first: a construction
	// failure never leaves half-wired readers behind, and every port the
	// teardown sees has a running writer to wait on.
	t.portsMu.Lock()
	defer t.portsMu.Unlock()
	if err := t.AbortCause(); err != nil {
		return fail(err)
	}
	for _, p := range dialed {
		p.ep = endpoint{id: p.node, c: &t.core, out: p}
		for k := range p.pumps {
			p.pumps[k] = newPump(t.done)
			p.ep.in[k] = p.pumps[k].ch
		}
		t.ports[p.node] = p
		p.mu.Lock()
		p.attachLocked(p.conn, p.br)
		p.mu.Unlock()
		go p.reader()
	}
	t.watch(t.cfg.StallTimeout, t.Abort)
	return nil
}

// localPorts snapshots the published local ports.
func (t *TCPTransport) localPorts() []*tcpPort {
	t.portsMu.Lock()
	defer t.portsMu.Unlock()
	var out []*tcpPort
	for _, p := range t.ports {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

// Addr returns the hub's listen address ("" on a dialing transport); use it
// to recover the concrete port after ListenTCP(":0", ...).
func (t *TCPTransport) Addr() string {
	if t.hub != nil {
		return t.hub.ln.Addr().String()
	}
	return ""
}

// Port returns the local port of node id; it panics for nodes that live in
// another process, which would be a wiring bug.
func (t *TCPTransport) Port(id int) Port {
	if id < 0 || id >= len(t.ports) || t.ports[id] == nil {
		panic(fmt.Sprintf("cluster: node %d is not local to this TCP transport", id))
	}
	return Port{&t.ports[id].ep}
}

// Abort records the first cause, unblocks every pending operation, and
// broadcasts an abort frame so remote processes observe the same cause.
func (t *TCPTransport) Abort(cause error) {
	if t.abort(cause) {
		go t.abortTeardown(cause)
	}
}

// abortTeardown pushes an abort frame down every link, gives writers a
// bounded window to flush it, then force-closes every connection.
func (t *TCPTransport) abortTeardown(cause error) {
	t.stopWatch()
	if t.hub != nil {
		t.hub.ln.Close()
	}
	frame := AppendAbortFrame(nil, cause)
	ports := t.localPorts()
	var links []*link
	for _, p := range ports {
		links = append(links, p.link)
	}
	if t.hub != nil {
		links = append(links, t.hub.nodes...)
	}
	for _, l := range links {
		l.close(frame)
	}
	deadline := time.Now().Add(time.Second)
	var conns []*net.TCPConn
	for _, l := range links {
		if c, _ := l.current(); c != nil {
			c.SetWriteDeadline(deadline)
			conns = append(conns, c)
		}
	}
	for _, l := range links {
		l.wait()
	}
	for _, c := range conns {
		c.Close()
	}
	closePumps(ports)
}

func closePumps(ports []*tcpPort) {
	for _, p := range ports {
		for _, pm := range p.pumps {
			pm.q.close()
		}
	}
}

// Shutdown tears a cleanly-drained transport down: flush and half-close
// every local write side, wait for the hub to route what those links
// carried, flush and half-close the hub's outbound sides, stop accepting.
// Half-closes (FIN, not RST) let the peer consume everything in flight —
// remote processes see a quiet EOF, never an abort. Safe to call multiple
// times; after an abort it is a no-op because the abort teardown owns the
// connections.
func (t *TCPTransport) Shutdown() {
	t.stopWatch()
	t.shut1.Do(func() {
		if t.aborted() {
			return
		}
		t.closing.Store(true)
		ports := t.localPorts()
		for _, p := range ports {
			p.close(nil)
		}
		for _, p := range ports {
			p.wait()
		}
		if t.hub != nil {
			t.hub.shutdown()
		}
		closePumps(ports)
	})
}

// InjectLinkFailure hard-kills node's connection (RST via linger 0),
// simulating a peer crash for fault-injection tests. On a Recoverable
// transport the victim's port notices, redials the hub and resumes — the
// recoverable-mode soak's link-loss axis.
func (t *TCPTransport) InjectLinkFailure(node int) {
	switch {
	case node < 0 || node >= len(t.ports):
	case t.ports[node] != nil:
		t.ports[node].kill()
	case t.hub != nil:
		t.hub.nodes[node].kill()
	}
}

// recoverable reports whether a link failure is to be repaired rather than
// end the link: Recoverable mode, while the transport neither closes nor
// aborts.
func (t *TCPTransport) recoverable() bool {
	return t.cfg.Recoverable && !t.closing.Load() && !t.aborted()
}

// linkError classifies a link-level I/O failure: quiet during an orderly
// close or after an abort, otherwise a transport-wide ErrLinkLost abort.
func (t *TCPTransport) linkError(what string, node int, err error) {
	if t.closing.Load() || t.aborted() {
		return
	}
	t.Abort(fmt.Errorf("%w: node %d %s: %v", ErrLinkLost, node, what, err))
}

func (t *TCPTransport) noteLink(node int, up bool) {
	if t.cfg.OnLinkState != nil {
		t.cfg.OnLinkState(node, up)
	}
}

// dial connects node id to the hub and handshakes. A failed connect is
// retried until dialTimeout passes, sleeping the capped exponential backoff
// with ±50% jitter so a wall's worth of dialing processes spreads out
// instead of retrying in lockstep; a refused handshake is not retried — the
// hub answered, so it is a wiring error, not an outage.
func (t *TCPTransport) dial(id int) (*net.TCPConn, *bufio.Reader, error) {
	deadline := time.Now().Add(dialTimeout)
	for attempt := 0; ; attempt++ {
		if t.closing.Load() || t.aborted() {
			return nil, nil, fmt.Errorf("%w: node %d: transport closed while dialing", ErrLinkLost, id)
		}
		c, err := net.DialTimeout("tcp", t.addr, time.Second)
		if err == nil {
			conn := c.(*net.TCPConn)
			br, err := t.handshake(conn, id)
			if err != nil {
				return nil, nil, err
			}
			return conn, br, nil
		}
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("%w: dial %s: %v", ErrHandshake, t.addr, err)
		}
		t.touch() // redialing counts as liveness
		d := dialRetryMax
		if attempt < 30 && dialRetryBase<<uint(attempt) < d {
			d = dialRetryBase << uint(attempt)
		}
		time.Sleep(d/2 + time.Duration(rand.Int63n(int64(d)+1)))
	}
}

// handshake runs the hello/accept exchange for node id on a fresh
// connection; on failure the connection is closed.
func (t *TCPTransport) handshake(conn *net.TCPConn, id int) (*bufio.Reader, error) {
	conn.SetDeadline(time.Now().Add(t.helloTimeout))
	hello := AppendHelloFrame(nil, Hello{
		Version:  WireVersion,
		Node:     id,
		NumNodes: t.cfg.NumNodes,
		Grid:     t.cfg.Grid,
	})
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: node %d hello: %v", ErrHandshake, id, err)
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	var rd frameReader
	fr, err := rd.read(br)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: node %d: %v", ErrHandshake, id, err)
	}
	switch fr.Type {
	case frameAccept:
		if fr.Accept.Version != WireVersion || fr.Accept.NumNodes != t.cfg.NumNodes {
			conn.Close()
			return nil, fmt.Errorf("%w: node %d: hub accepted version %d / %d nodes, want %d / %d",
				ErrHandshake, id, fr.Accept.Version, fr.Accept.NumNodes, WireVersion, t.cfg.NumNodes)
		}
	case frameAbort:
		conn.Close()
		return nil, fr.Abort
	default:
		conn.Close()
		return nil, fmt.Errorf("%w: node %d: unexpected frame %#x instead of accept", ErrHandshake, id, fr.Type)
	}
	conn.SetDeadline(time.Time{})
	return br, nil
}

// tcpPort is one node's endpoint: the port end of its link to the hub, plus
// a reader dispatching inbound messages into per-kind pumps, whose outputs
// are the Port's receive queues. In Recoverable mode either I/O goroutine
// may replace the connection by redialing.
type tcpPort struct {
	*link
	pumps [numKinds]*pump
	ep    endpoint
	rd    frameReader
}

// send frames the message onto this port's link. The write itself happens
// on the link's writer goroutine, which coalesces whatever is queued into
// one syscall — a send never blocks on the network. Accounting matches the
// in-process fabric byte for byte (wireBytes: payload + 16-byte header
// equivalent).
func (p *tcpPort) send(m Message) {
	t := p.t
	if t.aborted() {
		return
	}
	t.touch()
	t.account(m.From, m.To, &m)
	p.q.put(outItem{msg: m})
}

// reader decodes inbound frames and dispatches messages into the per-kind
// pumps. Message payloads were read into slab-pool slices, so the
// consumer's PutSlab keeps the receive path zero-alloc in steady state.
func (p *tcpPort) reader() {
	t := p.t
	for {
		conn, br := p.current()
		if conn == nil {
			return // recoverable redial gave up; the abort is already raised
		}
		fr, err := p.rd.read(br)
		if err != nil {
			if err == io.EOF {
				// An orderly close from the hub ends the port — unless it
				// came on a connection the port has already replaced by a
				// redial: the reader then carries on with the current one
				// (current waits out a redial underway). A hub taking a
				// node's slot over resets the old connection instead, so
				// that lands in the redial below.
				if cur, _ := p.current(); t.cfg.Recoverable && cur != nil && cur != conn {
					continue
				}
				conn.Close()
				return
			}
			if t.recoverable() && p.redial(conn) != nil {
				continue
			}
			t.linkError("read", p.node, err)
			return
		}
		switch fr.Type {
		case frameMessage:
			m := &fr.Msg
			if m.To != p.node || m.From < 0 || m.From >= t.cfg.NumNodes {
				t.Abort(fmt.Errorf("%w: misrouted frame %d->%d at port %d", ErrFrameCorrupt, m.From, m.To, p.node))
				return
			}
			t.touch()
			if t.ports[m.From] == nil {
				// Remote sender: this process's only sight of the message,
				// so account it here (local senders were accounted at send).
				t.account(m.From, p.node, m)
			}
			p.pumps[m.Kind].q.put(*m)
		case frameAbort:
			t.Abort(fr.Abort)
			return
		default:
			t.Abort(fmt.Errorf("%w: unexpected frame %#x after handshake at port %d", ErrHandshake, fr.Type, p.node))
			return
		}
	}
}
