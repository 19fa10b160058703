package cluster

import (
	"bufio"
	"encoding/binary"
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
// hosts (DESIGN.md §12).
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
	// HandshakeTimeout bounds each link's hello/accept exchange (default 10s).
	HandshakeTimeout time.Duration
	// DialTimeout bounds connection establishment. Dialing retries until the
	// deadline, so the wall's processes can be started in any order
	// (default 15s).
	DialTimeout time.Duration
	// StallTimeout arms the same watchdog as the in-process fabric: if no
	// local traffic moves for this long, the transport aborts with
	// ErrStalled. Each process watches independently, so a dead peer
	// eventually terminates every survivor.
	StallTimeout time.Duration

	// DialRetryBase and DialRetryMax shape the capped exponential backoff
	// between dial attempts (initial connect and recoverable redial): the
	// sleep doubles from Base up to Max, with ±50% jitter so a wall's worth
	// of workers does not retry in lockstep (defaults 25ms and 1s).
	DialRetryBase time.Duration
	DialRetryMax  time.Duration

	// Recoverable keeps the transport alive through individual link failures
	// instead of aborting the wall. A port whose connection dies redials the
	// hub with the capped backoff above (bounded by RedialTimeout) and
	// resumes; the hub re-admits the reconnecting node — replacing its dead
	// inbound link and resuming its queued outbound window on the new
	// connection — instead of rejecting it as a duplicate. Frames in flight
	// on the dead connection may be lost or (when a broken batch is re-sent
	// whole) duplicated; repairing that is the job of the recovery layer
	// above (deadline concealment, replay windows, duplicate-tolerant
	// receivers), so Recoverable is meant for recovery-enabled walls.
	Recoverable bool
	// RedialTimeout bounds one port's reconnection window in Recoverable
	// mode; past it the transport aborts with ErrLinkLost (default
	// DialTimeout).
	RedialTimeout time.Duration
	// OnLinkState, when set, observes recoverable link transitions:
	// up=false when a local port loses its connection, up=true when its
	// redial completes. Called from transport goroutines — must not block.
	OnLinkState func(node int, up bool)
}

func (c *TCPConfig) defaults() {
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 10 * time.Second
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 15 * time.Second
	}
	if c.DialRetryBase <= 0 {
		c.DialRetryBase = 25 * time.Millisecond
	}
	if c.DialRetryMax <= 0 {
		c.DialRetryMax = time.Second
	}
	if c.RedialTimeout <= 0 {
		c.RedialTimeout = c.DialTimeout
	}
}

// TCPTransport implements Transport over TCP links through a hub.
type TCPTransport struct {
	core
	cfg  TCPConfig
	addr string // hub address every local port dialed (redial target)
	hub  *hub   // non-nil on the listening process

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
	cfg.defaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	t := newTCPTransport(cfg)
	t.hub = newHub(t, ln)
	go t.hub.acceptLoop()
	if err := t.connectLocal(ln.Addr().String()); err != nil {
		t.Abort(err)
		return nil, err
	}
	t.watch(t.cfg.StallTimeout, t.Abort)
	return t, nil
}

// DialTCP starts a worker process's transport: one dialed, handshaken link
// per node in cfg.LocalNodes, connected to a ListenTCP hub at addr.
func DialTCP(addr string, cfg TCPConfig) (*TCPTransport, error) {
	cfg.defaults()
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if len(cfg.LocalNodes) == 0 {
		return nil, fmt.Errorf("cluster: DialTCP needs at least one local node")
	}
	t := newTCPTransport(cfg)
	if err := t.connectLocal(addr); err != nil {
		t.Abort(err)
		return nil, err
	}
	t.watch(t.cfg.StallTimeout, t.Abort)
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

func newTCPTransport(cfg TCPConfig) *TCPTransport {
	t := &TCPTransport{
		cfg:   cfg,
		ports: make([]*tcpPort, cfg.NumNodes),
	}
	t.core.init(cfg.NumNodes)
	return t
}

func (t *TCPTransport) connectLocal(addr string) error {
	t.addr = addr
	var dialed []*tcpPort
	closeDialed := func() {
		for _, p := range dialed {
			p.conn.Close()
		}
	}
	for _, id := range t.cfg.LocalNodes {
		p, err := t.dialPort(addr, id)
		if err != nil {
			closeDialed()
			return err
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
		closeDialed()
		return err
	}
	for _, p := range dialed {
		t.ports[p.id] = p
		go p.reader()
		go p.writer()
	}
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
	return t.ports[id]
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
	frame := AppendAbortFrame(nil, cause)
	ports := t.localPorts()
	for _, p := range ports {
		p.wq.put(outItem{raw: frame})
		p.wq.close()
	}
	if t.hub != nil {
		t.hub.abort(frame)
	}
	deadline := time.Now().Add(time.Second)
	conns := t.allConns(ports)
	for _, c := range conns {
		c.SetWriteDeadline(deadline)
	}
	for _, p := range ports {
		<-p.writerDone
	}
	if t.hub != nil {
		t.hub.waitWriters()
	}
	for _, c := range conns {
		c.Close()
	}
	closePumps(ports)
}

func (t *TCPTransport) allConns(ports []*tcpPort) []*net.TCPConn {
	var conns []*net.TCPConn
	for _, p := range ports {
		if c := p.currentConn(); c != nil {
			conns = append(conns, c)
		}
	}
	if t.hub != nil {
		conns = append(conns, t.hub.conns()...)
	}
	return conns
}

func closePumps(ports []*tcpPort) {
	for _, p := range ports {
		for k := range p.pumps {
			p.pumps[k].close()
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
			p.wq.close()
		}
		for _, p := range ports {
			<-p.writerDone
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
	if node >= 0 && node < len(t.ports) && t.ports[node] != nil {
		if c := t.ports[node].currentConn(); c != nil {
			c.SetLinger(0)
			c.Close()
		}
		return
	}
	if t.hub != nil {
		t.hub.killLink(node)
	}
}

// linkError classifies a link-level I/O failure: quiet during an orderly
// close or after an abort, otherwise a transport-wide ErrLinkLost abort.
func (t *TCPTransport) linkError(what string, node int, err error) {
	if t.closing.Load() || t.aborted() {
		return
	}
	t.Abort(fmt.Errorf("%w: node %d %s: %v", ErrLinkLost, node, what, err))
}

// ---------------------------------------------------------------------------
// Ports

// tcpPort is one node's endpoint: a dialed link to the hub, a batching
// writer, and a reader dispatching inbound messages into per-kind pumps.
// conn and br are guarded by mu: in Recoverable mode either I/O goroutine
// may replace them by redialing after a link failure.
type tcpPort struct {
	id int
	t  *TCPTransport

	mu   sync.Mutex
	conn *net.TCPConn
	br   *bufio.Reader

	wq         *outQueue
	writerDone chan struct{}
	pumps      [numKinds]*pump
	timer      recvTimer
}

var _ Port = (*tcpPort)(nil)

func (t *TCPTransport) dialPort(addr string, id int) (*tcpPort, error) {
	conn, err := dialRetry(addr, t.cfg.DialTimeout, t.cfg.DialRetryBase, t.cfg.DialRetryMax)
	if err != nil {
		return nil, err
	}
	br, err := t.handshake(conn, id)
	if err != nil {
		return nil, err
	}
	p := &tcpPort{
		id:         id,
		t:          t,
		conn:       conn,
		br:         br,
		wq:         newOutQueue(),
		writerDone: make(chan struct{}),
	}
	for k := range p.pumps {
		p.pumps[k] = newPump(t.done)
	}
	return p, nil
}

// handshake runs the hello/accept exchange for node id on a fresh
// connection; on failure the connection is closed.
func (t *TCPTransport) handshake(conn *net.TCPConn, id int) (*bufio.Reader, error) {
	conn.SetDeadline(time.Now().Add(t.cfg.HandshakeTimeout))
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
	fr, err := readFrame(br)
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

// dialRetry redials until the deadline so the wall's processes can start in
// any order (a decoder may come up before the root is listening), backing
// off exponentially with jitter between attempts.
func dialRetry(addr string, timeout, base, max time.Duration) (*net.TCPConn, error) {
	deadline := time.Now().Add(timeout)
	for attempt := 0; ; attempt++ {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return c.(*net.TCPConn), nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%w: dial %s: %v", ErrHandshake, addr, err)
		}
		backoffSleep(attempt, base, max)
	}
}

// backoffSleep sleeps the attempt-th capped exponential backoff step with
// ±50% jitter, so a wall's worth of redialing processes spreads out instead
// of retrying in lockstep.
func backoffSleep(attempt int, base, max time.Duration) {
	d := max
	if attempt < 30 {
		if step := base << uint(attempt); step < max {
			d = step
		}
	}
	// Jitter to 50–150% of the nominal step.
	d = d/2 + time.Duration(rand.Int63n(int64(d)+1))
	time.Sleep(d)
}

// currentConn returns the port's live connection (nil after a failed
// recoverable redial gave up).
func (p *tcpPort) currentConn() *net.TCPConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.conn
}

// reconnect re-establishes the port's link after old died (Recoverable
// mode). The first caller owns the redial; a concurrent caller blocks on the
// mutex and inherits the fresh connection. Returns (nil, nil) when the
// transport is closing, aborted, or the redial window expired (which aborts
// with ErrLinkLost).
func (p *tcpPort) reconnect(old *net.TCPConn) (*net.TCPConn, *bufio.Reader) {
	t := p.t
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.conn != old {
		return p.conn, p.br // the other I/O goroutine already redialed
	}
	old.Close()
	p.conn, p.br = nil, nil
	if t.cfg.OnLinkState != nil {
		t.cfg.OnLinkState(p.id, false)
	}
	deadline := time.Now().Add(t.cfg.RedialTimeout)
	for attempt := 0; ; attempt++ {
		if t.closing.Load() || t.aborted() {
			return nil, nil
		}
		conn, err := net.DialTimeout("tcp", t.addr, time.Second)
		if err == nil {
			br, herr := t.handshake(conn.(*net.TCPConn), p.id)
			if herr != nil {
				// The hub answered and refused: a real wiring error, not a
				// transient outage worth retrying through.
				t.linkError("redial handshake", p.id, herr)
				return nil, nil
			}
			p.conn, p.br = conn.(*net.TCPConn), br
			t.touch()
			if t.cfg.OnLinkState != nil {
				t.cfg.OnLinkState(p.id, true)
			}
			return p.conn, p.br
		}
		if time.Now().After(deadline) {
			t.linkError("redial", p.id, err)
			return nil, nil
		}
		t.touch() // redialing counts as liveness
		backoffSleep(attempt, t.cfg.DialRetryBase, t.cfg.DialRetryMax)
	}
}

func (p *tcpPort) ID() int { return p.id }

// Send frames the message onto this port's link. The write itself happens on
// the port's writer goroutine, which coalesces whatever is queued into one
// syscall — Send never blocks on the network. Accounting matches the
// in-process fabric byte for byte (wireBytes: payload + 16-byte header
// equivalent).
func (p *tcpPort) Send(to int, msg *Message) {
	t := p.t
	msg.From = p.id
	msg.To = to
	if t.aborted() {
		return
	}
	t.touch()
	t.account(p.id, to, msg)
	p.wq.put(outItem{msg: msg})
}

// Recv blocks until a message of the given kind arrives; nil after abort.
func (p *tcpPort) Recv(kind MsgKind) *Message {
	return p.t.recv(p.pumps[kind].ch)
}

// TryRecv returns a dispatched message of the given kind, if any.
func (p *tcpPort) TryRecv(kind MsgKind) (*Message, bool) {
	select {
	case m := <-p.pumps[kind].ch:
		return m, true
	default:
		return nil, false
	}
}

// RecvTimeout waits up to d for a message of the given kind; see Net.
func (p *tcpPort) RecvTimeout(kind MsgKind, d time.Duration) (*Message, bool) {
	return p.t.recvTimeout(p.pumps[kind].ch, &p.timer, d)
}

// Queue exposes the dispatch channel for one kind; combine with Done.
func (p *tcpPort) Queue(kind MsgKind) <-chan *Message { return p.pumps[kind].ch }

// Done is closed when the transport aborts.
func (p *tcpPort) Done() <-chan struct{} { return p.t.done }

// writer drains the outbound queue, encoding every pending frame into one
// buffer and writing it with a single syscall — the batching that keeps many
// small credit/ack messages from costing a syscall each. The flush policy is
// write-on-idle: a batch is cut exactly when the previous write finished and
// the queue has something, so an idle link flushes immediately and a busy
// link coalesces automatically.
func (p *tcpPort) writer() {
	defer close(p.writerDone)
	var batch []outItem
	var buf []byte
	for {
		var done bool
		batch, done = p.wq.drain(batch[:0])
		buf = buf[:0]
		for _, it := range batch {
			if it.raw != nil {
				buf = append(buf, it.raw...)
				if it.slab {
					PutSlab(it.raw)
				}
				continue
			}
			var err error
			if buf, err = AppendMessageFrame(buf, it.msg); err != nil {
				p.t.Abort(err)
				return
			}
		}
		if len(buf) > 0 {
			if err := p.write(buf); err != nil {
				p.t.linkError("write", p.id, err)
				p.wq.closeDiscard()
				return
			}
		}
		if done {
			if c := p.currentConn(); c != nil {
				c.CloseWrite()
			}
			return
		}
		// A batch can be arbitrarily large (a burst of sub-pictures); don't
		// pin its buffer forever.
		if cap(buf) > 4<<20 {
			buf = nil
		}
	}
}

// write puts one encoded batch on the wire. In Recoverable mode a failed
// write redials and re-sends the whole batch on the new connection: the hub
// discards any partial frame the dead connection delivered (its stream
// breaks mid-frame), so the worst case is a duplicated leading frame, which
// the layers above absorb (acks are idempotent, data receivers deduplicate).
func (p *tcpPort) write(buf []byte) error {
	for {
		conn := p.currentConn()
		if conn == nil {
			return fmt.Errorf("link down")
		}
		_, err := conn.Write(buf)
		if err == nil {
			return nil
		}
		t := p.t
		if !t.cfg.Recoverable || t.closing.Load() || t.aborted() {
			return err
		}
		if nc, _ := p.reconnect(conn); nc == nil {
			return err
		}
	}
}

// reader decodes inbound frames and dispatches messages into the per-kind
// pumps. Message payloads were read into slab-pool slices by readFrame, so
// the consumer's PutSlab keeps the receive path zero-alloc in steady state.
func (p *tcpPort) reader() {
	t := p.t
	for {
		p.mu.Lock()
		conn, br := p.conn, p.br
		p.mu.Unlock()
		if conn == nil {
			return // recoverable redial gave up; the abort is already raised
		}
		fr, err := readFrame(br)
		if err != nil {
			if err == io.EOF {
				// An orderly close from the hub ends the port — unless the
				// port has already redialed: the hub then retires the old
				// connection the same way, and the reader carries on with
				// the current one (currentConn waits out a redial underway).
				if t.cfg.Recoverable {
					if cur := p.currentConn(); cur != nil && cur != conn {
						continue
					}
				}
				conn.Close()
				return
			}
			if t.cfg.Recoverable && !t.closing.Load() && !t.aborted() {
				if nc, _ := p.reconnect(conn); nc != nil {
					continue
				}
			}
			p.t.linkError("read", p.id, err)
			return
		}
		switch fr.Type {
		case frameMessage:
			m := fr.Msg
			if m.To != p.id || m.From < 0 || m.From >= t.cfg.NumNodes {
				t.Abort(fmt.Errorf("%w: misrouted frame %d->%d at port %d", ErrFrameCorrupt, m.From, m.To, p.id))
				return
			}
			t.touch()
			if t.ports[m.From] == nil {
				// Remote sender: this process's only sight of the message,
				// so account it here (local senders were accounted in Send).
				t.account(m.From, p.id, m)
			}
			p.pumps[m.Kind].put(m)
		case frameAbort:
			t.Abort(fr.Abort)
			return
		default:
			t.Abort(fmt.Errorf("%w: unexpected frame %#x after handshake at port %d", ErrHandshake, fr.Type, p.id))
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Hub

// hub is the root-process router: one inbound reader per link moving raw
// frames into per-destination queues, one batching writer per link draining
// them. Frames are routed by the fixed-offset destination field without
// decoding, into slab-pool buffers released after the forwarding write.
type hub struct {
	t  *TCPTransport
	ln net.Listener

	mu    sync.Mutex
	links map[int]*hubLink
	dests []*hubDest // by node id
}

type hubLink struct {
	node       int
	conn       *net.TCPConn
	readerDone chan struct{}
}

// hubDest is one node's outbound side at the hub. conn and writerDone are
// guarded by mu; cond signals a (re)attach so a recoverable-mode writer
// parked on a dead link resumes when the node redials.
type hubDest struct {
	q          *outQueue
	mu         sync.Mutex
	cond       sync.Cond
	conn       *net.TCPConn // set when the destination's link attaches
	writerDone chan struct{}
}

func newHub(t *TCPTransport, ln net.Listener) *hub {
	h := &hub{t: t, ln: ln, links: map[int]*hubLink{}, dests: make([]*hubDest, t.cfg.NumNodes)}
	for i := range h.dests {
		h.dests[i] = &hubDest{q: newOutQueue()}
		h.dests[i].cond.L = &h.dests[i].mu
	}
	return h
}

func (d *hubDest) current() *net.TCPConn {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.conn
}

func (h *hub) acceptLoop() {
	for {
		c, err := h.ln.Accept()
		if err != nil {
			return // listener closed by shutdown/abort
		}
		go h.serve(c.(*net.TCPConn))
	}
}

// serve handshakes one inbound connection. Rejections (bad magic, version or
// geometry mismatch, duplicate or out-of-range node id) answer with an abort
// frame and close that connection only — a stray dialer must not kill the
// wall.
func (h *hub) serve(c *net.TCPConn) {
	c.SetDeadline(time.Now().Add(h.t.cfg.HandshakeTimeout))
	reject := func(cause error) {
		c.Write(AppendAbortFrame(nil, cause))
		c.Close()
	}
	br := bufio.NewReaderSize(c, 64<<10)
	fr, err := readFrame(br)
	if err != nil {
		reject(fmt.Errorf("%w: %v", ErrHandshake, err))
		return
	}
	if fr.Type != frameHello {
		reject(fmt.Errorf("%w: frame %#x instead of hello", ErrHandshake, fr.Type))
		return
	}
	hl := fr.Hello
	switch {
	case hl.Version != WireVersion:
		reject(fmt.Errorf("%w: peer speaks wire version %d, hub wants %d", ErrHandshake, hl.Version, WireVersion))
		return
	case hl.NumNodes != h.t.cfg.NumNodes || hl.Grid != h.t.cfg.Grid:
		reject(fmt.Errorf("%w: peer wall %d nodes %+v, hub wall %d nodes %+v",
			ErrHandshake, hl.NumNodes, hl.Grid, h.t.cfg.NumNodes, h.t.cfg.Grid))
		return
	case hl.Node < 0 || hl.Node >= h.t.cfg.NumNodes:
		reject(fmt.Errorf("%w: node id %d out of range", ErrHandshake, hl.Node))
		return
	}
	l := &hubLink{node: hl.Node, conn: c, readerDone: make(chan struct{})}
	h.mu.Lock()
	if old := h.links[hl.Node]; old != nil {
		if !h.t.cfg.Recoverable {
			h.mu.Unlock()
			reject(fmt.Errorf("%w: node %d already connected", ErrHandshake, hl.Node))
			return
		}
		// Takeover: the node is redialing after a link loss its old
		// connection hasn't surfaced here yet. Kill the stale connection (its
		// reader detaches quietly in recoverable mode) and re-admit the node
		// on the fresh one.
		old.conn.Close()
	}
	h.links[hl.Node] = l
	h.mu.Unlock()
	// The accept must be on the wire before the destination writer can touch
	// the new connection: the redialing port reads exactly one frame as its
	// handshake answer, and a queued data frame slipping ahead of the accept
	// would fail it.
	if _, err := c.Write(AppendAcceptFrame(nil, Accept{Version: WireVersion, NumNodes: h.t.cfg.NumNodes})); err != nil {
		h.detachLink(l)
		c.Close()
		return
	}
	c.SetDeadline(time.Time{})
	h.mu.Lock()
	current := h.links[hl.Node] == l // a still-newer redial may have taken over already
	d := h.dests[hl.Node]
	start := false
	if current {
		d.mu.Lock()
		// One persistent writer per destination: started at first attach; in
		// recoverable mode it survives link swaps, resuming the queued
		// outbound window on the new connection — the replayed window a
		// reconnecting node is owed.
		start = d.writerDone == nil
		if start {
			d.writerDone = make(chan struct{})
		}
		d.conn = c
		d.cond.Broadcast()
		d.mu.Unlock()
	}
	h.mu.Unlock()
	if start {
		go h.destWriter(d)
	}
	go h.linkReader(l, br)
}

// detachLink removes a dead inbound link (if still current) and marks its
// destination's outbound side down so the writer parks until the node
// redials.
func (h *hub) detachLink(l *hubLink) {
	h.mu.Lock()
	if h.links[l.node] == l {
		delete(h.links, l.node)
	}
	d := h.dests[l.node]
	h.mu.Unlock()
	d.mu.Lock()
	if d.conn == l.conn {
		d.conn = nil
	}
	d.mu.Unlock()
	l.conn.Close()
}

// linkReader moves raw frames from one link into the destination queues.
// Frames are not decoded: the length prefix is validated, the body lands in
// a slab, and the destination is read at its fixed offset.
func (h *hub) linkReader(l *hubLink, br *bufio.Reader) {
	defer close(l.readerDone)
	t := h.t
	// In recoverable mode a link-level read failure detaches this link
	// quietly — partial frames die with the connection — and the node's
	// redial re-admits it; only frame corruption still aborts the wall.
	linkDown := func(err error) {
		if t.cfg.Recoverable && !t.closing.Load() && !t.aborted() {
			h.detachLink(l)
			return
		}
		t.linkError("hub read", l.node, err)
	}
	var hdr [frameLenBytes]byte
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			if err == io.EOF {
				return // orderly close; the link's outbound side flushes separately
			}
			linkDown(err)
			return
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if err := checkFrameLen(n); err != nil {
			t.Abort(fmt.Errorf("link from node %d: %w", l.node, err))
			return
		}
		raw := GetSlab(frameLenBytes + int(n))[:frameLenBytes+int(n)]
		copy(raw, hdr[:])
		if _, err := io.ReadFull(br, raw[frameLenBytes:]); err != nil {
			PutSlab(raw)
			linkDown(truncOrIO(err))
			return
		}
		switch raw[rawTypeOff] {
		case frameMessage:
			if int(n) < 1+msgHeaderWireBytes {
				PutSlab(raw)
				t.Abort(fmt.Errorf("%w: short message frame from node %d", ErrFrameCorrupt, l.node))
				return
			}
			dest := int(raw[rawDestOff])<<8 | int(raw[rawDestOff+1])
			if dest >= t.cfg.NumNodes {
				PutSlab(raw)
				t.Abort(fmt.Errorf("%w: frame from node %d to unknown node %d", ErrFrameCorrupt, l.node, dest))
				return
			}
			t.touch()
			if !h.dests[dest].q.put(outItem{raw: raw, slab: true}) {
				PutSlab(raw)
			}
		case frameAbort:
			fr, err := decodeFrameBody(raw[rawTypeOff], raw[rawTypeOff+1:])
			PutSlab(raw)
			if err != nil {
				t.Abort(fmt.Errorf("link from node %d: %w", l.node, err))
			} else {
				t.Abort(fr.Abort)
			}
			return
		default:
			PutSlab(raw)
			t.Abort(fmt.Errorf("%w: frame %#x from node %d after handshake", ErrHandshake, raw[rawTypeOff], l.node))
			return
		}
	}
}

// destWriter coalesces a destination's queued frames into single writes,
// releasing each routed slab after it is on the wire. In recoverable mode
// the writer is persistent: a write failure parks it until the node's redial
// reattaches a connection, then the batch is re-sent whole.
func (h *hub) destWriter(d *hubDest) {
	defer close(d.writerDone)
	var batch []outItem
	var buf []byte
	for {
		var done bool
		batch, done = d.q.drain(batch[:0])
		buf = buf[:0]
		for _, it := range batch {
			buf = append(buf, it.raw...)
			if it.slab {
				PutSlab(it.raw)
			}
		}
		if len(buf) > 0 {
			if err := h.writeDest(d, buf); err != nil {
				if !h.t.cfg.Recoverable {
					h.t.linkError("hub write", -1, err)
				}
				d.q.closeDiscard()
				return
			}
		}
		if done {
			if c := d.current(); c != nil {
				c.CloseWrite()
			}
			return
		}
		if cap(buf) > 4<<20 {
			buf = nil
		}
	}
}

// writeDest writes one batch to the destination's current connection. In
// recoverable mode a dead link parks the writer on the dest's cond until the
// node redials (or the transport unwinds), then retries the whole batch —
// this is how a reconnecting node's queued window survives the outage.
func (h *hub) writeDest(d *hubDest, buf []byte) error {
	t := h.t
	for {
		d.mu.Lock()
		conn := d.conn
		for conn == nil && t.cfg.Recoverable && !t.closing.Load() && !t.aborted() {
			d.cond.Wait()
			conn = d.conn
		}
		d.mu.Unlock()
		if conn == nil {
			return fmt.Errorf("destination link down")
		}
		_, err := conn.Write(buf)
		if err == nil {
			return nil
		}
		if !t.cfg.Recoverable || t.closing.Load() || t.aborted() {
			return err
		}
		d.mu.Lock()
		if d.conn == conn {
			d.conn = nil
		}
		d.mu.Unlock()
		conn.Close()
	}
}

// shutdown performs the hub's half of a clean teardown. Call order matters:
// the local ports' write sides are already flushed and half-closed, so (1)
// their link readers drain to EOF — every locally-originated frame is now
// routed; (2) destination queues flush and half-close, delivering everything
// (including shutdown broadcasts) to remote processes; (3) stop accepting.
func (h *hub) shutdown() {
	h.mu.Lock()
	links := make([]*hubLink, 0, len(h.links))
	for _, l := range h.links {
		links = append(links, l)
	}
	dests := append([]*hubDest(nil), h.dests...)
	h.mu.Unlock()
	local := map[int]bool{}
	for _, id := range h.t.cfg.LocalNodes {
		local[id] = true
	}
	for _, l := range links {
		if local[l.node] {
			<-l.readerDone
		}
	}
	for _, d := range dests {
		d.mu.Lock()
		started := d.writerDone != nil
		d.cond.Broadcast() // wake a writer parked on a dead link; closing is set
		d.mu.Unlock()
		if started {
			d.q.close()
		} else {
			d.q.closeDiscard()
		}
	}
	for _, d := range dests {
		d.mu.Lock()
		done := d.writerDone
		d.mu.Unlock()
		if done != nil {
			<-done
		}
	}
	h.ln.Close()
}

// abort pushes the abort frame at every attached destination and stops
// accepting; the transport-level teardown owns deadlines and final closes.
func (h *hub) abort(frame []byte) {
	h.ln.Close()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, d := range h.dests {
		d.mu.Lock()
		started := d.writerDone != nil
		d.cond.Broadcast() // wake a writer parked on a dead link; done is closed
		d.mu.Unlock()
		if started {
			d.q.put(outItem{raw: frame})
			d.q.close()
		} else {
			d.q.closeDiscard()
		}
	}
}

func (h *hub) waitWriters() {
	h.mu.Lock()
	dests := append([]*hubDest(nil), h.dests...)
	h.mu.Unlock()
	for _, d := range dests {
		d.mu.Lock()
		done := d.writerDone
		d.mu.Unlock()
		if done != nil {
			<-done
		}
	}
}

func (h *hub) conns() []*net.TCPConn {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []*net.TCPConn
	for _, l := range h.links {
		out = append(out, l.conn)
	}
	return out
}

func (h *hub) killLink(node int) {
	h.mu.Lock()
	l := h.links[node]
	h.mu.Unlock()
	if l != nil {
		l.conn.SetLinger(0)
		l.conn.Close()
	}
}

// ---------------------------------------------------------------------------
// Queues and pumps

// outItem is one queued outbound frame: either a Message to encode or a
// pre-encoded raw frame (hub routing, abort broadcast).
type outItem struct {
	msg  *Message
	raw  []byte
	slab bool // raw came from the slab pool; release after writing
}

// outQueue is an unbounded, closable MPSC queue feeding a link writer.
// Unbounded is deliberate: the pipeline's credit protocol bounds what can be
// in flight, and a bounded transport queue would introduce blocking edges
// the deadlock-freedom argument doesn't account for.
type outQueue struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []outItem
	closed bool
}

func newOutQueue() *outQueue {
	q := &outQueue{}
	q.cond.L = &q.mu
	return q
}

// put enqueues an item; false (nothing queued) after close.
func (q *outQueue) put(it outItem) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.items = append(q.items, it)
	q.cond.Signal()
	q.mu.Unlock()
	return true
}

// drain blocks until items are queued or the queue is closed, then takes
// everything. done reports that the queue is closed and fully drained.
func (q *outQueue) drain(into []outItem) (batch []outItem, done bool) {
	q.mu.Lock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	into = append(into, q.items...)
	for i := range q.items {
		q.items[i] = outItem{}
	}
	q.items = q.items[:0]
	done = q.closed
	q.mu.Unlock()
	return into, done
}

// close marks the queue closed; the writer drains what remains and exits.
func (q *outQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// closeDiscard closes the queue and releases what nobody will write.
func (q *outQueue) closeDiscard() {
	q.mu.Lock()
	q.closed = true
	items := q.items
	q.items = nil
	q.cond.Broadcast()
	q.mu.Unlock()
	for _, it := range items {
		if it.slab {
			PutSlab(it.raw)
		}
	}
}

// pump is the unbounded buffer between a port's reader and one receive-kind
// channel. The reader never blocks on a slow consumer of one kind while
// another kind is waited on — the head-of-line hazard a single TCP stream
// would otherwise add over the fabric's per-kind queues.
type pump struct {
	mu     sync.Mutex
	cond   sync.Cond
	buf    []*Message
	closed bool
	ch     chan *Message
	done   <-chan struct{}
}

func newPump(done <-chan struct{}) *pump {
	p := &pump{ch: make(chan *Message, 1), done: done}
	p.cond.L = &p.mu
	go p.run()
	return p
}

func (p *pump) put(m *Message) {
	p.mu.Lock()
	if !p.closed {
		p.buf = append(p.buf, m)
		p.cond.Signal()
	}
	p.mu.Unlock()
}

func (p *pump) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *pump) run() {
	for {
		p.mu.Lock()
		for len(p.buf) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.buf) == 0 {
			p.mu.Unlock()
			return
		}
		m := p.buf[0]
		p.buf[0] = nil
		p.buf = p.buf[1:]
		if len(p.buf) == 0 {
			p.buf = nil // let a drained burst's backing array go
		}
		p.mu.Unlock()
		select {
		case p.ch <- m:
		case <-p.done:
			return
		}
	}
}
