package cluster

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
	"unsafe"
)

// Fault injection for the socket path: every failure mode must surface as a
// typed, errors.Is-matchable abort through the single abort domain — never a
// hang.

func newLoopbackTransport(t *testing.T, n int, stall time.Duration) *TCPTransport {
	t.Helper()
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	tr, err := ListenTCP("127.0.0.1:0", TCPConfig{NumNodes: n, LocalNodes: ids, StallTimeout: stall})
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	t.Cleanup(tr.Shutdown)
	return tr
}

func waitAbort(t *testing.T, tr *TCPTransport, within time.Duration) error {
	t.Helper()
	select {
	case <-tr.Done():
		return tr.AbortCause()
	case <-time.After(within):
		t.Fatal("transport did not abort within deadline")
		return nil
	}
}

// TestTCPMultiProcess wires three transports — a hub plus two dialers — the
// way three OS processes would, and runs traffic across real process-style
// boundaries (every hop crosses the hub).
func TestTCPMultiProcess(t *testing.T) {
	hub, err := ListenTCP("127.0.0.1:0", TCPConfig{NumNodes: 3, LocalNodes: []int{0}})
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer hub.Shutdown()
	mk := func(id int) *TCPTransport {
		tr, err := DialTCP(hub.Addr(), TCPConfig{NumNodes: 3, LocalNodes: []int{id}})
		if err != nil {
			t.Fatalf("DialTCP node %d: %v", id, err)
		}
		return tr
	}
	w1, w2 := mk(1), mk(2)
	defer w1.Shutdown()
	defer w2.Shutdown()

	const rounds = 50
	go func() {
		for i := 0; i < rounds; i++ {
			w1.Port(1).Send(2, &Message{Kind: MsgBlocks, Seq: i, Session: 5, Payload: []byte{byte(i), 1, 2}})
			w1.Port(1).Send(0, &Message{Kind: MsgAck, Seq: i})
		}
	}()
	for i := 0; i < rounds; i++ {
		m, ok := w2.Port(2).Recv(MsgBlocks)
		if !ok {
			t.Fatalf("w2 aborted: %v", w2.AbortCause())
		}
		if m.Seq != i || m.From != 1 || m.Payload[0] != byte(i) {
			t.Fatalf("round %d: got seq %d from %d payload %v", i, m.Seq, m.From, m.Payload)
		}
		if m2, ok := hub.Port(0).Recv(MsgAck); !ok || m2.Seq != i {
			t.Fatalf("round %d: hub ack %+v (cause %v)", i, m2, hub.AbortCause())
		}
	}
	// Remote-origin traffic is accounted at the receiving process.
	if got := w2.PairBytes(1, 2); got != rounds*(3+messageHeaderBytes) {
		t.Fatalf("w2 PairBytes(1,2) = %d, want %d", got, rounds*(3+messageHeaderBytes))
	}
	if got := w2.SessionBytes(5); got != rounds*(3+messageHeaderBytes) {
		t.Fatalf("w2 SessionBytes(5) = %d, want %d", got, rounds*(3+messageHeaderBytes))
	}
}

// TestTCPMidStreamDrop: hard-killing a link (RST) aborts the transport with
// ErrLinkLost, unblocking a pending receive.
func TestTCPMidStreamDrop(t *testing.T) {
	tr := newLoopbackTransport(t, 3, 0)
	got := make(chan bool, 1)
	go func() {
		_, ok := tr.Port(2).Recv(MsgPicture)
		got <- ok
	}()
	tr.Port(0).Send(2, &Message{Kind: MsgPicture, Payload: make([]byte, 1024)})
	if ok := <-got; !ok {
		t.Fatalf("pre-fault delivery failed: %v", tr.AbortCause())
	}
	tr.InjectLinkFailure(1)
	cause := waitAbort(t, tr, 10*time.Second)
	if !errors.Is(cause, ErrLinkLost) && !errors.Is(cause, ErrStalled) {
		t.Fatalf("abort cause %v, want ErrLinkLost (or ErrStalled)", cause)
	}
	if m, ok := tr.Port(2).Recv(MsgPicture); ok {
		t.Fatalf("Recv after link loss returned %+v", m)
	}
}

// TestTCPHalfOpenPeer: a peer that handshakes and then goes silent while the
// wall expects traffic is caught by the stall watchdog, not a hang.
func TestTCPHalfOpenPeer(t *testing.T) {
	tr, err := ListenTCP("127.0.0.1:0", TCPConfig{NumNodes: 2, LocalNodes: []int{0}, StallTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer tr.Shutdown()
	// Handshake as node 1 by hand, then never send another byte.
	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write(AppendHelloFrame(nil, Hello{Version: WireVersion, Node: 1, NumNodes: 2})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	blocked := make(chan bool, 1)
	go func() {
		_, ok := tr.Port(0).Recv(MsgAck)
		blocked <- ok
	}()
	cause := waitAbort(t, tr, 10*time.Second)
	if !errors.Is(cause, ErrStalled) {
		t.Fatalf("abort cause %v, want ErrStalled", cause)
	}
	if ok := <-blocked; ok {
		t.Fatal("Recv delivered a message after stall abort")
	}
}

// TestTCPHandshakeVersionMismatch: the hub answers a wrong-version hello
// with an ErrHandshake-classed abort frame and keeps the wall alive.
func TestTCPHandshakeVersionMismatch(t *testing.T) {
	tr := newLoopbackTransport(t, 2, 0)
	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	if _, err := c.Write(AppendHelloFrame(nil, Hello{Version: WireVersion + 9, Node: 1, NumNodes: 2})); err != nil {
		t.Fatalf("hello: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var rd frameReader
	fr, err := rd.read(c)
	if err != nil {
		t.Fatalf("expected abort frame, read error %v", err)
	}
	if fr.Type != frameAbort || !errors.Is(fr.Abort, ErrHandshake) {
		t.Fatalf("expected ErrHandshake abort frame, got %+v", fr)
	}
	if tr.AbortCause() != nil {
		t.Fatalf("stray dialer aborted the wall: %v", tr.AbortCause())
	}
	// The wall still works afterwards.
	tr.Port(0).Send(1, &Message{Kind: MsgAck, Seq: 1})
	if m, ok := tr.Port(1).Recv(MsgAck); !ok || m.Seq != 1 {
		t.Fatalf("wall broken after rejected dialer: %+v (cause %v)", m, tr.AbortCause())
	}
}

// TestTCPHandshakeGeometryMismatch: a dialing process configured for a
// different wall shape is rejected with ErrHandshake at DialTCP.
func TestTCPHandshakeGeometryMismatch(t *testing.T) {
	hub, err := ListenTCP("127.0.0.1:0", TCPConfig{NumNodes: 4, LocalNodes: []int{0}, Grid: Grid{K: 1, M: 1, N: 2}})
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer hub.Shutdown()
	_, err = DialTCP(hub.Addr(), TCPConfig{NumNodes: 4, LocalNodes: []int{1}, Grid: Grid{K: 1, M: 2, N: 1}})
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("geometry mismatch: err %v, want ErrHandshake", err)
	}
	_, err = DialTCP(hub.Addr(), TCPConfig{NumNodes: 5, LocalNodes: []int{1}, Grid: Grid{K: 1, M: 1, N: 2}})
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("node-count mismatch: err %v, want ErrHandshake", err)
	}
}

// TestTCPDuplicateNode: a second claim on an already-connected node id is
// rejected without disturbing the first.
func TestTCPDuplicateNode(t *testing.T) {
	tr := newLoopbackTransport(t, 2, 0)
	_, err := DialTCP(tr.Addr(), TCPConfig{NumNodes: 2, LocalNodes: []int{1}})
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("duplicate node: err %v, want ErrHandshake", err)
	}
	if tr.AbortCause() != nil {
		t.Fatalf("duplicate claim aborted the wall: %v", tr.AbortCause())
	}
}

// TestTCPHandshakeTimeout: a connection that never completes the handshake
// is cut by the hub's deadline instead of holding a slot forever.
func TestTCPHandshakeTimeout(t *testing.T) {
	tr, err := listenTCP("127.0.0.1:0", TCPConfig{NumNodes: 2, LocalNodes: []int{0}}, 200*time.Millisecond)
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer tr.Shutdown()
	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := c.Read(buf); err == nil {
		// An abort frame is also acceptable; what matters is the connection
		// dies promptly rather than lingering half-open.
		io.Copy(io.Discard, c)
	}
	if tr.AbortCause() != nil {
		t.Fatalf("silent dialer aborted the wall: %v", tr.AbortCause())
	}
}

// TestTCPAbortPropagation: an abort in one process propagates its cause
// class across the wire so every process reports the same errors.Is result.
func TestTCPAbortPropagation(t *testing.T) {
	hub, err := ListenTCP("127.0.0.1:0", TCPConfig{NumNodes: 2, LocalNodes: []int{0}})
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer hub.Shutdown()
	worker, err := DialTCP(hub.Addr(), TCPConfig{NumNodes: 2, LocalNodes: []int{1}})
	if err != nil {
		t.Fatalf("DialTCP: %v", err)
	}
	defer worker.Shutdown()
	worker.Abort(ErrStalled)
	cause := waitAbort(t, hub, 10*time.Second)
	if !errors.Is(cause, ErrStalled) {
		t.Fatalf("hub abort cause %v, want ErrStalled across the wire", cause)
	}
	if cause.Error() != ErrStalled.Error() {
		t.Fatalf("abort message %q lost fidelity, want %q", cause.Error(), ErrStalled.Error())
	}
}

// TestTCPHubAbortAfterListen: right after ListenTCP returns, node 0's link
// dies under the hub alone — the port reads an orderly EOF and closes with a
// reset, and the hub's link reader aborts the transport on it. That reader
// was started before node 0's port was published and never hears from the
// goroutine that built the ports, so the abort teardown must pick the ports
// up through the transport's own publication (the race detector checks it,
// every run), and it must drain every port's writer.
func TestTCPHubAbortAfterListen(t *testing.T) {
	tr, err := ListenTCP("127.0.0.1:0", TCPConfig{NumNodes: 2, LocalNodes: []int{0, 1}})
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer tr.Shutdown()
	c, _ := tr.ports[0].current()
	c.SetLinger(0)
	c.CloseRead()
	if cause := waitAbort(t, tr, 10*time.Second); !errors.Is(cause, ErrLinkLost) {
		t.Fatalf("abort cause %v, want ErrLinkLost", cause)
	}
	for _, id := range []int{0, 1} {
		select {
		case <-tr.ports[id].done:
		case <-time.After(10 * time.Second):
			t.Fatalf("port %d writer still running after the abort teardown", id)
		}
	}
}

// TestTCPRecoverableStaleEOF: after a link loss the port's writer can
// redial before its reader notices, and the hub retires the old connection
// with an orderly close when the new one takes over. The reader then reads
// EOF on a connection the port no longer uses; that is not the hub shutting
// down, so the reader must carry on with the current link. The redial is
// driven by hand here, exactly as redial does it minus closing the old
// connection first — the reader's view of the race.
func TestTCPRecoverableStaleEOF(t *testing.T) {
	tr, err := ListenTCP("127.0.0.1:0", TCPConfig{NumNodes: 2, LocalNodes: []int{0, 1}, Recoverable: true})
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer tr.Shutdown()
	// Park node 1's reader in a read on its first connection: one delivered
	// message proves the reader runs, and the pause lets it loop back into
	// the next read before the takeover.
	tr.Port(0).Send(1, &Message{Kind: MsgAck, Seq: 6})
	if m, ok := tr.Port(1).Recv(MsgAck); !ok || m.Seq != 6 {
		t.Fatalf("message before the takeover: %+v (abort %v)", m, tr.AbortCause())
	}
	time.Sleep(50 * time.Millisecond)
	p := tr.ports[1]
	p.mu.Lock()
	conn, err := net.DialTimeout("tcp", tr.Addr(), time.Second)
	if err != nil {
		p.mu.Unlock()
		t.Fatalf("redial: %v", err)
	}
	br, err := tr.handshake(conn.(*net.TCPConn), 1)
	if err != nil {
		p.mu.Unlock()
		t.Fatalf("redial handshake: %v", err)
	}
	p.conn, p.br = conn.(*net.TCPConn), br
	p.mu.Unlock()

	tr.Port(0).Send(1, &Message{Kind: MsgAck, Seq: 7})
	m, ok, timedOut := tr.Port(1).RecvTimeout(MsgAck, 5*time.Second)
	if timedOut || !ok || m.Seq != 7 {
		t.Fatalf("message after the takeover: %+v, timed out %v (abort %v); the reader quit on the retired link's EOF",
			m, timedOut, tr.AbortCause())
	}
}

// TestTCPCleanShutdownDeliversTail: everything sent before Shutdown reaches
// a remote process that is still draining — the flush-then-FIN ordering.
func TestTCPCleanShutdownDeliversTail(t *testing.T) {
	hub, err := ListenTCP("127.0.0.1:0", TCPConfig{NumNodes: 2, LocalNodes: []int{0}})
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	worker, err := DialTCP(hub.Addr(), TCPConfig{NumNodes: 2, LocalNodes: []int{1}})
	if err != nil {
		t.Fatalf("DialTCP: %v", err)
	}
	defer worker.Shutdown()
	const tail = 200
	for i := 0; i < tail; i++ {
		hub.Port(0).Send(1, &Message{Kind: MsgBlocks, Seq: i, Payload: make([]byte, 512)})
	}
	hub.Shutdown()
	for i := 0; i < tail; i++ {
		m, ok := worker.Port(1).Recv(MsgBlocks)
		if !ok {
			t.Fatalf("tail message %d lost: %v", i, worker.AbortCause())
		}
		if m.Seq != i {
			t.Fatalf("tail reordered: got %d want %d", m.Seq, i)
		}
	}
	if worker.AbortCause() != nil {
		t.Fatalf("clean shutdown aborted the worker: %v", worker.AbortCause())
	}
}

// TestTCPDialRetryLateRoot: a worker process often races the root process to
// the rendezvous address. The capped-exponential dial retry must keep trying
// until the root's listener appears, and join well within the 15s dial
// window.
func TestTCPDialRetryLateRoot(t *testing.T) {
	// Reserve an address, then free it so the first dial attempts miss.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	type dialRes struct {
		tr  *TCPTransport
		err error
	}
	ch := make(chan dialRes, 1)
	start := time.Now()
	go func() {
		tr, err := DialTCP(addr, TCPConfig{NumNodes: 2, LocalNodes: []int{1}})
		ch <- dialRes{tr, err}
	}()
	time.Sleep(300 * time.Millisecond)
	hub, err := ListenTCP(addr, TCPConfig{NumNodes: 2, LocalNodes: []int{0}})
	if err != nil {
		t.Fatalf("late ListenTCP: %v", err)
	}
	defer hub.Shutdown()
	res := <-ch
	if res.err != nil {
		t.Fatalf("DialTCP did not survive the late root: %v", res.err)
	}
	defer res.tr.Shutdown()
	if took := time.Since(start); took >= 5*time.Second {
		t.Fatalf("late join took %v, want well under the 15s dial window", took)
	}
	res.tr.Port(1).Send(0, &Message{Kind: MsgAck, Seq: 7})
	if m, ok := hub.Port(0).Recv(MsgAck); !ok || m.Seq != 7 {
		t.Fatalf("no traffic after late join: %+v (cause %v)", m, hub.AbortCause())
	}
}

// TestTCPRecoverableReconnect: on a Recoverable transport a hard link kill
// (RST) must not abort the wall — the victim redials the hub, the link-state
// hook observes down then up, and traffic resumes (batch re-send may
// duplicate the tail, which downstream protocols tolerate).
func TestTCPRecoverableReconnect(t *testing.T) {
	var mu sync.Mutex
	var transitions []bool
	hub, err := ListenTCP("127.0.0.1:0", TCPConfig{
		NumNodes: 2, LocalNodes: []int{0}, Recoverable: true,
	})
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer hub.Shutdown()
	w1, err := DialTCP(hub.Addr(), TCPConfig{
		NumNodes: 2, LocalNodes: []int{1}, Recoverable: true,
		OnLinkState: func(node int, up bool) {
			mu.Lock()
			transitions = append(transitions, up)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatalf("DialTCP: %v", err)
	}
	defer w1.Shutdown()

	w1.Port(1).Send(0, &Message{Kind: MsgAck, Seq: 1})
	if m, ok := hub.Port(0).Recv(MsgAck); !ok || m.Seq != 1 {
		t.Fatalf("pre-failure message lost: %+v (cause %v)", m, hub.AbortCause())
	}

	w1.InjectLinkFailure(1)
	time.Sleep(50 * time.Millisecond) // let the RST land on both ends
	w1.Port(1).Send(0, &Message{Kind: MsgAck, Seq: 2})

	deadline := time.Now().Add(5 * time.Second)
	for {
		m, ok, timedOut := hub.Port(0).RecvTimeout(MsgAck, time.Until(deadline))
		if timedOut {
			t.Fatal("post-failure message never arrived; link did not recover")
		}
		if !ok {
			t.Fatalf("hub aborted instead of recovering: %v", hub.AbortCause())
		}
		if m.Seq == 2 {
			break // Seq 1 may be redelivered by the batch re-send
		}
	}
	mu.Lock()
	got := append([]bool(nil), transitions...)
	mu.Unlock()
	sawDown, sawUpAfterDown := false, false
	for _, up := range got {
		if !up {
			sawDown = true
		} else if sawDown {
			sawUpAfterDown = true
		}
	}
	if !sawDown || !sawUpAfterDown {
		t.Fatalf("link-state transitions %v, want down followed by up", got)
	}
}

// TestTCPRecoverableHubBacklog: the hub's half of a recoverable redial.
// Frames the hub queues for a node while that node's link is down must reach
// the node after its redial, in order. The node's redial is held at the
// link-down hook until the hub has dropped the dead connection and its
// writer has taken from the backlog, so the writer is parked on the empty
// slot with a batch when the redial attaches. The whole-batch re-send may
// repeat leading frames.
func TestTCPRecoverableHubBacklog(t *testing.T) {
	hub, err := ListenTCP("127.0.0.1:0", TCPConfig{NumNodes: 2, LocalNodes: []int{0}, Recoverable: true})
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer hub.Shutdown()
	down, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	w1, err := DialTCP(hub.Addr(), TCPConfig{
		NumNodes: 2, LocalNodes: []int{1}, Recoverable: true,
		OnLinkState: func(node int, up bool) {
			if !up {
				once.Do(func() { close(down) })
				<-release
			}
		},
	})
	if err != nil {
		t.Fatalf("DialTCP: %v", err)
	}
	defer w1.Shutdown()

	hub.Port(0).Send(1, &Message{Kind: MsgBlocks, Seq: 0})
	if m, ok := w1.Port(1).Recv(MsgBlocks); !ok || m.Seq != 0 {
		t.Fatalf("pre-failure message lost: %+v (cause %v)", m, w1.AbortCause())
	}

	w1.InjectLinkFailure(1)
	select {
	case <-down:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("node 1 never reported its link down")
	}
	// The node's redial is held. Once the hub has dropped the dead
	// connection, queue the backlog and let the writer take it.
	slot := hub.hub.nodes[1]
	waitFor := func(what string, cond func() bool) {
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				close(release)
				t.Fatal(what)
			}
		}
	}
	waitFor("hub kept node 1's dead connection", func() bool { c, _ := slot.current(); return c == nil })
	const backlog = 100
	for i := 1; i <= backlog; i++ {
		frame, err := AppendMessageFrame(nil, &Message{From: 0, To: 1, Kind: MsgBlocks, Seq: i, Payload: []byte{byte(i)}})
		if err != nil {
			t.Fatal(err)
		}
		slot.q.put(outItem{raw: frame})
	}
	waitFor("hub writer never took from the backlog", func() bool {
		slot.q.mu.Lock()
		defer slot.q.mu.Unlock()
		return len(slot.q.items) < backlog
	})
	close(release)

	for next := 1; next <= backlog; {
		m, ok, timedOut := w1.Port(1).RecvTimeout(MsgBlocks, 5*time.Second)
		if timedOut || !ok {
			t.Fatalf("backlog frame %d never arrived after the redial (timed out %v, cause %v)", next, timedOut, w1.AbortCause())
		}
		if m.Seq < next {
			continue // a leading frame repeated by the whole-batch re-send
		}
		if m.Seq != next || m.Payload[0] != byte(next) {
			t.Fatalf("backlog out of order: got seq %d payload %v, want %d", m.Seq, m.Payload, next)
		}
		next++
	}
	if hub.AbortCause() != nil || w1.AbortCause() != nil {
		t.Fatalf("redial aborted: hub %v, node %v", hub.AbortCause(), w1.AbortCause())
	}
}

// TestTCPWriterReleaseRule: the link writer gives a payload back to the
// pool exactly when the message's consumer would (Message.consumerReleases).
// A data message's slab comes back once it is encoded. The control payloads
// one sender shares across destinations — a session-open header, a
// subscription — and ack payloads are never released by their consumers; a
// writer-side release of each destination's copy would put one backing array
// into the free list twice, and two receivers (or two routed frames) would
// end up sharing it.
func TestTCPWriterReleaseRule(t *testing.T) {
	tr := newLoopbackTransport(t, 3, 0)
	const size = 700
	// deliver sends m to every destination, receives each copy and releases
	// it where a consumer would, and returns the received payloads.
	deliver := func(m *Message, to ...int) [][]byte {
		t.Helper()
		for _, id := range to {
			tr.Port(0).Send(id, m)
		}
		var got [][]byte
		for _, id := range to {
			r, ok := tr.Port(id).Recv(m.Kind)
			if !ok {
				t.Fatalf("kind %v flags %#x to %d not delivered: %v", m.Kind, m.Flags, id, tr.AbortCause())
			}
			got = append(got, r.Payload)
			if r.consumerReleases() {
				PutSlab(r.Payload)
			}
		}
		return got
	}
	freeCount := func(b []byte) int {
		cl := &slabClasses[slabClass(cap(b))]
		cl.mu.Lock()
		defer cl.mu.Unlock()
		n := 0
		for _, s := range cl.free {
			if unsafe.SliceData(s[:1]) == unsafe.SliceData(b[:1]) {
				n++
			}
		}
		return n
	}
	for _, m := range []*Message{
		{Kind: MsgPicture, Flags: FlagSessionOpen, Session: 1},
		{Kind: MsgSubPicture, Flags: FlagSessionOpen, Session: 1},
		{Kind: MsgPicture, Flags: FlagSubscribe, Session: 1},
		{Kind: MsgAck, Seq: SessionFailSeq, Session: 1},
	} {
		m.Payload = GetSlab(size)[:size]
		got := deliver(m, 1, 2)
		if n := freeCount(m.Payload); n != 0 {
			t.Fatalf("flags %#x kind %v: the shared payload is in the free list %d times", m.Flags, m.Kind, n)
		}
		if unsafe.SliceData(got[0]) == unsafe.SliceData(got[1]) {
			t.Fatalf("flags %#x kind %v: two receivers share one slab", m.Flags, m.Kind)
		}
	}
	for _, m := range []*Message{
		{Kind: MsgPicture, Seq: 3, Session: 1},
		{Kind: MsgSubPicture, Seq: 3, Session: 1},
		{Kind: MsgSubPicture, Seq: -1, Flags: FlagSessionFinal, Session: 1},
		{Kind: MsgBlocks, Seq: 3, Session: 1},
	} {
		m.Payload = GetSlab(size)[:size]
		deliver(m, 1)
		if n := freeCount(m.Payload); n != 1 {
			t.Fatalf("flags %#x kind %v: the sender's slab is in the free list %d times, want once", m.Flags, m.Kind, n)
		}
	}
	if err := tr.AbortCause(); err != nil {
		t.Fatalf("transport aborted: %v", err)
	}
}

// TestTCPRecoverableStrayHello: a stray hello that claims a connected node
// takes that node's hub slot over. The node's port must notice the loss and
// redial (or the transport abort) — never go silent: after the stray hangs
// up, traffic to the node is delivered again within the dial window. The
// takeover may lose frames in flight (those written to the stray, and those
// the hub had not read from the reset connection), so the test asks only
// that some later message arrives; recovery's deadlines cover the loss.
func TestTCPRecoverableStrayHello(t *testing.T) {
	tr, err := ListenTCP("127.0.0.1:0", TCPConfig{NumNodes: 2, LocalNodes: []int{0, 1}, Recoverable: true})
	if err != nil {
		t.Fatalf("ListenTCP: %v", err)
	}
	defer tr.Shutdown()
	tr.Port(0).Send(1, &Message{Kind: MsgAck, Seq: 1})
	if m, ok := tr.Port(1).Recv(MsgAck); !ok || m.Seq != 1 {
		t.Fatalf("message before the stray: %+v (abort %v)", m, tr.AbortCause())
	}

	c, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatalf("stray dial: %v", err)
	}
	if _, err := c.Write(AppendHelloFrame(nil, Hello{Version: WireVersion, Node: 1, NumNodes: 2})); err != nil {
		t.Fatalf("stray hello: %v", err)
	}
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	var rd frameReader
	if fr, err := rd.read(c); err != nil || fr.Type != frameAccept {
		t.Fatalf("stray hello not accepted: %+v, %v", fr, err)
	}
	c.Close()

	deadline := time.Now().Add(dialTimeout)
	for seq := 2; ; seq++ {
		tr.Port(0).Send(1, &Message{Kind: MsgAck, Seq: seq})
		m, ok, timedOut := tr.Port(1).RecvTimeout(MsgAck, 50*time.Millisecond)
		if ok && m.Seq >= 2 {
			return
		}
		if !ok && !timedOut {
			return // the transport aborted: loud, not silent
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 1 silent %v after a stray hello took its link over (abort %v)", dialTimeout, tr.AbortCause())
		}
	}
}
