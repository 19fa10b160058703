package cluster

import (
	"bufio"
	"errors"
	"net"
	"slices"
	"sync"
)

// One end of a TCP connection, as both the port and the hub see it: the
// outbound FIFO, the slot holding the live connection, and the batching
// writer that drains the one into the other. The two ends differ only in how
// a lost connection is replaced (DESIGN.md §12).

// outItem is one queued outbound frame: a pre-encoded raw frame (hub
// routing, abort broadcast) when raw is set, else a Message to encode.
type outItem struct {
	msg  Message
	raw  []byte
	slab bool // raw came from the slab pool; release after writing
}

// release gives up what the item held once it is on the wire, or will never
// be: a routed frame's slab, and a message's payload when its consumer would
// release it (Message.consumerReleases). The writer sends the payload
// straight from the sender's slab, so it is that slab's consumer once the
// write has returned — the receiving process reads into a slab of its own.
func (it *outItem) release() {
	switch {
	case it.slab:
		PutSlab(it.raw)
	case it.raw == nil && it.msg.consumerReleases():
		PutSlab(it.msg.Payload)
	}
}

var errLinkDown = errors.New("link down")

// link is one end of a node's connection. conn, br, done and readerDone are
// guarded by mu; cond signals an attach to a hub-end writer parked in
// reattach.
type link struct {
	t    *TCPTransport
	node int
	q    *fifo
	// replace swaps in a live connection after old failed, or returns nil
	// when the link is gone for good: the port end redials, the hub end waits
	// for the node's redial to attach.
	replace func(old *net.TCPConn) *net.TCPConn

	mu         sync.Mutex
	cond       sync.Cond
	conn       *net.TCPConn
	br         *bufio.Reader // port end: the reader's side of conn
	done       chan struct{} // closed when the writer exits; nil until it starts
	readerDone chan struct{} // hub end: closed when conn's reader exits

	// The writer's batch, reused from one batch to the next: the message
	// frames' headers, the batch's frame pieces (each header, then the
	// payload or raw slab itself) and the copy of them a write consumes.
	hdrs      []byte
	bufs, vec net.Buffers
}

func newLink(t *TCPTransport, node int, hubEnd bool) *link {
	l := &link{t: t, node: node, q: newFIFO()}
	l.cond.L = &l.mu
	l.replace = l.redial
	if hubEnd {
		l.replace = l.reattach
	}
	return l
}

// current returns the live connection (nil while none is attached, or after
// a failed redial gave up).
func (l *link) current() (*net.TCPConn, *bufio.Reader) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn, l.br
}

// attachLocked makes c the link's connection, wakes a writer parked in
// reattach, and starts the writer on first use. mu must be held.
func (l *link) attachLocked(c *net.TCPConn, br *bufio.Reader) {
	l.conn, l.br = c, br
	l.cond.Broadcast()
	if l.done == nil {
		l.done = make(chan struct{})
		go l.writer()
	}
}

// writer drains the queue, putting every pending frame on the wire with one
// writev — the batching that keeps many small credit/ack messages from
// costing a syscall each — straight from the slabs the payloads live in.
// The flush policy is write-on-idle: a batch is cut exactly when the
// previous write finished and the queue has something, so an idle link
// flushes immediately and a busy link coalesces automatically. A batch's
// items are released once its write has returned. A closed queue is
// flushed, then the write side half-closed (FIN).
func (l *link) writer() {
	defer close(l.done)
	var items []outItem
	for {
		var done bool
		items, done = l.q.take(items)
		err := l.send(items)
		for i := range items {
			items[i].release()
		}
		clear(items)
		if err != nil {
			l.discard()
			return
		}
		if done {
			if c, _ := l.current(); c != nil {
				c.CloseWrite()
			}
			return
		}
	}
}

// send writes one batch with one writev: a message frame as its header,
// encoded into the link's scratch, and its payload slab; a raw frame as its
// own slab. A message that cannot be encoded aborts the transport. Each
// write attempt is given a fresh copy of the batch's pieces, vec, because a
// write consumes the net.Buffers it is given. In Recoverable mode a failed
// write replaces the connection and re-sends the whole batch from its
// original pieces on the new one: the receiving end discards any partial
// frame the dead connection delivered (its stream breaks mid-frame), so the
// worst case is a duplicated leading frame, which the layers above absorb
// (acks are idempotent, data receivers deduplicate).
func (l *link) send(items []outItem) error {
	// Room for every header up front: the appends below never move hdrs,
	// so the header slices already in bufs stay valid.
	hdrs := slices.Grow(l.hdrs[:0], len(items)*msgFrameHeaderBytes)
	bufs := l.bufs[:0]
	for i := range items {
		it := &items[i]
		if it.raw != nil {
			bufs = append(bufs, it.raw)
			continue
		}
		var err error
		if hdrs, err = appendMessageHeader(hdrs, &it.msg); err != nil {
			l.t.Abort(err)
			return err
		}
		bufs = append(bufs, hdrs[len(hdrs)-msgFrameHeaderBytes:])
		if len(it.msg.Payload) > 0 {
			bufs = append(bufs, it.msg.Payload)
		}
	}
	n := len(bufs)
	l.hdrs, l.bufs = hdrs, slices.Grow(bufs, n) // bufs[n:2n] holds vec
	defer clear(l.bufs[:2*n])                   // hold no slab past its release
	for conn, _ := l.current(); ; conn = l.replace(conn) {
		err := errLinkDown
		if conn != nil {
			l.vec = append(l.bufs[n:n], l.bufs...)
			if _, err = l.vec.WriteTo(conn); err == nil {
				return nil
			}
		}
		if !l.t.recoverable() {
			l.t.linkError("write", l.node, err)
			return err
		}
	}
}

// redial is the port end's replace. The first caller after old failed
// redials and re-handshakes while holding mu, so the port's other I/O
// goroutine blocks in current and inherits the fresh connection. nil when
// the transport is closing or aborted, or the redial window expired (which
// aborts with ErrLinkLost).
func (l *link) redial(old *net.TCPConn) *net.TCPConn {
	t := l.t
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != old || old == nil {
		return l.conn // the other I/O goroutine already redialed, or gave up
	}
	old.Close()
	l.conn, l.br = nil, nil
	t.noteLink(l.node, false)
	conn, br, err := t.dial(l.node)
	if err != nil {
		t.linkError("redial", l.node, err)
		return nil
	}
	l.conn, l.br = conn, br
	t.touch()
	t.noteLink(l.node, true)
	return conn
}

// reattach is the hub end's replace: drop the dead connection and wait for
// the node's redial to attach a new one — this is how a reconnecting node's
// queued window survives the outage. nil once the transport is closing or
// aborted.
func (l *link) reattach(old *net.TCPConn) *net.TCPConn {
	l.detach(old)
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.conn == nil && l.t.recoverable() {
		l.cond.Wait()
	}
	return l.conn
}

// detach empties the slot if it still holds c, and closes c.
func (l *link) detach(c *net.TCPConn) {
	if c == nil {
		return
	}
	l.mu.Lock()
	if l.conn == c {
		l.conn = nil
	}
	l.mu.Unlock()
	c.Close()
}

// close ends the link's outbound side: a running writer sends what is
// queued, then frame (if any), then half-closes; a link whose writer never
// started releases its queue. It also wakes a writer parked in reattach.
func (l *link) close(frame []byte) {
	l.mu.Lock()
	started := l.done != nil
	l.cond.Broadcast()
	l.mu.Unlock()
	if !started {
		l.discard()
		return
	}
	if frame != nil {
		l.q.put(outItem{raw: frame})
	}
	l.q.close()
}

// discard closes the queue and releases what nobody will write.
func (l *link) discard() {
	l.q.close()
	items, _ := l.q.take(nil)
	for i := range items {
		items[i].release()
	}
}

// wait blocks until the writer, if it ever started, has exited.
func (l *link) wait() {
	l.mu.Lock()
	done := l.done
	l.mu.Unlock()
	if done != nil {
		<-done
	}
}

// kill hard-kills the live connection (RST via linger 0).
func (l *link) kill() {
	if c, _ := l.current(); c != nil {
		c.SetLinger(0)
		c.Close()
	}
}

// fifo is an unbounded, closable queue with one consumer: a link's outbound
// frames. Unbounded is deliberate: the credit protocol, not the transport,
// bounds what is in flight, and a bounded outbound queue would add blocking
// edges the deadlock-freedom argument does not account for.
type fifo struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []outItem
	closed bool
}

func newFIFO() *fifo {
	q := &fifo{}
	q.cond.L = &q.mu
	return q
}

// put enqueues v; false (nothing queued) after close.
func (q *fifo) put(v outItem) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	q.items = append(q.items, v)
	q.cond.Signal()
	return true
}

// take blocks until something is queued or the queue is closed, then swaps
// everything queued for spare, an emptied slice the consumer hands back for
// reuse. done reports a closed queue: what take returned is the last of it.
func (q *fifo) take(spare []outItem) (items []outItem, done bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	items, q.items = q.items, spare[:0]
	return items, q.closed
}

// close ends the queue; the consumer takes what remains, then sees done.
func (q *fifo) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}
