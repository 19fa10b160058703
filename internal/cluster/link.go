package cluster

import (
	"bufio"
	"errors"
	"net"
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

// release gives up what the item held once it is encoded, or will never be:
// a routed frame's slab, and a message's payload when its consumer would
// release it (Message.consumerReleases). The payload's bytes now live in the
// batch buffer, so the link writer is the consumer of the sender's slab —
// the receiving process reads into a slab of its own.
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
	q    *fifo[outItem]
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
}

func newLink(t *TCPTransport, node int, hubEnd bool) *link {
	l := &link{t: t, node: node, q: newFIFO[outItem]()}
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

// writer drains the queue, encoding every pending frame into one buffer and
// writing it with a single syscall — the batching that keeps many small
// credit/ack messages from costing a syscall each. The flush policy is
// write-on-idle: a batch is cut exactly when the previous write finished and
// the queue has something, so an idle link flushes immediately and a busy
// link coalesces automatically. A closed queue is flushed, then the write
// side half-closed (FIN).
func (l *link) writer() {
	defer close(l.done)
	var items []outItem
	var buf []byte
	for {
		var done bool
		items, done = l.q.take(items)
		buf = buf[:0]
		for i := range items {
			it := &items[i]
			if it.raw != nil {
				buf = append(buf, it.raw...)
			} else {
				var err error
				if buf, err = AppendMessageFrame(buf, &it.msg); err != nil {
					l.t.Abort(err)
					return
				}
			}
			it.release()
		}
		clear(items)
		if len(buf) > 0 {
			if err := l.write(buf); err != nil {
				l.t.linkError("write", l.node, err)
				l.discard()
				return
			}
		}
		if done {
			if c, _ := l.current(); c != nil {
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
// write replaces the connection and re-sends the whole batch on the new
// one: the receiving end discards any partial frame the dead connection
// delivered (its stream breaks mid-frame), so the worst case is a
// duplicated leading frame, which the layers above absorb (acks are
// idempotent, data receivers deduplicate).
func (l *link) write(buf []byte) error {
	conn, _ := l.current()
	for {
		err := errLinkDown
		if conn != nil {
			if _, err = conn.Write(buf); err == nil {
				return nil
			}
		}
		if !l.t.recoverable() {
			return err
		}
		conn = l.replace(conn)
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
// frames, or one receive kind's messages on their way from a port's reader
// to the consumer's channel. Unbounded is deliberate: the credit protocol,
// not the transport, bounds what is in flight. A bounded outbound queue
// would add blocking edges the deadlock-freedom argument does not account
// for, and a bounded receive queue would let a slow consumer of one kind
// block the reader while another kind is waited on — head-of-line blocking
// the fabric's per-kind queues do not have.
type fifo[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond
	items  []T
	closed bool
}

func newFIFO[T any]() *fifo[T] {
	q := &fifo[T]{}
	q.cond.L = &q.mu
	return q
}

// put enqueues v; false (nothing queued) after close.
func (q *fifo[T]) put(v T) bool {
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
func (q *fifo[T]) take(spare []T) (items []T, done bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	items, q.items = q.items, spare[:0]
	return items, q.closed
}

// close ends the queue; the consumer takes what remains, then sees done.
func (q *fifo[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// pump moves one receive kind's messages from a port's reader to the
// consumer's channel in order, so the reader never waits on a slow consumer.
type pump struct {
	q  *fifo[Message]
	ch chan Message
}

func newPump(done <-chan struct{}) *pump {
	p := &pump{q: newFIFO[Message](), ch: make(chan Message, 1)}
	go p.run(done)
	return p
}

func (p *pump) run(abort <-chan struct{}) {
	var msgs []Message
	for {
		var done bool
		msgs, done = p.q.take(msgs)
		for _, m := range msgs {
			select {
			case p.ch <- m:
			case <-abort:
				return
			}
		}
		if done {
			return
		}
		clear(msgs)
	}
}
