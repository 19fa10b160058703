package cluster

import (
	"sync"
	"time"
)

// inbox is one (port, kind) receive queue, the same on both transports: an
// unbounded FIFO of messages with a single consumer, plus a one-slot
// doorbell. Senders never block: the credit protocols, not the transport,
// bound what is queued (DESIGN.md §2). The ring grows to the peak number of
// messages queued and is then reused, so a warm inbox allocates nothing.
//
// The doorbell holds a token whenever the queue may be non-empty: a push
// rings it, and a pop that leaves messages behind rings it again, so a
// consumer that took the token while waiting and popped one message cannot
// leave the rest unannounced. A token may be stale (the queue already
// drained); consumers re-check the queue after every wake-up.
type inbox struct {
	mu   sync.Mutex
	ring []Message // len is a power of two once grown
	head int
	n    int
	bell chan struct{}
}

func newInboxes() *[numKinds]inbox {
	var in [numKinds]inbox
	for k := range in {
		in[k].bell = make(chan struct{}, 1)
	}
	return &in
}

// push appends m and rings the doorbell.
func (b *inbox) push(m Message) {
	b.mu.Lock()
	if b.n == len(b.ring) {
		grown := make([]Message, max(8, 2*len(b.ring)))
		for i := 0; i < b.n; i++ {
			grown[i] = b.ring[(b.head+i)&(len(b.ring)-1)]
		}
		b.ring, b.head = grown, 0
	}
	b.ring[(b.head+b.n)&(len(b.ring)-1)] = m
	b.n++
	b.mu.Unlock()
	b.signal()
}

// pop removes the oldest message, if any.
func (b *inbox) pop() (m Message, ok bool) {
	b.mu.Lock()
	if b.n == 0 {
		b.mu.Unlock()
		return Message{}, false
	}
	m = b.ring[b.head]
	b.ring[b.head] = Message{} // drop the payload reference
	b.head = (b.head + 1) & (len(b.ring) - 1)
	b.n--
	more := b.n > 0
	b.mu.Unlock()
	if more {
		b.signal()
	}
	return m, true
}

// signal leaves a token on the doorbell unless one is already there.
func (b *inbox) signal() {
	select {
	case b.bell <- struct{}{}:
	default:
	}
}

// recv pops the next message of inbox b, waiting for one when it is empty:
// at most d with the port's reusable timer tm, or without a deadline when d
// is not positive (see Port.RecvTimeout). ok is false once the transport
// has aborted; a queued message is popped without touching the shared done
// channel beyond a non-blocking check, and no timer is armed for it.
func (c *core) recv(b *inbox, tm *recvTimer, d time.Duration) (m Message, ok, timedOut bool) {
	var fire <-chan time.Time // nil: no deadline armed
	for !c.aborted() {
		if m, ok = b.pop(); ok {
			if fire != nil {
				tm.stop()
			}
			c.touch()
			return m, true, false
		}
		if fire == nil && d > 0 {
			fire = tm.start(d)
		}
		select {
		case <-b.bell:
		case <-fire:
			return Message{}, false, true
		case <-c.done:
		}
	}
	if fire != nil {
		tm.stop()
	}
	return Message{}, false, false
}
