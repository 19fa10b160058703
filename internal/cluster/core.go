package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// core is what both transports embed: the traffic ledger (per-node and
// per-pair counters, per-session bytes), the stall watchdog and the activity
// count it samples, the abort domain's record (first cause, Done), and the
// blocking receives over one port's queue. Abort itself stays with each
// transport (TCP's teardown differs); the watchdog calls back into it.
//
// Every message is accounted exactly once per process: the fabric and a TCP
// port account at send; a TCP port accounts at receive only messages from a
// sender in another process. A single-process wall therefore matches the
// in-process fabric counter for counter, and a multi-process wall reports
// the traffic this process participated in.
type core struct {
	n     int
	stats []LinkStats    // indexed by node id; atomic access
	pair  []atomic.Int64 // bytes sent per (from*n + to)

	sessMu    sync.Mutex
	sessBytes map[int]int64 // bytes sent per session id (session != 0 only)

	activity atomic.Int64 // bumped on every send/receive; watchdog food
	stop     chan struct{}
	stop1    sync.Once

	done     chan struct{}
	abortErr error
	abort1   sync.Once
}

func (c *core) init(n int) {
	c.n = n
	c.stats = make([]LinkStats, n)
	c.pair = make([]atomic.Int64, n*n)
	c.stop = make(chan struct{})
	c.done = make(chan struct{})
}

// NumNodes returns the transport's node count (the whole wall's, also on a
// TCP transport that hosts only some of them).
func (c *core) NumNodes() int { return c.n }

// abort records the first cause and closes Done, reporting whether this
// call was the first.
func (c *core) abort(cause error) (first bool) {
	c.abort1.Do(func() {
		c.abortErr = cause
		close(c.done)
		first = true
	})
	return first
}

// Done is closed when the transport aborts.
func (c *core) Done() <-chan struct{} { return c.done }

// AbortCause returns the error passed to Abort, if any.
func (c *core) AbortCause() error {
	select {
	case <-c.done:
		return c.abortErr
	default:
		return nil
	}
}

func (c *core) aborted() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// touch records liveness for the watchdog.
func (c *core) touch() { c.activity.Add(1) }

// account charges one message from node from to node to. Batch traffic
// (session 0) skips the session lock entirely.
func (c *core) account(from, to int, msg *Message) {
	bytes := msg.wireBytes()
	atomic.AddInt64(&c.stats[from].BytesSent, bytes)
	atomic.AddInt64(&c.stats[from].MsgsSent, 1)
	atomic.AddInt64(&c.stats[to].BytesRecv, bytes)
	atomic.AddInt64(&c.stats[to].MsgsRecv, 1)
	c.pair[from*c.n+to].Add(bytes)
	if msg.Session != 0 {
		c.sessMu.Lock()
		if c.sessBytes == nil {
			c.sessBytes = map[int]int64{}
		}
		c.sessBytes[msg.Session] += bytes
		c.sessMu.Unlock()
	}
}

// Stats returns a snapshot of per-node traffic counters.
func (c *core) Stats() []LinkStats {
	out := make([]LinkStats, len(c.stats))
	for i := range c.stats {
		out[i] = LinkStats{
			BytesSent: atomic.LoadInt64(&c.stats[i].BytesSent),
			BytesRecv: atomic.LoadInt64(&c.stats[i].BytesRecv),
			MsgsSent:  atomic.LoadInt64(&c.stats[i].MsgsSent),
			MsgsRecv:  atomic.LoadInt64(&c.stats[i].MsgsRecv),
		}
	}
	return out
}

// PairBytes returns bytes sent from node a to node b.
func (c *core) PairBytes(a, b int) int64 {
	return c.pair[a*c.n+b].Load()
}

// SessionBytes returns the wire bytes sent so far on behalf of one session
// (0 for unknown sessions and for batch traffic, which is not keyed).
func (c *core) SessionBytes(session int) int64 {
	c.sessMu.Lock()
	defer c.sessMu.Unlock()
	return c.sessBytes[session]
}

// watch arms the stall watchdog when timeout is positive: a full timeout
// with no traffic calls abort(ErrStalled). One quiet period can be an
// artefact of tick phase, so it requires two consecutive quiet checks at
// half the timeout each. It exits on abort or stopWatch.
func (c *core) watch(timeout time.Duration, abort func(error)) {
	if timeout <= 0 {
		return
	}
	go func() {
		tick := time.NewTicker(timeout / 2)
		defer tick.Stop()
		last := c.activity.Load()
		quiet := 0
		for {
			select {
			case <-tick.C:
				now := c.activity.Load()
				if now == last {
					quiet++
					if quiet >= 2 {
						abort(ErrStalled)
						return
					}
				} else {
					quiet = 0
					last = now
				}
			case <-c.done:
				return
			case <-c.stop:
				return
			}
		}
	}()
}

// stopWatch stops the watchdog, if one is armed; safe to call repeatedly.
func (c *core) stopWatch() { c.stop1.Do(func() { close(c.stop) }) }

// recv blocks on one port's receive queue q; ok is false after abort.
func (c *core) recv(q <-chan Message) (Message, bool) {
	select {
	case m := <-q:
		c.touch()
		return m, true
	case <-c.done:
		return Message{}, false
	}
}

// recvTimeout waits up to d on q with the port's reusable timer; see
// Port.RecvTimeout.
func (c *core) recvTimeout(q <-chan Message, tm *recvTimer, d time.Duration) (m Message, ok, timedOut bool) {
	// Fast path: no timer when a message is already queued.
	select {
	case m = <-q:
		c.touch()
		return m, true, false
	default:
	}
	select {
	case m = <-q:
		tm.stop()
		c.touch()
		return m, true, false
	case <-tm.start(d):
		return Message{}, false, true
	case <-c.done:
		tm.stop()
		return Message{}, false, false
	}
}

// recvTimer is a port's one receive-deadline timer. A port has a single
// receiving goroutine (Port), so one timer serves every timed receive and
// a waiting receive allocates nothing.
type recvTimer struct{ t *time.Timer }

// start arms the timer for d and returns its channel.
func (r *recvTimer) start(d time.Duration) <-chan time.Time {
	if r.t == nil {
		r.t = time.NewTimer(d)
	} else {
		r.t.Reset(d)
	}
	return r.t.C
}

// stop disarms a timer whose channel was not received from. A module at
// go 1.22 keeps the pre-1.23 timer semantics: a fire that raced the Stop is
// (or is about to be) in the channel and must be drained, or the next start
// would report a stale timeout. Under the 1.23 semantics Stop drains it
// itself and reports true.
func (r *recvTimer) stop() {
	if !r.t.Stop() {
		<-r.t.C
	}
}
