package cluster

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// The Transport contract suite: every behaviour the resident pipeline
// depends on, run identically against the in-process Fabric and the TCP
// transport over loopback. A third run compares the two implementations'
// accounting on the same traffic.

// transportCase builds one implementation; close releases it.
type transportCase struct {
	name  string
	build func(t *testing.T, n int, stall time.Duration) Transport
}

func transportCases() []transportCase {
	return []transportCase{
		{
			name: "fabric",
			build: func(t *testing.T, n int, stall time.Duration) Transport {
				f := New(n, Config{StallTimeout: stall})
				t.Cleanup(f.Shutdown)
				return f
			},
		},
		{
			name: "tcp",
			build: func(t *testing.T, n int, stall time.Duration) Transport {
				ids := make([]int, n)
				for i := range ids {
					ids[i] = i
				}
				tr, err := ListenTCP("127.0.0.1:0", TCPConfig{
					NumNodes:     n,
					LocalNodes:   ids,
					StallTimeout: stall,
				})
				if err != nil {
					t.Fatalf("ListenTCP: %v", err)
				}
				t.Cleanup(tr.Shutdown)
				return tr
			},
		},
	}
}

func forEachTransport(t *testing.T, n int, stall time.Duration, fn func(t *testing.T, tr Transport)) {
	for _, tc := range transportCases() {
		t.Run(tc.name, func(t *testing.T) {
			fn(t, tc.build(t, n, stall))
		})
	}
}

// TestTransportContractFIFO: messages from one sender to one receiver are
// delivered in send order within each kind, for every implementation.
func TestTransportContractFIFO(t *testing.T) {
	const nodes = 4
	const perSender = 300
	kinds := []MsgKind{MsgPicture, MsgSubPicture, MsgAck, MsgBlocks}
	forEachTransport(t, nodes, 0, func(t *testing.T, tr Transport) {
		var wg sync.WaitGroup
		for s := 1; s < nodes; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				port := tr.Port(s)
				for i := 0; i < perSender; i++ {
					port.Send(0, &Message{
						Kind:    kinds[i%len(kinds)],
						Seq:     i,
						Tag:     s,
						Payload: []byte(fmt.Sprintf("m-%d-%d", s, i)),
					})
				}
			}(s)
		}
		// One consumer drains the kinds one after another: sends never
		// block, so the senders finish whatever order the receiver takes.
		recv := tr.Port(0)
		errs := make(chan error, len(kinds))
		var rg sync.WaitGroup
		rg.Add(1)
		go func() {
			defer rg.Done()
			for _, kind := range kinds {
				last := map[int]int{} // sender -> last seq
				for got := 0; got < (nodes-1)*perSender/len(kinds); got++ {
					m, ok := recv.Recv(kind)
					if !ok {
						errs <- fmt.Errorf("kind %v: transport aborted: %v", kind, tr.AbortCause())
						return
					}
					if m.Kind != kind {
						errs <- fmt.Errorf("kind %v delivered on %v queue", m.Kind, kind)
						return
					}
					if prev, ok := last[m.From]; ok && m.Seq <= prev {
						errs <- fmt.Errorf("FIFO violation from %d kind %v: seq %d after %d", m.From, kind, m.Seq, prev)
						return
					}
					last[m.From] = m.Seq
					if want := fmt.Sprintf("m-%d-%d", m.From, m.Seq); string(m.Payload) != want {
						errs <- fmt.Errorf("payload %q, want %q", m.Payload, want)
						return
					}
				}
			}
		}()
		rg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		wg.Wait()
	})
}

// TestTransportContractAbort: Abort unblocks pending receives (ok false),
// closes Done, records the first cause, and turns Send into a no-op —
// a single abort domain for every node.
func TestTransportContractAbort(t *testing.T) {
	forEachTransport(t, 3, 0, func(t *testing.T, tr Transport) {
		cause := errors.New("test abort cause")
		unblocked := make(chan bool, 2)
		for id := 1; id <= 2; id++ {
			go func(id int) {
				_, ok := tr.Port(id).Recv(MsgPicture)
				unblocked <- ok
			}(id)
		}
		time.Sleep(20 * time.Millisecond)
		tr.Abort(cause)
		for i := 0; i < 2; i++ {
			select {
			case ok := <-unblocked:
				if ok {
					t.Fatal("Recv after abort delivered a message")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Recv not unblocked by Abort")
			}
		}
		select {
		case <-tr.Done():
		default:
			t.Fatal("Done not closed after Abort")
		}
		tr.Abort(errors.New("second cause loses"))
		if got := tr.AbortCause(); !errors.Is(got, cause) && got.Error() != cause.Error() {
			t.Fatalf("AbortCause = %v, want first cause %v", got, cause)
		}
		// Send after abort must not block or panic. (Whether the message is
		// still queued is unspecified: the fabric queues it, the TCP port
		// drops it; no receive delivers it.)
		tr.Port(0).Send(1, &Message{Kind: MsgAck})
	})
}

// TestTransportContractRecvTimeout: the three-way RecvTimeout result —
// delivered, timed out, aborted — behaves identically everywhere.
func TestTransportContractRecvTimeout(t *testing.T) {
	forEachTransport(t, 2, 0, func(t *testing.T, tr Transport) {
		if _, ok, timedOut := tr.Port(0).RecvTimeout(MsgAck, 30*time.Millisecond); ok || !timedOut {
			t.Fatalf("empty RecvTimeout = (%v, %v), want (false, true)", ok, timedOut)
		}
		tr.Port(1).Send(0, &Message{Kind: MsgAck, Seq: 7})
		deadline := time.Now().Add(5 * time.Second)
		for {
			m, ok, timedOut := tr.Port(0).RecvTimeout(MsgAck, 50*time.Millisecond)
			if ok {
				if m.Seq != 7 {
					t.Fatalf("RecvTimeout delivered seq %d, want 7", m.Seq)
				}
				break
			}
			if !timedOut {
				t.Fatalf("transport aborted: %v", tr.AbortCause())
			}
			if time.Now().After(deadline) {
				t.Fatal("queued message never delivered via RecvTimeout")
			}
		}
		tr.Abort(errors.New("stop"))
		if _, ok, timedOut := tr.Port(0).RecvTimeout(MsgAck, time.Second); ok || timedOut {
			t.Fatalf("aborted RecvTimeout = (%v, %v), want (false, false)", ok, timedOut)
		}
	})
}

// TestTransportContractRecvTimeoutReuse: a port reuses one timer across
// timed receives, so neither a timeout nor a deadline that expires after a
// message was delivered may leak into the next receive as a stale timeout.
func TestTransportContractRecvTimeoutReuse(t *testing.T) {
	forEachTransport(t, 2, 0, func(t *testing.T, tr Transport) {
		port := tr.Port(0)
		sendAfter := func(d time.Duration, seq int) {
			go func() {
				time.Sleep(d)
				tr.Port(1).Send(0, &Message{Kind: MsgAck, Seq: seq})
			}()
		}
		if _, ok, timedOut := port.RecvTimeout(MsgAck, 20*time.Millisecond); ok || !timedOut {
			t.Fatalf("empty RecvTimeout = (%v, %v), want (false, true)", ok, timedOut)
		}
		// A receive that waits and gets its message before the deadline:
		// the deadline then passes with the timer still armed unless the
		// message path disarmed it.
		const short = 100 * time.Millisecond
		sendAfter(5*time.Millisecond, 1)
		for {
			_, ok, timedOut := port.RecvTimeout(MsgAck, short)
			if ok {
				break
			}
			if !timedOut {
				t.Fatalf("transport aborted: %v", tr.AbortCause())
			}
		}
		time.Sleep(short + 50*time.Millisecond)
		sendAfter(20*time.Millisecond, 2)
		m, ok, timedOut := port.RecvTimeout(MsgAck, 5*time.Second)
		if timedOut || !ok || m.Seq != 2 {
			t.Fatalf("RecvTimeout after an expired deadline = (%+v, %v), want seq 2 delivered", m, timedOut)
		}
	})
}

// accountingScript drives identical traffic over any transport: a mix of
// payload sizes, sessions and kinds with every send strictly ordered, so the
// resulting counters are deterministic.
func accountingScript(tr Transport) {
	type hop struct {
		from, to int
		kind     MsgKind
		session  int
		size     int
	}
	script := []hop{
		{0, 1, MsgPicture, 1, 1000},
		{0, 2, MsgPicture, 1, 500},
		{1, 3, MsgSubPicture, 1, 2048},
		{2, 3, MsgSubPicture, 2, 0},
		{3, 0, MsgAck, 2, 0},
		{3, 1, MsgAck, 0, 16},
		{1, 0, MsgAck, 1, 0},
		{2, 1, MsgBlocks, 2, 77},
	}
	for _, h := range script {
		tr.Port(h.from).Send(h.to, &Message{
			Kind:    h.kind,
			Session: h.session,
			Payload: make([]byte, h.size),
		})
	}
	// Drain everything so the traffic fully traverses both implementations.
	counts := map[[2]int]int{}
	for _, h := range script {
		counts[[2]int{h.to, int(h.kind)}]++
	}
	for key, n := range counts {
		for i := 0; i < n; i++ {
			tr.Port(key[0]).Recv(MsgKind(key[1]))
		}
	}
}

// TestTransportContractAccounting: Stats, PairBytes and SessionBytes agree
// exactly between Fabric and TCPTransport on the same traffic.
func TestTransportContractAccounting(t *testing.T) {
	const nodes = 4
	cases := transportCases()
	type snapshot struct {
		stats []LinkStats
		pair  [][]int64
		sess  map[int]int64
	}
	snap := map[string]snapshot{}
	for _, tc := range cases {
		tr := tc.build(t, nodes, 0)
		accountingScript(tr)
		s := snapshot{stats: tr.Stats(), pair: make([][]int64, nodes), sess: map[int]int64{}}
		for a := 0; a < nodes; a++ {
			s.pair[a] = make([]int64, nodes)
			for b := 0; b < nodes; b++ {
				s.pair[a][b] = tr.PairBytes(a, b)
			}
		}
		for sess := 1; sess <= 2; sess++ {
			s.sess[sess] = tr.SessionBytes(sess)
		}
		snap[tc.name] = s
	}
	ref, got := snap["fabric"], snap["tcp"]
	for i := range ref.stats {
		if ref.stats[i] != got.stats[i] {
			t.Errorf("node %d stats: fabric %+v, tcp %+v", i, ref.stats[i], got.stats[i])
		}
	}
	for a := 0; a < nodes; a++ {
		for b := 0; b < nodes; b++ {
			if ref.pair[a][b] != got.pair[a][b] {
				t.Errorf("pair %d->%d: fabric %d, tcp %d", a, b, ref.pair[a][b], got.pair[a][b])
			}
		}
	}
	for sess, want := range ref.sess {
		if got.sess[sess] != want {
			t.Errorf("session %d bytes: fabric %d, tcp %d", sess, want, got.sess[sess])
		}
	}
}

// TestTransportContractQueueSelect: Ready exposes an inbox's doorbell,
// usable in a select together with Done — the shape the service root is
// built on — and TryRecv then takes the queued message.
func TestTransportContractQueueSelect(t *testing.T) {
	forEachTransport(t, 2, 0, func(t *testing.T, tr Transport) {
		tr.Port(1).Send(0, &Message{Kind: MsgAck, Seq: 42})
		port := tr.Port(0)
		deadline := time.After(5 * time.Second)
		for {
			select {
			case <-port.Ready(MsgAck):
			case <-port.Done():
				t.Fatalf("transport aborted: %v", tr.AbortCause())
			case <-deadline:
				t.Fatal("queued message never rang the Ready doorbell")
			}
			if m, ok := port.TryRecv(MsgAck); ok {
				if m.Seq != 42 {
					t.Fatalf("queue delivered seq %d, want 42", m.Seq)
				}
				return
			}
		}
	})
}

// TestTransportContractSendNeverBlocks: inboxes are unbounded, so a sender
// never waits for its receiver — 1,000 sends to a port nobody reads all
// return — and Abort still releases a receive parked on another kind, and
// turns every receive, even of a kind with messages queued, into !ok.
func TestTransportContractSendNeverBlocks(t *testing.T) {
	forEachTransport(t, 2, 0, func(t *testing.T, tr Transport) {
		sent := make(chan struct{})
		go func() {
			for i := 0; i < 1000; i++ {
				tr.Port(0).Send(1, &Message{Kind: MsgPicture, Seq: i})
			}
			close(sent)
		}()
		select {
		case <-sent:
		case <-time.After(10 * time.Second):
			t.Fatal("1,000 sends to an unread port did not return")
		}
		parked := make(chan bool)
		go func() {
			_, ok := tr.Port(1).Recv(MsgAck)
			parked <- ok
		}()
		time.Sleep(20 * time.Millisecond)
		tr.Abort(errors.New("stop"))
		select {
		case ok := <-parked:
			if ok {
				t.Fatal("a parked Recv delivered a message after Abort")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a parked Recv was not released by Abort")
		}
		if _, ok := tr.Port(1).Recv(MsgPicture); ok {
			t.Fatal("Recv after Abort delivered a queued message")
		}
	})
}

// TestTransportContractInboxStress: three senders and one consumer that
// mixes every way of receiving — Recv, TryRecv, RecvTimeout and a select on
// the Ready doorbell that takes a single message per token. Each sender's
// messages arrive in order, and a doorbell wait never sleeps through a
// message already sent: every pop that leaves messages behind must leave a
// token behind too. Run it under -race.
func TestTransportContractInboxStress(t *testing.T) {
	const senders, perSender = 3, 2000
	forEachTransport(t, senders+1, 0, func(t *testing.T, tr Transport) {
		var sentN atomic.Int64
		for s := 1; s <= senders; s++ {
			go func(port Port) {
				for i := 0; i < perSender; i++ {
					port.Send(0, &Message{Kind: MsgBlocks, Seq: i})
					sentN.Add(1)
					if i%64 == 0 {
						runtime.Gosched()
					}
				}
			}(tr.Port(s))
		}
		port := tr.Port(0)
		next := make([]int, senders+1)
		got := 0
		check := func(m Message) {
			if m.Seq != next[m.From] {
				t.Fatalf("sender %d: seq %d, want %d", m.From, m.Seq, next[m.From])
			}
			next[m.From]++
			got++
		}
		for i := 0; got < senders*perSender; i++ {
			switch i % 4 {
			case 0:
				m, ok := port.Recv(MsgBlocks)
				if !ok {
					t.Fatalf("transport aborted: %v", tr.AbortCause())
				}
				check(m)
			case 1:
				if m, ok := port.TryRecv(MsgBlocks); ok {
					check(m)
				}
			case 2:
				m, ok, timedOut := port.RecvTimeout(MsgBlocks, time.Millisecond)
				if ok {
					check(m)
				} else if !timedOut {
					t.Fatalf("transport aborted: %v", tr.AbortCause())
				}
			case 3:
				select {
				case <-port.Ready(MsgBlocks):
					if m, ok := port.TryRecv(MsgBlocks); ok {
						check(m)
					}
				case <-time.After(2 * time.Second):
					if n := sentN.Load(); n > int64(got) {
						t.Fatalf("lost wake-up: %d sent, %d received, doorbell silent for 2 s", n, got)
					}
				}
			}
		}
	})
}

// inFreeList reports whether b's backing array sits in its slab class's free
// list (a slab given back to the pool and not yet taken again).
func inFreeList(b []byte) bool { return slabFreeCount(b) > 0 }

// slabFreeCount counts how often the backing array of b sits in its class's
// free list: more than once is a double release.
func slabFreeCount(b []byte) int {
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

// flushWriter returns once every message the sender's TCP link writer took
// before the call is written and released: it sends an ack and receives it,
// and the ack rides a later batch, which the writer takes only after the
// earlier batches' writes returned and their items were released.
func flushWriter(t *testing.T, tr Transport, from, to int) {
	t.Helper()
	tr.Port(from).Send(to, &Message{Kind: MsgAck, Seq: -7})
	if _, ok := tr.Port(to).Recv(MsgAck); !ok {
		t.Fatalf("flush ack %d->%d not delivered: %v", from, to, tr.AbortCause())
	}
}

// TestTransportContractSendRecvAllocs pins messages as values: once warm,
// one Send plus the matching Recv of a slab-payload message allocates
// nothing on either transport — no message object, no frame, no header
// scratch — and the sender's slab is back in its class afterwards: on the
// fabric through the consumer's release of the very same payload, on TCP
// through the link writer's release once the payload is on the wire.
func TestTransportContractSendRecvAllocs(t *testing.T) {
	forEachTransport(t, 2, 0, func(t *testing.T, tr Transport) {
		from, to := tr.Port(0), tr.Port(1)
		const size = 1500
		var sent []byte
		hop := func() {
			sent = GetSlab(size)[:size]
			from.Send(1, &Message{Kind: MsgSubPicture, Seq: 1, Payload: sent})
			m, ok := to.Recv(MsgSubPicture)
			if !ok || len(m.Payload) != size {
				t.Fatalf("hop delivered %d bytes, ok %v (abort %v)", len(m.Payload), ok, tr.AbortCause())
			}
			PutSlab(m.Payload) // the consumer's release
		}
		for i := 0; i < 100; i++ {
			hop() // warm slab classes, queues and batch buffers
		}
		if allocs := testing.AllocsPerRun(500, hop); allocs != 0 {
			t.Fatalf("Send+Recv allocates %v objects per message, want 0", allocs)
		}
		// A burst grows the inbox to its peak once; the grown ring is then
		// reused, so the hop stays allocation-free.
		const burst = 200
		for i := 0; i < burst; i++ {
			from.Send(1, &Message{Kind: MsgSubPicture, Seq: i})
		}
		for i := 0; i < burst; i++ {
			if m, ok := to.Recv(MsgSubPicture); !ok || m.Seq != i {
				t.Fatalf("burst message %d: seq %d, ok %v", i, m.Seq, ok)
			}
		}
		if allocs := testing.AllocsPerRun(500, hop); allocs != 0 {
			t.Fatalf("after a %d-message burst, Send+Recv allocates %v objects per message, want 0", burst, allocs)
		}
		flushWriter(t, tr, 0, 1)
		if !inFreeList(sent) {
			t.Fatal("the sender's payload slab did not come back to its class")
		}
	})
}
