package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
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
		// One consumer per kind: the port contract allows selecting across
		// kind queues, and a sequential per-kind drain would deadlock against
		// the fabric's bounded queues (which is the protocols' job to avoid).
		recv := tr.Port(0)
		errs := make(chan error, len(kinds))
		var rg sync.WaitGroup
		for k := range kinds {
			rg.Add(1)
			go func(kind MsgKind) {
				defer rg.Done()
				last := map[int]int{} // sender -> last seq
				for got := 0; got < (nodes-1)*perSender/len(kinds); got++ {
					var m *Message
					select {
					case m = <-recv.Queue(kind):
					case <-recv.Done():
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
			}(kinds[k])
		}
		rg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		wg.Wait()
	})
}

// TestTransportContractAbort: Abort unblocks pending receives with nil,
// closes Done, records the first cause, and turns Send into a no-op —
// a single abort domain for every node.
func TestTransportContractAbort(t *testing.T) {
	forEachTransport(t, 3, 0, func(t *testing.T, tr Transport) {
		cause := errors.New("test abort cause")
		unblocked := make(chan *Message, 2)
		for id := 1; id <= 2; id++ {
			go func(id int) { unblocked <- tr.Port(id).Recv(MsgPicture) }(id)
		}
		time.Sleep(20 * time.Millisecond)
		tr.Abort(cause)
		for i := 0; i < 2; i++ {
			select {
			case m := <-unblocked:
				if m != nil {
					t.Fatalf("Recv after abort returned %+v, want nil", m)
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
		// still delivered is unspecified: the fabric's select may pick the
		// queue when it has space, the TCP port drops it.)
		tr.Port(0).Send(1, &Message{Kind: MsgAck})
	})
}

// TestTransportContractRecvTimeout: the three-way RecvTimeout result —
// delivered, timed out, aborted — behaves identically everywhere.
func TestTransportContractRecvTimeout(t *testing.T) {
	forEachTransport(t, 2, 0, func(t *testing.T, tr Transport) {
		if m, timedOut := tr.Port(0).RecvTimeout(MsgAck, 30*time.Millisecond); m != nil || !timedOut {
			t.Fatalf("empty RecvTimeout = (%v, %v), want (nil, true)", m, timedOut)
		}
		tr.Port(1).Send(0, &Message{Kind: MsgAck, Seq: 7})
		deadline := time.Now().Add(5 * time.Second)
		for {
			m, timedOut := tr.Port(0).RecvTimeout(MsgAck, 50*time.Millisecond)
			if m != nil {
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
		if m, timedOut := tr.Port(0).RecvTimeout(MsgAck, time.Second); m != nil || timedOut {
			t.Fatalf("aborted RecvTimeout = (%v, %v), want (nil, false)", m, timedOut)
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
		if m, timedOut := port.RecvTimeout(MsgAck, 20*time.Millisecond); m != nil || !timedOut {
			t.Fatalf("empty RecvTimeout = (%v, %v), want (nil, true)", m, timedOut)
		}
		// A receive that waits and gets its message before the deadline:
		// the deadline then passes with the timer still armed unless the
		// message path disarmed it.
		const short = 100 * time.Millisecond
		sendAfter(5*time.Millisecond, 1)
		for {
			m, timedOut := port.RecvTimeout(MsgAck, short)
			if m != nil {
				break
			}
			if !timedOut {
				t.Fatalf("transport aborted: %v", tr.AbortCause())
			}
		}
		time.Sleep(short + 50*time.Millisecond)
		sendAfter(20*time.Millisecond, 2)
		m, timedOut := port.RecvTimeout(MsgAck, 5*time.Second)
		if timedOut || m == nil || m.Seq != 2 {
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

// TestTransportContractQueueSelect: Queue exposes a channel usable in a
// select together with Done, the shape the service root is built on.
func TestTransportContractQueueSelect(t *testing.T) {
	forEachTransport(t, 2, 0, func(t *testing.T, tr Transport) {
		tr.Port(1).Send(0, &Message{Kind: MsgAck, Seq: 42})
		select {
		case m := <-tr.Port(0).Queue(MsgAck):
			if m.Seq != 42 {
				t.Fatalf("queue delivered seq %d, want 42", m.Seq)
			}
		case <-tr.Port(0).Done():
			t.Fatalf("transport aborted: %v", tr.AbortCause())
		case <-time.After(5 * time.Second):
			t.Fatal("queued message never surfaced on Queue channel")
		}
	})
}
