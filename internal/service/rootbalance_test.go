package service

import (
	"sync"
	"testing"
	"time"

	"tiledwall/internal/bits"
	"tiledwall/internal/cluster"
)

// pictureStream builds a synthetic elementary stream: a minimal 32x32
// sequence header followed by bare picture units with the given payload
// sizes. The filler carries no start codes, so the root's scan sees exactly
// len(sizes) pictures, and its picture-type peek reads no I picture (no
// subscription activation, no trick-play drop).
func pictureStream(sizes []int) []byte {
	w := bits.NewWriter(16)
	w.WriteBits(0x000001B3, 32) // sequence header start code
	w.WriteBits(32, 12)         // horizontal size
	w.WriteBits(32, 12)         // vertical size
	w.WriteBits(1, 4)           // aspect ratio
	w.WriteBits(3, 4)           // frame rate code
	w.WriteBits(0x3FFFF, 18)    // bit rate
	w.WriteBit(1)               // marker
	w.WriteBits(0, 10)          // vbv buffer size
	w.WriteBits(0, 3)           // constrained flag, default quant matrices
	out := w.Bytes()
	for _, size := range sizes {
		out = append(out, 0, 0, 1, 0) // picture start code
		for j := 0; j < size; j++ {
			out = append(out, 0xAA)
		}
	}
	return out
}

// stubRecord is one picture observed by a stub splitter: its sequence
// number, the NSID that rode along, and its payload size.
type stubRecord struct {
	seq, nsid, size int
}

// stubSplitter is one stub splitter's state on the virtual clock: when it
// will be free, and the receipt acks it still holds (finish time each).
type stubSplitter struct {
	freeAt int
	held   []heldAck
}

type heldAck struct {
	seq, session, finish int
}

// runRootWithStubs drives the resident root (Wall.runRoot) of a 1-k-(1,1)
// wall whose splitters and decoder are stand-ins with only the protocol's
// behaviour. A stub splitter works through its pictures one at a time, each
// busy for a time proportional to its size (one tick per 256 bytes), and
// acks receipt when the picture is done: the ack returns the posted buffer
// only once the stub is free again, which is the signal the credit-based
// chooser reads. It forwards the session final to the decoder stub and
// drain-acks it; the decoder stub drain-acks once every splitter's final is
// in. Returns each stub splitter's observation log.
//
// Busy time runs on a virtual clock, so the outcome does not depend on how
// the host schedules goroutines. One driver goroutine plays every stub
// splitter. It hands the root one picture at a time (the picture's unit is
// closed by feeding the next one) and waits for its delivery. Feeding costs
// no virtual time: the root ships as fast as credits allow, as it does next
// to splitters that take milliseconds per picture. The clock moves only
// while the root is blocked on the assignee it announced (NSID) having no
// free buffer: then it jumps to the next picture completion and the acks due
// by then are sent, the assignee's last, so the root has seen every one of
// them by the time it decides where the next picture goes.
func runRootWithStubs(t *testing.T, sizes []int, k int, dynamic bool) [][]stubRecord {
	t.Helper()
	fab := cluster.New(1+k+1, cluster.Config{StallTimeout: 10 * time.Second})
	defer fab.Shutdown()
	w, err := New(Config{K: k, M: 1, N: 1, DynamicBalance: dynamic, Wired: fab, LocalNodes: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	decoder := 1 + k
	drainAck := func(port cluster.Port, session int) {
		port.Send(0, &cluster.Message{Kind: cluster.MsgAck, Seq: cluster.DrainAckSeq, Session: session})
	}
	// Each splitter port's traffic is relayed, in order, to the driver,
	// tagged with the stub that received it.
	type delivery struct {
		stub int
		m    cluster.Message
	}
	inbox := make(chan delivery)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		port := fab.Port(1 + i)
		wg.Add(1)
		go func(stub int) {
			defer wg.Done()
			for {
				m, ok := port.Recv(cluster.MsgPicture)
				if !ok || m.Flags&cluster.FlagShutdown != 0 {
					return
				}
				inbox <- delivery{stub, m}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		port := fab.Port(decoder)
		finals := 0
		for {
			m, ok := port.Recv(cluster.MsgSubPicture)
			if !ok || m.Flags&cluster.FlagShutdown != 0 {
				return
			}
			if finals++; finals == k {
				drainAck(port, m.Session)
			}
		}
	}()

	logs := make([][]stubRecord, k)
	stubs := make([]stubSplitter, k)
	now := 0
	// await returns stub i's next data picture or session final, skipping
	// session opens. Finals that other stubs receive meanwhile are kept for
	// their own await; a data picture at any other stub fails the run at
	// once, because the root sent it somewhere other than the NSID it
	// announced.
	finals := make([][]cluster.Message, k)
	await := func(i int) cluster.Message {
		if len(finals[i]) > 0 {
			m := finals[i][0]
			finals[i] = finals[i][1:]
			return m
		}
		for {
			select {
			case d := <-inbox:
				switch {
				case d.m.Flags&cluster.FlagSessionOpen != 0:
				case d.stub == i:
					return d.m
				case d.m.Flags&cluster.FlagSessionFinal != 0:
					finals[d.stub] = append(finals[d.stub], d.m)
				default:
					t.Fatalf("picture %d went to node %d, but the NSID before it announced node %d",
						d.m.Seq, 1+d.stub, 1+i)
				}
			case <-fab.Done():
				t.Fatalf("fabric aborted: %v", fab.AbortCause())
			}
		}
	}
	// advance moves the clock to the next picture completion and sends the
	// receipt acks due by then, stub last's after every other stub's.
	advance := func(last int) {
		next := -1
		for _, st := range stubs {
			for _, h := range st.held {
				if next < 0 || h.finish < next {
					next = h.finish
				}
			}
		}
		now = next
		for off := 1; off <= k; off++ {
			i := (last + off) % k
			kept := stubs[i].held[:0]
			for _, h := range stubs[i].held {
				if h.finish > now {
					kept = append(kept, h)
					continue
				}
				fab.Port(1+i).Send(0, &cluster.Message{Kind: cluster.MsgAck, Seq: h.seq, Session: h.session})
			}
			stubs[i].held = kept
		}
	}

	s, err := w.Open("balance")
	if err != nil {
		t.Fatal(err)
	}
	stream := pictureStream(sizes)
	// off[i] is where picture i's unit starts; the header precedes picture 0.
	off := []int{len(pictureStream(nil))}
	for _, size := range sizes {
		off = append(off, off[len(off)-1]+4+size)
	}
	if err := s.Feed(stream[:off[1]]); err != nil {
		t.Fatal(err)
	}
	type closeResult struct {
		res *SessionResult
		err error
	}
	closed := make(chan closeResult, 1)
	assignee := 0 // the root's first choice: stub 0 under either policy
	for p := range sizes {
		// Close picture p's unit: feed picture p+1's, or flush the last.
		if p+1 < len(sizes) {
			if err := s.Feed(stream[off[p+1]:off[p+2]]); err != nil {
				t.Fatal(err)
			}
		} else {
			go func() {
				res, err := s.Close()
				closed <- closeResult{res, err}
			}()
		}
		for len(stubs[assignee].held) == 2 {
			advance(assignee) // the root waits for a buffer at its assignee
		}
		m := await(assignee)
		if m.Flags&cluster.FlagSessionFinal != 0 || m.Seq != p {
			t.Fatalf("picture %d: stub %d got seq %d flags %#x", p, assignee, m.Seq, m.Flags)
		}
		logs[assignee] = append(logs[assignee], stubRecord{seq: m.Seq, nsid: m.Tag, size: len(m.Payload)})
		st := &stubs[assignee]
		st.freeAt = max(st.freeAt, now) + len(m.Payload)/256
		st.held = append(st.held, heldAck{seq: m.Seq, session: m.Session, finish: st.freeAt})
		assignee = m.Tag - 1
	}
	// Every picture is out: finish the held ones, so each stub's receipt acks
	// precede its drain ack, then forward the finals.
	for busy := true; busy; {
		busy = false
		for _, st := range stubs {
			busy = busy || len(st.held) > 0
		}
		if busy {
			advance(0)
		}
	}
	for i := 0; i < k; i++ {
		m := await(i)
		if m.Flags&cluster.FlagSessionFinal == 0 {
			t.Fatalf("stub %d got seq %d flags %#x after the last picture", i, m.Seq, m.Flags)
		}
		port := fab.Port(1 + i)
		port.Send(decoder, &cluster.Message{
			Kind: cluster.MsgSubPicture, Seq: -1, Flags: cluster.FlagSessionFinal, Session: m.Session,
		})
		drainAck(port, m.Session)
	}
	c := <-closed
	if c.err != nil {
		t.Fatal(c.err)
	}
	wantPics := 0
	for i := range logs {
		wantPics += len(logs[i])
	}
	if c.res.Pictures != len(sizes) || c.res.Pictures != wantPics {
		t.Fatalf("root reports %d pictures, stubs saw %d, stream has %d", c.res.Pictures, wantPics, len(sizes))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	return logs
}

// loadOf reduces a run's logs to per-stub picture counts and byte loads.
func loadOf(logs [][]stubRecord) (counts []int, bytes []int) {
	counts, bytes = make([]int, len(logs)), make([]int, len(logs))
	for i, l := range logs {
		for _, r := range l {
			counts[i]++
			bytes[i] += r.size
		}
	}
	return
}

// TestDynamicBalanceSkewedLoad pins the point of credit-based selection
// under the skew that actually hurts round-robin: heavy intra-coded
// pictures recurring at the round-robin period itself (every k-th picture
// is ~64x the size of the rest — a GOP structure resonating with the
// splitter count), so strict round-robin funnels every heavy picture to
// splitter 0. The dynamic chooser sees that splitter's credits pinned at
// zero while it chews and routes pictures to whoever has free buffers: the
// busiest splitter ends up with both far fewer bytes and fewer pictures
// than its round-robin share. (The NSID protocol fixes each assignee one
// picture ahead of its send, so the chooser needs k >= 3 for a credit
// difference to be visible at decision time — with k = 2 a drained window
// ties both splitters and the chooser correctly degrades to round-robin.)
func TestDynamicBalanceSkewedLoad(t *testing.T) {
	const (
		pics = 24
		k    = 3
	)
	sizes := make([]int, pics)
	for i := range sizes {
		sizes[i] = 256
		if i%k == 0 {
			sizes[i] = 16384
		}
	}

	rr := runRootWithStubs(t, sizes, k, false)
	rrCounts, rrBytes := loadOf(rr)
	// Round-robin is deterministic: stub 0 takes every k-th picture,
	// including the heavy one.
	for i, c := range rrCounts {
		if c != pics/k {
			t.Fatalf("round-robin counts %v, want an even split of %d each (stub %d)", rrCounts, pics/k, i)
		}
	}
	rrMax := 0
	for _, b := range rrBytes {
		if b > rrMax {
			rrMax = b
		}
	}

	dyn := runRootWithStubs(t, sizes, k, true)
	dynCounts, dynBytes := loadOf(dyn)
	t.Logf("round-robin loads %v, dynamic counts %v loads %v", rrBytes, dynCounts, dynBytes)
	busiest := 0
	for i, b := range dynBytes {
		if b > dynBytes[busiest] {
			busiest = i
		}
	}
	if dynBytes[busiest] >= rrMax {
		t.Fatalf("dynamic busiest splitter carries %dB, not below round-robin's %dB (dynamic loads %v)",
			dynBytes[busiest], rrMax, dynBytes)
	}
	// The splitter stuck with the heavy picture must end up with fewer
	// pictures than its round-robin share — least-loaded assignment means
	// the light pictures flow to the free splitters instead of queueing
	// behind the heavy one.
	if dynCounts[busiest] >= pics/k {
		t.Fatalf("dynamic busiest splitter still got %d of %d pictures (counts %v, bytes %v)",
			dynCounts[busiest], pics, dynCounts, dynBytes)
	}
	for i, c := range dynCounts {
		if c == 0 {
			t.Fatalf("dynamic starved splitter %d (counts %v)", i, dynCounts)
		}
	}
}

// TestDynamicBalanceNSID verifies the ordering protocol under dynamic
// assignment: the NSID riding along with picture p must name the node that
// actually received picture p+1, for every picture — that is the invariant
// the decoders' ANID redirect (and so display order) rests on.
func TestDynamicBalanceNSID(t *testing.T) {
	const pics = 20
	sizes := make([]int, pics)
	for i := range sizes {
		sizes[i] = 128
		if i%2 == 0 {
			sizes[i] = 4096
		}
	}
	for _, dynamic := range []bool{false, true} {
		logs := runRootWithStubs(t, sizes, 3, dynamic)
		assignee := make(map[int]int, pics) // seq -> node id
		nsid := make(map[int]int, pics)     // seq -> announced next node id
		for i, l := range logs {
			for _, r := range l {
				if _, dup := assignee[r.seq]; dup {
					t.Fatalf("dynamic=%v: picture %d delivered twice", dynamic, r.seq)
				}
				assignee[r.seq] = 1 + i
				nsid[r.seq] = r.nsid
			}
		}
		if len(assignee) != pics {
			t.Fatalf("dynamic=%v: %d of %d pictures delivered", dynamic, len(assignee), pics)
		}
		for seq := 0; seq < pics-1; seq++ {
			if nsid[seq] != assignee[seq+1] {
				t.Fatalf("dynamic=%v: picture %d announced NSID %d but picture %d went to node %d",
					dynamic, seq, nsid[seq], seq+1, assignee[seq+1])
			}
		}
	}
}
