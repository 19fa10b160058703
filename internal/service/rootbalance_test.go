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

// runRootWithStubs drives the resident root (Wall.runRoot) of a 1-k-(1,1)
// wall whose splitters and decoder are test goroutines with only the
// protocol's behaviour. A stub splitter consumes a picture, stays busy for a
// time proportional to its size, then acks receipt; it forwards the session
// final to the decoder stub and drain-acks it. The decoder stub drain-acks
// once every splitter's final is in. Returns each stub splitter's
// observation log.
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
	logs := make([][]stubRecord, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		i := i
		port := fab.Port(1 + i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				m := port.Recv(cluster.MsgPicture)
				switch {
				case m == nil || m.Flags&cluster.FlagShutdown != 0:
					return
				case m.Flags&cluster.FlagSessionOpen != 0:
				case m.Flags&cluster.FlagSessionFinal != 0:
					port.Send(decoder, &cluster.Message{
						Kind: cluster.MsgSubPicture, Seq: -1, Flags: cluster.FlagSessionFinal, Session: m.Session,
					})
					drainAck(port, m.Session)
				default:
					logs[i] = append(logs[i], stubRecord{seq: m.Seq, nsid: m.Tag, size: len(m.Payload)})
					// Busy time scales with picture size; the ack returns the
					// posted buffer only once the stub is free again, which
					// is the signal the credit-based chooser reads.
					time.Sleep(time.Duration(len(m.Payload)) * 8 * time.Microsecond)
					port.Send(0, &cluster.Message{Kind: cluster.MsgAck, Seq: m.Seq, Session: m.Session})
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		port := fab.Port(decoder)
		finals := 0
		for {
			m := port.Recv(cluster.MsgSubPicture)
			if m == nil || m.Flags&cluster.FlagShutdown != 0 {
				return
			}
			if finals++; finals == k {
				drainAck(port, m.Session)
			}
		}
	}()

	s, err := w.Open("balance")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(pictureStream(sizes)); err != nil {
		t.Fatal(err)
	}
	res, err := s.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	wantPics := 0
	for i := range logs {
		wantPics += len(logs[i])
	}
	if res.Pictures != len(sizes) || res.Pictures != wantPics {
		t.Fatalf("root reports %d pictures, stubs saw %d, stream has %d", res.Pictures, wantPics, len(sizes))
	}
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
