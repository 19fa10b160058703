package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestSendRecv(t *testing.T) {
	f := New(2, Config{})
	payload := []byte("hello")
	go f.Port(0).Send(1, &Message{Kind: MsgPicture, Seq: 7, Tag: 3, Payload: payload})
	m, ok := f.Port(1).Recv(MsgPicture)
	if !ok || m.From != 0 || m.To != 1 || m.Seq != 7 || m.Tag != 3 {
		t.Fatalf("message fields: %+v", m)
	}
	if &m.Payload[0] != &payload[0] {
		t.Error("payload was copied; fabric should be zero-copy")
	}
}

func TestPerKindQueues(t *testing.T) {
	f := New(2, Config{})
	n0, n1 := f.Port(0), f.Port(1)
	n0.Send(1, &Message{Kind: MsgAck, Seq: 1})
	n0.Send(1, &Message{Kind: MsgPicture, Seq: 2})
	n0.Send(1, &Message{Kind: MsgAck, Seq: 3})
	// Receiving a picture does not consume acks and vice versa.
	if m, _ := n1.Recv(MsgPicture); m.Seq != 2 {
		t.Fatalf("picture seq %d", m.Seq)
	}
	if m, _ := n1.Recv(MsgAck); m.Seq != 1 {
		t.Fatalf("first ack seq %d", m.Seq)
	}
	if m, _ := n1.Recv(MsgAck); m.Seq != 3 {
		t.Fatalf("second ack seq %d", m.Seq)
	}
}

func TestPerSenderFIFO(t *testing.T) {
	f := New(2, Config{})
	go func() {
		for i := 0; i < 100; i++ {
			f.Port(0).Send(1, &Message{Kind: MsgBlocks, Seq: i})
		}
	}()
	for i := 0; i < 100; i++ {
		if m, _ := f.Port(1).Recv(MsgBlocks); m.Seq != i {
			t.Fatalf("out of order: got %d want %d", m.Seq, i)
		}
	}
}

func TestByteAccounting(t *testing.T) {
	f := New(3, Config{})
	f.Port(0).Send(1, &Message{Kind: MsgPicture, Payload: make([]byte, 100)})
	f.Port(0).Send(2, &Message{Kind: MsgPicture, Payload: make([]byte, 50)})
	f.Port(1).Recv(MsgPicture)
	f.Port(2).Recv(MsgPicture)
	st := f.Stats()
	want0 := int64(100 + 50 + 2*messageHeaderBytes)
	if st[0].BytesSent != want0 {
		t.Errorf("node 0 sent %d, want %d", st[0].BytesSent, want0)
	}
	if st[1].BytesRecv != 100+messageHeaderBytes || st[2].BytesRecv != 50+messageHeaderBytes {
		t.Errorf("receive accounting: %+v", st)
	}
	if st[0].MsgsSent != 2 || st[1].MsgsRecv != 1 {
		t.Errorf("message counting: %+v", st)
	}
	if f.PairBytes(0, 1) != 100+messageHeaderBytes {
		t.Errorf("pair bytes = %d", f.PairBytes(0, 1))
	}
}

func TestTryRecv(t *testing.T) {
	f := New(2, Config{})
	if _, ok := f.Port(1).TryRecv(MsgAck); ok {
		t.Error("TryRecv on empty queue succeeded")
	}
	f.Port(0).Send(1, &Message{Kind: MsgAck})
	if _, ok := f.Port(1).TryRecv(MsgAck); !ok {
		t.Error("TryRecv missed a queued message")
	}
}

func TestAbortUnblocksRecv(t *testing.T) {
	f := New(2, Config{})
	done := make(chan bool)
	go func() {
		_, ok := f.Port(1).Recv(MsgPicture)
		done <- ok
	}()
	cause := errors.New("boom")
	f.Abort(cause)
	select {
	case ok := <-done:
		if ok {
			t.Error("aborted Recv delivered a message")
		}
	case <-time.After(time.Second):
		t.Fatal("Recv did not unblock on abort")
	}
	if f.AbortCause() != cause {
		t.Errorf("cause = %v", f.AbortCause())
	}
	// Second abort keeps the first cause.
	f.Abort(errors.New("later"))
	if f.AbortCause() != cause {
		t.Error("abort cause overwritten")
	}
}

func TestAbortUnblocksSend(t *testing.T) {
	f := New(2, Config{})
	for i := 0; i < queueDepth; i++ {
		f.Port(0).Send(1, &Message{Kind: MsgPicture}) // fills the queue
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f.Port(0).Send(1, &Message{Kind: MsgPicture}) // would block
	}()
	f.Abort(errors.New("stop"))
	doneCh := make(chan struct{})
	go func() { wg.Wait(); close(doneCh) }()
	select {
	case <-doneCh:
	case <-time.After(time.Second):
		t.Fatal("Send did not unblock on abort")
	}
}

func TestShutdownIdempotent(t *testing.T) {
	// Repeated and concurrent Shutdown calls must all be safe: pipeline
	// drivers defer Shutdown while error paths may already have called it.
	f := New(2, Config{StallTimeout: 50 * time.Millisecond})
	f.Shutdown()
	f.Shutdown() // second sequential call: must not close a closed channel

	f = New(2, Config{StallTimeout: 50 * time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.Shutdown()
		}()
	}
	wg.Wait()

	// Shutdown stops the watchdog: an idle-but-finished fabric must not be
	// aborted after the fact.
	time.Sleep(150 * time.Millisecond)
	if cause := f.AbortCause(); cause != nil {
		t.Fatalf("watchdog aborted a shut-down fabric: %v", cause)
	}

	// Shutdown after Abort (and vice versa) is the normal error-path order;
	// the abort cause must survive.
	f = New(2, Config{StallTimeout: 50 * time.Millisecond})
	cause := errors.New("boom")
	f.Abort(cause)
	f.Shutdown()
	f.Shutdown()
	if f.AbortCause() != cause {
		t.Fatalf("abort cause lost across shutdown: %v", f.AbortCause())
	}

	// A fabric without a watchdog tolerates Shutdown too.
	f = New(2, Config{})
	f.Shutdown()
	f.Shutdown()
}

func TestThrottleSlowsSends(t *testing.T) {
	fast := New(2, Config{})
	slow := New(2, Config{BandwidthBps: 1e6}) // 1 MB/s
	payload := make([]byte, 100_000)

	t0 := time.Now()
	fast.Port(0).Send(1, &Message{Kind: MsgPicture, Payload: payload})
	fastD := time.Since(t0)

	t0 = time.Now()
	slow.Port(0).Send(1, &Message{Kind: MsgPicture, Payload: payload})
	slowD := time.Since(t0)

	if slowD < 50*time.Millisecond {
		t.Errorf("throttled send took %v, expected ~100ms", slowD)
	}
	if fastD > slowD {
		t.Errorf("unthrottled send (%v) slower than throttled (%v)", fastD, slowD)
	}
}

func TestKindString(t *testing.T) {
	for k := MsgKind(0); k < numKinds; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
}
