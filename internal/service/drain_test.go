package service

import (
	"testing"
	"time"

	"tiledwall/internal/cluster"
)

// TestDrainCountsEachNodeOnce: a session closes only once every node has
// drained it. Under recovery a respawned splitter re-acks a session final
// the root replays to it, so one node can drain-ack a session twice; the
// duplicate must not stand in for a decoder that is still working, or the
// session closes before that tile's last frames are out. The stub splitter
// here drain-acks every final twice, and the stub decoder holds its drain
// ack until the test releases it.
func TestDrainCountsEachNodeOnce(t *testing.T) {
	fab := cluster.New(3, cluster.Config{StallTimeout: 10 * time.Second})
	defer fab.Shutdown()
	w, err := New(Config{K: 1, M: 1, N: 1, Wired: fab, LocalNodes: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	drainAck := func(port cluster.Port, session int) {
		port.Send(0, &cluster.Message{Kind: cluster.MsgAck, Seq: cluster.DrainAckSeq, Session: session})
	}
	release := make(chan struct{})
	done := make(chan struct{}, 2)
	go func() {
		defer func() { done <- struct{}{} }()
		port := fab.Port(1)
		for {
			m := port.Recv(cluster.MsgPicture)
			switch {
			case m == nil || m.Flags&cluster.FlagShutdown != 0:
				return
			case m.Flags&cluster.FlagSessionOpen != 0:
			case m.Flags&cluster.FlagSessionFinal != 0:
				port.Send(2, &cluster.Message{Kind: cluster.MsgSubPicture, Seq: -1, Flags: cluster.FlagSessionFinal, Session: m.Session})
				drainAck(port, m.Session)
				drainAck(port, m.Session)
			default:
				port.Send(0, &cluster.Message{Kind: cluster.MsgAck, Seq: m.Seq, Session: m.Session})
			}
		}
	}()
	go func() {
		defer func() { done <- struct{}{} }()
		port := fab.Port(2)
		for {
			m := port.Recv(cluster.MsgSubPicture)
			if m == nil || m.Flags&cluster.FlagShutdown != 0 {
				return
			}
			select {
			case <-release:
			case <-port.Done():
				return
			}
			drainAck(port, m.Session)
		}
	}()

	s, err := w.Open("drain")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(pictureStream([]int{64, 64, 64})); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() {
		_, err := s.Close()
		closed <- err
	}()
	select {
	case err := <-closed:
		t.Fatalf("session closed (err %v) before its decoder drained", err)
	case <-time.After(200 * time.Millisecond):
	}
	close(release)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	<-done
	<-done
}
