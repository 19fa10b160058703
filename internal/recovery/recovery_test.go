package recovery

import (
	"testing"
	"time"

	"tiledwall/internal/cluster"
)

func testCfg() Config {
	return Config{
		Enabled:         true,
		LeaseInterval:   2 * time.Millisecond,
		LeaseExpiry:     8 * time.Millisecond,
		PictureDeadline: 100 * time.Millisecond,
		MaxRestarts:     2,
	}
}

func TestSupervisorRespawnAndBudget(t *testing.T) {
	sup := NewSupervisor(testCfg(), nil)
	defer sup.Close()
	lease := NewLease()
	sup.Watch(7, lease)

	// An expired lease alone must NOT burn a restart: only a parked worker
	// (crashed and waiting in AwaitRespawn) is granted an incarnation, so a
	// slow-but-alive node can never be killed by the supervisor.
	time.Sleep(30 * time.Millisecond)
	if n := sup.Restarts(7); n != 0 {
		t.Fatalf("unparked worker restarted %d times", n)
	}

	abort := make(chan struct{})
	if n, ok := sup.AwaitRespawn(7, abort); !ok || n != 1 {
		t.Fatalf("first respawn: n=%d ok=%v", n, ok)
	}
	if n, ok := sup.AwaitRespawn(7, abort); !ok || n != 2 {
		t.Fatalf("second respawn: n=%d ok=%v", n, ok)
	}
	// MaxRestarts=2: the budget is now exhausted.
	if _, ok := sup.AwaitRespawn(7, abort); ok {
		t.Fatal("respawn granted beyond MaxRestarts")
	}
}

func TestSupervisorAbortUnparks(t *testing.T) {
	sup := NewSupervisor(testCfg(), nil)
	defer sup.Close()
	lease := NewLease()
	sup.Watch(3, lease)
	abort := make(chan struct{})
	res := make(chan bool, 1)
	go func() {
		// The lease stays renewed, so no grant can fire; only abort frees it.
		_, ok := sup.AwaitRespawn(3, abort)
		res <- ok
	}()
	go func() {
		for i := 0; i < 20; i++ {
			lease.Renew()
			time.Sleep(2 * time.Millisecond)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(abort)
	select {
	case ok := <-res:
		if ok {
			t.Fatal("aborted AwaitRespawn reported a grant")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("AwaitRespawn did not unpark on abort")
	}
}

func TestLeaseExpiry(t *testing.T) {
	l := NewLease()
	if l.Expired(time.Second) {
		t.Fatal("fresh lease reported expired")
	}
	time.Sleep(15 * time.Millisecond)
	if !l.Expired(10 * time.Millisecond) {
		t.Fatal("stale lease reported live")
	}
	l.Renew()
	if l.Expired(10 * time.Millisecond) {
		t.Fatal("renewed lease reported expired")
	}
}

func TestPictureRetainerAck(t *testing.T) {
	r := NewPictureRetainer()
	r.Retain(0, 0, 2, 20, 0, []byte{2})
	r.Retain(0, 0, 4, 40, 0, []byte{4})
	r.Retain(0, 1, 3, 30, 0, []byte{3})
	r.Ack(0, 0, 2)
	p := r.Pending(0, 0)
	if len(p) != 1 || p[0].Seq != 4 || p[0].Tag != 40 {
		t.Fatalf("pending after ack: %+v", p)
	}
	if p := r.Pending(0, 1); len(p) != 1 || p[0].Seq != 3 {
		t.Fatalf("splitter 1 pending: %+v", p)
	}
	r.Ack(0, 0, 4)
	if p := r.Pending(0, 0); len(p) != 0 {
		t.Fatalf("pending after full ack: %+v", p)
	}
	r.Ack(0, 2, 9) // unknown splitter: must not panic
}

func TestPictureRetainerSessions(t *testing.T) {
	r := NewPictureRetainer()
	// Interleaved sends of two sessions to the same splitter: replay order
	// must follow send order, not per-session seq order.
	r.Retain(1, 0, 0, 10, 0, []byte{1})
	r.Retain(2, 0, 0, 20, 0, []byte{2})
	r.Retain(1, 0, 1, 11, 0, []byte{3})
	all := r.PendingSplitter(0)
	if len(all) != 3 || all[0].Session != 1 || all[1].Session != 2 || all[2].Seq != 1 {
		t.Fatalf("PendingSplitter order: %+v", all)
	}
	if s, ok := r.OldestSession(0); !ok || s != 1 {
		t.Fatalf("OldestSession = %d, %v", s, ok)
	}
	// Acking session 1's oldest shifts the oldest pending to session 2.
	r.Ack(1, 0, 0)
	if s, ok := r.OldestSession(0); !ok || s != 2 {
		t.Fatalf("OldestSession after ack = %d, %v", s, ok)
	}
	// One session's entries ack and drop without disturbing the other.
	r.Drop(1)
	if p := r.Pending(1, 0); len(p) != 0 {
		t.Fatalf("session 1 survived Drop: %+v", p)
	}
	if p := r.Pending(2, 0); len(p) != 1 || p[0].Seq != 0 {
		t.Fatalf("session 2 disturbed: %+v", p)
	}
}

// TestPictureRetainerPooledRefs proves the retainer holds a slab
// reference per entry: the consumer's release cannot recycle a retained
// slab, the releasing ack can, and duplicate acks never double-release.
func TestPictureRetainerPooledRefs(t *testing.T) {
	r := NewPictureRetainer()
	payload := append(cluster.GetSlab(512), make([]byte, 400)...)
	r.Retain(0, 0, 0, 0, 0, payload)
	cluster.PutSlab(payload) // the consuming splitter's release
	if got := cluster.GetSlab(512); &got[:1][0] == &payload[:1][0] {
		t.Fatal("retained slab recycled by the consumer's release")
	}
	r.Ack(0, 0, 0) // releasing ack: the retainer's reference returns
	got := cluster.GetSlab(512)
	if &got[:1][0] != &payload[:1][0] {
		t.Fatal("slab not recycled after the retainer released it")
	}
	cluster.PutSlab(got)
	r.Ack(0, 0, 0) // duplicate ack: entry gone, must not double-release

	// Drop releases every retained reference of the session.
	p2 := append(cluster.GetSlab(512), make([]byte, 300)...)
	r.Retain(3, 0, 0, 0, 0, p2)
	cluster.PutSlab(p2)
	r.Drop(3)
	got2 := cluster.GetSlab(512)
	if &got2[:1][0] != &p2[:1][0] {
		t.Fatal("slab not recycled after Drop")
	}
	cluster.PutSlab(got2)
}
