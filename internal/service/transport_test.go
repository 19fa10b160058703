package service_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/recovery"
	"tiledwall/internal/service"
)

// loopbackTCP returns the TCP transport New built for a "tcp" wall.
func loopbackTCP(t *testing.T, w *service.Wall) *cluster.TCPTransport {
	t.Helper()
	tcp, ok := w.Transport().(*cluster.TCPTransport)
	if !ok {
		t.Fatalf("Transport \"tcp\" built a %T", w.Transport())
	}
	return tcp
}

// TestNewOwnsLoopbackTCP: the loopback TCP transport New builds is the
// wall's to release — Close shuts its hub down, so the address stops
// accepting connections.
func TestNewOwnsLoopbackTCP(t *testing.T) {
	w, err := service.New(service.Config{K: 1, M: 2, N: 1, Transport: "tcp"})
	if err != nil {
		t.Fatal(err)
	}
	addr := loopbackTCP(t, w).Addr()
	if addr == "" {
		t.Fatal("loopback TCP transport has no hub address")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatalf("hub at %s still accepts connections after Close", addr)
	}
}

// TestNewRejectsUnknownTransport: the transport selector is checked where
// the transport is built.
func TestNewRejectsUnknownTransport(t *testing.T) {
	w, err := service.New(service.Config{M: 1, N: 1, Transport: "udp"})
	if err == nil {
		w.Close()
		t.Fatal("New accepted transport \"udp\"")
	}
	if !strings.Contains(err.Error(), "unknown transport") {
		t.Fatalf("error %q does not name the unknown transport", err)
	}
}

// TestLoopbackLinkStateFeedsHealth: on a recoverable loopback wall built by
// New, a hard link failure reaches the wall's health. The wall is
// Recovering while the link is down and Healthy again once it has redialed:
// a link loss that loses nothing does not degrade the wall, so no session
// close is needed to clear it. A loopback redial takes well under a
// millisecond, so the test kills the link again until it has seen
// Recovering; only the redial's up transition can end that state.
func TestLoopbackLinkStateFeedsHealth(t *testing.T) {
	st := genStreams(t, []int64{3})[0]
	w, err := service.New(service.Config{
		K: 1, M: 2, N: 1,
		Transport:     "tcp",
		CollectFrames: true,
		Recovery:      recovery.Config{Enabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := w.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()
	if h := w.Health(); h != service.Healthy {
		t.Fatalf("fresh wall health %v", h)
	}
	tcp := loopbackTCP(t, w)
	deadline := time.Now().Add(10 * time.Second)
	for kills, seen := 0, false; !seen; kills++ {
		if time.Now().After(deadline) {
			t.Fatalf("health never read recovering across %d link failures", kills)
		}
		tcp.InjectLinkFailure(1)
		for until := time.Now().Add(20 * time.Millisecond); !seen && time.Now().Before(until); {
			seen = w.Health() == service.Recovering
		}
	}
	for w.Health() != service.Healthy {
		if time.Now().After(deadline) {
			t.Fatalf("health %v after the redial, want healthy (a lossless link drop must not degrade the wall)", w.Health())
		}
		time.Sleep(time.Millisecond)
	}
	if err := tcp.AbortCause(); err != nil {
		t.Fatalf("transport aborted instead of redialing: %v", err)
	}
	sess, err := w.Open("after-redial")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Feed(st.data); err != nil {
		sess.Close()
		t.Fatal(err)
	}
	res, err := sess.Close()
	if err != nil {
		t.Fatal(err)
	}
	if err := verifyFrames(st.ref, res.Frames); err != nil {
		t.Fatal(err)
	}
	if h := w.Health(); h != service.Healthy {
		t.Fatalf("health %v after a clean session, want healthy", h)
	}
}
