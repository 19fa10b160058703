package service

import (
	"errors"
	"testing"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/node"
	"tiledwall/internal/pdec"
	"tiledwall/internal/recovery"
	"tiledwall/internal/splitter"
	"tiledwall/internal/subpic"
)

// The serve-loop contract of both resident node roles, driven directly on a
// 1-1-(1,1) fabric: node 0 plays the root, node 1 the splitter, node 2 the
// tile decoder. The node under test runs its serve loop; the test plays
// every other node by hand.

// serveLoopRole is one node role under test: its node id, the node that
// feeds it, the message kind it is fed, and how to run its serve loop.
type serveLoopRole struct {
	name     string
	node     int
	upstream int
	kind     cluster.MsgKind
	// data builds one data message of picture seq for session, its payload
	// in a pool slab.
	data func(session, seq int) cluster.Message
	// final builds a session final announcing total pictures.
	final func(session, total int) cluster.Message
	// receipt is the node that receives the role's receipt acks.
	receipt int
}

// serveLoopCounters records what the node under test reported upward.
type serveLoopCounters struct {
	opens, results int
}

// serveRole runs the serve loop of role on port until it returns, configured
// by the wall's own node configuration.
func serveRole(role string, port cluster.Port, inc *recovery.Incarnation, cnt *serveLoopCounters) error {
	w := &Wall{cfg: Config{K: 1, M: 1, N: 1, SplitWorkers: 1}}
	w.cfg.defaults()
	if role == "splitter" {
		cfg := w.splitterServeCfg(0, inc)
		cfg.OnResult = func(int, int, *splitter.SecondResult) { cnt.results++ }
		return splitter.ServeSecond(port, cfg)
	}
	return pdec.Serve(port, pdec.ServeConfig{
		Config:   w.nodeConfig(node.Decoder, 0, inc),
		OnResult: func(int, int, *pdec.Result) { cnt.results++ },
	})
}

func marshalSubPic(sp *subpic.SubPicture) []byte {
	return sp.AppendTo(cluster.GetSlab(sp.WireSize()))
}

var serveLoopRoles = []serveLoopRole{
	{
		name: "splitter", node: 1, upstream: 0, kind: cluster.MsgPicture, receipt: 0,
		data: func(session, seq int) cluster.Message {
			payload := append(cluster.GetSlab(4096), 0, 0, 1, 0, 0xAA)
			return cluster.Message{Kind: cluster.MsgPicture, Seq: seq, Tag: 1, Session: session, Payload: payload}
		},
		final: func(session, total int) cluster.Message {
			return cluster.Message{Kind: cluster.MsgPicture, Seq: -1, Tag: total, Flags: cluster.FlagSessionFinal, Session: session}
		},
	},
	{
		name: "decoder", node: 2, upstream: 1, kind: cluster.MsgSubPicture, receipt: 1,
		data: func(session, seq int) cluster.Message {
			// A subscription skip marker: acked and sequenced, nothing to
			// decode.
			sp := &subpic.SubPicture{Skipped: true}
			sp.Pic.Index = int32(seq)
			return cluster.Message{Kind: cluster.MsgSubPicture, Seq: seq, Tag: 1, Session: session, Payload: marshalSubPic(sp)}
		},
		final: func(session, total int) cluster.Message {
			sp := &subpic.SubPicture{Final: true}
			sp.Pic.Index = int32(total)
			return cluster.Message{Kind: cluster.MsgSubPicture, Seq: -1, Tag: 1, Flags: cluster.FlagSessionFinal, Session: session, Payload: marshalSubPic(sp)}
		},
	},
}

// serveLoopRun is one serve loop under test with the fabric around it.
type serveLoopRun struct {
	t    *testing.T
	fab  *cluster.Fabric
	role serveLoopRole
	cnt  serveLoopCounters
	done chan error
}

func startServeLoop(t *testing.T, role serveLoopRole, masking bool, chaos recovery.ChaosPlan) *serveLoopRun {
	t.Helper()
	r := &serveLoopRun{t: t, fab: cluster.New(3, cluster.Config{}), role: role, done: make(chan error, 1)}
	t.Cleanup(r.fab.Shutdown)
	var inc *recovery.Incarnation
	if masking {
		inc = &recovery.Incarnation{
			Cfg:    recovery.Config{Enabled: true}.WithDefaults(),
			Chaos:  chaos,
			Rec:    func(int) *metrics.Recovery { return &metrics.Recovery{} },
			OnOpen: func(int, []byte) { r.cnt.opens++ },
		}
	}
	port := r.fab.Port(role.node)
	go func() { r.done <- serveRole(role.name, port, inc, &r.cnt) }()
	return r
}

// send delivers msg to the node under test from its upstream node.
func (r *serveLoopRun) send(msg cluster.Message) {
	r.fab.Port(r.role.upstream).Send(r.role.node, &msg)
}

func (r *serveLoopRun) open(session int, header []byte) {
	r.send(cluster.Message{Kind: r.role.kind, Flags: cluster.FlagSessionOpen, Session: session, Payload: header})
}

// wait returns the serve loop's result; counters are safe to read after it.
func (r *serveLoopRun) wait() error {
	r.t.Helper()
	select {
	case err := <-r.done:
		return err
	case <-time.After(10 * time.Second):
		r.fab.Abort(errors.New("serve loop test timed out"))
		r.t.Fatalf("%s: serve loop did not return", r.role.name)
		return nil
	}
}

// shutdown ends the serve loop cleanly and returns its result.
func (r *serveLoopRun) shutdown() error {
	r.send(cluster.Message{Kind: r.role.kind, Flags: cluster.FlagShutdown})
	return r.wait()
}

// queued counts the messages of kind waiting at node, matching pred.
func (r *serveLoopRun) queued(node int, kind cluster.MsgKind, pred func(cluster.Message) bool) int {
	n := 0
	for {
		m, ok := r.fab.Port(node).TryRecv(kind)
		if !ok {
			return n
		}
		if pred(m) {
			n++
		}
	}
}

func isDrainAck(m cluster.Message) bool { return m.Seq == cluster.DrainAckSeq }

func TestServeLoopContract(t *testing.T) {
	header := pictureStream(nil)
	for _, role := range serveLoopRoles {
		for _, masking := range []bool{false, true} {
			mode := "failstop"
			if masking {
				mode = "recovery"
			}
			t.Run(role.name+"/"+mode, func(t *testing.T) {
				t.Run("shutdown", func(t *testing.T) {
					r := startServeLoop(t, role, masking, recovery.ChaosPlan{})
					if err := r.shutdown(); err != nil {
						t.Fatalf("FlagShutdown: got %v, want nil", err)
					}
				})

				t.Run("duplicate open", func(t *testing.T) {
					r := startServeLoop(t, role, masking, recovery.ChaosPlan{})
					r.open(7, header)
					if role.name == "decoder" {
						// Picture 0 (a skip marker: nothing to split or
						// decode) is handled before the duplicate arrives.
						r.send(role.data(7, 0))
					}
					r.open(7, header)
					r.send(role.final(7, 1))
					if err := r.shutdown(); err != nil {
						t.Fatal(err)
					}
					if masking && r.cnt.opens != 1 {
						t.Errorf("OnOpen reported %d opens, want 1", r.cnt.opens)
					}
					if r.cnt.results != 1 {
						t.Errorf("%d results published, want 1", r.cnt.results)
					}
					// A second open that reset the session would leave the
					// decoder owing picture 0 and the session undrained.
					if n := r.queued(0, cluster.MsgAck, isDrainAck); n != 1 {
						t.Errorf("%d drain acks, want 1", n)
					}
					if role.name == "splitter" {
						opens := r.queued(2, cluster.MsgSubPicture, func(m cluster.Message) bool {
							return m.Flags&cluster.FlagSessionOpen != 0
						})
						if opens != 1 {
							t.Errorf("open forwarded %d times, want 1", opens)
						}
					}
				})

				t.Run("malformed open", func(t *testing.T) {
					r := startServeLoop(t, role, masking, recovery.ChaosPlan{})
					r.open(3, []byte{0, 0, 1, 0xB3, 0x01})
					if !masking {
						if err := r.wait(); err == nil {
							t.Fatal("malformed open header accepted under fail-stop")
						}
						return
					}
					if err := r.shutdown(); err != nil {
						t.Fatalf("malformed open under recovery: %v, want skipped", err)
					}
					if r.cnt.opens != 0 {
						t.Errorf("malformed open reported as opened")
					}
					if n := r.queued(2, cluster.MsgSubPicture, func(cluster.Message) bool { return true }); role.name == "splitter" && n != 0 {
						t.Errorf("malformed open forwarded to the decoders")
					}
				})

				t.Run("unknown session data", func(t *testing.T) {
					r := startServeLoop(t, role, masking, recovery.ChaosPlan{})
					msg := role.data(9, 0)
					r.send(msg)
					if !masking {
						if err := r.wait(); err == nil {
							t.Fatal("data for an unknown session accepted under fail-stop")
						}
						return
					}
					if err := r.shutdown(); err != nil {
						t.Fatalf("unknown session data under recovery: %v, want dropped", err)
					}
					// The pool hands out the most recently released slab of a
					// class first.
					if got := cluster.GetSlab(cap(msg.Payload)); &got[:1][0] != &msg.Payload[:1][0] {
						t.Error("dropped payload's slab not back in its class")
					}
				})

				t.Run("trailing final", func(t *testing.T) {
					r := startServeLoop(t, role, masking, recovery.ChaosPlan{})
					r.open(5, header)
					r.send(role.final(5, 0))
					r.send(role.final(5, 0))
					if err := r.shutdown(); err != nil {
						t.Fatalf("trailing final: %v, want dropped", err)
					}
					if n := r.queued(0, cluster.MsgAck, isDrainAck); n != 1 {
						t.Errorf("%d drain acks, want 1", n)
					}
				})

				if !masking {
					return
				}
				t.Run("chaos kill", func(t *testing.T) {
					plan := recovery.ChaosPlan{KillAtPicture: 0}
					if role.name == "splitter" {
						plan.KillSplitter = true
					} else {
						plan.KillDecoder = true
					}
					r := startServeLoop(t, role, masking, plan)
					r.open(4, header)
					r.send(role.data(4, 0))
					if err := r.wait(); !errors.Is(err, recovery.ErrKilled) {
						t.Fatalf("chaos kill: got %v, want recovery.ErrKilled", err)
					}
					if n := r.queued(role.receipt, cluster.MsgAck, func(m cluster.Message) bool { return m.Seq == 0 }); n != 0 {
						t.Errorf("receipt ack sent before the kill")
					}
				})
			})
		}
	}
}
