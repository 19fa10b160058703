package splitter

import (
	"testing"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/node"
	"tiledwall/internal/recovery"
	"tiledwall/internal/subpic"
)

// TestStageCorruptPictureKeepsGoAheadChain: under recovery, a picture that
// does not split still takes its place in the go-ahead chain. It passes its
// gate, and every tile gets a skip marker with the picture's seq and ANID,
// so each tile acks it to the next picture's splitter. Without the markers
// no tile acks the picture, and the next gate — often another session's —
// waits out its deadline.
func TestStageCorruptPictureKeepsGoAheadChain(t *testing.T) {
	s, _ := makeStream(t, 192, 128, 7)
	grid := cluster.Grid{K: 2, M: 2, N: 2}
	geo := geometry(t, s, grid.M, grid.N, 0)
	nd := grid.M * grid.N

	// The first picture whose corruption fails to split.
	var bad []byte
	pi := -1
	for i := range s.Pictures {
		b := append([]byte(nil), s.Pictures[i]...)
		for j := len(b) * 3 / 5; j < len(b)*4/5; j++ {
			b[j] = 0xFF
		}
		if _, err := NewMBSplitter(s.Seq, geo).Split(b, i); err != nil {
			bad, pi = b, i
			break
		}
	}
	if pi < 0 {
		t.Fatal("no corrupted picture failed to split")
	}

	for _, first := range []bool{true, false} {
		fab := cluster.New(grid.NumNodes(), cluster.Config{})
		rec := &metrics.Recovery{}
		st := NewStage(fab.Port(grid.SplitterNode(0)), ServeConfig{
			Config: node.Config{Kind: node.Splitter, Grid: grid, MaxFCode: 3, Recovery: &recovery.Incarnation{
				Cfg: recovery.Config{Enabled: true}.WithDefaults(),
				Rec: func(int) *metrics.Recovery { return rec },
			}},
			SplitWorkers: 1,
		}, nil)
		const session = 5
		anid := grid.SplitterNode(1)
		st.Open(session, []byte("header"), s.Seq, geo)
		msg := cluster.Message{Kind: cluster.MsgPicture, Seq: pi, Tag: anid, Session: session}
		if first {
			msg.Flags = cluster.FlagFirstPicture
		} else {
			// The previous picture's go-aheads, all in: the gate must take
			// them and not time out.
			for i := 0; i < nd; i++ {
				st.Bank()
			}
		}
		msg.Payload = append(cluster.GetSlab(len(bad)), bad...)
		if _, err := st.Handle(msg); err != nil {
			t.Fatalf("first=%v: Handle: %v", first, err)
		}
		if st.banked != 0 {
			t.Errorf("first=%v: %d go-aheads left banked after the picture", first, st.banked)
		}
		if got := rec.Snapshot().AckTimeouts; got != 0 {
			t.Errorf("first=%v: %d ack timeouts charged", first, got)
		}

		for tile := 0; tile < nd; tile++ {
			port := fab.Port(grid.TileNode(tile))
			markers := 0
			for {
				m, ok := port.TryRecv(cluster.MsgSubPicture)
				if !ok {
					break
				}
				if m.Flags&cluster.FlagSessionOpen != 0 {
					continue
				}
				sp, err := subpic.Unmarshal(m.Payload)
				if err != nil {
					t.Fatalf("first=%v tile %d: %v", first, tile, err)
				}
				if m.Seq != pi || m.Tag != anid || m.Session != session || !sp.Skipped || int(sp.Pic.Index) != pi {
					t.Errorf("first=%v tile %d: got seq %d tag %d session %d skipped %v index %d, want a skip marker for picture %d to ANID %d",
						first, tile, m.Seq, m.Tag, m.Session, sp.Skipped, sp.Pic.Index, pi, anid)
				}
				markers++
			}
			if markers != 1 {
				t.Errorf("first=%v tile %d: %d messages for the corrupt picture, want 1", first, tile, markers)
			}
		}

		// The root hears the receipt ack, then the session's failure notice.
		root := fab.Port(cluster.RootNode)
		var failed bool
		for {
			m, ok := root.TryRecv(cluster.MsgAck)
			if !ok {
				break
			}
			failed = failed || m.Seq == cluster.SessionFailSeq && m.Session == session
		}
		if !failed {
			t.Errorf("first=%v: root got no failure notice for the session", first)
		}
		st.Close()
		fab.Shutdown()
	}
}
