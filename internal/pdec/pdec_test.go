package pdec

import (
	"testing"

	"tiledwall/internal/cluster"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/subpic"
	"tiledwall/internal/wall"
)

// step receives one sub-picture and dispatches it through the fail-stop
// protocol (one splitter), standing in for the deleted batch Step loop in
// these single-decoder protocol tests.
func step(d *Decoder) (bool, error) {
	return d.HandleSubPicture(d.node.Recv(cluster.MsgSubPicture), 1)
}

func TestHaloForFCode(t *testing.T) {
	cases := []struct{ fcode, want int }{
		{1, 32}, // reach 8 px + macroblock + alignment
		{2, 32}, // reach 16
		{3, 48}, // reach 32
		{4, 80}, // reach 64
		{0, 32}, // clamped to 1
	}
	for _, c := range cases {
		if got := HaloForFCode(c.fcode); got != c.want {
			t.Errorf("HaloForFCode(%d) = %d, want %d", c.fcode, got, c.want)
		}
		if HaloForFCode(c.fcode)%16 != 0 {
			t.Errorf("halo for fcode %d not macroblock aligned", c.fcode)
		}
	}
}

func testGeo(t *testing.T) *wall.Geometry {
	t.Helper()
	geo, err := wall.NewGeometry(128, 128, 2, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return geo
}

func testSeq() *mpeg2.SequenceHeader {
	return &mpeg2.SequenceHeader{
		Width: 128, Height: 128, ChromaFormat: 1,
		IntraQ:    mpeg2.DefaultIntraQuantMatrix,
		NonIntraQ: mpeg2.DefaultNonIntraQuantMatrix,
	}
}

// TestDecoderRejectsOutOfOrderPicture: the ordering assertion is the
// protocol invariant of §4.5.
func TestDecoderRejectsOutOfOrderPicture(t *testing.T) {
	fab := cluster.New(2, cluster.Config{})
	geo := testGeo(t)
	d := NewDecoder(fab.Node(1), Config{
		Seq: testSeq(), Geo: geo, Tile: 0, HaloPx: 32,
		TileNode: func(tile int) int { return 1 },
	})
	sp := &subpic.SubPicture{}
	sp.Pic.Index = 3 // decoder expects 0
	sp.Pic.PicType = uint8(mpeg2.PictureI)
	fab.Node(0).Send(1, &cluster.Message{Kind: cluster.MsgSubPicture, Seq: 3, Tag: 0, Payload: sp.Marshal()})
	if _, err := step(d); err == nil {
		t.Fatal("out-of-order picture accepted")
	}
}

func TestDecoderRejectsGarbagePayload(t *testing.T) {
	fab := cluster.New(2, cluster.Config{})
	geo := testGeo(t)
	d := NewDecoder(fab.Node(1), Config{
		Seq: testSeq(), Geo: geo, Tile: 0, HaloPx: 32,
		TileNode: func(tile int) int { return 1 },
	})
	fab.Node(0).Send(1, &cluster.Message{Kind: cluster.MsgSubPicture, Seq: 0, Tag: 0, Payload: []byte{1, 2, 3}})
	if _, err := step(d); err == nil {
		t.Fatal("garbage payload accepted")
	}
}

func TestDecoderFinalCountdown(t *testing.T) {
	fab := cluster.New(2, cluster.Config{})
	geo := testGeo(t)
	d := NewDecoder(fab.Node(1), Config{
		Seq: testSeq(), Geo: geo, Tile: 0, HaloPx: 32,
		TileNode: func(tile int) int { return 1 },
	})
	// A Final for a 1-picture stream arriving before the picture itself must
	// not terminate the decoder.
	final := &subpic.SubPicture{Final: true}
	final.Pic.Index = 1 // total pictures
	fab.Node(0).Send(1, &cluster.Message{Kind: cluster.MsgSubPicture, Seq: -1, Tag: 0, Payload: final.Marshal()})
	done, err := step(d)
	if err != nil || done {
		t.Fatalf("early Final: done=%v err=%v", done, err)
	}
	// An empty (pieceless) I picture is legal at the container level.
	sp := &subpic.SubPicture{}
	sp.Pic.Index = 0
	sp.Pic.PicType = uint8(mpeg2.PictureI)
	fab.Node(0).Send(1, &cluster.Message{Kind: cluster.MsgSubPicture, Seq: 0, Tag: 0, Payload: sp.Marshal()})
	if done, err = step(d); err != nil || done {
		t.Fatalf("picture: done=%v err=%v", done, err)
	}
	fab.Node(0).Send(1, &cluster.Message{Kind: cluster.MsgSubPicture, Seq: -1, Tag: 0, Payload: final.Marshal()})
	if done, err = step(d); err != nil || !done {
		t.Fatalf("final: done=%v err=%v", done, err)
	}
}

// TestDecoderAcksANID: the ack must go to the node named by the message tag,
// not the sender.
func TestDecoderAcksANID(t *testing.T) {
	fab := cluster.New(3, cluster.Config{})
	geo := testGeo(t)
	d := NewDecoder(fab.Node(1), Config{
		Seq: testSeq(), Geo: geo, Tile: 0, HaloPx: 32,
		TileNode: func(tile int) int { return 1 },
	})
	sp := &subpic.SubPicture{}
	sp.Pic.Index = 0
	sp.Pic.PicType = uint8(mpeg2.PictureI)
	// Sent by node 0, ANID = node 2.
	fab.Node(0).Send(1, &cluster.Message{Kind: cluster.MsgSubPicture, Seq: 0, Tag: 2, Payload: sp.Marshal()})
	if _, err := step(d); err != nil {
		t.Fatal(err)
	}
	if m, ok := fab.Node(2).TryRecv(cluster.MsgAck); !ok || m.From != 1 {
		t.Fatal("ack not redirected to the ANID node")
	}
	if _, ok := fab.Node(0).TryRecv(cluster.MsgAck); ok {
		t.Fatal("ack also sent to the message sender")
	}
}

// TestDecoderRejectsMissingReference: a P sub-picture before any anchor.
func TestDecoderRejectsMissingReference(t *testing.T) {
	fab := cluster.New(2, cluster.Config{})
	geo := testGeo(t)
	d := NewDecoder(fab.Node(1), Config{
		Seq: testSeq(), Geo: geo, Tile: 0, HaloPx: 32,
		TileNode: func(tile int) int { return 1 },
	})
	sp := &subpic.SubPicture{}
	sp.Pic.Index = 0
	sp.Pic.PicType = uint8(mpeg2.PictureP)
	sp.Pic.FCode = [2][2]uint8{{3, 3}, {15, 15}}
	fab.Node(0).Send(1, &cluster.Message{Kind: cluster.MsgSubPicture, Seq: 0, Tag: 0, Payload: sp.Marshal()})
	if _, err := step(d); err == nil {
		t.Fatal("P picture before anchor accepted")
	}
}
