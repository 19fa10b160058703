package pdec

import (
	"testing"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/recovery"
	"tiledwall/internal/subpic"
)

// Single-decoder tests of the fault-masking protocol: the decoder is node 1,
// splitters are the other nodes of the fabric, and sub-pictures are
// pieceless so every picture decodes without payload.

// recoverDecoder builds a fault-masking decoder on node 1, fed by splitters
// splitters, that records the decode indices it emits into frames.
func recoverDecoder(t *testing.T, fab *cluster.Fabric, splitters int, rec *metrics.Recovery, frames *[]int) *Decoder {
	t.Helper()
	cfg := ServeConfig{
		OnFrame: func(_, picIdx, _ int, buf *mpeg2.PixelBuf) {
			*frames = append(*frames, picIdx)
			buf.Release()
		},
	}
	cfg.Grid.K = splitters
	cfg.Recovery = &recovery.Incarnation{
		Cfg: recovery.Config{Enabled: true, PictureDeadline: time.Millisecond},
		Rec: func(int) *metrics.Recovery { return rec },
	}
	return testDecoder(t, fab.Port(1), cfg)
}

// sendPic ships a pieceless sub-picture for picture idx from node from (also
// its ANID) to the decoder, marshalled into a pool slab, and returns the
// payload.
func sendPic(fab *cluster.Fabric, from, idx int, pt mpeg2.PictureType, flags uint8) []byte {
	sp := &subpic.SubPicture{}
	sp.Pic.Index = int32(idx)
	sp.Pic.PicType = uint8(pt)
	if pt != mpeg2.PictureI {
		sp.Pic.FCode = [2][2]uint8{{3, 3}, {3, 3}}
	}
	payload := sp.AppendTo(cluster.GetSlab(sp.WireSize()))
	fab.Port(from).Send(1, &cluster.Message{Kind: cluster.MsgSubPicture, Seq: idx, Tag: from, Flags: flags, Payload: payload})
	return payload
}

// sendFinal ships a session-final marker announcing total pictures.
func sendFinal(fab *cluster.Fabric, from, total int) {
	sp := &subpic.SubPicture{Final: true}
	sp.Pic.Index = int32(total)
	fab.Port(from).Send(1, &cluster.Message{
		Kind: cluster.MsgSubPicture, Seq: -1, Tag: from,
		Flags: cluster.FlagSessionFinal, Payload: sp.AppendTo(cluster.GetSlab(sp.WireSize())),
	})
}

// slabReleased reports whether payload's slab is back in the pool: the pool
// hands out the most recently released slab of a class first.
func slabReleased(payload []byte) bool {
	got := cluster.GetSlab(cap(payload))
	return &got[:1][0] == &payload[:1][0]
}

func mustStep(t *testing.T, d *Decoder, wantDone bool) {
	t.Helper()
	done, err := step(d)
	if err != nil || done != wantDone {
		t.Fatalf("step: done=%v err=%v, want done=%v", done, err, wantDone)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestRecoverDropsDuplicate: a second copy of a handled picture is dropped
// without decoding, and its slab goes back to the pool.
func TestRecoverDropsDuplicate(t *testing.T) {
	fab := cluster.New(2, cluster.Config{})
	var frames []int
	d := recoverDecoder(t, fab, 1, &metrics.Recovery{}, &frames)
	sendPic(fab, 0, 0, mpeg2.PictureI, 0)
	mustStep(t, d, false)
	dup := sendPic(fab, 0, 0, mpeg2.PictureI, 0)
	mustStep(t, d, false)
	if d.res.Pictures != 1 || d.nextPic != 1 {
		t.Fatalf("after duplicate: %d pictures, next %d; want 1, 1", d.res.Pictures, d.nextPic)
	}
	if !slabReleased(dup) {
		t.Fatal("duplicate's slab not released")
	}
}

// TestRecoverStashesOutOfOrder: a picture that overtakes the frontier waits
// in the reorder stash and is decoded, not concealed, once the hole fills.
func TestRecoverStashesOutOfOrder(t *testing.T) {
	fab := cluster.New(2, cluster.Config{})
	rec := &metrics.Recovery{}
	var frames []int
	d := recoverDecoder(t, fab, 1, rec, &frames)
	ahead := sendPic(fab, 0, 1, mpeg2.PictureP, 0)
	mustStep(t, d, false)
	if d.res.Pictures != 0 || d.nextPic != 0 || len(frames) != 0 {
		t.Fatalf("ahead picture handled early: %d pictures, next %d, frames %v", d.res.Pictures, d.nextPic, frames)
	}
	sendPic(fab, 0, 0, mpeg2.PictureI, 0)
	mustStep(t, d, false)
	if d.res.Pictures != 2 || d.nextPic != 2 {
		t.Fatalf("after the hole filled: %d pictures, next %d; want 2, 2", d.res.Pictures, d.nextPic)
	}
	if !slabReleased(ahead) {
		t.Fatal("stashed picture's slab not released once decoded")
	}
	d.Finish()
	if !equalInts(frames, []int{0, 1}) || rec.Snapshot().ConcealedFrames != 0 {
		t.Fatalf("frames %v, %d concealed; want [0 1], none", frames, rec.Snapshot().ConcealedFrames)
	}
}

// TestRecoverSweepDeadlineConceals: a reorder hole younger than the deadline
// is waited for; once older, it is concealed and the stash drains behind it.
func TestRecoverSweepDeadlineConceals(t *testing.T) {
	fab := cluster.New(2, cluster.Config{})
	rec := &metrics.Recovery{}
	var frames []int
	d := recoverDecoder(t, fab, 1, rec, &frames)
	sendPic(fab, 0, 0, mpeg2.PictureI, 0)
	mustStep(t, d, false)
	sendPic(fab, 0, 2, mpeg2.PictureP, 0) // picture 1 is lost
	mustStep(t, d, false)
	if d.SweepDeadline(time.Hour) || d.nextPic != 1 || len(frames) != 0 {
		t.Fatalf("young hole swept: next %d, frames %v", d.nextPic, frames)
	}
	time.Sleep(2 * time.Millisecond)
	if d.SweepDeadline(time.Millisecond) {
		t.Fatal("sweep reported completion without a final")
	}
	if d.nextPic != 3 || len(d.spStash) != 0 {
		t.Fatalf("after sweep: next %d, %d stashed; want 3, 0", d.nextPic, len(d.spStash))
	}
	// The lost picture's type is unknown, so the chain is untrusted and the
	// stashed P behind it is concealed too.
	if !equalInts(frames, []int{0, 1, 2}) || rec.Snapshot().ConcealedFrames != 2 {
		t.Fatalf("frames %v, %d concealed; want [0 1 2], 2", frames, rec.Snapshot().ConcealedFrames)
	}
}

// TestRecoverFinalsFlushTail: the session completes only once every
// splitter's final is in; then the stash is flushed and the true holes —
// inside the stream and at its tail — are concealed.
func TestRecoverFinalsFlushTail(t *testing.T) {
	fab := cluster.New(3, cluster.Config{})
	rec := &metrics.Recovery{}
	var frames []int
	d := recoverDecoder(t, fab, 2, rec, &frames)
	sendPic(fab, 0, 0, mpeg2.PictureI, 0)
	mustStep(t, d, false)
	sendPic(fab, 2, 2, mpeg2.PictureP, 0) // picture 1 is lost
	mustStep(t, d, false)
	sendFinal(fab, 0, 4)
	mustStep(t, d, false)
	if d.nextPic != 1 || len(frames) != 0 {
		t.Fatalf("one final of two flushed: next %d, frames %v", d.nextPic, frames)
	}
	sendFinal(fab, 2, 4) // picture 3, the tail, is lost too
	mustStep(t, d, true)
	if d.nextPic != 4 || len(d.spStash) != 0 {
		t.Fatalf("after flush: next %d, %d stashed; want 4, 0", d.nextPic, len(d.spStash))
	}
	if !equalInts(frames, []int{0, 1, 2, 3}) || rec.Snapshot().ConcealedFrames != 3 {
		t.Fatalf("frames %v, %d concealed; want [0 1 2 3], 3", frames, rec.Snapshot().ConcealedFrames)
	}
}

// TestRecoverNeverAcksReplaysOrFinals: only original data sub-pictures ack
// their ANID; replays and finals settled no credit and ack nothing.
func TestRecoverNeverAcksReplaysOrFinals(t *testing.T) {
	fab := cluster.New(2, cluster.Config{})
	var frames []int
	d := recoverDecoder(t, fab, 1, &metrics.Recovery{}, &frames)
	sendPic(fab, 0, 0, mpeg2.PictureI, cluster.FlagReplay)
	mustStep(t, d, false)
	sendPic(fab, 0, 1, mpeg2.PictureP, 0)
	mustStep(t, d, false)
	sendFinal(fab, 0, 2)
	mustStep(t, d, true)
	var acked []int
	for {
		m, ok := fab.Port(0).TryRecv(cluster.MsgAck)
		if !ok {
			break
		}
		acked = append(acked, m.Seq)
	}
	if !equalInts(acked, []int{1}) {
		t.Fatalf("acks for %v, want only picture 1", acked)
	}
}
