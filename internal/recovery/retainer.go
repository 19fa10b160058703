package recovery

import (
	"sort"
	"sync"

	"tiledwall/internal/cluster"
)

// RetainedPicture is one picture unit the root keeps until its assignee's
// credit ack confirms delivery.
type RetainedPicture struct {
	Session int
	Seq     int // per-session picture index
	Tag     int // NSID riding on the original send
	Flags   uint8
	Payload []byte

	ord int64 // global send order, for cross-session replay sequencing
}

// pictureKey scopes the root's replay window per session: one session's
// replays never disturb another's.
type pictureKey struct {
	session int
	seq     int
}

// PictureRetainer is the root splitter's replay window: every picture sent
// to a second-level splitter stays retained until that splitter's ack
// returns the credit — so the buffer is bounded by the two-buffer credit
// window (at most 2 outstanding pictures per splitter per session) plus a
// small slack for acks in flight. When a splitter is respawned, the
// supervisor replays its unacked pictures with their original NSID tags, in
// original send order across sessions, preserving the ANID/NSID ordering
// chain.
//
// The retainer is a slab reference holder: Retain acquires
// an extra reference on the payload (the sent copy and the retained copy
// are the same bytes on the in-process fabric), and the releasing ack or
// session drop returns it — the consuming splitter's own release can then
// never recycle a slab the retainer might still replay.
type PictureRetainer struct {
	mu         sync.Mutex
	nextOrd    int64
	bySplitter map[int]map[pictureKey]RetainedPicture // splitter index -> (session, seq) -> entry
}

// NewPictureRetainer returns an empty retainer. Payloads are cluster slabs
// whose references the retainer manages.
func NewPictureRetainer() *PictureRetainer {
	return &PictureRetainer{bySplitter: map[int]map[pictureKey]RetainedPicture{}}
}

// Retain stores the session's picture seq sent to splitter idx, acquiring a
// slab reference on its payload.
func (r *PictureRetainer) Retain(session, idx, seq, tag int, flags uint8, payload []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.bySplitter[idx]
	if m == nil {
		m = map[pictureKey]RetainedPicture{}
		r.bySplitter[idx] = m
	}
	cluster.SlabRef(payload)
	r.nextOrd++
	m[pictureKey{session, seq}] = RetainedPicture{
		Session: session, Seq: seq, Tag: tag, Flags: flags, Payload: payload, ord: r.nextOrd,
	}
}

// Ack releases the retained picture (session, seq) of splitter idx — and its
// slab reference, but only when the entry still exists: replay and synthetic
// credits can produce duplicate acks, which must not double-release.
func (r *PictureRetainer) Ack(session, idx, seq int) {
	r.mu.Lock()
	k := pictureKey{session, seq}
	e, ok := r.bySplitter[idx][k]
	if ok {
		delete(r.bySplitter[idx], k)
	}
	r.mu.Unlock()
	if ok {
		cluster.PutSlab(e.Payload)
	}
}

// Pending returns one session's unacked pictures at splitter idx in
// ascending seq order.
func (r *PictureRetainer) Pending(session, idx int) []RetainedPicture {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []RetainedPicture
	for k, e := range r.bySplitter[idx] {
		if k.session == session {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// PendingSplitter returns every session's unacked pictures at splitter idx in
// original send order — the replay sequence for a respawned resident
// splitter.
func (r *PictureRetainer) PendingSplitter(idx int) []RetainedPicture {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []RetainedPicture
	for _, e := range r.bySplitter[idx] {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ord < out[j].ord })
	return out
}

// OldestSession returns the session owning splitter idx's oldest pending
// picture — the session whose in-flight token the root releases when it
// writes a lost credit off after a deadline.
func (r *PictureRetainer) OldestSession(idx int) (session int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var best int64
	for k, e := range r.bySplitter[idx] {
		if !ok || e.ord < best {
			best, session, ok = e.ord, k.session, true
		}
	}
	return session, ok
}

// Drop releases every retained picture of one session across splitters
// (resident session close or failure), returning the slab references the
// entries held.
func (r *PictureRetainer) Drop(session int) {
	r.mu.Lock()
	var freed [][]byte
	for _, m := range r.bySplitter {
		for k, e := range m {
			if k.session == session {
				freed = append(freed, e.Payload)
				delete(m, k)
			}
		}
	}
	r.mu.Unlock()
	for _, p := range freed {
		cluster.PutSlab(p)
	}
}
