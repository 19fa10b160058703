package splitter

import (
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/subpic"
	"tiledwall/internal/wall"
)

// This file implements the subscription (ROI) materialization rule of
// DESIGN.md §15. Given one split picture and a session's live tile set, it
// decides per tile what actually ships:
//
//   - anchors (I and P pictures) materialize on EVERY tile in normal mode.
//     Byte-exactness is transitive through the reference chain: a SEND source
//     must hold exact anchor pixels, whose own decode needed its halo's
//     anchors, and the closure fixpoints to the whole wall over a GOP. The
//     per-session saving therefore comes from B pictures (the majority of a
//     broadcast GOP) and from shipped bytes; anchors on unwatched tiles are
//     decoded but stamped NoEmit.
//   - B pictures materialize only on live tiles plus the tiles that are MEI
//     SEND sources for a live tile's motion vectors (the one-step halo
//     closure — exact for B because B pictures never feed references). A
//     source-only tile ships its SENDs with no pieces; everyone else gets a
//     ~20-byte skip marker so the decoder still acks and the nd-ack gate of
//     the ANID protocol is untouched.
//   - in I-only trick mode no shipped picture references another, so even
//     anchors materialize live-only.

// TrickMode selects the root's trick-play drop ladder.
type TrickMode uint8

const (
	// TrickNone ships every picture.
	TrickNone TrickMode = iota
	// TrickIOnly ships I pictures only (seek/scrub preview): every shipped
	// picture is self-contained, so subscription changes resume instantly.
	TrickIOnly
	// TrickDropB ships I and P pictures (fast forward at full reference
	// fidelity: the anchor chain is untouched, only disposable B pictures
	// are dropped).
	TrickDropB
)

func (m TrickMode) String() string {
	switch m {
	case TrickNone:
		return "none"
	case TrickIOnly:
		return "i-only"
	case TrickDropB:
		return "drop-b"
	}
	return "trick(?)"
}

// ROIScratch holds the per-tile shadow sub-pictures a splitter reuses when a
// partial subscription rewrites what ships. One per splitSession.
type ROIScratch struct {
	sps []subpic.SubPicture
	out []*subpic.SubPicture
	mei [][]subpic.MEIInstr
}

func (rs *ROIScratch) grow(nt int) {
	if len(rs.sps) < nt {
		rs.sps = make([]subpic.SubPicture, nt)
		rs.out = make([]*subpic.SubPicture, nt)
		rs.mei = make([][]subpic.MEIInstr, nt)
	}
}

// hasSendToLive reports whether the tile's MEI list sends to any live tile.
func hasSendToLive(mei []subpic.MEIInstr, live wall.TileSet) bool {
	for i := range mei {
		if mei[i].Kind == subpic.MEISend && live.Has(int(mei[i].Peer)) {
			return true
		}
	}
	return false
}

// filterMEI appends to dst the instructions that survive a partial
// subscription: every RECV (its source is materialized by construction) when
// keepRecv is set, and SENDs whose consumer is live.
func filterMEI(dst []subpic.MEIInstr, mei []subpic.MEIInstr, live wall.TileSet, keepRecv bool) []subpic.MEIInstr {
	for i := range mei {
		switch mei[i].Kind {
		case subpic.MEIRecv:
			if keepRecv {
				dst = append(dst, mei[i])
			}
		case subpic.MEISend:
			if live.Has(int(mei[i].Peer)) {
				dst = append(dst, mei[i])
			}
		}
	}
	return dst
}

// Apply rewrites one split picture's sub-pictures for a partial
// subscription, returning what to ship per tile and how many tiles were
// reduced to skip markers. The input sub-pictures are not modified; the
// returned pointers are valid until the next Apply on the same scratch.
// A full (zero-value) subscription returns the input untouched — the fast
// path costs one branch and ships byte-identical messages.
func (rs *ROIScratch) Apply(sps []*subpic.SubPicture, live wall.TileSet, iOnly bool) ([]*subpic.SubPicture, int) {
	if live.Full() || live.Count() == len(sps) {
		// Zero-value subscription, or an explicit set covering every tile:
		// nothing can be filtered, so ship the input untouched.
		return sps, 0
	}
	nt := len(sps)
	rs.grow(nt)
	picType := mpeg2.PictureType(sps[0].Pic.PicType)
	anchorsEverywhere := picType != mpeg2.PictureB && !iOnly
	skipped := 0
	for t := 0; t < nt; t++ {
		sp := &rs.sps[t]
		switch {
		case anchorsEverywhere:
			if live.Has(t) {
				rs.out[t] = sps[t]
				continue
			}
			// Materialized for reference exactness, but nobody is watching.
			*sp = *sps[t]
			sp.NoEmit = true
		case live.Has(t):
			*sp = *sps[t]
			rs.mei[t] = filterMEI(rs.mei[t][:0], sps[t].MEI, live, true)
			sp.MEI = rs.mei[t]
		case hasSendToLive(sps[t].MEI, live):
			// Source-only tile: ship the SENDs a live neighbour needs (they
			// read exact reference pixels), decode nothing, emit nothing.
			*sp = subpic.SubPicture{Pic: sps[t].Pic, NoEmit: true}
			rs.mei[t] = filterMEI(rs.mei[t][:0], sps[t].MEI, live, false)
			sp.MEI = rs.mei[t]
		default:
			*sp = subpic.SubPicture{Pic: sps[t].Pic, Skipped: true}
			skipped++
		}
		rs.out[t] = sp
	}
	return rs.out[:nt], skipped
}

// skipAll returns a skip marker for picture index of every one of nt tiles,
// valid until the next Apply or skipAll on the same scratch.
func (rs *ROIScratch) skipAll(nt, index int) []*subpic.SubPicture {
	rs.grow(nt)
	for t := 0; t < nt; t++ {
		rs.sps[t] = subpic.SubPicture{Pic: subpic.PicInfo{Index: int32(index)}, Skipped: true}
		rs.out[t] = &rs.sps[t]
	}
	return rs.out[:nt]
}

// ParseSubscribe decodes a FlagSubscribe control payload: one trick-mode
// byte followed by the tile set's wire form (empty = full subscription).
func ParseSubscribe(payload []byte) (TrickMode, wall.TileSet, error) {
	if len(payload) < 1 {
		return TrickNone, wall.TileSet{}, nil
	}
	ts, err := wall.UnmarshalTileSet(payload[1:])
	if err != nil {
		return TrickNone, wall.TileSet{}, err
	}
	return TrickMode(payload[0]), ts, nil
}

// AppendSubscribe encodes a FlagSubscribe control payload.
func AppendSubscribe(dst []byte, trick TrickMode, tiles wall.TileSet) []byte {
	dst = append(dst, byte(trick))
	return tiles.Marshal(dst)
}
