package main

import (
	"math"
	"sync/atomic"
	"time"

	"tiledwall/internal/mpeg2"
)

// clock stamps events in nanoseconds since a fixed base on the monotonic
// clock.
type clock struct{ base time.Time }

func (c clock) now() int64 { return int64(time.Since(c.base)) }

// tileRec is what the sink keeps for one (picture, tile) emission.
type tileRec struct {
	at  int64  // clock time of the latest emission
	crc uint32 // digest of the latest emission
	n   uint32 // emissions seen
}

// sessionRec holds one session's emissions, picture-major: rec(i, t) is
// picture i (decode order), tile t. Each tile's decoder goroutine writes only
// its own column, and the feeder reads the table after Session.Close, whose
// drain orders every emission before it.
type sessionRec struct {
	tiles int
	recs  []tileRec
	// stray counts emissions the table could not hold (picture index beyond
	// its capacity or tile out of range); each is an error.
	stray atomic.Int64
}

func newSessionRec(tiles, pictures int) *sessionRec {
	return &sessionRec{tiles: tiles, recs: make([]tileRec, tiles*pictures)}
}

func (sr *sessionRec) rec(i, t int) *tileRec { return &sr.recs[i*sr.tiles+t] }

// pictures returns the table's capacity in pictures.
func (sr *sessionRec) pictures() int { return len(sr.recs) / sr.tiles }

// recorder is the wall's OnTileFrame sink: it routes each tile frame to its
// session's table by the wall-unique session id.
type recorder struct {
	clk      clock
	sessions [16]atomic.Pointer[sessionRec] // indexed by session id
	unknown  atomic.Int64                   // frames of unregistered sessions
}

// register attaches a table to a session id before the session is fed.
func (r *recorder) register(id int, sr *sessionRec) bool {
	if id < 0 || id >= len(r.sessions) {
		return false
	}
	r.sessions[id].Store(sr)
	return true
}

// onTileFrame is the display-server side of the wall. It runs on the tile's
// decoder goroutine, so it only stamps, digests and releases the frame the
// way a display server would once the frame is shown. The index the wall
// passes is the picture's decode-order index, whatever the parameter name in
// the callback's declaration says.
func (r *recorder) onTileFrame(session, pic, tile int, buf *mpeg2.PixelBuf) {
	at := r.clk.now()
	crc := bufCRC(buf)
	buf.Release()
	var sr *sessionRec
	if session >= 0 && session < len(r.sessions) {
		sr = r.sessions[session].Load()
	}
	if sr == nil {
		r.unknown.Add(1)
		return
	}
	if pic < 0 || pic >= sr.pictures() || tile < 0 || tile >= sr.tiles {
		sr.stray.Add(1)
		return
	}
	rec := sr.rec(pic, tile)
	rec.at, rec.crc = at, crc
	rec.n++
}

// subChange is one entry of a session's expected subscription: from picture
// From on, exactly the tiles marked in Tiles emit (nil Tiles: every tile).
type subChange struct {
	From  int
	Tiles []bool
}

// subscribed reports whether tile t of picture i is expected to emit.
func subscribed(plan []subChange, i, t int) bool {
	var cur []bool
	for _, c := range plan {
		if c.From > i {
			break
		}
		cur = c.Tiles
	}
	return cur == nil || cur[t]
}

// score is the verdict on one session's emissions.
type score struct {
	Attempted, Failed int
	Latency           []float64 // ms per picture; +Inf for failed pictures
	Skew              []float64 // ms per picture, full-subscription sessions only
	Emitted           int       // tile frames recorded
}

// scoreSession checks every picture of a session against the oracle and
// derives its latency (ready to last subscribed tile) and skew (first to last
// tile). readyAt[i] is picture i's ready time on the recorder's clock. A
// session that returned an error fails every picture.
func scoreSession(sr *sessionRec, in *input, plan []subChange, readyAt []int64, sessErr error) score {
	n := len(readyAt)
	s := score{Attempted: n}
	full := len(plan) == 0 || (len(plan) == 1 && plan[0].Tiles == nil)
	for i := 0; i < n; i++ {
		want := in.digest(i)
		ok := sessErr == nil
		first, last := int64(math.MaxInt64), int64(math.MinInt64)
		for t := 0; t < sr.tiles; t++ {
			rec := sr.rec(i, t)
			s.Emitted += int(rec.n)
			if !subscribed(plan, i, t) {
				ok = ok && rec.n == 0
				continue
			}
			if rec.n != 1 || rec.crc != want[t] {
				ok = false
				continue
			}
			first, last = min(first, rec.at), max(last, rec.at)
		}
		if !ok {
			s.Failed++
			s.Latency = append(s.Latency, math.Inf(1))
			continue
		}
		s.Latency = append(s.Latency, float64(last-readyAt[i])/1e6)
		if full {
			s.Skew = append(s.Skew, float64(last-first)/1e6)
		}
	}
	// Emissions past the fed pictures, or that the table could not hold.
	for i := n; i < sr.pictures(); i++ {
		for t := 0; t < sr.tiles; t++ {
			s.Failed += int(sr.rec(i, t).n)
		}
	}
	s.Failed += int(sr.stray.Load())
	return s
}

func (s *score) add(o score) {
	s.Attempted += o.Attempted
	s.Failed += o.Failed
	s.Latency = append(s.Latency, o.Latency...)
	s.Skew = append(s.Skew, o.Skew...)
	s.Emitted += o.Emitted
}
