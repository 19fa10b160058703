// Package service implements the resident wall: the fabric, root, k
// splitters and m×n tile decoders are built once and stay alive across
// streams. Sessions are opened with Wall.Open, fed incrementally (and
// concurrently with other sessions) with Session.Feed, and closed with a
// graceful drain. The data-plane protocol is exactly the batch pipeline's —
// the root serialises every session into one global picture order, so the
// ANID/NSID ack-redirect chain and its deadlock-freedom argument carry over
// unchanged, and a single session's output is byte-identical to a batch run.
package service

import (
	"tiledwall/internal/bits"
)

// unitScanner is the incremental picture-unit scanner behind Session.Feed.
// It reproduces the batch root's start-code scan exactly: a picture unit
// runs from a picture start code up to (not including) the next picture,
// GOP, sequence header or sequence end code; bytes between GOPs that belong
// to no picture are skipped. The bytes before the first picture start code
// are the stream's header prefix, handed to onHeader once.
//
// Callback slices alias the scanner's internal buffer and are only valid
// during the call.
type unitScanner struct {
	buf        []byte
	picStart   int // offset in buf of the open picture unit (-1 = none)
	scanned    int // resume offset for the start-code scan
	headerDone bool
}

func newUnitScanner() unitScanner { return unitScanner{picStart: -1} }

// feed scans chunk, after what the previous feeds left unfinished, and emits
// every picture unit completed by it. With nothing left over the chunk is
// scanned in place, and only its unfinished tail is copied.
func (sc *unitScanner) feed(chunk []byte, onHeader, onUnit func([]byte) error) error {
	data, inPlace := chunk, len(sc.buf) == 0
	if !inPlace {
		sc.buf = append(sc.buf, chunk...)
		data = sc.buf
	}
	pos := sc.scanned
	for {
		off := bits.NextStartCode(data, pos)
		if off < 0 {
			break
		}
		code := data[off+3]
		switch {
		case code == bits.PictureStartCode:
			if !sc.headerDone {
				sc.headerDone = true
				if err := onHeader(data[:off]); err != nil {
					return err
				}
			} else if sc.picStart >= 0 {
				if err := onUnit(data[sc.picStart:off]); err != nil {
					return err
				}
			}
			sc.picStart = off
		case code == bits.GroupStartCode, code == bits.SequenceHeaderCod, code == bits.SequenceEndCode:
			if sc.picStart >= 0 {
				if err := onUnit(data[sc.picStart:off]); err != nil {
					return err
				}
				sc.picStart = -1
			}
		}
		pos = off + 4
	}
	// A start-code prefix may straddle the chunk boundary: NextStartCode
	// needs the code byte in bounds, so the last three bytes stay unscanned
	// until more data arrives.
	sc.scanned = max(len(data)-3, pos, 0)
	sc.keep(data, inPlace)
	return nil
}

// flush emits the trailing picture unit, if one is open, at end of stream.
func (sc *unitScanner) flush(onUnit func([]byte) error) error {
	if sc.picStart < 0 {
		return nil
	}
	u := sc.buf[sc.picStart:]
	sc.picStart = -1
	sc.buf = sc.buf[:0]
	sc.scanned = 0
	return onUnit(u)
}

// keep leaves in the buffer only what the next feed needs of data: the open
// picture unit (or the growing header prefix) plus the unscanned tail. data
// is the buffer itself unless it was scanned in place.
func (sc *unitScanner) keep(data []byte, inPlace bool) {
	var from int
	switch {
	case !sc.headerDone:
		// The whole prefix is still needed for onHeader.
	case sc.picStart >= 0:
		from = sc.picStart
	default:
		from = sc.scanned
	}
	if from > 0 || inPlace {
		sc.buf = append(sc.buf[:0], data[from:]...)
	}
	if sc.picStart >= 0 {
		sc.picStart -= from
	}
	sc.scanned -= from
}
