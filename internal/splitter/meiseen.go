package splitter

import "tiledwall/internal/subpic"

// meiSeen is a dense deduplication set for MEI instructions, keyed by
// (destination tile, macroblock address, reference selector). It replaces
// the map the splitter used to clear on every picture: a probe is one bit
// test instead of a hash — which matters because the splitter probes it for
// every reference cell of every inter macroblock.
//
// One bit per key keeps the set small (tiles × macroblocks × 2 bits, 3.5 KB
// on a 640×352 4×4 wall), and opening a new scope clears only the words the
// last scope set, so a scope costs what it recorded, not the set's size.
// Everything is allocation-free after init.
type meiSeen struct {
	bits    []uint64
	touched []int32 // words set in the current scope; capacity len(bits)
	mbs     int     // macroblocks per picture (row-major address space)
}

// init sizes the set for tiles × mbs macroblock addresses × 2 reference
// selectors. Safe to call repeatedly with the same geometry.
func (m *meiSeen) init(tiles, mbs int) {
	need := (tiles*mbs*2 + 63) / 64
	if cap(m.bits) < need {
		m.bits = make([]uint64, need)
		m.touched = make([]int32, 0, need)
	}
	m.bits = m.bits[:need]
	m.mbs = mbs
}

// begin opens a new dedup scope: per picture for the merge-level set, per
// slice for the worker-local ones.
func (m *meiSeen) begin() {
	for _, w := range m.touched {
		m.bits[w] = 0
	}
	m.touched = m.touched[:0]
}

// seen reports whether (tile, addr, ref) was already recorded in the current
// scope, recording it if not.
func (m *meiSeen) seen(tile, addr int, ref subpic.RefSel) bool {
	i := (tile*m.mbs+addr)*2 + int(ref)
	w, bit := i>>6, uint64(1)<<(i&63)
	word := m.bits[w]
	if word&bit != 0 {
		return true
	}
	if word == 0 {
		m.touched = append(m.touched, int32(w))
	}
	m.bits[w] = word | bit
	return false
}
