package mpeg2

import (
	"fmt"

	"tiledwall/internal/bits"
)

// DCT coefficient tables (Annex B tables B-14 and B-15). A decoded symbol is
// a (run, level) pair; the level sign is a separate trailing bit. Two symbols
// are special:
//
//   - end of block (EOB), encoded here as run = eobRun;
//   - escape, a fixed 6-bit code followed by 6-bit run and 12-bit signed
//     level, handled outside the table.
//
// Table B-14 additionally gives run 0 / level 1 a 1-bit code ("1"+sign) when
// it is the first coefficient of a block, where EOB ("10") cannot occur.
const (
	eobRun       = -1
	dctEscape    = "0000 01"
	dctEscapeLen = 6
)

type dctSpec struct {
	run, level int
	code       string
}

// dctEntry is one table slot: a coefficient (run >= 0) with its unsigned
// level and code length in bits, sign excluded, or one of the special
// symbols eobRun, dctInvalid, dctEsc and dctLong.
type dctEntry struct {
	run   int8
	level uint8 // for dctLong: index of the second-level block
	len   uint8
}

const (
	dctInvalid = -2
	dctEsc     = -3
	dctLong    = -4 // first level only: the code continues past 8 bits

	dctMaxLen = 16 // longest table code (B-14 "0000 0000 0001 xxxx")
)

// dctTable decodes one DCT coefficient table in at most two lookups. The
// first level, indexed by the next 8 bits, resolves every code of up to 8
// bits — EOB, escape and the short run/level codes that make up nearly all
// coefficients — in one lookup. Each 8-bit prefix of a longer code points
// to a 256-entry second-level block indexed by the following 8 bits. A table
// is under 4 KB, so all three stay cache-resident on the hot path.
type dctTable struct {
	l1  [256]dctEntry
	l2  []dctEntry         // 256-entry blocks, one per long-code prefix
	enc map[uint16]vlcCode // run<<8|level -> code (without sign bit)
	eob vlcCode            // end-of-block code (zero for tables without one)
}

func buildDCT(name string, specs []dctSpec) *dctTable {
	t := &dctTable{enc: make(map[uint16]vlcCode, len(specs))}
	for i := range t.l1 {
		t.l1[i].run = dctInvalid
	}
	insert := func(code string, run, level int) {
		c, n := parseCode(code)
		if n > dctMaxLen {
			panic(fmt.Sprintf("mpeg2: DCT table %s code %q longer than %d bits", name, code, dctMaxLen))
		}
		lut, rest := t.l1[:], n
		if n > 8 {
			// Route through (allocating on first use) the block of the
			// code's 8-bit prefix.
			p := &t.l1[c>>uint(n-8)]
			switch p.run {
			case dctInvalid:
				*p = dctEntry{run: dctLong, level: uint8(len(t.l2) >> 8)}
				for i := 0; i < 256; i++ {
					t.l2 = append(t.l2, dctEntry{run: dctInvalid})
				}
			case dctLong:
			default:
				panic(fmt.Sprintf("mpeg2: DCT table %s not prefix-free at %q", name, code))
			}
			lut = t.l2[int(p.level)<<8:][:256]
			c &= 1<<uint(n-8) - 1
			rest = n - 8
		}
		base := c << uint(8-rest)
		for i := uint32(0); i < 1<<uint(8-rest); i++ {
			slot := &lut[base+i]
			if slot.run != dctInvalid {
				panic(fmt.Sprintf("mpeg2: DCT table %s not prefix-free at %q", name, code))
			}
			*slot = dctEntry{run: int8(run), level: uint8(level), len: uint8(n)}
		}
	}
	for _, s := range specs {
		insert(s.code, s.run, s.level)
		if s.run == eobRun {
			c, n := parseCode(s.code)
			t.eob = vlcCode{bits: c, n: uint8(n)}
		}
		if s.run >= 0 {
			key := uint16(s.run)<<8 | uint16(s.level)
			if _, dup := t.enc[key]; dup {
				panic(fmt.Sprintf("mpeg2: DCT table %s duplicate run/level %d/%d", name, s.run, s.level))
			}
			c, n := parseCode(s.code)
			t.enc[key] = vlcCode{bits: c, n: uint8(n)}
		}
	}
	insert(dctEscape, dctEsc, 0)
	return t
}

// code returns the VLC (without sign) for run/level, or ok=false when the
// pair must be escape-coded.
func (t *dctTable) code(run, level int) (vlcCode, bool) {
	if level < 0 {
		level = -level
	}
	if run > 31 || level > 255 {
		return vlcCode{}, false
	}
	c, ok := t.enc[uint16(run)<<8|uint16(level)]
	return c, ok
}

// lookup returns the entry for the symbol at the head of the 16-bit window w.
func (t *dctTable) lookup(w uint32) dctEntry {
	e := t.l1[w>>8&0xff]
	if e.run == dctLong {
		e = t.l2[int(e.level)<<8|int(w&0xff)]
	}
	return e
}

// decode reads one DCT symbol. It returns:
//
//	eob=true                  — end of block
//	run, level (signed)       — a coefficient
//	ok=false                  — invalid code
func (t *dctTable) decode(r *bits.Reader) (run, level int, eob, ok bool) {
	// One peek covers the longest code and the sign bit after it.
	w := r.Peek(dctMaxLen + 1)
	e := t.lookup(w >> 1)
	if e.run < 0 {
		switch e.run {
		case eobRun:
			r.Skip(int(e.len))
			return 0, 0, true, true
		case dctEsc:
			run, level, ok = readEscape(r)
			return run, level, false, ok
		}
		return 0, 0, false, false
	}
	r.Skip(int(e.len) + 1)
	// Branch-free sign: s is 0 or -1, and (x^s)-s negates x when s is -1.
	s := -int(w >> (dctMaxLen - e.len) & 1)
	return int(e.run), (int(e.level) ^ s) - s, false, true
}

// skip advances past one DCT symbol without materialising its level: the
// splitter's skim. It returns the run (eobRun at end of block) and rejects
// exactly the inputs decode rejects, leaving the reader at the same bit.
func (t *dctTable) skip(r *bits.Reader) (run int, ok bool) {
	e := t.lookup(r.Peek(dctMaxLen))
	if e.run >= 0 {
		r.Skip(int(e.len) + 1)
		return int(e.run), true
	}
	switch e.run {
	case eobRun:
		r.Skip(int(e.len))
		return eobRun, true
	case dctEsc:
		run, _, ok = readEscape(r)
		return run, ok
	}
	return 0, false
}

// readEscape reads an escape-coded coefficient: the 6-bit escape code, a
// 6-bit run and a 12-bit two's-complement level.
func readEscape(r *bits.Reader) (run, level int, ok bool) {
	r.Skip(dctEscapeLen)
	run = int(r.Read(6))
	lv := int32(r.Read(12))
	if lv&0x800 != 0 {
		lv -= 0x1000
	}
	if lv == 0 || lv == -2048 {
		// Forbidden escape levels in MPEG-2.
		return 0, 0, false
	}
	return run, int(lv), true
}

// b14Specs is Table B-14 ("DCT coefficients table zero"). The first-
// coefficient special case for run 0 / level 1 is handled in the block
// parser. EOB is run=eobRun.
var b14Specs = []dctSpec{
	{eobRun, 0, "10"},
	{0, 1, "11"}, // subsequent-coefficient code for 0/±1
	{1, 1, "011"},
	{0, 2, "0100"}, {2, 1, "0101"},
	{0, 3, "0010 1"}, {4, 1, "0011 0"}, {3, 1, "0011 1"},
	{7, 1, "0001 00"}, {6, 1, "0001 01"}, {1, 2, "0001 10"}, {5, 1, "0001 11"},
	{2, 2, "0000 100"}, {9, 1, "0000 101"}, {0, 4, "0000 110"}, {8, 1, "0000 111"},
	{13, 1, "0010 0000"}, {0, 6, "0010 0001"}, {12, 1, "0010 0010"}, {11, 1, "0010 0011"},
	{3, 2, "0010 0100"}, {1, 3, "0010 0101"}, {0, 5, "0010 0110"}, {10, 1, "0010 0111"},
	{16, 1, "0000 0010 00"}, {5, 2, "0000 0010 01"}, {0, 7, "0000 0010 10"}, {2, 3, "0000 0010 11"},
	{1, 4, "0000 0011 00"}, {15, 1, "0000 0011 01"}, {14, 1, "0000 0011 10"}, {4, 2, "0000 0011 11"},
	{0, 11, "0000 0001 0000"}, {8, 2, "0000 0001 0001"}, {4, 3, "0000 0001 0010"}, {0, 10, "0000 0001 0011"},
	{2, 4, "0000 0001 0100"}, {7, 2, "0000 0001 0101"}, {21, 1, "0000 0001 0110"}, {20, 1, "0000 0001 0111"},
	{0, 9, "0000 0001 1000"}, {19, 1, "0000 0001 1001"}, {18, 1, "0000 0001 1010"}, {1, 5, "0000 0001 1011"},
	{3, 3, "0000 0001 1100"}, {0, 8, "0000 0001 1101"}, {6, 2, "0000 0001 1110"}, {17, 1, "0000 0001 1111"},
	{10, 2, "0000 0000 1000 0"}, {9, 2, "0000 0000 1000 1"}, {5, 3, "0000 0000 1001 0"}, {3, 4, "0000 0000 1001 1"},
	{2, 5, "0000 0000 1010 0"}, {1, 7, "0000 0000 1010 1"}, {1, 6, "0000 0000 1011 0"}, {0, 15, "0000 0000 1011 1"},
	{0, 14, "0000 0000 1100 0"}, {0, 13, "0000 0000 1100 1"}, {0, 12, "0000 0000 1101 0"}, {26, 1, "0000 0000 1101 1"},
	{25, 1, "0000 0000 1110 0"}, {24, 1, "0000 0000 1110 1"}, {23, 1, "0000 0000 1111 0"}, {22, 1, "0000 0000 1111 1"},
	{0, 31, "0000 0000 0100 00"}, {0, 30, "0000 0000 0100 01"}, {0, 29, "0000 0000 0100 10"}, {0, 28, "0000 0000 0100 11"},
	{0, 27, "0000 0000 0101 00"}, {0, 26, "0000 0000 0101 01"}, {0, 25, "0000 0000 0101 10"}, {0, 24, "0000 0000 0101 11"},
	{0, 23, "0000 0000 0110 00"}, {0, 22, "0000 0000 0110 01"}, {0, 21, "0000 0000 0110 10"}, {0, 20, "0000 0000 0110 11"},
	{0, 19, "0000 0000 0111 00"}, {0, 18, "0000 0000 0111 01"}, {0, 17, "0000 0000 0111 10"}, {0, 16, "0000 0000 0111 11"},
	{0, 40, "0000 0000 0010 000"}, {0, 39, "0000 0000 0010 001"}, {0, 38, "0000 0000 0010 010"}, {0, 37, "0000 0000 0010 011"},
	{0, 36, "0000 0000 0010 100"}, {0, 35, "0000 0000 0010 101"}, {0, 34, "0000 0000 0010 110"}, {0, 33, "0000 0000 0010 111"},
	{0, 32, "0000 0000 0011 000"}, {1, 14, "0000 0000 0011 001"}, {1, 13, "0000 0000 0011 010"}, {1, 12, "0000 0000 0011 011"},
	{1, 11, "0000 0000 0011 100"}, {1, 10, "0000 0000 0011 101"}, {1, 9, "0000 0000 0011 110"}, {1, 8, "0000 0000 0011 111"},
	{1, 18, "0000 0000 0001 0000"}, {1, 17, "0000 0000 0001 0001"}, {1, 16, "0000 0000 0001 0010"}, {1, 15, "0000 0000 0001 0011"},
	{6, 3, "0000 0000 0001 0100"}, {16, 2, "0000 0000 0001 0101"}, {15, 2, "0000 0000 0001 0110"}, {14, 2, "0000 0000 0001 0111"},
	{13, 2, "0000 0000 0001 1000"}, {12, 2, "0000 0000 0001 1001"}, {11, 2, "0000 0000 0001 1010"}, {31, 1, "0000 0000 0001 1011"},
	{30, 1, "0000 0000 0001 1100"}, {29, 1, "0000 0000 0001 1101"}, {28, 1, "0000 0000 0001 1110"}, {27, 1, "0000 0000 0001 1111"},
}

var dctTableB14 = buildDCT("B-14", b14Specs)

// dctTableB14First decodes the first coefficient of a non-intra block, where
// EOB cannot occur and run 0 / level 1 therefore takes the 1-bit code "1".
var dctTableB14First = buildDCT("B-14 first", b14First())

func b14First() []dctSpec {
	specs := make([]dctSpec, 0, len(b14Specs))
	for _, s := range b14Specs {
		switch {
		case s.run == eobRun:
			// EOB cannot be the first symbol.
		case s.run == 0 && s.level == 1:
			specs = append(specs, dctSpec{0, 1, "1"})
		default:
			specs = append(specs, s)
		}
	}
	return specs
}

// dctTableB15 is Table B-15 ("DCT coefficients table one"), selected by
// intra_vlc_format = 1 for intra blocks. The short codes that differ from
// B-14 are transcribed below; every B-14 entry whose code collides with a
// replacement is dropped, and the encoder escape-codes those pairs. This is
// a documented best-effort transcription (DESIGN.md §8): encoder and decoder
// share the table, so streams produced here always round-trip.
var dctTableB15 = buildDCT("B-15", b15Specs())

func b15Specs() []dctSpec {
	replacements := []dctSpec{
		{eobRun, 0, "0110"},
		{0, 1, "10"},
		{0, 2, "110"},
		{0, 3, "0111"},
		{1, 1, "010"},
		{0, 4, "1110 0"},
		{0, 5, "1110 1"},
	}
	replaced := map[[2]int]bool{}
	for _, r := range replacements {
		replaced[[2]int{r.run, r.level}] = true
	}
	conflicts := func(code string) bool {
		a, an := parseCode(code)
		for _, r := range replacements {
			b, bn := parseCode(r.code)
			n := an
			if bn < n {
				n = bn
			}
			if a>>uint(an-n) == b>>uint(bn-n) {
				return true
			}
		}
		return false
	}
	specs := append([]dctSpec(nil), replacements...)
	for _, s := range b14Specs {
		if replaced[[2]int{s.run, s.level}] || s.run == eobRun || conflicts(s.code) {
			continue
		}
		specs = append(specs, s)
	}
	return specs
}
