package mpeg2

import (
	"math/rand"
	"testing"
	"testing/quick"

	"tiledwall/internal/bits"
)

// kraftSum returns the Kraft sum numerator in units of 2^-maxLen: a complete
// prefix-free code sums to 1<<maxLen.
func kraftSum(t *vlcTable) int {
	sum := 0
	for _, c := range t.enc {
		sum += 1 << uint(t.maxLen-int(c.n))
	}
	return sum
}

func TestTableCompleteness(t *testing.T) {
	// buildVLC already panics on prefix collisions at package init; here we
	// additionally check the code space coverage of tables that are complete
	// in the standard.
	cases := []struct {
		name     string
		tab      *vlcTable
		complete bool
	}{
		{"dcSizeLuma", dcSizeLumaTable, true},
		{"dcSizeChroma", dcSizeChromaTable, true},
		{"mbTypeI", mbTypeITable, false},
		{"mbTypeP", mbTypePTable, false},
		{"mbTypeB", mbTypeBTable, false},
		{"mbAddrInc", mbAddrIncTable, false},
		{"cbp", cbpTable, false},
		{"motionCode", motionCodeTable, false},
	}
	for _, c := range cases {
		sum := kraftSum(c.tab)
		full := 1 << uint(c.tab.maxLen)
		if sum > full {
			t.Errorf("%s: Kraft sum %d exceeds %d", c.name, sum, full)
		}
		if c.complete && sum != full {
			t.Errorf("%s: expected complete code, Kraft %d of %d", c.name, sum, full)
		}
	}
}

func TestVLCRoundTrip(t *testing.T) {
	tables := map[string]*vlcTable{
		"mbAddrInc":    mbAddrIncTable,
		"mbTypeI":      mbTypeITable,
		"mbTypeP":      mbTypePTable,
		"mbTypeB":      mbTypeBTable,
		"cbp":          cbpTable,
		"motionCode":   motionCodeTable,
		"dcSizeLuma":   dcSizeLumaTable,
		"dcSizeChroma": dcSizeChromaTable,
	}
	for name, tab := range tables {
		for val := range tab.enc {
			w := bits.NewWriter(4)
			tab.encode(w, val)
			// Pad so the peek window is satisfied near the end.
			w.WriteBits(0xFFFF, 16)
			r := bits.NewReader(w.Bytes())
			got, ok := tab.decode(r)
			if !ok || got != val {
				t.Errorf("%s: value %d round-trips to %d (ok=%v)", name, val, got, ok)
			}
			if n, _ := tab.codeLen(val); r.BitPos() != n {
				t.Errorf("%s: value %d consumed %d bits, want %d", name, val, r.BitPos(), n)
			}
		}
	}
}

func TestDCTTableRoundTrip(t *testing.T) {
	for name, tab := range map[string]*dctTable{"B-14": dctTableB14, "B-14 first": dctTableB14First, "B-15": dctTableB15} {
		for key := range tab.enc {
			run, level := int(key>>8), int(key&0xFF)
			for _, sign := range []int{1, -1} {
				w := bits.NewWriter(4)
				c, ok := tab.code(run, level)
				if !ok {
					t.Fatalf("%s: enc map lies for %d/%d", name, run, level)
				}
				w.WriteBits(c.bits, int(c.n))
				if sign < 0 {
					w.WriteBit(1)
				} else {
					w.WriteBit(0)
				}
				w.WriteBits(0xFFFF, 16)
				r := bits.NewReader(w.Bytes())
				gr, gl, eob, ok := tab.decode(r)
				if !ok || eob || gr != run || gl != sign*level {
					t.Errorf("%s: %d/%d sign %d decoded as %d/%d eob=%v ok=%v", name, run, level, sign, gr, gl, eob, ok)
				}
			}
		}
	}
}

func TestDCTEscape(t *testing.T) {
	for _, tc := range []struct{ run, level int }{{0, 100}, {31, 2047}, {5, -2047}, {20, -3}} {
		w := bits.NewWriter(8)
		code, n := parseCode(dctEscape)
		w.WriteBits(code, n)
		w.WriteBits(uint32(tc.run), 6)
		w.WriteBits(uint32(tc.level)&0xFFF, 12)
		w.WriteBits(0xFFFF, 16)
		r := bits.NewReader(w.Bytes())
		run, level, eob, ok := dctTableB14.decode(r)
		if !ok || eob || run != tc.run || level != tc.level {
			t.Errorf("escape %d/%d decoded as %d/%d eob=%v ok=%v", tc.run, tc.level, run, level, eob, ok)
		}
	}
	// Forbidden level 0 and -2048.
	for _, lv := range []uint32{0, 0x800} {
		w := bits.NewWriter(8)
		code, n := parseCode(dctEscape)
		w.WriteBits(code, n)
		w.WriteBits(3, 6)
		w.WriteBits(lv, 12)
		w.WriteBits(0xFFFF, 16)
		r := bits.NewReader(w.Bytes())
		if _, _, _, ok := dctTableB14.decode(r); ok {
			t.Errorf("escape level %#x should be rejected", lv)
		}
	}
}

func TestDCTEOB(t *testing.T) {
	cases := []struct {
		tab  *dctTable
		code string
	}{
		{dctTableB14, "10"},
		{dctTableB15, "0110"},
	}
	for _, c := range cases {
		code, n := parseCode(c.code)
		w := bits.NewWriter(4)
		w.WriteBits(code, n)
		w.WriteBits(0xFFFFFF, 24)
		r := bits.NewReader(w.Bytes())
		_, _, eob, ok := c.tab.decode(r)
		if !ok || !eob {
			t.Errorf("EOB %q: eob=%v ok=%v", c.code, eob, ok)
		}
		if r.BitPos() != n {
			t.Errorf("EOB %q consumed %d bits, want %d", c.code, r.BitPos(), n)
		}
	}
}

func TestB14FirstCoefficient(t *testing.T) {
	// "1" + sign decodes as run 0 / level ±1 in the first-coefficient table.
	r := bits.NewReader([]byte{0b11000000, 0xFF, 0xFF})
	run, level, eob, ok := dctTableB14First.decode(r)
	if !ok || eob || run != 0 || level != -1 {
		t.Fatalf("first-coef '11' = %d/%d eob=%v ok=%v, want 0/-1", run, level, eob, ok)
	}
	r = bits.NewReader([]byte{0b10000000, 0xFF, 0xFF})
	run, level, _, ok = dctTableB14First.decode(r)
	if !ok || run != 0 || level != 1 {
		t.Fatalf("first-coef '10' = %d/%d, want 0/+1", run, level)
	}
}

func TestB15ContainsReplacements(t *testing.T) {
	for _, want := range []struct{ run, level int }{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {1, 1}} {
		if _, ok := dctTableB15.code(want.run, want.level); !ok {
			t.Errorf("B-15 missing short code for %d/%d", want.run, want.level)
		}
	}
	// Long codes shared with B-14 survive.
	for _, want := range []struct{ run, level int }{{0, 16}, {1, 18}, {27, 1}, {0, 40}} {
		if _, ok := dctTableB15.code(want.run, want.level); !ok {
			t.Errorf("B-15 missing inherited code for %d/%d", want.run, want.level)
		}
	}
}

func TestMotionCodeAllMagnitudes(t *testing.T) {
	for mag := 0; mag <= 16; mag++ {
		if _, ok := motionCodeTable.codeLen(mag); !ok {
			t.Errorf("motion magnitude %d has no code", mag)
		}
	}
}

func TestMBAddrIncAll(t *testing.T) {
	for v := 1; v <= 33; v++ {
		if _, ok := mbAddrIncTable.codeLen(v); !ok {
			t.Errorf("address increment %d has no code", v)
		}
	}
}

func TestCBPAll(t *testing.T) {
	for v := 0; v <= 63; v++ {
		if _, ok := cbpTable.codeLen(v); !ok {
			t.Errorf("cbp %d has no code", v)
		}
	}
}

// Property: any random bit suffix after a valid codeword still decodes that
// codeword (decode must only consume the code's own bits).
func TestVLCPrefixIsolationQuick(t *testing.T) {
	vals := make([]int, 0, len(mbAddrIncTable.enc))
	for v := range mbAddrIncTable.enc {
		vals = append(vals, v)
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		val := vals[rng.Intn(len(vals))]
		w := bits.NewWriter(8)
		mbAddrIncTable.encode(w, val)
		w.WriteBits(rng.Uint32(), 32)
		r := bits.NewReader(w.Bytes())
		got, ok := mbAddrIncTable.decode(r)
		return ok && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// flatDCT is the simplest correct table construction: one 2^16-entry lookup
// indexed by the next 16 bits. It is the oracle the exhaustive equivalence
// test holds the production two-level tables to.
type flatDCT struct {
	lut []dctEntry
}

func buildFlatDCT(t *testing.T, specs []dctSpec) *flatDCT {
	f := &flatDCT{lut: make([]dctEntry, 1<<dctMaxLen)}
	for i := range f.lut {
		f.lut[i].run = dctInvalid
	}
	insert := func(code string, run, level int) {
		c, n := parseCode(code)
		base := c << uint(dctMaxLen-n)
		for i := uint32(0); i < 1<<uint(dctMaxLen-n); i++ {
			slot := &f.lut[base+i]
			if slot.run != dctInvalid {
				t.Fatalf("flat oracle: not prefix-free at %q", code)
			}
			*slot = dctEntry{run: int8(run), level: uint8(level), len: uint8(n)}
		}
	}
	for _, s := range specs {
		insert(s.code, s.run, s.level)
	}
	insert(dctEscape, dctEsc, 0)
	return f
}

func (f *flatDCT) decode(r *bits.Reader) (run, level int, eob, ok bool) {
	e := f.lut[r.Peek(dctMaxLen)]
	switch e.run {
	case dctInvalid:
		return 0, 0, false, false
	case eobRun:
		r.Skip(int(e.len))
		return 0, 0, true, true
	case dctEsc:
		r.Skip(dctEscapeLen)
		run = int(r.Read(6))
		lv := int32(r.Read(12))
		if lv&0x800 != 0 {
			lv -= 0x1000
		}
		if lv == 0 || lv == -2048 {
			return 0, 0, false, false
		}
		return run, int(lv), false, true
	}
	r.Skip(int(e.len))
	run, level = int(e.run), int(e.level)
	if r.ReadBit() != 0 {
		level = -level
	}
	return run, level, false, true
}

// TestDCTTwoLevelMatchesFlat decodes every 16-bit window, followed by each
// sign bit, through the production tables and the flat oracle: symbol, bits
// consumed and underflow state must agree exactly, for decode and for the
// skim's skip. A second pass ends the buffer right after the window so that
// 16-bit codes lose their sign bit to underflow.
func TestDCTTwoLevelMatchesFlat(t *testing.T) {
	cases := []struct {
		name  string
		tab   *dctTable
		specs []dctSpec
	}{
		{"B-14", dctTableB14, b14Specs},
		{"B-14 first", dctTableB14First, b14First()},
		{"B-15", dctTableB15, b15Specs()},
	}
	for _, c := range cases {
		oracle := buildFlatDCT(t, c.specs)
		var buf [5]byte
		for w := 0; w < 1<<dctMaxLen; w++ {
			for tail := 0; tail < 3; tail++ {
				buf[0], buf[1] = byte(w>>8), byte(w)
				// tail 0/1: sign bit 0/1 followed by escape-field filler;
				// tail 2: the buffer ends after the window.
				buf[2], buf[3], buf[4] = byte(tail)<<7|0x2a, 0xa5, 0x5a
				data := buf[:]
				if tail == 2 {
					data = buf[:2]
				}
				ro, rn, rs := bits.NewReader(data), bits.NewReader(data), bits.NewReader(data)
				or, ol, oe, ook := oracle.decode(ro)
				nr, nl, ne, nok := c.tab.decode(rn)
				if or != nr || ol != nl || oe != ne || ook != nok || ro.BitPos() != rn.BitPos() || ro.Err() != rn.Err() {
					t.Fatalf("%s window %016b tail %d: decode %d/%d eob=%v ok=%v at bit %d err=%v, oracle %d/%d eob=%v ok=%v at bit %d err=%v",
						c.name, w, tail, nr, nl, ne, nok, rn.BitPos(), rn.Err(), or, ol, oe, ook, ro.BitPos(), ro.Err())
				}
				sr, sok := c.tab.skip(rs)
				if oe {
					or = eobRun
				}
				if sok != ook || (ook && sr != or) || rs.BitPos() != ro.BitPos() || rs.Err() != ro.Err() {
					t.Fatalf("%s window %016b tail %d: skip run %d ok=%v at bit %d err=%v, oracle run %d ok=%v at bit %d err=%v",
						c.name, w, tail, sr, sok, rs.BitPos(), rs.Err(), or, ook, ro.BitPos(), ro.Err())
				}
			}
		}
	}
}

// TestDCTTablesCacheResident pins the point of the two-level layout: every
// table fits in a few KB.
func TestDCTTablesCacheResident(t *testing.T) {
	for name, tab := range map[string]*dctTable{"B-14": dctTableB14, "B-14 first": dctTableB14First, "B-15": dctTableB15} {
		if n := len(tab.l1) + len(tab.l2); n > 8*256 {
			t.Errorf("%s: %d entries, want at most %d", name, n, 8*256)
		}
	}
}
