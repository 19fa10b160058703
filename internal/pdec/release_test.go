package pdec

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"tiledwall/internal/cluster"
	"tiledwall/internal/metrics"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/recovery"
	"tiledwall/internal/subpic"
)

// relStep is one picture handed to decodePicture, in decode order: its type
// and temporal reference, how it arrives, and whether it was shipped in
// I-only trick play.
type relStep struct {
	t     mpeg2.PictureType
	tr    int
	how   byte // 0 decoded, 'n' decoded NoEmit, 's' skip-marked, 'x' failed-split marker, 'c' concealed
	iOnly bool
	note  string
}

// steps parses "I0 P3 B1 B2s X B4c P6n I12o I24os": type, temporal reference
// and optional suffixes, 'o' for I-only play and one arrival letter; X is a
// failed-split marker with no picture header.
func steps(t *testing.T, spec string) []relStep {
	var out []relStep
	for _, f := range strings.Fields(spec) {
		st := relStep{note: f}
		if f == "X" {
			st.how = 'x'
			out = append(out, st)
			continue
		}
		st.t = map[byte]mpeg2.PictureType{'I': mpeg2.PictureI, 'P': mpeg2.PictureP, 'B': mpeg2.PictureB}[f[0]]
		rest := f[1:]
		for c := rest[len(rest)-1]; c < '0' || c > '9'; c = rest[len(rest)-1] {
			if c == 'o' {
				st.iOnly = true
			} else {
				st.how = c
			}
			rest = rest[:len(rest)-1]
		}
		if _, err := fmt.Sscan(rest, &st.tr); err != nil {
			t.Fatalf("step %q: %v", f, err)
		}
		out = append(out, st)
	}
	return out
}

// holdRule is the serial decoder's display order, the oracle: a B picture is
// shown when it is decoded, an anchor when the next anchor is decoded, when
// a concealed anchor takes its place, or at the end (step len(ss)). It
// returns the decode indices in emission order and the step each leaves at.
func holdRule(ss []relStep) (order []int, at map[int]int) {
	at = map[int]int{}
	held, heldEmit := -1, false
	emit := func(idx, step int) { order = append(order, idx); at[idx] = step }
	flush := func(step int) {
		if held >= 0 && heldEmit {
			emit(held, step)
		}
		held = -1
	}
	for i, s := range ss {
		switch {
		case s.how == 's' || s.how == 'x':
		case s.how == 'c':
			if s.t != mpeg2.PictureB {
				flush(i)
			}
			emit(i, i)
		case s.t == mpeg2.PictureB:
			if s.how != 'n' {
				emit(i, i)
			}
		default:
			flush(i)
			held, heldEmit = i, s.how != 'n'
		}
	}
	flush(len(ss))
	return order, at
}

// runRelease drives one decoder through ss and reports its emissions as
// holdRule does.
func runRelease(t *testing.T, ss []relStep, masking bool) (order []int, at map[int]int) {
	t.Helper()
	at = map[int]int{}
	step := 0
	cfg := ServeConfig{OnFrame: func(_, picIdx, _ int, buf *mpeg2.PixelBuf) {
		order = append(order, picIdx)
		at[picIdx] = step
		buf.Release()
	}}
	cfg.Grid.K = 1
	if masking {
		rec := &metrics.Recovery{}
		cfg.Recovery = &recovery.Incarnation{
			Cfg: recovery.Config{Enabled: true, PictureDeadline: time.Millisecond},
			Rec: func(int) *metrics.Recovery { return rec },
		}
	}
	d := testDecoder(t, cluster.New(2, cluster.Config{}).Port(1), cfg)
	for i, s := range ss {
		step = i
		sp := &subpic.SubPicture{}
		sp.Pic.Index = int32(i)
		if s.how != 'x' {
			sp.Pic.PicType = uint8(s.t)
			sp.Pic.TemporalRef = int32(s.tr)
			if s.t != mpeg2.PictureI {
				sp.Pic.FCode = [2][2]uint8{{3, 3}, {3, 3}}
			}
			if s.iOnly {
				sp.Pic.Flags = subpic.FlagIOnly
			}
		}
		switch s.how {
		case 'n':
			sp.NoEmit = true
		case 's', 'x':
			sp.Skipped = true
		case 'c':
			sp.Pic.DCPrecision = 7 // an invalid header: the picture is concealed
		}
		if err := d.decodePicture(sp); err != nil {
			t.Fatalf("picture %d (%s): %v", i, s.note, err)
		}
	}
	step = len(ss)
	d.Finish()
	return order, at
}

// TestReleaseRuleKeepsSerialOrder: over every shape of stream a tile meets,
// the display-order release rule emits exactly the frames the serial
// decoder's one-anchor hold emits, in the same order, none later; the
// pictures listed in early (decode indices) leave strictly earlier, every
// other one at the same step.
func TestReleaseRuleKeepsSerialOrder(t *testing.T) {
	cases := []struct {
		name  string
		spec  string
		early []int
	}{
		// The catalogue streams: temporal_reference never restarts, later
		// GOPs are open. Every anchor leaves early: I0 at once, the others
		// after their last B picture, P22 and P23 at once.
		{"catalogue", "I0 P3 B1 B2 P6 B4 B5 P9 B7 B8 I12 B10 B11 P15 B13 B14 P18 B16 B17 P21 B19 B20 P22 P23",
			[]int{0, 1, 4, 7, 10, 13, 16, 19, 22, 23}},
		// A closed GOP restarting tr at 0: its I leaves at once, like the
		// first.
		{"closed GOP resets tr", "I0 P3 B1 B2 P6 B4 B5 I0 P3 B1 B2 P4", []int{0, 1, 4, 7, 8, 11}},
		// An open GOP restarting tr: the I waits for its leading B pictures.
		{"open GOP resets tr", "I0 P3 B1 B2 P6 B4 B5 I2 B0 B1 P5 B3 B4", []int{0, 1, 4, 7, 10}},
		{"I-only, one GOP", "I0 I1 I2 I3", []int{0}},
		{"I-only, a GOP per picture", "I0 I0 I0 I0", []int{0, 1, 2, 3}},
		// I-only trick play shows each I at once whatever its tr. Back in
		// normal play, the next I has wrapped to tr 0 and its open GOP's
		// B1022 and B1023 are shown before it: the I-only pictures leave
		// no previous anchor to read that 0 against, so R2 releases it.
		{"I-only play, then a wrapped open GOP", "I1000o I1012o I0 B1022 B1023 P3 B1 B2",
			[]int{0, 1, 2, 5}},
		{"I-only play at tr 0, then a wrapped open GOP", "I0o I0o I0 B1022 B1023 P3",
			[]int{0, 1, 2}},
		// An unwatched tile gets the I-only pictures as skip markers; they
		// too leave the previous anchor unknown (read against I500, the
		// 0 would pass for a restart).
		{"I-only skip markers, then a wrapped open GOP", "I1000 I500os I0 B1022 B1023 P3",
			[]int{2}},
		{"IP-only", "I0 P1 P2 P3", []int{0, 1, 2, 3}},
		{"trailing P P", "I0 P3 B1 B2 P4 P5", []int{0, 1, 4, 5}},
		// tr wraps from 1023 to 0 inside the anchor-to-anchor gaps.
		{"wrap between a P and its B pictures", "I1017 P1020 B1018 B1019 P1023 B1021 B1022 P2 B0 B1 P5 B3 B4",
			[]int{1, 4, 7, 10}},
		// An I picture reaching tr 0 by a wrap: B1022 and B1023 are shown
		// before it, so it must not leave at once; after P1023 nothing is.
		{"wrap onto an I", "I1015 P1018 B1016 B1017 P1021 B1019 B1020 I0 B1022 B1023 P3 B1 B2",
			[]int{1, 4, 7, 10}},
		{"wrap onto an I after P1023", "I1017 P1020 B1018 B1019 P1023 B1021 B1022 I0 P3 B1 B2",
			[]int{1, 4, 7, 8}},
		{"NoEmit anchors", "I0 P3n B1 B2 P6n B4 B5 P9 B7 B8", []int{0, 7}},
		{"skip-marked B pictures", "I0 P3 B1s B2s P6 B4 B5 P9 B7s B8s", []int{0, 1, 4, 7}},
		// A failed split's marker has no header: it releases nothing (read
		// as a B with tr 0 it would release P1 ahead of B1023 and B0), and
		// P2 after it is not known to follow its previous anchor.
		{"failed-split marker", "I1020 P1 B1021 X B1023 B0 P2", []int{1}},
		// A concealed B releases nothing and leaves the previous anchor
		// unknown.
		{"concealed B", "I0 P3 B1 B2c P4", []int{0}},
	}
	for _, c := range cases {
		ss := steps(t, c.spec)
		wantOrder, wantAt := holdRule(ss)
		conceals := false
		for _, s := range ss {
			conceals = conceals || s.how == 'c'
		}
		for _, masking := range []bool{false, true} {
			if conceals && !masking {
				continue // fail-stop aborts instead of concealing
			}
			t.Run(fmt.Sprintf("%s/masking=%v", c.name, masking), func(t *testing.T) {
				order, at := runRelease(t, ss, masking)
				if !equalInts(order, wantOrder) {
					t.Fatalf("emission order %v, serial order %v", order, wantOrder)
				}
				early := map[int]bool{}
				for _, idx := range c.early {
					early[idx] = true
				}
				for _, idx := range order {
					switch got, hold := at[idx], wantAt[idx]; {
					case got > hold:
						t.Errorf("picture %d (%s) left at step %d, after the hold rule's %d", idx, ss[idx].note, got, hold)
					case early[idx] && got == hold:
						t.Errorf("picture %d (%s) left at step %d, no earlier than the hold rule", idx, ss[idx].note, got)
					case !early[idx] && got < hold:
						t.Errorf("picture %d (%s) left at step %d, earlier than the hold rule's %d", idx, ss[idx].note, got, hold)
					}
				}
				for idx := range early {
					if _, ok := at[idx]; !ok {
						t.Errorf("picture %d listed early was never emitted", idx)
					}
				}
			})
		}
	}
}
