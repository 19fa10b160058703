package main

import (
	"math"
	"sort"

	"tiledwall/internal/mpeg2"
)

// readyUnits applies the ready-time rule to n pictures fed in decode order
// with the given types (types[j % len(types)] is picture j's type). ends[j %
// len(ends)] reports that unit j itself completes picture j (see
// endsOwnPicture). It returns, per picture, the index of the unit whose due
// time makes the picture ready; n stands for the Close call.
//
// The wall's scanner completes picture j at the next picture, GOP, sequence
// header or sequence end start code. Units are cut at picture start codes, so
// picture j completes with unit j when that unit carries a following GOP or
// sequence header or the sequence end, and with unit j+1 otherwise. A
// display-order emitter shows an I/P picture only once the next I/P picture
// has been decoded. So a B picture is ready when the unit that completes it
// is due, and an I/P picture when the unit that completes the next I/P
// picture is due. Pictures with no such unit are ready when Close is called.
// Timing from this point takes out the reorder delay the stream itself
// imposes on display.
func readyUnits(types []mpeg2.PictureType, ends []bool, n int) []int {
	complete := func(j int) int {
		if ends[j%len(ends)] {
			return j
		}
		return j + 1
	}
	ready := make([]int, n)
	next := n // decode index of the next anchor after j, scanning backwards
	for j := n - 1; j >= 0; j-- {
		r := complete(j)
		if types[j%len(types)] != mpeg2.PictureB {
			r = n
			if next < n {
				r = complete(next)
			}
			next = j
		}
		ready[j] = min(r, n)
	}
	return ready
}

// percentile returns the nearest-rank percentile of sorted samples, with
// the percentile given in hundredths of a percent (9900 is p99) so ranks are
// exact integers.
func percentile(sorted []float64, bp int) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), bp)]
}

// rank is the zero-based nearest-rank index of percentile bp among n samples.
func rank(n, bp int) int {
	i := (bp*n+9999)/10000 - 1
	if i < 0 {
		i = 0
	}
	return i
}

// tailPercentiles are the candidates summarize considers, lowest first, in
// hundredths of a percent.
var tailPercentiles = []int{5000, 9000, 9900, 9990, 9999}

// summary is a timing distribution reduced the way the report states it: the
// median and the highest percentile that still has at least ten samples
// beyond it, with the sample count.
type summary struct {
	N      int
	P50    float64
	TailBP int // percentile of Tail in hundredths of a percent; 0 if none
	Tail   float64
}

// summarize sorts samples in place and summarises them.
func summarize(samples []float64) summary {
	sort.Float64s(samples)
	s := summary{N: len(samples), P50: percentile(samples, 5000)}
	for _, bp := range tailPercentiles {
		if len(samples)-1-rank(len(samples), bp) >= 10 {
			s.TailBP, s.Tail = bp, percentile(samples, bp)
		}
	}
	return s
}
