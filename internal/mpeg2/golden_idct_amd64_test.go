package mpeg2

import (
	"math"
	"math/rand"
	"testing"
)

// TestGoldenIDCTAVX2 holds the AVX2 kernel, called directly, to the generic
// IDCT on coefficients anywhere in int32, not just the dequantised range
// IDCTFast's callers produce. There the butterflies wrap, and rows and
// columns with no AC term show whether the kernel takes the scalar passes'
// shortcut lane by lane: on overflow the shortcut and the butterfly differ.
func TestGoldenIDCTAVX2(t *testing.T) {
	if !useAVX2 {
		t.Skip("host has no AVX2")
	}
	rng := rand.New(rand.NewSource(4805))
	edges := []int32{math.MaxInt32, math.MinInt32, 1 << 20, -1 << 20, 1 << 23, -1 << 23, 1 << 21, 2047, -2048, 1, -1}
	value := func() int32 {
		switch rng.Intn(3) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return int32(rng.Intn(4096) - 2048)
		}
		return int32(rng.Uint32())
	}
	check := func(name string, in *[64]int32) {
		t.Helper()
		want, got := *in, *in
		IDCT(&want)
		idctAVX2(&got)
		if got != want {
			t.Fatalf("%s: idctAVX2 differs from IDCT on %v:\nwant %v\ngot  %v", name, *in, want, got)
		}
	}
	for trial := 0; trial < 5000; trial++ {
		var blk [64]int32
		for i := range blk {
			blk[i] = value()
		}
		check("dense", &blk)

		// Sparse rows: a random subset of rows hold only their first
		// coefficient, so both passes mix shortcut and butterfly lanes.
		var sparse [64]int32
		for r := 0; r < 8; r++ {
			sparse[8*r] = value()
			if rng.Intn(2) == 0 {
				sparse[8*r+1+rng.Intn(7)] = value()
			}
		}
		check("sparse", &sparse)

		var dc [64]int32
		dc[0] = value()
		check("dc-only", &dc)
	}
	for _, v := range edges {
		var dc [64]int32
		dc[0] = v
		check("dc-edge", &dc)
	}
}
