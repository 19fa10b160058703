package mpeg2

import (
	"math/rand"
	"testing"
)

// The golden-kernel IDCT suite: IDCTFast must be bit-exact — not close —
// against the generic IDCT for every coefficient class it can be dispatched
// on, under both the exact mask (ACMaskOf) and conservatively overset masks.
// Each block also goes through idctFastGo directly, so hosts whose IDCTFast
// takes the AVX2 kernel still test the pure-Go mask dispatch.

func requireSameBlock(t *testing.T, name string, in *[64]int32, mask uint8) {
	t.Helper()
	ref := *in
	IDCT(&ref)
	for _, k := range []struct {
		name string
		idct func(*[64]int32, uint8)
	}{{"IDCTFast", IDCTFast}, {"idctFastGo", idctFastGo}} {
		fast := *in
		k.idct(&fast, mask)
		if fast != ref {
			for i := range ref {
				if ref[i] != fast[i] {
					t.Fatalf("%s %s (mask %08b): first divergence at position %d: ref %d fast %d\ninput %v",
						k.name, name, mask, i, ref[i], fast[i], *in)
				}
			}
		}
	}
}

func TestGoldenIDCTAllZero(t *testing.T) {
	var blk [64]int32
	requireSameBlock(t, "all-zero", &blk, 0)
}

func TestGoldenIDCTDCOnlySweep(t *testing.T) {
	// Every representable DC value after dequantisation sign/saturation.
	for dc := int32(-2048); dc <= 2047; dc++ {
		var blk [64]int32
		blk[0] = dc
		requireSameBlock(t, "dc-only", &blk, 0)
	}
}

func TestGoldenIDCTSingleAC(t *testing.T) {
	levels := []int32{-2048, -256, -7, -1, 1, 3, 255, 2047}
	for pos := 1; pos < 64; pos++ {
		for _, lv := range levels {
			var blk [64]int32
			blk[pos] = lv
			requireSameBlock(t, "single-ac", &blk, ACMaskOf(&blk))
			// An overset mask must not change the result.
			requireSameBlock(t, "single-ac-overset", &blk, ACMaskOf(&blk)|0x0f)
			requireSameBlock(t, "single-ac-dense-mask", &blk, 0xff)
		}
	}
}

func TestGoldenIDCTSingleACWithDC(t *testing.T) {
	for pos := 1; pos < 64; pos++ {
		for _, dc := range []int32{-2048, -1, 1, 64, 2047} {
			var blk [64]int32
			blk[0] = dc
			blk[pos] = 17
			requireSameBlock(t, "dc+single-ac", &blk, ACMaskOf(&blk))
		}
	}
}

func TestGoldenIDCTTopRows(t *testing.T) {
	rng := rand.New(rand.NewSource(4801))
	for trial := 0; trial < 5000; trial++ {
		var blk [64]int32
		// Random occupancy confined to rows 0..3.
		n := 1 + rng.Intn(32)
		for k := 0; k < n; k++ {
			blk[rng.Intn(32)] = int32(rng.Intn(4096) - 2048)
		}
		requireSameBlock(t, "top-rows", &blk, ACMaskOf(&blk))
		requireSameBlock(t, "top-rows-overset", &blk, 0x0f)
	}
}

func TestGoldenIDCTDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(4802))
	for trial := 0; trial < 5000; trial++ {
		var blk [64]int32
		for i := range blk {
			blk[i] = int32(rng.Intn(4096) - 2048)
		}
		requireSameBlock(t, "dense", &blk, ACMaskOf(&blk))
	}
}

func TestGoldenIDCTSaturationExtremes(t *testing.T) {
	patterns := []int32{-2048, 2047}
	for _, a := range patterns {
		for _, b := range patterns {
			var blk [64]int32
			for i := range blk {
				if i%2 == 0 {
					blk[i] = a
				} else {
					blk[i] = b
				}
			}
			requireSameBlock(t, "saturation", &blk, ACMaskOf(&blk))

			var top [64]int32
			copy(top[:32], blk[:32])
			requireSameBlock(t, "saturation-top", &top, ACMaskOf(&top))
		}
	}
}

// TestGoldenIDCTMaskContract verifies the VLD-facing contract: for random
// sparse blocks, any mask that covers ACMaskOf (bitwise superset) yields the
// reference transform.
func TestGoldenIDCTMaskContract(t *testing.T) {
	rng := rand.New(rand.NewSource(4803))
	for trial := 0; trial < 2000; trial++ {
		var blk [64]int32
		n := rng.Intn(8)
		for k := 0; k < n; k++ {
			blk[rng.Intn(64)] = int32(rng.Intn(512) - 256)
		}
		exact := ACMaskOf(&blk)
		over := exact | uint8(rng.Intn(256))
		requireSameBlock(t, "mask-contract", &blk, over)
	}
}

// TestGoldenIDCTTopRowsLast covers the dispatch class of blocks whose rows
// 4..6 are zero but row 7 is not — in the decoder, chiefly low-frequency
// blocks whose coefficient 63 mismatch control toggled. It runs every
// occupancy pattern of rows 0..3 and 7, every ±1 coefficient-63 toggle over
// random rows 0..3 (alone and with the rest of row 7 populated), every
// single row-7 coefficient, and saturated rows, each under the exact mask
// and overset masks.
func TestGoldenIDCTTopRowsLast(t *testing.T) {
	rng := rand.New(rand.NewSource(4804))
	check := func(name string, blk *[64]int32) {
		t.Helper()
		m := ACMaskOf(blk)
		requireSameBlock(t, name, blk, m)
		requireSameBlock(t, name+"-overset", blk, m|0x8f)
		requireSameBlock(t, name+"-dense-mask", blk, 0xff)
	}
	randomRow := func(blk *[64]int32, r int, lim int) {
		for c := 0; c < 8; c++ {
			if rng.Intn(3) == 0 {
				blk[8*r+c] = int32(rng.Intn(2*lim) - lim)
			}
		}
	}
	for trial := 0; trial < 500; trial++ {
		// Every subset of rows 0..3 and 7 (the class's row-pass patterns).
		for rows := 0; rows < 32; rows++ {
			var blk [64]int32
			blk[0] = int32(rng.Intn(4096) - 2048)
			for k, r := range []int{0, 1, 2, 3, 7} {
				if rows&(1<<uint(k)) != 0 {
					randomRow(&blk, r, 2048)
				}
			}
			check("row-subset", &blk)
		}
		// Random rows 0..3 with each ±1 toggle of coefficient 63.
		var top [64]int32
		for r := 0; r < 4; r++ {
			randomRow(&top, r, 1+rng.Intn(2048))
		}
		for _, v := range []int32{1, -1} {
			blk := top
			blk[63] = v
			check("toggle-63", &blk)
			randomRow(&blk, 7, 64)
			blk[63] = v
			check("toggle-63-row7", &blk)
		}
	}
	for pos := 56; pos < 64; pos++ {
		for _, dc := range []int32{-2048, 0, 1, 2047} {
			for _, lv := range []int32{-2048, -1, 1, 2047} {
				var blk [64]int32
				blk[0] = dc
				blk[pos] = lv
				check("single-row7", &blk)
			}
		}
	}
	for _, a := range []int32{-2048, 2047} {
		for _, b := range []int32{-2048, 2047} {
			var blk [64]int32
			for i := range blk {
				if r := i >> 3; r < 4 || r == 7 {
					blk[i] = a
					if i%2 == 1 {
						blk[i] = b
					}
				}
			}
			check("saturation-top-last", &blk)
		}
	}
}
