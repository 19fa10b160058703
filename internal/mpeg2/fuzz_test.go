package mpeg2_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"tiledwall/internal/bits"
	"tiledwall/internal/encoder"
	"tiledwall/internal/mpeg2"
	"tiledwall/internal/video"
)

// fuzzStream lazily encodes one small deterministic stream shared by the
// fuzz targets as seed material.
var fuzzStream = sync.OnceValue(func() []byte {
	cfg := encoder.Config{Width: 64, Height: 48, GOPSize: 4, BSpacing: 2, InitialQScale: 6}
	src := video.NewSource(video.SceneFilm, 64, 48, 7)
	e, err := encoder.New(cfg)
	if err != nil {
		panic(err)
	}
	for i := 0; i < 5; i++ {
		if err := e.Push(src.Frame(i)); err != nil {
			panic(err)
		}
	}
	if err := e.Flush(); err != nil {
		panic(err)
	}
	return e.Bytes()
})

// requireTyped asserts every decode failure is one of the package's typed
// sentinels — the contract the conformance harness leans on.
func requireTyped(t *testing.T, err error) {
	t.Helper()
	if err == nil {
		return
	}
	if !errors.Is(err, mpeg2.ErrCorruptStream) && !errors.Is(err, mpeg2.ErrUnsupported) {
		t.Fatalf("error is neither ErrCorruptStream nor ErrUnsupported: %v", err)
	}
}

// FuzzSequenceHeader exercises stream indexing and sequence/extension header
// parsing on arbitrary bytes.
func FuzzSequenceHeader(f *testing.F) {
	s := fuzzStream()
	f.Add(s[:min(64, len(s))])
	f.Add([]byte{0x00, 0x00, 0x01, 0xb3, 0x04, 0x00, 0x30, 0x12, 0x34, 0x56, 0x78, 0x9a})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := mpeg2.ParseStream(data)
		requireTyped(t, err)
		if err == nil && (st.Seq.MBWidth() <= 0 || st.Seq.MBHeight() <= 0) {
			t.Fatalf("accepted sequence header with empty picture %dx%d", st.Seq.Width, st.Seq.Height)
		}
	})
}

// FuzzPictureHeader exercises picture header + coding extension parsing up
// to the first slice.
func FuzzPictureHeader(f *testing.F) {
	st, err := mpeg2.ParseStream(fuzzStream())
	if err != nil {
		f.Fatal(err)
	}
	for _, unit := range st.Pictures[:2] {
		f.Add(unit)
	}
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x00, 0x08, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _, err := mpeg2.ParsePictureUnit(data)
		requireTyped(t, err)
	})
}

// FuzzVLC decodes one slice of arbitrary bytes under every VLC table
// configuration: the first byte selects picture type, quantiser scale type,
// intra VLC table (B-14 vs B-15), alternate scan and DC precision, so all
// macroblock-type, CBP, motion and DCT coefficient tables get hit. The slice
// decoder must terminate with a typed error or a complete slice — never
// panic, never loop — and the parse-only skim must match the full parse
// macroblock for macroblock.
func FuzzVLC(f *testing.F) {
	st, err := mpeg2.ParseStream(fuzzStream())
	if err != nil {
		f.Fatal(err)
	}
	// Seed with real slice payloads (bytes past the first slice start code)
	// under a few table selectors.
	for i, unit := range st.Pictures[:3] {
		if off := sliceOffset(unit); off > 0 {
			f.Add([]byte{byte(i)}, unit[off:])
		}
	}
	f.Add([]byte{0x05}, []byte{0x0a, 0xff, 0x00, 0x12})
	f.Fuzz(func(t *testing.T, sel []byte, data []byte) {
		if len(sel) < 1 {
			return
		}
		flags := sel[0]
		seq := &mpeg2.SequenceHeader{
			Width: 64, Height: 48,
			IntraQ:    mpeg2.DefaultIntraQuantMatrix,
			NonIntraQ: mpeg2.DefaultNonIntraQuantMatrix,
		}
		pic := &mpeg2.PictureHeader{
			PicType:          mpeg2.PictureType(1 + flags%3),
			PictureStructure: 3,
			FramePredDCT:     true,
			IntraDCPrecision: int(flags>>2) % 4,
			QScaleType:       flags&(1<<4) != 0,
			IntraVLCFormat:   flags&(1<<5) != 0,
			AlternateScan:    flags&(1<<6) != 0,
			FCode:            [2][2]int{{2, 1}, {1, 2}},
		}
		ctx, err := mpeg2.NewPictureContext(seq, pic)
		if err != nil {
			requireTyped(t, err)
			return
		}
		// A full decoder and a parse-only (skimming) one run in lockstep
		// over the same bytes: they must agree on every macroblock field the
		// splitter reads, and fail with the same error at the same bit.
		vpos := 1 + int(flags>>7)*2
		r, rs := bits.NewReader(data), bits.NewReader(data)
		sd, err := mpeg2.NewSliceDecoder(ctx, r, vpos)
		if err != nil {
			requireTyped(t, err)
			return
		}
		ss, err := mpeg2.NewSliceDecoder(ctx, rs, vpos)
		if err != nil {
			t.Fatalf("second slice decoder over the same bytes failed: %v", err)
		}
		ss.SetParseOnly(true)
		var mb, ms mpeg2.Macroblock
		limit := ctx.MBW*ctx.MBH + 2
		for i := 0; ; i++ {
			if i > limit {
				t.Fatalf("slice decoder did not terminate within %d macroblocks", limit)
			}
			ok, err := sd.Next(&mb)
			oks, errs := ss.Next(&ms)
			if ok != oks || fmt.Sprint(err) != fmt.Sprint(errs) || r.BitPos() != rs.BitPos() {
				t.Fatalf("mb %d: full ok=%v err=%v at bit %d, skim ok=%v err=%v at bit %d",
					i, ok, err, r.BitPos(), oks, errs, rs.BitPos())
			}
			if err != nil {
				requireTyped(t, err)
				requireTyped(t, errs)
				return
			}
			if !ok {
				return
			}
			if !sameParse(&mb, &ms) || sd.State() != ss.State() || sd.PrevMotion() != ss.PrevMotion() {
				t.Fatalf("mb %d: full parse %+v, skim %+v", i, mb, ms)
			}
		}
	})
}

// sameParse compares everything but the coefficient payload (Blocks,
// ACMask) of two parses of one macroblock.
func sameParse(a, b *mpeg2.Macroblock) bool {
	return a.BitStart == b.BitStart && a.BitEnd == b.BitEnd &&
		a.Addr == b.Addr && a.SkippedBefore == b.SkippedBefore &&
		a.StateBefore == b.StateBefore && a.PrevMotion == b.PrevMotion &&
		a.Flags == b.Flags && a.QuantCode == b.QuantCode &&
		a.MVFwd == b.MVFwd && a.MVBwd == b.MVBwd && a.CBP == b.CBP
}

// FuzzDecodePictureUnit runs full picture reconstruction — VLD, dequant,
// IDCT, motion compensation — over an arbitrary picture unit against real
// reference frames, checking the no-panic/typed-error contract of the
// complete decode path.
func FuzzDecodePictureUnit(f *testing.F) {
	st, err := mpeg2.ParseStream(fuzzStream())
	if err != nil {
		f.Fatal(err)
	}
	for _, unit := range st.Pictures[:3] {
		f.Add(unit)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		seq := &mpeg2.SequenceHeader{
			Width: 64, Height: 48,
			IntraQ:    mpeg2.DefaultIntraQuantMatrix,
			NonIntraQ: mpeg2.DefaultNonIntraQuantMatrix,
		}
		w, h := seq.MBWidth()*16, seq.MBHeight()*16
		fwd := mpeg2.NewPixelBuf(0, 0, w, h)
		bwd := mpeg2.NewPixelBuf(0, 0, w, h)
		dst := mpeg2.NewPixelBuf(0, 0, w, h)
		_, err := mpeg2.DecodePictureUnit(seq, data, fwd, bwd, dst)
		requireTyped(t, err)
	})
}

// FuzzStream decodes whole arbitrary streams through the display-order
// decoder, with a dimension guard so the fuzzer cannot demand multi-gigabyte
// frame allocations.
func FuzzStream(f *testing.F) {
	f.Add(fuzzStream())
	f.Add([]byte{0x00, 0x00, 0x01, 0xb3})
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := mpeg2.ParseStream(data)
		if err != nil {
			requireTyped(t, err)
			return
		}
		if st.Seq.MBWidth()*st.Seq.MBHeight() > 64*64 || len(st.Pictures) > 64 {
			return // syntactically valid but too large to reconstruct per-exec
		}
		dec := mpeg2.NewStreamDecoder(st)
		_, err = dec.DecodeAll()
		requireTyped(t, err)

		// The resilient decoder must additionally never fail outright.
		rd, err := mpeg2.NewResilientDecoder(data)
		if err != nil {
			requireTyped(t, err)
			return
		}
		if _, err := rd.DecodeAll(); err != nil {
			t.Fatalf("resilient decode failed: %v", err)
		}
	})
}

// sliceOffset returns the byte offset of the first slice payload (just past
// its start code) in a picture unit, or -1.
func sliceOffset(unit []byte) int {
	for off := bits.NextStartCode(unit, 0); off >= 0; off = bits.NextStartCode(unit, off+4) {
		if bits.IsSliceStartCode(unit[off+3]) {
			return off + 4
		}
	}
	return -1
}

// FuzzIDCTFast holds the mask-dispatched transform to the generic one on
// arbitrary sparse blocks. Each three input bytes place one coefficient: a
// raster position and a 16-bit level clamped to the dequantised range
// [-2048, 2047]; later placements overwrite earlier ones.
func FuzzIDCTFast(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0xd2, 0x04})                                // DC only
	f.Add([]byte{0, 0x40, 0x00, 63, 0x01, 0x00})                // DC + toggled coefficient 63
	f.Add([]byte{1, 0x10, 0x00, 9, 0xf0, 0xff, 63, 0xff, 0xff}) // rows 0..1 and a -1 at 63
	f.Add([]byte{27, 0xff, 0x07, 36, 0x00, 0xf8})               // rows 3 and 4
	f.Fuzz(func(t *testing.T, data []byte) {
		var blk [64]int32
		for ; len(data) >= 3; data = data[3:] {
			v := int32(int16(uint16(data[1]) | uint16(data[2])<<8))
			blk[data[0]%64] = max(-2048, min(2047, v))
		}
		want, got := blk, blk
		mpeg2.IDCT(&want)
		mpeg2.IDCTFast(&got, mpeg2.ACMaskOf(&blk))
		if got != want {
			t.Fatalf("IDCTFast (mask %08b) differs from IDCT on %v:\nwant %v\ngot  %v", mpeg2.ACMaskOf(&blk), blk, want, got)
		}
	})
}
