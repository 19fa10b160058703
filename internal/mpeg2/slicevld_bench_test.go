package mpeg2_test

import (
	"sync"
	"testing"

	"tiledwall/internal/bits"
	"tiledwall/internal/catalog"
	"tiledwall/internal/mpeg2"
)

// vldBenchStream is catalogue stream 8 (fish4, the hd-4x4 wall's content)
// at quarter scale, twelve pictures: one GOP of I, P and B slices.
var vldBenchStream = sync.OnceValues(func() (*mpeg2.Stream, error) {
	spec, err := catalog.ByID(8)
	if err != nil {
		return nil, err
	}
	data, err := spec.Generate(catalog.GenOptions{Frames: 12, Scale: 4})
	if err != nil {
		return nil, err
	}
	return mpeg2.ParseStream(data)
})

// BenchmarkSliceVLD is the slice-VLD rung: every slice of the stream parsed
// by a SliceDecoder, in full (coefficients decoded and dequantised, as the
// tile decoders do) and in parse-only skim mode (as the splitter does).
// Reported per picture.
//
//	go test -run '^$' -bench SliceVLD -benchmem ./internal/mpeg2/
func BenchmarkSliceVLD(b *testing.B) {
	st, err := vldBenchStream()
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		skim bool
	}{{"full", false}, {"skim", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var (
				r    bits.Reader
				ph   mpeg2.PictureHeader
				ctx  mpeg2.PictureContext
				sd   mpeg2.SliceDecoder
				mb   mpeg2.Macroblock
				refs []mpeg2.SliceRef
			)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, unit := range st.Pictures {
					r.Reset(unit)
					off, err := mpeg2.ParsePictureUnitInto(&r, unit, &ph)
					if err != nil {
						b.Fatal(err)
					}
					if err := ctx.Init(st.Seq, &ph); err != nil {
						b.Fatal(err)
					}
					refs = mpeg2.IndexSlices(st.Seq, unit, off, refs[:0])
					for _, ref := range refs {
						if err := sd.ResetFullAt(&ctx, &r, unit, ref); err != nil {
							b.Fatal(err)
						}
						sd.SetParseOnly(mode.skim)
						for {
							ok, err := sd.Next(&mb)
							if err != nil {
								b.Fatal(err)
							}
							if !ok {
								break
							}
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N*len(st.Pictures)), "ms/picture")
		})
	}
}
