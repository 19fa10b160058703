package wall

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"tiledwall/internal/mpeg2"
)

func TestGeometryBasic(t *testing.T) {
	g, err := NewGeometry(1024, 768, 4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumTiles() != 16 {
		t.Fatalf("tiles = %d", g.NumTiles())
	}
	if err := g.CoverageCheck(); err != nil {
		t.Fatal(err)
	}
	// Without overlap every macroblock belongs to exactly one tile.
	var set []int
	for mby := 0; mby < 768/16; mby++ {
		for mbx := 0; mbx < 1024/16; mbx++ {
			set = g.TilesForMB(mbx, mby, set[:0])
			if len(set) != 1 {
				t.Fatalf("mb (%d,%d) in %d tiles without overlap", mbx, mby, len(set))
			}
			if set[0] != g.Owner(mbx, mby) {
				t.Fatalf("owner mismatch at (%d,%d)", mbx, mby)
			}
		}
	}
}

func TestGeometryOverlapReplicates(t *testing.T) {
	g, err := NewGeometry(1024, 768, 4, 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CoverageCheck(); err != nil {
		t.Fatal(err)
	}
	shared := 0
	var set []int
	for mby := 0; mby < 768/16; mby++ {
		for mbx := 0; mbx < 1024/16; mbx++ {
			set = g.TilesForMB(mbx, mby, set[:0])
			if len(set) > 1 {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Error("overlap produced no shared macroblocks")
	}
}

func TestGeometryErrors(t *testing.T) {
	if _, err := NewGeometry(100, 768, 2, 2, 0); err == nil {
		t.Error("non-MB-aligned width accepted")
	}
	if _, err := NewGeometry(1024, 768, 0, 2, 0); err == nil {
		t.Error("zero tiling accepted")
	}
	if _, err := NewGeometry(1024, 768, 2, 2, -1); err == nil {
		t.Error("negative overlap accepted")
	}
	if _, err := NewGeometry(32, 32, 8, 8, 0); err == nil {
		t.Error("tiles smaller than a macroblock accepted")
	}
}

func TestRect(t *testing.T) {
	r := Rect{16, 32, 48, 64}
	if r.W() != 32 || r.H() != 32 {
		t.Error("size wrong")
	}
	if !r.Contains(16, 32) || r.Contains(48, 64) {
		t.Error("half-open semantics broken")
	}
	if !r.Intersects(Rect{40, 60, 100, 100}) || r.Intersects(Rect{48, 32, 60, 64}) {
		t.Error("intersection broken")
	}
}

// Property: for random geometries every macroblock is covered and its owner
// covers it; rows of seams are monotone.
func TestGeometryInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := rng.Intn(6) + 1
		n := rng.Intn(4) + 1
		w := (m*4 + rng.Intn(40)) * 16
		h := (n*4 + rng.Intn(30)) * 16
		ov := rng.Intn(3) * 16
		g, err := NewGeometry(w, h, m, n, ov)
		if err != nil {
			return false
		}
		return g.CoverageCheck() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAssemble(t *testing.T) {
	g, err := NewGeometry(128, 64, 2, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Fill a reference image, split it into tile windows, reassemble.
	ref := mpeg2.NewPixelBuf(0, 0, 128, 64)
	for i := range ref.Y {
		ref.Y[i] = uint8(i * 7)
	}
	for i := range ref.Cb {
		ref.Cb[i] = uint8(i * 3)
		ref.Cr[i] = uint8(i*5 + 1)
	}
	tiles := make([]*mpeg2.PixelBuf, g.NumTiles())
	for t2 := range tiles {
		r := g.Tile(t2)
		buf := mpeg2.NewPixelBuf(r.X0, r.Y0, r.W(), r.H())
		buf.CopyRect(ref, r.X0, r.Y0, r.W(), r.H())
		tiles[t2] = buf
	}
	got, err := g.Assemble(tiles)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref.Y {
		if got.Y[i] != ref.Y[i] {
			t.Fatalf("luma mismatch at %d", i)
		}
	}
	for i := range ref.Cb {
		if got.Cb[i] != ref.Cb[i] || got.Cr[i] != ref.Cr[i] {
			t.Fatalf("chroma mismatch at %d", i)
		}
	}
}

func TestAssembleMissingTile(t *testing.T) {
	g, _ := NewGeometry(64, 64, 2, 2, 0)
	tiles := make([]*mpeg2.PixelBuf, 4)
	if _, err := g.Assemble(tiles); err == nil {
		t.Error("nil tile accepted")
	}
	if _, err := g.Assemble(tiles[:2]); err == nil {
		t.Error("short tile list accepted")
	}
}

func TestMBSpan(t *testing.T) {
	g, _ := NewGeometry(128, 64, 2, 2, 0)
	x0, x1, y0, y1 := g.MBSpan(0)
	if x0 != 0 || x1 != 3 || y0 != 0 || y1 != 1 {
		t.Errorf("tile 0 span %d..%d, %d..%d", x0, x1, y0, y1)
	}
	x0, x1, y0, y1 = g.MBSpan(3)
	if x0 != 4 || x1 != 7 || y0 != 2 || y1 != 3 {
		t.Errorf("tile 3 span %d..%d, %d..%d", x0, x1, y0, y1)
	}
}

// TestSharedGeometry: one value per tiling while it is cached, equal to a
// fresh NewGeometry; errors are not cached; the cache holds at most
// geoCacheSize tilings and a tiling pushed out is derived again.
func TestSharedGeometry(t *testing.T) {
	a, err := SharedGeometry(640, 352, 4, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := SharedGeometry(640, 352, 4, 4, 0); b != a {
		t.Fatal("same tiling, two values")
	}
	fresh, _ := NewGeometry(640, 352, 4, 4, 0)
	if !reflect.DeepEqual(a, fresh) {
		t.Fatal("shared geometry differs from NewGeometry's")
	}
	if c, _ := SharedGeometry(640, 352, 4, 4, 16); c == a {
		t.Fatal("another overlap, the same value")
	}
	for i := 0; i < 2; i++ {
		if _, err := SharedGeometry(100, 352, 4, 4, 0); err == nil {
			t.Fatal("invalid tiling accepted")
		}
	}
	for w := 1; w <= geoCacheSize; w++ {
		if _, err := SharedGeometry(w*16*4, 352, 4, 4, 0); err != nil {
			t.Fatal(err)
		}
	}
	if d, _ := SharedGeometry(640, 352, 4, 4, 0); d == a {
		t.Fatalf("cache kept more than %d tilings", geoCacheSize)
	}
	// Every node of a wall opens a session at once.
	var wg sync.WaitGroup
	got := make([]*Geometry, 17)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = SharedGeometry(1280, 704, 4, 4, 0)
		}()
	}
	wg.Wait()
	for _, g := range got {
		if g == nil || g != got[0] {
			t.Fatal("concurrent opens got different geometries")
		}
	}
}
