package splitter

import (
	"bytes"
	"fmt"
	"testing"
)

// TestSplitRecoversAfterCorruptPicture: a resident splitter keeps splitting a
// session's later pictures after one of them fails to parse (the session is
// failed upstream, but pictures already queued still arrive). A slice that
// errors part-way must leave no open piece behind in the worker: the next
// picture's output has to equal a fresh splitter's, byte for byte.
func TestSplitRecoversAfterCorruptPicture(t *testing.T) {
	s, _ := makeStream(t, 192, 128, 7)
	geo := geometry(t, s, 2, 2, 0)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ms := NewMBSplitterOpts(s.Seq, geo, SplitOptions{Workers: workers, Reuse: true})
			defer ms.Close()
			failed := 0
			for pi := 0; pi+1 < len(s.Pictures); pi++ {
				bad := append([]byte(nil), s.Pictures[pi]...)
				for i := len(bad) * 3 / 5; i < len(bad)*4/5; i++ {
					bad[i] = 0xFF
				}
				if _, err := ms.Split(bad, pi); err == nil {
					continue
				}
				failed++
				next := s.Pictures[pi+1]
				got, err := ms.Split(next, pi+1)
				if err != nil {
					t.Fatalf("pic %d after a corrupt picture: %v", pi+1, err)
				}
				want, err := NewMBSplitter(s.Seq, geo).Split(next, pi+1)
				if err != nil {
					t.Fatal(err)
				}
				wb, gb := marshalAll(t, want), marshalAll(t, got)
				for tile := range wb {
					if !bytes.Equal(wb[tile], gb[tile]) {
						t.Fatalf("pic %d tile %d: split after a corrupt picture diverges from a fresh splitter", pi+1, tile)
					}
				}
			}
			if failed == 0 {
				t.Fatal("no corrupted picture failed to split; the test exercised nothing")
			}
		})
	}
}
