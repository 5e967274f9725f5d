// Excluded under the race detector, which instruments allocation.

//go:build !race

package machine

import "testing"

// The ComMod appends an image body straight into its pooled envelope: with
// room in the buffer that costs no allocation.
func TestAppendImageIntoWarmBufferAllocatesNothing(t *testing.T) {
	v := &nested{Head: record{A: 1, E: [4]byte{1}}, Tag: 2}
	buf := make([]byte, 0, 256)
	for _, m := range []Type{VAX, Sun68K, Apollo, Pyramid} {
		allocs := testing.AllocsPerRun(100, func() {
			var err error
			if buf, err = AppendImage(buf[:0], v, m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendImage on %v into a warm buffer: %.1f allocs, want 0", m, allocs)
		}
	}
}
