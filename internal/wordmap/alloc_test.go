// Allocation gate for the same-size rehash. Excluded under the race
// detector, which instruments allocation behaviour.

//go:build !race

package wordmap

import "testing"

// TestSteadyChurnAllocatesNothing: a table that stores one ascending key
// and deletes an older one per step, never holding more than three, fills
// its shards with tombstones and rehashes them at the same size over and
// over; once every shard has its arrays, that churn allocates nothing.
func TestSteadyChurnAllocatesNothing(t *testing.T) {
	var m Map[*int]
	v := new(int)
	var key uint64
	churn := func() {
		for i := 0; i < 256; i++ {
			key++
			if key > 3 {
				if _, ok := m.LoadAndDelete(key - 3); !ok {
					t.Fatalf("key %d lost", key-3)
				}
			}
			m.Store(key, v)
		}
	}
	churn() // every shard gets its arrays
	if n := testing.AllocsPerRun(100, churn); n != 0 {
		t.Errorf("steady churn: %v allocs per run of 256 steps, want 0", n)
	}
	if m.Len() != 3 {
		t.Errorf("Len = %d, want 3", m.Len())
	}
}
