package ursa

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// TestRankHitsMatchesFullSort: the bounded selection ranks exactly as a
// full sort truncated to the limit would — score descending, then DocID
// ascending — on inputs crowded with tied scores, for limits below,
// at and above the number of hits.
func TestRankHitsMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for round := 0; round < 500; round++ {
		n := rng.Intn(300)
		hits := make([]Hit, n)
		for i, id := range rng.Perm(n) {
			// Four scores among up to 300 hits: ties everywhere.
			hits[i] = Hit{DocID: int64(id + 1), Score: int64(rng.Intn(4)) * 1000}
		}
		want := slices.Clone(hits)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Score != want[j].Score {
				return want[i].Score > want[j].Score
			}
			return want[i].DocID < want[j].DocID
		})
		for _, k := range []int{0, 1, 5, n, n + 1} {
			got := rankHits(slices.Clone(hits), int64(k))
			w := want
			if k > 0 && k < n {
				w = want[:k]
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("n=%d limit=%d:\n got %v\nwant %v", n, k, got, w)
			}
		}
	}
}

// TestPostingsAreAppendOnly pins the invariant lookup replies rely on: a
// view taken before more documents are indexed still reads what it read,
// the fresh view extends it, and Lookup hands out a copy the index does
// not share.
func TestPostingsAreAppendOnly(t *testing.T) {
	s := &IndexServer{postings: make(map[string][]Posting)}
	s.index([]Document{{ID: 1, Text: "circuit circuit"}, {ID: 2, Text: "circuit gateway"}})
	old := s.view("circuit")
	snapshot := slices.Clone(old)
	if cap(old) != len(old) {
		t.Errorf("view has spare capacity %d > %d: an append through it would write into the index", cap(old), len(old))
	}
	s.index([]Document{{ID: 3, Text: "circuit"}, {ID: 4, Text: "circuit"}})
	if !reflect.DeepEqual(old, snapshot) {
		t.Fatalf("indexing rewrote a published view: %v, was %v", old, snapshot)
	}
	fresh := s.view("circuit")
	if len(fresh) != 4 || !reflect.DeepEqual(fresh[:len(snapshot)], snapshot) {
		t.Fatalf("fresh view %v does not extend %v", fresh, snapshot)
	}
	cp := s.Lookup("circuit")
	cp[0].Freq = -1
	if s.view("circuit")[0].Freq == -1 {
		t.Error("Lookup returned the index's own array, not a copy")
	}
	if s.view("absent") != nil || s.Lookup("absent") != nil {
		t.Error("an unknown term has postings")
	}
}
