package ursa

import "fmt"

// The search server's caps, for the backpressure tests.
const (
	MaxSearches = maxSearches
	SearchCalls = searchCalls
	MaxSubcalls = maxSearches * searchCalls
)

// LoopHoldings lists every string or slice the search server's serve loops
// still hold: between searches there should be none. Call it only while no
// search is being served.
func LoopHoldings(s *SearchServer) []string {
	var held []string
	for i := range s.loops {
		l := &s.loops[i]
		if l.req.Query != "" {
			held = append(held, fmt.Sprintf("loop %d: request %q", i, l.req.Query))
		}
		if l.lookup.Term != "" {
			held = append(held, fmt.Sprintf("loop %d: lookup body %q", i, l.lookup.Term))
		}
		if l.doc.Title != "" || l.doc.Text != "" {
			held = append(held, fmt.Sprintf("loop %d: fetched document %d %q", i, l.doc.ID, l.doc.Title))
		}
	}
	return held
}

// PooledScratch takes a round scratch from the search server's pool and
// puts it back. It reports whether a search has used it (it has storage)
// and what it still holds anywhere in that storage: a pooled scratch
// should hold nothing.
func PooledScratch(s *SearchServer) (used bool, held []string) {
	sc := s.scratch.Get().(*searchScratch)
	defer s.scratch.Put(sc)
	used = cap(sc.terms) > 0
	if n := len(sc.terms) + len(sc.lookups) + len(sc.hits); n > 0 {
		held = append(held, fmt.Sprintf("%d terms, lookups and hits in use", n))
	}
	for i, t := range sc.terms[:cap(sc.terms)] {
		if t != "" {
			held = append(held, fmt.Sprintf("term %d %q", i, t))
		}
	}
	for i, l := range sc.lookups[:cap(sc.lookups)] {
		if l.Term != "" || l.Postings != nil {
			held = append(held, fmt.Sprintf("lookup %d %q, %d postings", i, l.Term, len(l.Postings)))
		}
	}
	if len(sc.scores) > 0 {
		held = append(held, fmt.Sprintf("%d scores", len(sc.scores)))
	}
	for i, h := range sc.hits[:cap(sc.hits)] {
		if h != (Hit{}) {
			held = append(held, fmt.Sprintf("hit %d %+v", i, h))
		}
	}
	return used, held
}
