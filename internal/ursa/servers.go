package ursa

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"ntcs/internal/addr"
	"ntcs/internal/core"
)

// IndexServer is the index-lookup backend: an inverted index.
//
// A term's postings list is append-only: index appends to it under the
// write lock and never rewrites, reorders or truncates a posting it has
// published. A reader that took a list's slice header under the read lock
// may therefore keep reading its first len postings after unlocking: later
// appends only write past that length, or into a new array. That is what
// lets a lookup reply encode a view of the list rather than a copy.
type IndexServer struct {
	m *core.Module

	mu       sync.RWMutex
	postings map[string][]Posting // append-only lists, see above
	docs     int64
	requests atomic.Int64

	// The serve loop's own lookup request and reply, reused for every
	// lookup: Serve encodes the reply before the loop takes its next
	// message, so the loop may answer with a pointer to its own storage.
	lookup IndexLookupRequest
	found  IndexLookupReply
}

// NewIndexServer wraps an attached module as an index backend and starts
// serving.
func NewIndexServer(m *core.Module) *IndexServer {
	s := &IndexServer{m: m, postings: make(map[string][]Posting)}
	go m.Serve(s.handle)
	return s
}

func (s *IndexServer) handle(d *core.Delivery) (string, any, error) {
	s.requests.Add(1)
	switch d.Type {
	case MsgIngest:
		var req IngestRequest
		if err := d.Decode(&req); err != nil {
			return "", nil, err
		}
		s.index(req.Docs)
		return MsgIngest, IngestReply{Count: int64(len(req.Docs))}, nil
	case MsgIndexLookup:
		if err := d.Decode(&s.lookup); err != nil {
			return "", nil, err
		}
		s.found = IndexLookupReply{Term: s.lookup.Term, Postings: s.view(s.lookup.Term)}
		return MsgIndexLookup, &s.found, nil
	case MsgStats:
		s.mu.RLock()
		items := s.docs
		s.mu.RUnlock()
		return MsgStats, StatsReply{Requests: s.requests.Load(), Items: items}, nil
	}
	return "", nil, errors.New("ursa-index: unknown request " + d.Type)
}

// index merges documents into the inverted index.
func (s *IndexServer) index(docs []Document) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var terms []string
	freqs := make(map[string]int64)
	for _, doc := range docs {
		terms = appendTokens(appendTokens(terms[:0], doc.Title), doc.Text)
		for _, term := range terms {
			freqs[term]++
		}
		for term, f := range freqs {
			s.postings[term] = append(s.postings[term], Posting{DocID: doc.ID, Freq: f})
		}
		clear(freqs)
		s.docs++
	}
}

// Lookup returns a copy of a term's postings list.
func (s *IndexServer) Lookup(term string) []Posting {
	return slices.Clone(s.view(term))
}

// view returns a term's postings list without copying it, valid for
// reading only. The list is append-only (see IndexServer), and the
// view's capacity is clipped to its length, so an append through it
// cannot write into the index's array either.
func (s *IndexServer) view(term string) []Posting {
	s.mu.RLock()
	src := s.postings[term]
	s.mu.RUnlock()
	return src[:len(src):len(src)]
}

// Terms returns the vocabulary size.
func (s *IndexServer) Terms() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.postings)
}

// DocServer is the document-retrieval backend.
//
// A stored Document is never written again: a re-ingest replaces the map's
// pointer, not the document it pointed to. A fetch may therefore answer
// with the stored pointer after unlocking, and the reply is encoded from it
// without a copy.
type DocServer struct {
	m *core.Module

	mu       sync.RWMutex
	docs     map[int64]*Document // immutable once stored, see above
	requests atomic.Int64

	fetch FetchRequest // the serve loop's own, reused for every fetch
}

// NewDocServer wraps an attached module as a document backend and starts
// serving.
func NewDocServer(m *core.Module) *DocServer {
	s := &DocServer{m: m, docs: make(map[int64]*Document)}
	go m.Serve(s.handle)
	return s
}

func (s *DocServer) handle(d *core.Delivery) (string, any, error) {
	s.requests.Add(1)
	switch d.Type {
	case MsgIngest:
		// A fresh request every time: the stored documents are its own.
		var req IngestRequest
		if err := d.Decode(&req); err != nil {
			return "", nil, err
		}
		s.mu.Lock()
		for i := range req.Docs {
			s.docs[req.Docs[i].ID] = &req.Docs[i]
		}
		s.mu.Unlock()
		return MsgIngest, IngestReply{Count: int64(len(req.Docs))}, nil
	case MsgFetch:
		if err := d.Decode(&s.fetch); err != nil {
			return "", nil, err
		}
		s.mu.RLock()
		doc, ok := s.docs[s.fetch.DocID]
		s.mu.RUnlock()
		if !ok {
			return "", nil, fmt.Errorf("ursa-docs: no document %d", s.fetch.DocID)
		}
		return MsgFetch, doc, nil
	case MsgStats:
		s.mu.RLock()
		items := int64(len(s.docs))
		s.mu.RUnlock()
		return MsgStats, StatsReply{Requests: s.requests.Load(), Items: items}, nil
	}
	return "", nil, errors.New("ursa-docs: unknown request " + d.Type)
}

// searchCalls is the room of one serve loop's call set: the sub-calls one
// search keeps in flight at most. Eight covers a round of the usual query
// (a few terms, then five or ten hits, the first five at once); a wider
// round sends the rest as replies come in. The maxSearches loops' sets
// bound a server's outstanding sub-calls at 128, half a backend's default
// LCM inbox; the other half is left to the backend's other callers.
const (
	searchCalls = 8
	maxSearches = 128 / searchCalls
)

// SearchServer orchestrates queries across the other backends. Searches
// are served concurrently, by maxSearches serve loops, because a search
// spends its time waiting for the other two servers; those never wait and
// stay one serve loop each. A search runs on its serve loop from start to
// finish: it keeps its sub-calls in flight in the loop's own call set and
// collects their replies there, so no goroutine is started per sub-call.
type SearchServer struct {
	m *core.Module

	// The backends this search instance consults — shard-local names in
	// a sharded deployment, the classic singletons otherwise.
	indexName string
	docName   string

	mu     sync.Mutex
	indexU addr.UAdd
	docsU  addr.UAdd

	requests atomic.Int64

	loops   [maxSearches]searchLoop
	scratch sync.Pool // of *searchScratch
}

// searchLoop is one serve loop's own storage, reused by every search it
// serves: the request decodes into req, each sub-call's body is written
// into lookup or fetch and encoded by Start, and each fetch's reply
// decodes into doc (Next decodes before it returns). None of it grows with
// the query. The fields that hold strings are zeroed when a search ends,
// so a loop parked between searches pins no message.
type searchLoop struct {
	calls  *core.Calls
	req    SearchRequest
	lookup IndexLookupRequest
	fetch  FetchRequest
	doc    Document
}

// searchScratch is what a search needs that grows with its query. It is
// pooled rather than kept per loop: the inbox hands messages to the loops
// in turn, so every loop would come to keep the largest scratch it had
// seen. Everything in it is cleared before it goes back.
type searchScratch struct {
	terms   []string
	lookups []IndexLookupReply // lookups[i] is terms[i]'s reply
	scores  map[int64]int64
	hits    []Hit // every candidate; the reply is a clone of the best
}

// release clears sc, keeping its storage, and returns it to the pool.
func (s *SearchServer) release(sc *searchScratch) {
	clear(sc.terms)
	clear(sc.lookups)
	clear(sc.scores)
	clear(sc.hits)
	sc.terms, sc.lookups, sc.hits = sc.terms[:0], sc.lookups[:0], sc.hits[:0]
	s.scratch.Put(sc)
}

// NewSearchServer wraps an attached module as the search backend and
// starts serving against the classic singleton backends.
func NewSearchServer(m *core.Module) *SearchServer {
	return NewSearchServerFor(m, IndexServerName, DocServerName)
}

// NewSearchServerFor is NewSearchServer bound to explicit backend names —
// one search shard talking to its own index/doc shard.
func NewSearchServerFor(m *core.Module, indexName, docName string) *SearchServer {
	s := &SearchServer{m: m, indexName: indexName, docName: docName}
	s.scratch.New = func() any { return &searchScratch{scores: make(map[int64]int64)} }
	for i := range s.loops {
		l := &s.loops[i]
		l.calls = m.NewCalls(searchCalls)
		go m.Serve(func(d *core.Delivery) (string, any, error) { return s.handle(l, d) })
	}
	return s
}

// Requests reports how many requests the server's serve loops have taken.
func (s *SearchServer) Requests() int64 { return s.requests.Load() }

func (s *SearchServer) handle(l *searchLoop, d *core.Delivery) (string, any, error) {
	s.requests.Add(1)
	switch d.Type {
	case MsgSearch:
		var reply SearchReply
		err := d.Decode(&l.req)
		if err == nil {
			reply, err = s.search(l)
		}
		l.req, l.lookup, l.doc = SearchRequest{}, IndexLookupRequest{}, Document{}
		return MsgSearch, reply, err
	case MsgStats:
		return MsgStats, StatsReply{Requests: s.requests.Load()}, nil
	}
	return "", nil, errors.New("ursa-search: unknown request " + d.Type)
}

// locate resolves a backend once, caching the UAdd; relocation thereafter
// is the NTCS's problem, not ours (§3.3).
func (s *SearchServer) locate(name string, slot *addr.UAdd) (addr.UAdd, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if *slot == addr.Nil {
		u, err := s.m.Locate(name)
		if err != nil {
			return addr.Nil, err
		}
		*slot = u
	}
	return *slot, nil
}

// round runs sub-calls 0..n-1 of one search round, start(i) sending call
// i on calls, and hands each one's outcome to done as it comes in: a
// failure to send, or the collected reply's error. Calls go out while the
// set has room, so a round goes out at once when it fits and otherwise in
// part, the rest following as replies come in. When done returns an error
// the round ends at once: the calls still in flight are given up.
func round(calls *core.Calls, n int, start func(i int) error, done func(i int, err error) error) error {
	for i := 0; i < n || calls.Len() > 0; {
		var j int
		var err error
		if i < n && !calls.Full() {
			j, err = i, start(i)
			i++
			if err == nil {
				continue
			}
		} else {
			j, err = calls.Next(context.Background())
		}
		if err = done(j, err); err != nil {
			calls.Abandon()
			return err
		}
	}
	return nil
}

// search decomposes the loop's query, gathers postings from the index
// server, scores by summed term frequency, and titles the top hits from
// the document server. The sub-calls of each round are in flight
// together: a query costs two round trips to the backends, not one per
// term and hit. The reply's hits are its own; all else is the loop's or
// the pooled scratch's.
func (s *SearchServer) search(l *searchLoop) (SearchReply, error) {
	sc := s.scratch.Get().(*searchScratch)
	defer s.release(sc)
	terms := appendTokens(sc.terms, l.req.Query)
	sc.terms = terms
	if len(terms) == 0 {
		return SearchReply{}, nil
	}
	indexU, err := s.locate(s.indexName, &s.indexU)
	if err != nil {
		return SearchReply{}, fmt.Errorf("search: %w", err)
	}

	// Round 1. Each lookup is tagged with its term's index, and its reply
	// lands in a slice indexed the same way, so scoring reads them in query
	// order whatever order they arrived in. The first lookup to fail fails
	// the query at once: the rest are given up, not waited for.
	ctx := context.Background()
	lookups := slices.Grow(sc.lookups, len(terms))[:len(terms)]
	sc.lookups = lookups
	err = round(l.calls, len(terms),
		func(i int) error {
			l.lookup.Term = terms[i]
			return l.calls.Start(ctx, i, indexU, MsgIndexLookup, &l.lookup, &lookups[i])
		},
		func(i int, err error) error {
			if err != nil {
				return fmt.Errorf("index lookup %q: %w", terms[i], err)
			}
			return nil
		})
	if err != nil {
		return SearchReply{}, err
	}

	scores := sc.scores
	for _, lr := range lookups {
		for _, p := range lr.Postings {
			scores[p.DocID] += p.Freq * 1000
		}
	}
	hits := slices.Grow(sc.hits, len(scores))
	for id, score := range scores {
		hits = append(hits, Hit{DocID: id, Score: score})
	}
	sc.hits = hits
	limit := l.req.Limit
	if limit <= 0 {
		limit = 10
	}
	hits = rankHits(hits, limit)

	docsU, err := s.locate(s.docName, &s.docsU)
	if err != nil {
		return SearchReply{}, fmt.Errorf("search: %w", err)
	}
	// Round 2. A missing title degrades the hit, not the query, so done
	// never fails and neither does the round.
	err = round(l.calls, len(hits),
		func(i int) error {
			l.fetch.DocID = hits[i].DocID
			return l.calls.Start(ctx, i, docsU, MsgFetch, &l.fetch, &l.doc)
		},
		func(i int, err error) error {
			if err == nil {
				hits[i].Title = l.doc.Title
			}
			return nil
		})
	return SearchReply{Hits: append([]Hit{}, hits...)}, err
}
