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
		var req IndexLookupRequest
		if err := d.Decode(&req); err != nil {
			return "", nil, err
		}
		return MsgIndexLookup, IndexLookupReply{Term: req.Term, Postings: s.view(req.Term)}, nil
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
	for _, doc := range docs {
		freqs := make(map[string]int64)
		for _, term := range Tokenize(doc.Title + " " + doc.Text) {
			freqs[term]++
		}
		for term, f := range freqs {
			s.postings[term] = append(s.postings[term], Posting{DocID: doc.ID, Freq: f})
		}
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
		var req FetchRequest
		if err := d.Decode(&req); err != nil {
			return "", nil, err
		}
		s.mu.RLock()
		doc, ok := s.docs[req.DocID]
		s.mu.RUnlock()
		if !ok {
			return "", nil, fmt.Errorf("ursa-docs: no document %d", req.DocID)
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
	for i := 0; i < maxSearches; i++ {
		calls := m.NewCalls(searchCalls)
		go m.Serve(func(d *core.Delivery) (string, any, error) { return s.handle(calls, d) })
	}
	return s
}

// Requests reports how many requests the server's serve loops have taken.
func (s *SearchServer) Requests() int64 { return s.requests.Load() }

func (s *SearchServer) handle(calls *core.Calls, d *core.Delivery) (string, any, error) {
	s.requests.Add(1)
	switch d.Type {
	case MsgSearch:
		var req SearchRequest
		if err := d.Decode(&req); err != nil {
			return "", nil, err
		}
		reply, err := s.search(calls, req)
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

// search decomposes the query, gathers postings from the index server,
// scores by summed term frequency, and titles the top hits from the
// document server. The sub-calls of each round are in flight together:
// a query costs two round trips to the backends, not one per term and hit.
func (s *SearchServer) search(calls *core.Calls, req SearchRequest) (SearchReply, error) {
	terms := Tokenize(req.Query)
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
	lookups := make([]IndexLookupReply, len(terms))
	err = round(calls, len(terms),
		func(i int) error {
			return calls.Start(ctx, i, indexU, MsgIndexLookup, IndexLookupRequest{Term: terms[i]}, &lookups[i])
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

	// Presized for the worst case, every posting a different document, so
	// the map never grows while it scores.
	n := 0
	for _, l := range lookups {
		n += len(l.Postings)
	}
	scores := make(map[int64]int64, n)
	for _, l := range lookups {
		for _, p := range l.Postings {
			scores[p.DocID] += p.Freq * 1000
		}
	}
	hits := make([]Hit, 0, len(scores))
	for id, score := range scores {
		hits = append(hits, Hit{DocID: id, Score: score})
	}
	limit := req.Limit
	if limit <= 0 {
		limit = 10
	}
	hits = rankHits(hits, limit)

	docsU, err := s.locate(s.docName, &s.docsU)
	if err != nil {
		return SearchReply{}, fmt.Errorf("search: %w", err)
	}
	// Round 2. A missing title degrades the hit, not the query, so done
	// never fails and neither does the round. Next decodes each reply
	// before it returns, so all fetches share one Document to decode into.
	var doc Document
	err = round(calls, len(hits),
		func(i int) error {
			return calls.Start(ctx, i, docsU, MsgFetch, FetchRequest{DocID: hits[i].DocID}, &doc)
		},
		func(i int, err error) error {
			if err == nil {
				hits[i].Title = doc.Title
			}
			return nil
		})
	return SearchReply{Hits: hits}, err
}
