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
type DocServer struct {
	m *core.Module

	mu       sync.RWMutex
	docs     map[int64]Document
	requests atomic.Int64
}

// NewDocServer wraps an attached module as a document backend and starts
// serving.
func NewDocServer(m *core.Module) *DocServer {
	s := &DocServer{m: m, docs: make(map[int64]Document)}
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
		for _, doc := range req.Docs {
			s.docs[doc.ID] = doc
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

// maxSearches caps the searches one server has in flight: it runs that
// many serve loops over its one inbox. With every loop busy nobody
// receives, and the LCM inbox takes the queue.
const maxSearches = 64

// maxSubcalls caps the sub-calls one server has outstanding, over all its
// searches. A backend queues what it has not served yet in its LCM inbox
// (256 deliveries by default) and drops what does not fit, so the searches
// together must never have more than that on their way to it: maxSearches
// queries of ten hits each would. Half the default inbox is left to the
// backend's other callers; searches wait here for the rest.
const maxSubcalls = 128

// SearchServer orchestrates queries across the other backends. Searches
// are served concurrently, by maxSearches serve loops, because a search
// spends its time waiting for the other two servers; those never wait and
// stay one serve loop each.
type SearchServer struct {
	m *core.Module

	// The backends this search instance consults — shard-local names in
	// a sharded deployment, the classic singletons otherwise.
	indexName string
	docName   string

	mu     sync.Mutex
	indexU addr.UAdd
	docsU  addr.UAdd

	subcalls chan struct{} // counting semaphore over outstanding sub-calls
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
	s := &SearchServer{
		m: m, indexName: indexName, docName: docName,
		subcalls: make(chan struct{}, maxSubcalls),
	}
	for i := 0; i < maxSearches; i++ {
		go m.Serve(s.handle)
	}
	return s
}

// Requests reports how many requests the server's serve loops have taken.
func (s *SearchServer) Requests() int64 { return s.requests.Load() }

func (s *SearchServer) handle(d *core.Delivery) (string, any, error) {
	s.requests.Add(1)
	switch d.Type {
	case MsgSearch:
		var req SearchRequest
		if err := d.Decode(&req); err != nil {
			return "", nil, err
		}
		reply, err := s.search(req)
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

// scatter runs fn(0..n-1), one sub-call each, on one goroutine each and
// returns when all of them have. A goroutine is started once the server is
// below maxSubcalls, so a wide round goes out in part and the rest follows
// as replies come in.
func (s *SearchServer) scatter(n int, fn func(i int)) {
	var (
		wg   sync.WaitGroup
		next atomic.Int32
	)
	// One closure serves the whole round: each goroutine takes the next
	// index, so starting a sub-call allocates no closure of its own.
	run := func() {
		defer func() {
			<-s.subcalls
			wg.Done()
		}()
		fn(int(next.Add(1) - 1))
	}
	wg.Add(n)
	for i := 0; i < n; i++ {
		s.subcalls <- struct{}{}
		go run()
	}
	wg.Wait()
}

// search decomposes the query, gathers postings from the index server,
// scores by summed term frequency, and titles the top hits from the
// document server. The sub-calls of each round are in flight together:
// a query costs two round trips to the backends, not one per term and hit.
func (s *SearchServer) search(req SearchRequest) (SearchReply, error) {
	terms := Tokenize(req.Query)
	if len(terms) == 0 {
		return SearchReply{}, nil
	}
	indexU, err := s.locate(s.indexName, &s.indexU)
	if err != nil {
		return SearchReply{}, fmt.Errorf("search: %w", err)
	}

	// Round 1. Replies land in a slice indexed by term, so scoring reads
	// them in query order whatever order they arrived in. The first lookup
	// to fail cancels the rest; a lookup that ends with that cancellation is
	// not a failure of its term and records nothing, every other error is
	// kept, and the lowest-index one is returned.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lookups := make([]IndexLookupReply, len(terms))
	errs := make([]error, len(terms))
	s.scatter(len(terms), func(i int) {
		err := s.m.CallContext(ctx, indexU, MsgIndexLookup, IndexLookupRequest{Term: terms[i]}, &lookups[i])
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				errs[i] = err
			}
			cancel()
		}
	})
	for i, err := range errs {
		if err != nil {
			return SearchReply{}, fmt.Errorf("index lookup %q: %w", terms[i], err)
		}
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
	// Round 2. A missing title degrades the hit, not the query.
	s.scatter(len(hits), func(i int) {
		var doc Document
		if s.m.CallContext(context.Background(), docsU, MsgFetch, FetchRequest{DocID: hits[i].DocID}, &doc) == nil {
			hits[i].Title = doc.Title
		}
	})
	return SearchReply{Hits: hits}, nil
}
