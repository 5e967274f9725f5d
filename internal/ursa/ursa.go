// Package ursa is a miniature of the application the NTCS was built for:
// the Utah Retrieval System Architecture information-retrieval testbed
// (Hollaar [5]). "The URSA system is based on a number of backend servers
// (e.g., for index lookup, searching, or retrieval of documents),
// handling requests from host processors or user workstations."
//
// Three backend servers run as ordinary NTCS modules:
//
//   - the index server holds an inverted index (term → postings);
//   - the document server stores and retrieves full documents;
//   - the search server orchestrates: it decomposes queries, consults the
//     index server, ranks by term frequency, and decorates hits with
//     titles fetched from the document server.
//
// Host processors use Search and Fetch. All traffic — host→search,
// search→index, search→docs — flows through the NTCS, across whatever
// networks and gateways the testbed wires up.
package ursa

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"strings"

	"ntcs/internal/addr"
	"ntcs/internal/core"
)

// Message types of the URSA protocol.
const (
	MsgIngest      = "ursa.ingest"
	MsgIndexLookup = "ursa.index.lookup"
	MsgSearch      = "ursa.search"
	MsgFetch       = "ursa.fetch"
	MsgStats       = "ursa.stats"
)

// Module logical names (the role attribute mirrors them for attribute
// queries and relocation matching).
const (
	IndexServerName  = "ursa-index"
	DocServerName    = "ursa-docs"
	SearchServerName = "ursa-search"
)

// ShardName derives the logical name of one backend shard, e.g.
// "ursa-search.3". Shard < 0 is the unsharded singleton name, so callers
// can treat the classic deployment as shard -1.
func ShardName(base string, shard int) string {
	if shard < 0 {
		return base
	}
	return fmt.Sprintf("%s.%d", base, shard)
}

// Document is one retrievable item.
type Document struct {
	ID    int64
	Title string
	Text  string
}

// IngestRequest loads documents into the index and document servers.
type IngestRequest struct {
	Docs []Document
}

// IngestReply acknowledges an ingest.
type IngestReply struct {
	Count int64
}

// IndexLookupRequest asks the index server for one term's postings.
type IndexLookupRequest struct {
	Term string
}

// Posting is one document occurrence of a term.
type Posting struct {
	DocID int64
	Freq  int64
}

// IndexLookupReply carries a term's postings list.
type IndexLookupReply struct {
	Term     string
	Postings []Posting
}

// SearchRequest is a host's free-text query.
type SearchRequest struct {
	Query string
	Limit int64
}

// Hit is one ranked result.
type Hit struct {
	DocID int64
	Score int64 // term-frequency score ×1000
	Title string
}

// SearchReply carries the ranked hits.
type SearchReply struct {
	Hits []Hit
}

// FetchRequest retrieves a document by ID.
type FetchRequest struct {
	DocID int64
}

// StatsRequest asks a server for its counters.
type StatsRequest struct{}

// StatsReply reports a server's counters.
type StatsReply struct {
	Requests int64
	Items    int64
}

// Tokenize splits text into lowercase terms (letters and digits only).
func Tokenize(text string) []string { return appendTokens(nil, text) }

// appendTokens appends text's terms to dst, as Tokenize splits them. The
// terms are substrings of text when it is lowercase already, so a caller
// that appends into reused storage allocates nothing. Once lowered, a
// term is ASCII letters and digits, and every byte of a multi-byte rune
// is at least 0x80, so splitting bytewise splits as the runes would.
func appendTokens(dst []string, text string) []string {
	text = strings.ToLower(text)
	start := -1
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c >= 'a' && c <= 'z' || c >= '0' && c <= '9' {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			dst = append(dst, text[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, text[start:])
	}
	return dst
}

// Client is a host processor's view of the URSA backends.
type Client struct {
	m       *core.Module
	searchU addr.UAdd
	docsU   addr.UAdd
}

// NewClient wraps a module as an URSA host.
func NewClient(m *core.Module) *Client {
	return &Client{m: m}
}

// Search runs a query through the search server.
func (c *Client) Search(query string, limit int) (SearchReply, error) {
	if c.searchU == addr.Nil {
		u, err := c.m.Locate(SearchServerName)
		if err != nil {
			return SearchReply{}, fmt.Errorf("locate search server: %w", err)
		}
		c.searchU = u
	}
	var reply SearchReply
	err := c.m.CallContext(context.TODO(), c.searchU, MsgSearch, SearchRequest{Query: query, Limit: int64(limit)}, &reply)
	return reply, err
}

// Fetch retrieves a document from the document server.
func (c *Client) Fetch(id int64) (Document, error) {
	if c.docsU == addr.Nil {
		u, err := c.m.Locate(DocServerName)
		if err != nil {
			return Document{}, fmt.Errorf("locate document server: %w", err)
		}
		c.docsU = u
	}
	var doc Document
	err := c.m.CallContext(context.TODO(), c.docsU, MsgFetch, FetchRequest{DocID: id}, &doc)
	return doc, err
}

// Ingest loads documents into both backends through their servers.
func (c *Client) Ingest(docs []Document) error {
	for _, name := range []string{IndexServerName, DocServerName} {
		u, err := c.m.Locate(name)
		if err != nil {
			return fmt.Errorf("locate %s: %w", name, err)
		}
		var ack IngestReply
		if err := c.m.CallContext(context.TODO(), u, MsgIngest, IngestRequest{Docs: docs}, &ack); err != nil {
			return fmt.Errorf("ingest into %s: %w", name, err)
		}
		if ack.Count != int64(len(docs)) {
			return fmt.Errorf("%s ingested %d of %d", name, ack.Count, len(docs))
		}
	}
	return nil
}

// rankHits orders hits by descending score, then ascending DocID, and
// keeps the first limit of them (all of them when limit <= 0). With a
// limit below len(hits), the best limit hits are selected in place first,
// in O(n log limit), and only they are sorted.
func rankHits(hits []Hit, limit int64) []Hit {
	if limit > 0 && int64(len(hits)) > limit {
		// top is a heap rooted at the worst hit kept so far: a later hit
		// either ranks after the root or replaces it.
		top := hits[:limit]
		for i := len(top)/2 - 1; i >= 0; i-- {
			siftDown(top, i)
		}
		for _, h := range hits[limit:] {
			if compareHits(h, top[0]) < 0 {
				top[0] = h
				siftDown(top, 0)
			}
		}
		hits = top
	}
	slices.SortFunc(hits, compareHits)
	return hits
}

// compareHits is the ranking order: negative when a ranks before b.
func compareHits(a, b Hit) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.DocID, b.DocID)
}

// siftDown moves h[i] down until no child ranks after its parent.
func siftDown(h []Hit, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && compareHits(h[c+1], h[c]) > 0 {
			c++
		}
		if compareHits(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}
