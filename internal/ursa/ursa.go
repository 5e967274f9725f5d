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
	"context"
	"fmt"
	"sort"
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
func Tokenize(text string) []string {
	return strings.FieldsFunc(strings.ToLower(text), func(r rune) bool {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return false
		default:
			return true
		}
	})
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

// rankHits sorts by descending score, then ascending DocID, and truncates.
func rankHits(hits []Hit, limit int64) []Hit {
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].DocID < hits[j].DocID
	})
	if limit > 0 && int64(len(hits)) > limit {
		hits = hits[:limit]
	}
	return hits
}
