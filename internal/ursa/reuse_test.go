package ursa_test

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"ntcs/internal/core"
	"ntcs/internal/machine"
	"ntcs/internal/ursa"
)

// The tests below hold the search server to its reuse of storage: each
// serve loop decodes every request into, and sends every sub-call body
// from, storage of its own, and a search's growing scratch comes from a
// pool. A search must find none of an earlier one's data there, and a
// parked loop or a pooled scratch must pin none of it.

// realBackends deploys the three real servers in b and loads corpus. The
// client it returns has located the search server, so it may be shared.
func realBackends(b *bed, corpus []ursa.Document) (*ursa.SearchServer, *ursa.Client) {
	ursa.NewIndexServer(b.attach(ursa.IndexServerName, machine.Apollo))
	ursa.NewDocServer(b.attach(ursa.DocServerName, machine.VAX))
	search := ursa.NewSearchServer(b.attach(ursa.SearchServerName, machine.Sun68K))
	client := ursa.NewClient(b.attach("host", machine.VAX))
	if err := client.Ingest(corpus); err != nil {
		b.t.Fatal(err)
	}
	if _, err := client.Search("cherry", 5); err != nil {
		b.t.Fatal(err)
	}
	return search, client
}

// wideQuery names every word the generated corpus's texts are made of:
// each one hits most documents, so the search scores and ranks them all.
func wideQuery() string {
	var terms []string
	for _, d := range ursa.GenerateCorpus(50, 3) {
		terms = append(terms, ursa.Tokenize(d.Text)...)
	}
	slices.Sort(terms)
	return strings.Join(slices.Compact(terms), " ")
}

// together runs n searches at once, so that every serve loop takes one,
// and hands each reply to check.
func together(t *testing.T, client *ursa.Client, n int, query func(i int) (string, int), check func(i int, reply ursa.SearchReply)) {
	t.Helper()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, limit := query(i)
			reply, err := client.Search(q, limit)
			if err != nil {
				t.Errorf("search %q: %v", q, err)
				return
			}
			check(i, reply)
		}()
	}
	wg.Wait()
}

func TestNarrowQueryAfterWideMatchesFreshServer(t *testing.T) {
	b := newBed(t)
	_, client := realBackends(b, ursa.GenerateCorpus(200, 1))
	// Each narrow query hits one or two documents (a title's number), so
	// anything of a wide search left in the storage it reuses shows up as
	// a hit, score or title too many.
	narrow := []string{"7", "42", "199 doc", "13 58", "100"}
	fresh := make([]ursa.SearchReply, len(narrow))
	for i, q := range narrow {
		reply, err := client.Search(q, 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(reply.Hits) == 0 || len(reply.Hits) > 10 {
			t.Fatalf("narrow query %q hits %d documents: the test proves nothing", q, len(reply.Hits))
		}
		fresh[i] = reply
	}
	wide := wideQuery()
	for pass := 0; pass < 3; pass++ {
		together(t, client, ursa.MaxSearches,
			func(int) (string, int) { return wide, 100 },
			func(i int, reply ursa.SearchReply) {
				if len(reply.Hits) != 100 {
					t.Errorf("wide search %d: %d hits, want 100", i, len(reply.Hits))
				}
			})
		together(t, client, ursa.MaxSearches,
			func(i int) (string, int) { return narrow[i%len(narrow)], 10 },
			func(i int, reply ursa.SearchReply) {
				if want := fresh[i%len(narrow)]; !reflect.DeepEqual(reply, want) {
					t.Errorf("narrow query %q after wide ones:\n got %+v\nwant %+v", narrow[i%len(narrow)], reply.Hits, want.Hits)
				}
			})
	}
}

func TestFailedLookupRoundLeavesNothingForTheNextSearch(t *testing.T) {
	// One processor: the test reads the pool on the processor the search
	// put its scratch back on, so it sees that very scratch.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	b := newBed(t)
	// The index answers every term but "broken", which it refuses. Terms
	// are answered in order, so a search collects the lookups before
	// "broken" into its scratch and then fails.
	b.fake(ursa.IndexServerName, func(m *core.Module, d *core.Delivery) {
		term := lookupTerm(t, d)
		if term == "broken" {
			_ = m.ReplyError(d, "index shard offline")
			return
		}
		_ = m.Reply(d, ursa.MsgIndexLookup, ursa.IndexLookupReply{
			Term: term, Postings: []ursa.Posting{{DocID: 1, Freq: 1}, {DocID: 2, Freq: 2}},
		})
	})
	ursa.NewDocServer(b.attach(ursa.DocServerName, machine.VAX))
	search := ursa.NewSearchServer(b.attach(ursa.SearchServerName, machine.Sun68K))
	host := b.attach("host", machine.VAX)
	b.ingest(host, ursa.DocServerName, fruit)
	client := ursa.NewClient(host)

	want := []ursa.Hit{{DocID: 2, Score: 2000, Title: title(2)}, {DocID: 1, Score: 1000, Title: title(1)}}
	seen := 0
	for i := 0; i < 8; i++ {
		if _, err := client.Search("alpha beta gamma broken delta", 5); err == nil || !strings.Contains(err.Error(), `"broken"`) {
			t.Fatalf("search with a refused term: %v", err)
		}
		used, held := ursa.PooledScratch(search)
		if used {
			seen++
		}
		if len(held) > 0 {
			t.Errorf("after a failed lookup round the pooled scratch holds %s", strings.Join(held, "; "))
		}
		reply, err := client.Search("alpha", 5)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(reply.Hits, want) {
			t.Errorf("search after a failed one: hits = %+v, want %+v", reply.Hits, want)
		}
		if held := ursa.LoopHoldings(search); len(held) > 0 {
			t.Errorf("after the searches the serve loops hold %s", strings.Join(held, "; "))
		}
	}
	if seen == 0 {
		t.Fatal("the pool never handed back a used scratch: the test proves nothing")
	}
}

func TestSearchLoopsHoldNothingAfterWideQueries(t *testing.T) {
	b := newBed(t)
	search, client := realBackends(b, ursa.GenerateCorpus(200, 1))
	wide := wideQuery()
	for pass := 0; pass < 2; pass++ {
		together(t, client, ursa.MaxSearches,
			func(int) (string, int) { return wide, 20 },
			func(i int, reply ursa.SearchReply) {
				if len(reply.Hits) != 20 || reply.Hits[0].Title == "" {
					t.Errorf("wide search %d: %d hits, first %+v", i, len(reply.Hits), reply.Hits)
				}
			})
	}
	if held := ursa.LoopHoldings(search); len(held) > 0 {
		t.Errorf("%d things held by parked serve loops:\n%s", len(held), strings.Join(held, "\n"))
	}
}
