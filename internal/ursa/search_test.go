package ursa

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// TestSearchWhileIngesting ingests batches of documents while searches
// run, through the servers and, beside them, by encoding lookup views
// directly while the index server's own serve loop appends. Under -race it
// proves a lookup view is safe to encode without a copy: appends never
// touch a posting a view can read.
func TestSearchWhileIngesting(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	if _, err := w.StartNameServer(w.MustHost("ns-host", machine.Apollo, "ring"), "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	h := w.MustHost("sun-1", machine.Sun68K, "ring")
	dep, err := Deploy(w, h, h, h)
	if err != nil {
		t.Fatal(err)
	}
	attach := func(name string) *Client {
		m, err := w.Attach(w.MustHost(name+"-host", machine.VAX, "ring"), name, nil)
		if err != nil {
			t.Fatal(err)
		}
		return NewClient(m)
	}
	corpus := GenerateCorpus(120, 7)
	if err := attach("loader").Ingest(corpus[:40]); err != nil {
		t.Fatal(err)
	}

	const searchers, rounds, limit = 3, 15, 5
	ingester := attach("ingester")
	clients := make([]*Client, searchers)
	for i := range clients {
		clients[i] = attach(fmt.Sprintf("searcher-%d", i))
	}
	var wg sync.WaitGroup
	ingested := make(chan struct{})
	wg.Add(searchers + 2)
	go func() { // ingests the rest of the corpus, a batch at a time
		defer wg.Done()
		defer close(ingested)
		for i := 40; i < len(corpus); i += 10 {
			if err := ingester.Ingest(corpus[i : i+10]); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // encodes views until the serve loop has appended the rest
		defer wg.Done()
		for {
			select {
			case <-ingested:
				return
			default:
			}
			for _, term := range []string{"message", "circuit", "distributed"} {
				v := dep.Index.view(term)
				var got IndexLookupReply
				if err := UnmarshalIndexLookupReply(MarshalIndexLookupReply(&IndexLookupReply{Term: term, Postings: v}), &got); err != nil {
					t.Error(err)
					return
				}
				if !slices.Equal(got.Postings, v) {
					t.Errorf("view of %q changed while it was encoded", term)
					return
				}
			}
		}
	}()
	for _, c := range clients {
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				reply, err := c.Search("message passing distributed circuit", limit)
				if err != nil {
					t.Error(err)
					return
				}
				if len(reply.Hits) == 0 || len(reply.Hits) > limit {
					t.Errorf("%d hits, want 1..%d", len(reply.Hits), limit)
					return
				}
				if !slices.IsSortedFunc(reply.Hits, compareHits) {
					t.Errorf("hits out of rank order: %v", reply.Hits)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := dep.Index.Lookup("message"); len(got) == 0 {
		t.Error("no postings for a corpus term after ingest")
	}
}
