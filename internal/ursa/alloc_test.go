// Allocation budget for the generated converters, enforced as a plain
// test so CI fails the moment a generated routine stops borrowing its
// pooled codec. Excluded under the race detector: -race instruments
// allocation behaviour and the budget would measure the instrumentation.

//go:build !race

package ursa

import (
	"testing"

	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// Generated index-reply codec budgets. Append into a buffer that already
// has room allocates nothing: its encoder lives on the stack. Unmarshal
// allocates only the postings slice: the decoder is pooled and the term
// lands in its arena.
const (
	generatedMarshalAllocBudget   = 0
	generatedUnmarshalAllocBudget = 1
)

func TestGeneratedCodecAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget skipped in -short mode")
	}
	reply := IndexLookupReply{Term: "circuit", Postings: make([]Posting, 150)}
	for i := range reply.Postings {
		reply.Postings[i] = Posting{DocID: int64(i + 1), Freq: int64(i%7 + 1)}
	}
	data := AppendIndexLookupReply(nil, &reply)
	buf := make([]byte, 0, 2*len(data)) // a warm buffer
	var out IndexLookupReply
	if err := UnmarshalIndexLookupReply(data, &out); err != nil { // warms the decoder pool
		t.Fatal(err)
	}

	marshal := testing.AllocsPerRun(200, func() { buf = AppendIndexLookupReply(buf[:0], &reply) })
	unmarshal := testing.AllocsPerRun(200, func() {
		if err := UnmarshalIndexLookupReply(data, &out); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("AppendIndexLookupReply %.0f allocs/op (budget %d), UnmarshalIndexLookupReply %.0f (budget %d)",
		marshal, generatedMarshalAllocBudget, unmarshal, generatedUnmarshalAllocBudget)
	if marshal > generatedMarshalAllocBudget {
		t.Errorf("AppendIndexLookupReply allocates %.1f/op, budget %d", marshal, generatedMarshalAllocBudget)
	}
	if unmarshal > generatedUnmarshalAllocBudget {
		t.Errorf("UnmarshalIndexLookupReply allocates %.1f/op, budget %d", unmarshal, generatedUnmarshalAllocBudget)
	}
}

// searchQueryAllocBudget pins one warm query's allocations over memnet,
// counted across the client and all three backends: the search call, its
// index lookups and its title fetches, with their encodes, decodes and
// frame copies. The servers decode requests into, and send sub-call
// bodies from, their serve loops' own storage, and a search's scratch is
// pooled, so of the search server's work only the reply's hits and its
// boxing are left.
const searchQueryAllocBudget = 31

func TestSearchQueryAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget skipped in -short mode")
	}
	w := sim.NewWorld()
	defer w.Close()
	w.AddNetwork("backend", memnet.Options{})
	if _, err := w.StartNameServer(w.MustHost("ns-host", machine.Apollo, "backend"), "ns"); err != nil {
		t.Fatal(err)
	}
	backends := w.MustHost("backend-host", machine.VAX, "backend")
	if _, err := Deploy(w, backends, backends, backends); err != nil {
		t.Fatal(err)
	}
	host, err := w.Attach(w.MustHost("client-host", machine.Sun68K, "backend"), "host-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient(host)
	if err := client.Ingest(GenerateCorpus(200, 1)); err != nil {
		t.Fatal(err)
	}
	queries := Queries(50, 2)
	for _, q := range queries { // every lookup path and converter warm
		if _, err := client.Search(q, 5); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := client.Search(queries[i%len(queries)], 5); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("warm query: %.1f allocs (budget %d)", allocs, searchQueryAllocBudget)
	if allocs > searchQueryAllocBudget {
		t.Errorf("warm query allocates %.1f/op, budget %d", allocs, searchQueryAllocBudget)
	}
}
