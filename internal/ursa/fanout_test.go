package ursa_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
	"ntcs/internal/proctest"
	"ntcs/internal/ursa"
	"ntcs/internal/wire"
	"ntcs/sim"
)

// The tests below put the search server between backends that are either
// the real ones or plain modules under the same names, scripted to withhold
// or refuse replies. What a scripted backend withholds can only be released
// by the sub-calls the search server has in flight together, so a test that
// completes proves the overlap it names.

// bed is one memnet world with a name server.
type bed struct {
	t *testing.T
	w *sim.World
}

func newBed(t *testing.T) *bed {
	t.Helper()
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	if _, err := w.StartNameServer(w.MustHost("ns-host", machine.Apollo, "ring"), "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return &bed{t: t, w: w}
}

// attach boots a module on a host of its own, with the generated converters
// every URSA module carries.
func (b *bed) attach(name string, mt machine.Type) *core.Module {
	b.t.Helper()
	m, err := b.w.Attach(b.w.MustHost(name+"-host", mt, "ring"), name, nil)
	if err != nil {
		b.t.Fatal(err)
	}
	if err := ursa.RegisterGeneratedConverters(m); err != nil {
		b.t.Fatal(err)
	}
	return m
}

// fake attaches a plain module under a backend's name and hands it every
// call on one goroutine, as the real backends do. The goroutine ends when
// the world closes.
func (b *bed) fake(name string, handle func(m *core.Module, d *core.Delivery)) *core.Module {
	m := b.attach(name, machine.VAX)
	go func() {
		for {
			d, err := m.Recv(time.Hour)
			if err != nil {
				return
			}
			handle(m, d)
		}
	}()
	return m
}

// ingest loads docs into one real backend.
func (b *bed) ingest(from *core.Module, backend string, docs []ursa.Document) {
	b.t.Helper()
	u, err := from.Locate(backend)
	if err != nil {
		b.t.Fatal(err)
	}
	var ack ursa.IngestReply
	if err := from.CallContext(context.Background(), u, ursa.MsgIngest, ursa.IngestRequest{Docs: docs}, &ack); err != nil {
		b.t.Fatal(err)
	}
}

func lookupTerm(t *testing.T, d *core.Delivery) string {
	var req ursa.IndexLookupRequest
	if err := d.Decode(&req); err != nil {
		t.Errorf("fake index: %v", err)
	}
	return req.Term
}

func fetchID(t *testing.T, d *core.Delivery) int64 {
	var req ursa.FetchRequest
	if err := d.Decode(&req); err != nil {
		t.Errorf("fake docs: %v", err)
	}
	return req.DocID
}

func title(id int64) string { return fmt.Sprintf("title-%d", id) }

func replyDoc(m *core.Module, d *core.Delivery, id int64) {
	_ = m.Reply(d, ursa.MsgFetch, ursa.Document{ID: id, Title: title(id)})
}

// fruit is a corpus whose two terms hit disjoint pairs of documents.
var fruit = []ursa.Document{
	{ID: 1, Title: title(1), Text: "apple apple"},
	{ID: 2, Title: title(2), Text: "apple"},
	{ID: 3, Title: title(3), Text: "banana banana"},
	{ID: 4, Title: title(4), Text: "banana"},
}

func TestIndexLookupsGoOutTogether(t *testing.T) {
	b := newBed(t)
	terms := []string{"alpha", "beta", "gamma"}
	// The index answers nothing until it holds a lookup for every term of
	// the query: a search that sends them one at a time never gets past
	// the first.
	type lookup struct {
		d    *core.Delivery
		term string
	}
	var held []lookup
	b.fake(ursa.IndexServerName, func(m *core.Module, d *core.Delivery) {
		held = append(held, lookup{d, lookupTerm(t, d)})
		if len(held) < len(terms) {
			return
		}
		for i, l := range held {
			_ = m.Reply(l.d, ursa.MsgIndexLookup, ursa.IndexLookupReply{
				Term: l.term, Postings: []ursa.Posting{{DocID: 1, Freq: int64(i + 1)}},
			})
		}
		held = nil
	})
	ursa.NewDocServer(b.attach(ursa.DocServerName, machine.VAX))
	ursa.NewSearchServer(b.attach(ursa.SearchServerName, machine.Sun68K))
	host := b.attach("host", machine.VAX)
	b.ingest(host, ursa.DocServerName, fruit)

	reply, err := ursa.NewClient(host).Search(strings.Join(terms, " "), 5)
	if err != nil {
		t.Fatalf("search whose lookups are answered only together: %v", err)
	}
	want := []ursa.Hit{{DocID: 1, Score: 6000, Title: title(1)}}
	if !reflect.DeepEqual(reply.Hits, want) {
		t.Errorf("hits = %+v, want %+v", reply.Hits, want)
	}
}

func TestSearchesOfTwoClientsOverlap(t *testing.T) {
	b := newBed(t)
	ursa.NewIndexServer(b.attach(ursa.IndexServerName, machine.Apollo))
	// The document server answers nothing until it has seen a fetch for an
	// apple document and one for a banana document: fetches of two
	// different queries. A search server serving one query at a time never
	// shows it the second.
	var (
		held          []*core.Delivery
		apple, banana bool
	)
	b.fake(ursa.DocServerName, func(m *core.Module, d *core.Delivery) {
		held = append(held, d)
		if id := fetchID(t, d); id <= 2 {
			apple = true
		} else {
			banana = true
		}
		if !apple || !banana {
			return
		}
		for _, h := range held {
			replyDoc(m, h, fetchID(t, h))
		}
		held = nil
	})
	ursa.NewSearchServer(b.attach(ursa.SearchServerName, machine.Sun68K))
	b.ingest(b.attach("loader", machine.VAX), ursa.IndexServerName, fruit)

	var wg sync.WaitGroup
	for i, q := range []string{"apple", "banana"} {
		client := ursa.NewClient(b.attach(fmt.Sprintf("host-%d", i), machine.VAX))
		first := int64(2*i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := client.Search(q, 5)
			if err != nil {
				t.Errorf("search %q beside another client's: %v", q, err)
				return
			}
			want := []ursa.Hit{
				{DocID: first, Score: 2000, Title: title(first)},
				{DocID: first + 1, Score: 1000, Title: title(first + 1)},
			}
			if !reflect.DeepEqual(reply.Hits, want) {
				t.Errorf("search %q: hits = %+v, want %+v", q, reply.Hits, want)
			}
		}()
	}
	wg.Wait()
}

func TestFailedLookupFailsTheQueryAndNamesTheTerm(t *testing.T) {
	b := newBed(t)
	// The second of three terms is refused; the other two are never
	// answered at all. The query has to fail at once, which takes the
	// cancellation, and with the refused term's error rather than with the
	// cancellation of the first.
	b.fake(ursa.IndexServerName, func(m *core.Module, d *core.Delivery) {
		if lookupTerm(t, d) == "beta" {
			_ = m.ReplyError(d, "index shard offline")
		}
	})
	ursa.NewDocServer(b.attach(ursa.DocServerName, machine.VAX))
	search := b.attach(ursa.SearchServerName, machine.Sun68K)
	ursa.NewSearchServer(search)
	client := ursa.NewClient(b.attach("host", machine.VAX))

	start := time.Now()
	_, err := client.Search("alpha beta gamma", 5)
	if !errors.Is(err, lcm.ErrRemote) {
		t.Fatalf("search with a refused term: %v", err)
	}
	for _, want := range []string{`index lookup "beta"`, "index shard offline"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not carry %q", err, want)
		}
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("the query failed after %v: the unanswered lookups were waited out, not cancelled", took)
	}
	if n := search.Nucleus().LCM.Waiters(); n != 0 {
		t.Errorf("%d reply waiters left behind by the cancelled lookups", n)
	}
}

func TestFailedFetchOnlyDegradesItsHit(t *testing.T) {
	b := newBed(t)
	ursa.NewIndexServer(b.attach(ursa.IndexServerName, machine.Apollo))
	ursa.NewDocServer(b.attach(ursa.DocServerName, machine.VAX))
	ursa.NewSearchServer(b.attach(ursa.SearchServerName, machine.Sun68K))
	host := b.attach("host", machine.VAX)
	docs := []ursa.Document{
		{ID: 1, Title: title(1), Text: "pear pear pear"},
		{ID: 2, Title: title(2), Text: "pear pear"},
		{ID: 3, Title: title(3), Text: "pear"},
	}
	b.ingest(host, ursa.IndexServerName, docs)
	// The document server never heard of document 2.
	b.ingest(host, ursa.DocServerName, []ursa.Document{docs[0], docs[2]})

	reply, err := ursa.NewClient(host).Search("pear", 5)
	if err != nil {
		t.Fatal(err)
	}
	want := []ursa.Hit{
		{DocID: 1, Score: 3000, Title: title(1)},
		{DocID: 2, Score: 2000},
		{DocID: 3, Score: 1000, Title: title(3)},
	}
	if !reflect.DeepEqual(reply.Hits, want) {
		t.Errorf("hits = %+v, want %+v", reply.Hits, want)
	}
}

// settle polls until cond holds, for at most five seconds.
func settle(cond func() bool) bool { return proctest.PollUntil(5*time.Second, cond) }

func TestFanOutLeavesNothingBehind(t *testing.T) {
	b := newBed(t)
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
	search := b.attach(ursa.SearchServerName, machine.Sun68K)
	ursa.NewSearchServer(search)
	host := b.attach("host", machine.VAX)
	b.ingest(host, ursa.DocServerName, fruit)
	client := ursa.NewClient(host)

	query := func(i int) error {
		if i%2 == 1 {
			if _, err := client.Search("alpha broken gamma", 5); err == nil || !strings.Contains(err.Error(), `"broken"`) {
				return fmt.Errorf("query %d with a refused term: %v", i, err)
			}
			return nil
		}
		reply, err := client.Search("alpha beta gamma", 5)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		want := []ursa.Hit{{DocID: 2, Score: 6000, Title: title(2)}, {DocID: 1, Score: 3000, Title: title(1)}}
		if !reflect.DeepEqual(reply.Hits, want) {
			return fmt.Errorf("query %d: hits = %+v, want %+v", i, reply.Hits, want)
		}
		return nil
	}
	// One of each first, so that every circuit and lazily started worker
	// of the world exists before the goroutines are counted.
	for i := 0; i < 2; i++ {
		if err := query(i); err != nil {
			t.Fatal(err)
		}
	}
	var start int
	settle(func() bool {
		n := runtime.NumGoroutine()
		stable := n == start
		start = n
		return stable
	})

	const queries, callers = 200, 4
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < queries; i += callers {
				if err := query(i); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	if !settle(func() bool { return runtime.NumGoroutine() <= start }) {
		t.Errorf("%d goroutines after %d queries, %d before", runtime.NumGoroutine(), queries, start)
	}
	for _, m := range []*core.Module{search, host} {
		if n := m.Nucleus().LCM.Waiters(); n != 0 {
			t.Errorf("%s holds %d reply waiters with no call in flight", m.Name(), n)
		}
	}
}

func TestSearchCapKeepsBackpressure(t *testing.T) {
	b := newBed(t)
	ursa.NewIndexServer(b.attach(ursa.IndexServerName, machine.Apollo))
	// The document server takes every fetch and answers none until told.
	var (
		mu       sync.Mutex
		held     []*core.Delivery
		released bool
	)
	docs := b.fake(ursa.DocServerName, func(m *core.Module, d *core.Delivery) {
		mu.Lock()
		defer mu.Unlock()
		if released {
			replyDoc(m, d, fetchID(t, d))
			return
		}
		held = append(held, d)
	})
	searchMod := b.attach(ursa.SearchServerName, machine.Sun68K)
	search := ursa.NewSearchServer(searchMod)
	host := b.attach("host", machine.VAX)
	b.ingest(host, ursa.IndexServerName, fruit)
	client := ursa.NewClient(host)
	// A query that hits nothing fetches nothing: it completes, and the
	// client has located the search server before it is shared.
	if _, err := client.Search("cherry", 5); err != nil {
		t.Fatal(err)
	}
	before := search.Requests()

	// cap searches each hold a serve loop and stall in their title round,
	// so no loop receives: the rest stay in the inbox.
	const queued = 5
	const sent = ursa.MaxSearches + queued
	const fetches = 2 // "apple" hits two documents
	if fetches > ursa.SearchCalls {
		t.Fatalf("searches of %d fetches each stall on their call set of %d before the search cap", fetches, ursa.SearchCalls)
	}
	results := make(chan error, sent)
	for i := 0; i < sent; i++ {
		go func() {
			reply, err := client.Search("apple", 5)
			want := []ursa.Hit{{DocID: 1, Score: 2000, Title: title(1)}, {DocID: 2, Score: 1000, Title: title(2)}}
			if err == nil && !reflect.DeepEqual(reply.Hits, want) {
				err = fmt.Errorf("hits = %+v, want %+v", reply.Hits, want)
			}
			results <- err
		}()
	}
	state := func() (admitted int64, stalled, inbox int) {
		mu.Lock()
		defer mu.Unlock()
		return search.Requests() - before, len(held), searchMod.Nucleus().LCM.InboxDepth()
	}
	full := func() bool {
		admitted, stalled, inbox := state()
		return admitted == ursa.MaxSearches && stalled == ursa.MaxSearches*fetches && inbox == queued
	}
	if !settle(full) {
		admitted, stalled, inbox := state()
		t.Fatalf("admitted %d searches, %d fetches stalled, inbox %d; want %d, %d, %d",
			admitted, stalled, inbox, ursa.MaxSearches, ursa.MaxSearches*fetches, queued)
	}
	// It stays that way for as long as no search finishes.
	time.Sleep(50 * time.Millisecond)
	if !full() {
		admitted, stalled, inbox := state()
		t.Errorf("at the cap the server moved on: admitted %d, %d fetches stalled, inbox %d", admitted, stalled, inbox)
	}

	mu.Lock()
	released = true
	for _, d := range held {
		replyDoc(docs, d, fetchID(t, d))
	}
	held = nil
	mu.Unlock()
	for i := 0; i < sent; i++ {
		if err := <-results; err != nil {
			t.Errorf("search queued behind the cap: %v", err)
		}
	}
	if got := search.Requests() - before; got != sent {
		t.Errorf("%d searches admitted in all, want %d", got, sent)
	}
}

func TestWideQueriesDoNotOverflowBackendInbox(t *testing.T) {
	// A full house of searches, each with ten titles to fetch, wants ten
	// fetches apiece outstanding at a document server whose inbox holds 256
	// and refuses the rest. One pause in the backend is enough for them to
	// pile up. The server's bound on outstanding sub-calls, its loops times
	// their call sets, keeps the pile inside half the inbox.
	b := newBed(t)
	ursa.NewIndexServer(b.attach(ursa.IndexServerName, machine.Apollo))
	const wide = 10
	docs := make([]ursa.Document, wide)
	want := make([]ursa.Hit, wide)
	for i := range docs {
		id := int64(i + 1)
		docs[i] = ursa.Document{ID: id, Title: title(id), Text: "apple"}
		want[i] = ursa.Hit{DocID: id, Score: 1000, Title: title(id)}
	}
	var (
		stall   sync.Once
		mu      sync.Mutex
		deepest int // the fullest the document server's inbox has been
	)
	b.fake(ursa.DocServerName, func(m *core.Module, d *core.Delivery) {
		stall.Do(func() { time.Sleep(100 * time.Millisecond) })
		mu.Lock()
		deepest = max(deepest, m.Nucleus().LCM.InboxDepth())
		mu.Unlock()
		replyDoc(m, d, fetchID(t, d))
	})
	ursa.NewSearchServer(b.attach(ursa.SearchServerName, machine.Sun68K))
	host := b.attach("host", machine.VAX)
	b.ingest(host, ursa.IndexServerName, docs)
	client := ursa.NewClient(host)
	if _, err := client.Search("cherry", wide); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < ursa.MaxSearches; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := client.Search("apple", wide)
			if err != nil {
				t.Errorf("search %d: %v", i, err)
				return
			}
			if !reflect.DeepEqual(reply.Hits, want) {
				t.Errorf("search %d: hits = %+v, want %+v", i, reply.Hits, want)
			}
		}()
	}
	wg.Wait()
	if took := time.Since(start); took > 3*time.Second {
		t.Errorf("%d wide searches took %v: fetches were dropped and waited out", ursa.MaxSearches, took)
	}
	mu.Lock()
	defer mu.Unlock()
	if deepest > ursa.MaxSubcalls {
		t.Errorf("document server's inbox reached %d, above the %d sub-calls the search server may have outstanding", deepest, ursa.MaxSubcalls)
	}
	const halfInbox = 128 // half the LCM's default inbox of 256
	if deepest > halfInbox {
		t.Errorf("document server's inbox reached %d, above half its default inbox (%d)", deepest, halfInbox)
	}
	if deepest < ursa.MaxSubcalls/2 {
		t.Errorf("document server's inbox only reached %d: the searches never piled up, the test proves nothing", deepest)
	}
}

// serialSearch is the search server's algorithm as it was before the
// fan-out: one call per term, then one per hit, each waited for in turn.
// The golden test holds the concurrent server to its replies.
func serialSearch(m *core.Module, indexU, docsU addr.UAdd, req ursa.SearchRequest) (ursa.SearchReply, error) {
	terms := ursa.Tokenize(req.Query)
	if len(terms) == 0 {
		return ursa.SearchReply{}, nil
	}
	scores := make(map[int64]int64)
	for _, term := range terms {
		var postings ursa.IndexLookupReply
		if err := m.CallContext(context.Background(), indexU, ursa.MsgIndexLookup, ursa.IndexLookupRequest{Term: term}, &postings); err != nil {
			return ursa.SearchReply{}, fmt.Errorf("index lookup %q: %w", term, err)
		}
		for _, p := range postings.Postings {
			scores[p.DocID] += p.Freq * 1000
		}
	}
	hits := make([]ursa.Hit, 0, len(scores))
	for id, score := range scores {
		hits = append(hits, ursa.Hit{DocID: id, Score: score})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].DocID < hits[j].DocID
	})
	limit := req.Limit
	if limit <= 0 {
		limit = 10
	}
	if int64(len(hits)) > limit {
		hits = hits[:limit]
	}
	for i := range hits {
		var doc ursa.Document
		if err := m.CallContext(context.Background(), docsU, ursa.MsgFetch, ursa.FetchRequest{DocID: hits[i].DocID}, &doc); err != nil {
			continue
		}
		hits[i].Title = doc.Title
	}
	return ursa.SearchReply{Hits: hits}, nil
}

func TestRankingMatchesSerialReference(t *testing.T) {
	// The benchmark's corpus and queries: 200 documents from the seed, 200
	// query texts from seed+97, five hits asked for.
	for _, seed := range []int64{1, 2} {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			b := newBed(t)
			ursa.NewIndexServer(b.attach(ursa.IndexServerName, machine.Apollo))
			ursa.NewDocServer(b.attach(ursa.DocServerName, machine.VAX))
			ursa.NewSearchServer(b.attach(ursa.SearchServerName, machine.Sun68K))
			host := b.attach("host", machine.VAX)
			client := ursa.NewClient(host)
			if err := client.Ingest(ursa.GenerateCorpus(200, seed)); err != nil {
				t.Fatal(err)
			}
			indexU, err := host.Locate(ursa.IndexServerName)
			if err != nil {
				t.Fatal(err)
			}
			docsU, err := host.Locate(ursa.DocServerName)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range ursa.Queries(200, seed+97) {
				got, err := client.Search(q, 5)
				if err != nil {
					t.Fatalf("search %q: %v", q, err)
				}
				want, err := serialSearch(host, indexU, docsU, ursa.SearchRequest{Query: q, Limit: 5})
				if err != nil {
					t.Fatalf("serial reference %q: %v", q, err)
				}
				if len(want.Hits) == 0 {
					t.Fatalf("query %q hits nothing: the comparison is empty", q)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("query %q:\n got %+v\nwant %+v", q, got.Hits, want.Hits)
				}
			}
		})
	}
}

func TestMalformedCallIsAnsweredAndServingGoesOn(t *testing.T) {
	b := newBed(t)
	ursa.NewIndexServer(b.attach(ursa.IndexServerName, machine.Apollo))
	host := b.attach("host", machine.VAX)
	b.ingest(host, ursa.IndexServerName, fruit)
	indexU, err := host.Locate(ursa.IndexServerName)
	if err != nil {
		t.Fatal(err)
	}

	// A call whose envelope does not parse is answered with the reason.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err = host.Nucleus().LCM.CallContext(ctx, indexU, wire.ModePacked, 0, []byte{0xff, 0xff, 0xff})
	if !errors.Is(err, lcm.ErrRemote) || !strings.Contains(err.Error(), "malformed") {
		t.Errorf("malformed call: %v, want ErrRemote naming the envelope", err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("malformed call answered after %v", took)
	}

	// The server serves on.
	ctx, cancel = context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var reply ursa.IndexLookupReply
	if err := host.CallContext(ctx, indexU, ursa.MsgIndexLookup, ursa.IndexLookupRequest{Term: "apple"}, &reply); err != nil {
		t.Fatalf("lookup after the malformed call: %v", err)
	}
	if len(reply.Postings) != 2 {
		t.Errorf("postings = %+v, want documents 1 and 2", reply.Postings)
	}
}
