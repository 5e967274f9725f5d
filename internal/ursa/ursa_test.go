package ursa_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
	"ntcs/internal/ursa"
	"ntcs/sim"
)

func deploy(t *testing.T) (*sim.World, *ursa.Deployment, *ursa.Client) {
	t.Helper()
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	idxHost := w.MustHost("apollo-idx", machine.Apollo, "ring")
	docHost := w.MustHost("vax-docs", machine.VAX, "ring")
	searchHost := w.MustHost("sun-search", machine.Sun68K, "ring")
	dep, err := ursa.Deploy(w, idxHost, docHost, searchHost)
	if err != nil {
		t.Fatal(err)
	}

	hostHost := w.MustHost("vax-host", machine.VAX, "ring")
	hostMod, err := w.Attach(hostHost, "host-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	return w, dep, ursa.NewClient(hostMod)
}

func TestTokenize(t *testing.T) {
	tests := []struct {
		give string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"index-lookup; SEARCHING", []string{"index", "lookup", "searching"}},
		{"", nil},
		{"  ...  ", nil},
		{"doc42 v2", []string{"doc42", "v2"}},
		{"Straße-ÜBER\xffmaß", []string{"stra", "e", "ber", "ma"}},
	}
	for _, tt := range tests {
		got := ursa.Tokenize(tt.give)
		if len(got) == 0 && len(tt.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.give, got, tt.want)
		}
	}
}

func TestIngestSearchFetch(t *testing.T) {
	_, dep, client := deploy(t)
	if err := client.Ingest(ursa.BuiltinCorpus()); err != nil {
		t.Fatal(err)
	}
	if dep.Index.Terms() == 0 {
		t.Fatal("index is empty after ingest")
	}

	reply, err := client.Search("distributed system", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Hits) == 0 {
		t.Fatal("no hits for a query matching the corpus")
	}
	for i := 1; i < len(reply.Hits); i++ {
		if reply.Hits[i].Score > reply.Hits[i-1].Score {
			t.Error("hits not ranked by score")
		}
	}
	if reply.Hits[0].Title == "" {
		t.Error("top hit missing its title (doc server decoration)")
	}

	doc, err := client.Fetch(reply.Hits[0].DocID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.ID != reply.Hits[0].DocID || doc.Text == "" {
		t.Errorf("fetched %+v", doc)
	}
}

func TestSearchRelevance(t *testing.T) {
	_, _, client := deploy(t)
	if err := client.Ingest(ursa.BuiltinCorpus()); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Search("retrieval", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Hits) == 0 {
		t.Fatal("no hits")
	}
	// The URSA paper (doc 2) mentions retrieval twice; it must rank top.
	if reply.Hits[0].DocID != 2 {
		t.Errorf("top hit = %d (%q), want doc 2", reply.Hits[0].DocID, reply.Hits[0].Title)
	}
}

func TestEmptyQueryAndMisses(t *testing.T) {
	_, _, client := deploy(t)
	if err := client.Ingest(ursa.BuiltinCorpus()); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Search("", 5)
	if err != nil || len(reply.Hits) != 0 {
		t.Errorf("empty query: %v, %d hits", err, len(reply.Hits))
	}
	reply, err = client.Search("zzzzunindexed", 5)
	if err != nil || len(reply.Hits) != 0 {
		t.Errorf("miss query: %v, %d hits", err, len(reply.Hits))
	}
	if _, err := client.Fetch(99999); !errors.Is(err, lcm.ErrRemote) {
		t.Errorf("fetch missing doc: %v", err)
	}
}

func TestLimitRespected(t *testing.T) {
	_, _, client := deploy(t)
	if err := client.Ingest(ursa.GenerateCorpus(50, 42)); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Search("message passing distributed", 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Hits) > 3 {
		t.Errorf("limit ignored: %d hits", len(reply.Hits))
	}
}

func TestSearchSurvivesIndexServerRelocation(t *testing.T) {
	// The paper's testbed requirement: replace a backend while in
	// operation. The search server keeps its cached UAdd; forwarding
	// reaches the replacement.
	w, dep, client := deploy(t)
	if err := client.Ingest(ursa.BuiltinCorpus()); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Search("retrieval", 3); err != nil {
		t.Fatal(err)
	}

	// Relocate the index server to another machine (re-ingesting there,
	// as the 1986 testbed restarted backends with their data).
	if err := dep.IndexModule.Detach(); err != nil {
		t.Fatal(err)
	}
	newHost := w.MustHost("pyramid-idx", machine.Pyramid, "ring")
	m, err := w.Attach(newHost, ursa.IndexServerName, map[string]string{"role": "index"})
	if err != nil {
		t.Fatal(err)
	}
	_ = ursa.NewIndexServer(m)
	// Re-ingest into the replacement through a fresh loader module.
	ingestMod, err := w.Attach(w.MustHost("loader", machine.VAX, "ring"), "loader", nil)
	if err != nil {
		t.Fatal(err)
	}
	loader := ursa.NewClient(ingestMod)
	if err := loader.Ingest(ursa.BuiltinCorpus()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(3 * time.Second)
	var reply ursa.SearchReply
	var searchErr error
	for time.Now().Before(deadline) {
		reply, searchErr = client.Search("retrieval", 3)
		if searchErr == nil && len(reply.Hits) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if searchErr != nil {
		t.Fatalf("search after index relocation: %v", searchErr)
	}
	if len(reply.Hits) == 0 || reply.Hits[0].DocID != 2 {
		t.Errorf("post-relocation hits = %+v", reply.Hits)
	}
}

func TestGenerateCorpusDeterministic(t *testing.T) {
	a := ursa.GenerateCorpus(20, 7)
	b := ursa.GenerateCorpus(20, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("corpus not deterministic")
	}
	c := ursa.GenerateCorpus(20, 8)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should differ")
	}
	if len(ursa.Queries(5, 1)) != 5 {
		t.Error("Queries count")
	}
	for _, d := range a {
		if d.ID == 0 || d.Title == "" || len(strings.Fields(d.Text)) < 10 {
			t.Errorf("degenerate document %+v", d)
		}
	}
}
