package ursa

import (
	"bytes"
	"reflect"
	"testing"

	"ntcs/internal/pack"
)

// checkGenerated decodes a and then b with a generated Unmarshal and with
// pack.Unmarshal, which must agree on the value and on error-or-not. Both
// borrow pooled decoders, so b's decode may reuse the decoder (and the
// arena) a was decoded with; a's result, re-encoded before and after,
// must not have moved.
func checkGenerated[T any](t *testing.T, name string, marshal func(*T) []byte, unmarshal func([]byte, *T) error, a, b []byte) {
	t.Helper()
	decode := func(data []byte) (T, bool) {
		var gen, ref T
		errGen := unmarshal(data, &gen)
		errRef := pack.Unmarshal(data, &ref)
		if (errGen == nil) != (errRef == nil) {
			t.Fatalf("%s %q: generated err %v, pack.Unmarshal err %v", name, data, errGen, errRef)
		}
		if errGen == nil && !reflect.DeepEqual(gen, ref) {
			t.Fatalf("%s %q: generated %+v, pack.Unmarshal %+v", name, data, gen, ref)
		}
		return gen, errGen == nil
	}
	first, ok := decode(a)
	var before []byte
	if ok {
		before = marshal(&first)
	}
	decode(b)
	if ok {
		if after := marshal(&first); !bytes.Equal(before, after) {
			t.Fatalf("%s: decoding %q changed the earlier result of %q: %q became %q", name, b, a, before, after)
		}
	}
}

// FuzzGeneratedCodecEquivalence holds every generated URSA decoder to
// pack.Unmarshal on the same bytes, and checks that decoding through the
// shared decoder pool never disturbs a value decoded before.
func FuzzGeneratedCodecEquivalence(f *testing.F) {
	reply := sampleReply()
	seeds := [][]byte{
		MarshalDocument(&Document{ID: 7, Title: "A Portable NTCS", Text: "message passing"}),
		MarshalIngestRequest(&IngestRequest{Docs: []Document{{ID: 1, Title: "t"}, {ID: 2}}}),
		MarshalIngestRequest(&IngestRequest{}),
		MarshalIndexLookupReply(&IndexLookupReply{Term: "circuit", Postings: []Posting{{DocID: 3, Freq: 2}, {DocID: 9, Freq: 1}}}),
		MarshalIndexLookupReply(&IndexLookupReply{Term: "x", Postings: []Posting{}}),
		MarshalSearchRequest(&SearchRequest{Query: "distributed system", Limit: 5}),
		MarshalSearchReply(&reply),
		MarshalStatsReply(&StatsReply{Requests: 12, Items: 200}),
		[]byte("(i1:7;s0:;s0:;)"),
		[]byte("(s3:abc;l999999999;)"),
		[]byte("i42;"),
		{},
	}
	for _, a := range seeds {
		f.Add(a, seeds[0])
		f.Add(seeds[3], a)
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkGenerated(t, "Document", MarshalDocument, UnmarshalDocument, a, b)
		checkGenerated(t, "IngestRequest", MarshalIngestRequest, UnmarshalIngestRequest, a, b)
		checkGenerated(t, "IngestReply", MarshalIngestReply, UnmarshalIngestReply, a, b)
		checkGenerated(t, "IndexLookupRequest", MarshalIndexLookupRequest, UnmarshalIndexLookupRequest, a, b)
		checkGenerated(t, "Posting", MarshalPosting, UnmarshalPosting, a, b)
		checkGenerated(t, "IndexLookupReply", MarshalIndexLookupReply, UnmarshalIndexLookupReply, a, b)
		checkGenerated(t, "SearchRequest", MarshalSearchRequest, UnmarshalSearchRequest, a, b)
		checkGenerated(t, "Hit", MarshalHit, UnmarshalHit, a, b)
		checkGenerated(t, "SearchReply", MarshalSearchReply, UnmarshalSearchReply, a, b)
		checkGenerated(t, "FetchRequest", MarshalFetchRequest, UnmarshalFetchRequest, a, b)
		checkGenerated(t, "StatsRequest", MarshalStatsRequest, UnmarshalStatsRequest, a, b)
		checkGenerated(t, "StatsReply", MarshalStatsReply, UnmarshalStatsReply, a, b)
	})
}
