// Allocation budget for the generated converters, enforced as a plain
// test so CI fails the moment a generated routine stops borrowing its
// pooled codec. Excluded under the race detector: -race instruments
// allocation behaviour and the budget would measure the instrumentation.

//go:build !race

package ursa

import "testing"

// Generated index-reply codec budgets. Marshal allocates only the
// exact-size stream it returns: the encoder is pooled. Unmarshal
// allocates only the postings slice: the decoder is pooled and the term
// lands in its arena.
const (
	generatedMarshalAllocBudget   = 1
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
	data := MarshalIndexLookupReply(&reply) // warms the encoder pool
	var out IndexLookupReply
	if err := UnmarshalIndexLookupReply(data, &out); err != nil { // warms the decoder pool
		t.Fatal(err)
	}

	marshal := testing.AllocsPerRun(200, func() { MarshalIndexLookupReply(&reply) })
	unmarshal := testing.AllocsPerRun(200, func() {
		if err := UnmarshalIndexLookupReply(data, &out); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("MarshalIndexLookupReply %.0f allocs/op (budget %d), UnmarshalIndexLookupReply %.0f (budget %d)",
		marshal, generatedMarshalAllocBudget, unmarshal, generatedUnmarshalAllocBudget)
	if marshal > generatedMarshalAllocBudget {
		t.Errorf("MarshalIndexLookupReply allocates %.1f/op, budget %d", marshal, generatedMarshalAllocBudget)
	}
	if unmarshal > generatedUnmarshalAllocBudget {
		t.Errorf("UnmarshalIndexLookupReply allocates %.1f/op, budget %d", unmarshal, generatedUnmarshalAllocBudget)
	}
}
