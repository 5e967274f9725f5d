// Allocation budget for the compiled packed-mode encoder, enforced as a
// plain test so CI fails the moment the plan executor starts boxing
// scalars or dropping its pooled scratch. Excluded under the race
// detector: -race instruments allocation behaviour and the budget would
// measure the instrumentation.

//go:build !race

package pack

import "testing"

// packedEncodeAllocBudget pins the compiled encode path for a
// representative structured message (scalars, strings, bytes, list, map,
// nested struct): one allocation — the returned stream itself. The plan,
// encoder, sort scratch, and map key scratch are all cached or pooled.
const packedEncodeAllocBudget = 1

func TestPackedEncodeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget skipped in -short mode")
	}
	body := any(convertSample())
	// Warm the plan cache and the pools outside the measured region.
	if _, err := Marshal(body); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := Marshal(body); err != nil {
			t.Fatal(err)
		}
	})
	if avg > packedEncodeAllocBudget {
		t.Errorf("compiled packed encode allocates %.1f/op, budget %d", avg, packedEncodeAllocBudget)
	}
}

// packedDecodeAllocBudget pins the compiled decode path for the same
// message into a reused target: both are the attribute map (its header
// and its group of slots; without the map the decode reads 0). Strings,
// bytes and the int32 list share the pooled decoder's arena, so a third
// allocation means a reflect.Value or a boxed scalar crept into decode.
const packedDecodeAllocBudget = 2

func TestPackedDecodeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget skipped in -short mode")
	}
	data, err := Marshal(convertSample())
	if err != nil {
		t.Fatal(err)
	}
	var out convertMsg
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
	})
	if avg > packedDecodeAllocBudget {
		t.Errorf("compiled packed decode allocates %.1f/op, budget %d", avg, packedDecodeAllocBudget)
	}
}

// structListDecodeAllocBudget pins the decode of a list of structs into a
// reused target: the list's array is the one allocation. Its strings
// share the pooled decoder's arena, and the slice header is written in
// place, so a second allocation means the list went through a
// reflect.Value of its own.
const structListDecodeAllocBudget = 1

func TestStructListDecodeAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget skipped in -short mode")
	}
	type hit struct {
		DocID int64
		Score int64
		Title string
	}
	type reply struct{ Hits []hit }
	data, err := Marshal(reply{Hits: []hit{{1, 3000, "title-1"}, {2, 2000, "title-2"}, {3, 1000, "title-3"}}})
	if err != nil {
		t.Fatal(err)
	}
	var out reply
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
	})
	if avg > structListDecodeAllocBudget {
		t.Errorf("struct-list decode allocates %.1f/op, budget %d", avg, structListDecodeAllocBudget)
	}
}
