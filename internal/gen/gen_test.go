package gen

import (
	"bytes"
	"go/format"
	"os"
	"strings"
	"testing"
)

const sample = `
package sample

type Leaf struct {
	Tag  string
	Vals []int32
}

type Tree struct {
	Name   string
	Count  uint16
	Ratio  float64
	OK     bool
	Raw    []byte
	Leaves []Leaf
	Root   Leaf
	ByName map[string]int64
	Fixed  [3]uint8
}
`

func TestGenerateCompilesAndCovers(t *testing.T) {
	out, err := Generate([]byte(sample), "sample", []string{"Tree"})
	if err != nil {
		t.Fatal(err)
	}
	formatted, err := format.Source(out)
	if err != nil {
		t.Fatalf("generated code does not parse/format: %v\n%s", err, out)
	}
	code := string(formatted)
	for _, want := range []string{
		"func AppendTree(", "func UnmarshalTree(",
		"func AppendLeaf(", "func UnmarshalLeaf(", // dependency emitted
		"e.BytesField(v.Raw)", "sortKeysString(",
		"DO NOT EDIT",
	} {
		if !strings.Contains(code, want) {
			t.Errorf("generated code missing %q", want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate([]byte(sample), "sample", []string{"Tree", "Leaf"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate([]byte(sample), "sample", []string{"Leaf", "Tree", "Leaf"})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("output depends on request order or duplicates")
	}
}

func TestGenerateErrors(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		types []string
	}{
		{"unknown type", sample, []string{"Nope"}},
		{"no types", sample, nil},
		{"bad source", "not go code", []string{"X"}},
		{"unexported field", `package p
type X struct{ hidden int }`, []string{"X"}},
		{"embedded field", `package p
type E struct{ Y }
type Y struct{ A int }`, []string{"E"}},
		{"unsupported kind", `package p
type X struct{ C chan int }`, []string{"X"}},
		{"unsupported map key", `package p
type X struct{ M map[float64]int }`, []string{"X"}},
		{"pointer field", `package p
type X struct{ P *int }`, []string{"X"}},
	}
	for _, tt := range cases {
		if _, err := Generate([]byte(tt.src), "p", tt.types); err == nil {
			t.Errorf("%s: expected error", tt.name)
		}
	}
}

// TestURSAGeneratedCodeIsCurrent regenerates the committed
// internal/ursa/packgen.go and fails if it drifted from the message
// structure definitions.
func TestURSAGeneratedCodeIsCurrent(t *testing.T) {
	src, err := os.ReadFile("../ursa/ursa.go")
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../ursa/packgen.go")
	if err != nil {
		t.Fatal(err)
	}
	types := []string{
		"Document", "IngestRequest", "IngestReply", "IndexLookupRequest",
		"Posting", "IndexLookupReply", "SearchRequest", "Hit", "SearchReply",
		"FetchRequest", "StatsRequest", "StatsReply",
	}
	out, err := Generate(src, "ursa", types)
	if err != nil {
		t.Fatal(err)
	}
	formatted, err := format.Source(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(formatted, want) {
		t.Error("internal/ursa/packgen.go is stale; rerun:\n" +
			"  go run ./cmd/ntcsgen -file internal/ursa/ursa.go -pkg ursa -types " +
			strings.Join(types, ",") + " -out internal/ursa/packgen.go")
	}
}
