package cli

import (
	"testing"
)

func TestParseBindings(t *testing.T) {
	got, err := ParseBindings("a=127.0.0.1:4001, b=127.0.0.1:4002,c=")
	if err != nil {
		t.Fatal(err)
	}
	want := []Binding{
		{Network: "a", Addr: "127.0.0.1:4001"},
		{Network: "b", Addr: "127.0.0.1:4002"},
		{Network: "c", Addr: ""},
	}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("binding %d = %v, want %v", i, got[i], want[i])
		}
	}
	for _, bad := range []string{"", "noequals", "=addr", "a=x,,"} {
		if _, err := ParseBindings(bad); err == nil {
			t.Errorf("ParseBindings(%q) should fail", bad)
		}
	}
}

func TestOpenNetworks(t *testing.T) {
	bindings := []Binding{
		{Network: "a", Addr: "127.0.0.1:0"},
		{Network: "b", Addr: ""},
		{Network: "a", Addr: "127.0.0.1:9"}, // duplicate network: one Net
	}
	nets, hints := OpenNetworks(bindings)
	if len(nets) != 2 {
		t.Errorf("nets = %d, want 2 (deduplicated)", len(nets))
	}
	if hints["a"] != "127.0.0.1:9" || hints["b"] != "" {
		t.Errorf("hints = %v", hints)
	}
}
