package sim

import (
	"context"
	"strings"
	"testing"

	"ntcs/internal/ipcs/mbx"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
)

func TestWorldBuilding(t *testing.T) {
	w := NewWorld()
	w.AddNetwork("a", memnet.Options{})
	w.AddTCPNetwork("b")
	w.AddMBXNetwork("c", mbx.Options{})
	for _, id := range []string{"a", "b", "c"} {
		if _, ok := w.Network(id); !ok {
			t.Errorf("network %q missing", id)
		}
	}
	if _, ok := w.Network("nope"); ok {
		t.Error("unknown network found")
	}

	h, err := w.AddHost("h1", machine.VAX, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := h.NetworkIDs(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("NetworkIDs = %v", got)
	}
	if _, err := w.AddHost("h1", machine.VAX, "a"); err == nil {
		t.Error("duplicate host should fail")
	}
	if _, err := w.AddHost("h2", machine.VAX, "nope"); err == nil {
		t.Error("unknown network should fail")
	}
	if _, err := w.AddHost("h3", machine.VAX); err == nil {
		t.Error("host without networks should fail")
	}
}

func TestMustHostPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustHost should panic on error")
		}
	}()
	w := NewWorld()
	w.MustHost("h", machine.VAX, "missing")
}

func TestGatewayNeedsTwoNetworks(t *testing.T) {
	w := NewWorld()
	w.AddNetwork("a", memnet.Options{})
	h := w.MustHost("h", machine.VAX, "a")
	if _, err := w.StartGateway(h, "gw"); err == nil {
		t.Error("single-network gateway should fail")
	}
	if _, err := w.StartOrdinaryGateway(h, "gw"); err == nil {
		t.Error("single-network ordinary gateway should fail")
	}
}

func TestEndpointHintsPerNetworkType(t *testing.T) {
	w := NewWorld()
	w.AddNetwork("mem", memnet.Options{})
	w.AddTCPNetwork("tcp")
	w.AddMBXNetwork("mbx", mbx.Options{})
	h := w.MustHost("node7", machine.Apollo, "mem", "tcp", "mbx")
	hints := w.hints(h, "searcher")
	if !strings.HasPrefix(hints["mbx"], "/nodes/node7/") {
		t.Errorf("mbx hint = %q, want pathname", hints["mbx"])
	}
	if hints["tcp"] != "" {
		t.Errorf("tcp hint = %q, want ephemeral", hints["tcp"])
	}
	if !strings.Contains(hints["mem"], "searcher") {
		t.Errorf("mem hint = %q", hints["mem"])
	}
	// Hints are unique across calls (relocation reuses logical names).
	h2 := w.hints(h, "searcher")
	if h2["mem"] == hints["mem"] {
		t.Error("hints must be unique per attachment")
	}
}

func TestNameServerLimit(t *testing.T) {
	w := NewWorld()
	w.AddNetwork("a", memnet.Options{})
	h := w.MustHost("h", machine.Apollo, "a")
	defer w.Close()
	for i := 0; i < 3; i++ {
		if _, err := w.StartNameServer(h, "ns"+string(rune('0'+i))); err != nil {
			t.Fatalf("ns %d: %v", i, err)
		}
	}
	if _, err := w.StartNameServer(h, "ns3"); err == nil {
		t.Error("fourth name server should be rejected")
	}
	wk := w.WellKnown()
	if len(wk.NameServers) != 3 {
		t.Errorf("well-known name servers = %d", len(wk.NameServers))
	}
}

func TestCloseDetachesEverything(t *testing.T) {
	w := NewWorld()
	w.AddNetwork("a", memnet.Options{})
	h := w.MustHost("h", machine.Apollo, "a")
	if _, err := w.StartNameServer(h, "ns"); err != nil {
		t.Fatal(err)
	}
	m, err := w.Attach(h, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := m.SendMsg(context.Background(), m.UAdd(), "t", "x"); err == nil {
		t.Error("module should be detached after world close")
	}
	w.Close() // idempotent
}
