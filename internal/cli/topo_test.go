package cli

import (
	"strings"
	"testing"

	"ntcs/internal/addr"
	"ntcs/internal/machine"
)

const sampleTopo = `
# two-shard naming tier, one prime gateway, two workers
nameserver ns0 machine=apollo slot=0 shard=0 bind=backbone=127.0.0.1:4001
nameserver ns1 machine=vax    slot=1 shard=0 bind=backbone=127.0.0.1:4002
nameserver ns2 machine=apollo slot=2 shard=1 bind=backbone=127.0.0.1:4003
gateway    gw1 machine=sun68k prime=true bind=backbone=127.0.0.1:4101,branch=127.0.0.1:4102
gateway    gw2 machine=sun68k networks=backbone,branch
worker     echo-a machine=apollo role=echo networks=backbone
worker     echo-b machine=vax    role=echo networks=branch
`

func parseSample(t *testing.T) *Topology {
	t.Helper()
	topo, err := ParseTopology(strings.NewReader(sampleTopo))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestParseTopology(t *testing.T) {
	topo := parseSample(t)
	if len(topo.Procs) != 7 {
		t.Fatalf("procs = %d, want 7", len(topo.Procs))
	}
	ns1, ok := topo.Proc("ns1")
	if !ok || ns1.Kind != ProcNameServer || ns1.Slot != 1 || ns1.Shard != 0 || ns1.Machine != machine.VAX {
		t.Errorf("ns1 = %+v", ns1)
	}
	if got := ns1.UAdd(); got != addr.NameServer+1 {
		t.Errorf("ns1 UAdd = %v", got)
	}
	gw1, _ := topo.Proc("gw1")
	if !gw1.Prime || gw1.UAdd() != addr.PrimeGatewayBase {
		t.Errorf("gw1 = %+v", gw1)
	}
	gw2, _ := topo.Proc("gw2")
	if gw2.Prime || gw2.UAdd() != addr.Nil || len(gw2.Bindings) != 2 || gw2.Bindings[0].Addr != "" {
		t.Errorf("gw2 = %+v", gw2)
	}
	echoA, _ := topo.Proc("echo-a")
	if echoA.Role != "echo" || len(echoA.NetworkIDs()) != 1 || echoA.NetworkIDs()[0] != "backbone" {
		t.Errorf("echo-a = %+v", echoA)
	}
	if _, ok := topo.Proc("nope"); ok {
		t.Error("Proc(nope) should miss")
	}
}

func TestParseTopologyMalformed(t *testing.T) {
	cases := map[string]string{
		"unknown kind":           "daemon x networks=a",
		"missing name":           "worker",
		"bare token":             "worker w networks=a junk",
		"unknown key":            "worker w networks=a color=red",
		"bad slot":               "nameserver n slot=x shard=0 bind=a=127.0.0.1:1",
		"bad shard":              "nameserver n slot=0 shard=x bind=a=127.0.0.1:1",
		"bad prime":              "gateway g prime=maybe bind=a=127.0.0.1:1,b=127.0.0.1:2",
		"bad machine":            "worker w machine=pdp11 networks=a",
		"bad binding":            "worker w bind=nocolon",
		"no networks":            "worker w machine=apollo",
		"dup name":               "worker w networks=a\nworker w networks=b",
		"dup network":            "worker w networks=a,a",
		"slot out of range":      "nameserver n slot=16 shard=0 bind=a=127.0.0.1:1",
		"negative slot":          "nameserver n slot=-1 shard=0 bind=a=127.0.0.1:1",
		"negative shard":         "nameserver n slot=0 shard=-1 bind=a=127.0.0.1:1",
		"negative anti-entropy":  "nameserver n slot=0 shard=0 anti-entropy=-1s bind=a=127.0.0.1:1",
		"negative tombstone-ttl": "nameserver n slot=0 shard=0 tombstone-ttl=-5m bind=a=127.0.0.1:1",
		"duplicate slot":         "nameserver n0 slot=3 shard=0 bind=a=127.0.0.1:1\nnameserver n1 slot=3 shard=0 bind=a=127.0.0.1:2",
		"gateway one net":        "gateway g bind=a=127.0.0.1:1",
		"shard gap":              "nameserver n0 slot=0 shard=1 bind=a=127.0.0.1:1",
		"four replica shard":     "nameserver n0 slot=0 shard=0 bind=a=127.0.0.1:1\nnameserver n1 slot=1 shard=0 bind=a=127.0.0.1:2\nnameserver n2 slot=2 shard=0 bind=a=127.0.0.1:3\nnameserver n3 slot=3 shard=0 bind=a=127.0.0.1:4",
	}
	for name, spec := range cases {
		if _, err := ParseTopology(strings.NewReader(spec)); err == nil {
			t.Errorf("%s: ParseTopology(%q) should fail", name, spec)
		}
	}
}

func TestTopologyWellKnown(t *testing.T) {
	topo := parseSample(t)
	wk, err := topo.WellKnown()
	if err != nil {
		t.Fatal(err)
	}
	if len(wk.NameServers) != 3 || len(wk.Gateways) != 1 {
		t.Fatalf("wk = %+v", wk)
	}
	// Slot order regardless of file order, shard + serverID derived.
	for i, want := range []struct {
		name  string
		shard int
		id    uint16
	}{{"ns0", 0, 1}, {"ns1", 0, 2}, {"ns2", 1, 3}} {
		e := wk.NameServers[i]
		if e.Name != want.name || e.Shard != want.shard || e.ServerID != want.id ||
			e.UAdd != addr.NameServer+addr.UAdd(i) {
			t.Errorf("NS[%d] = %+v, want %+v", i, e, want)
		}
	}
	gw := wk.Gateways[0]
	if gw.Name != "gw1" || gw.UAdd != addr.PrimeGatewayBase || len(gw.Endpoints) != 2 {
		t.Errorf("gateway entry = %+v", gw)
	}
	if gw.Endpoints[0].Machine != machine.Sun68K {
		t.Errorf("gateway machine = %v", gw.Endpoints[0].Machine)
	}

	// A preloaded process with an ephemeral binding cannot be preloaded.
	eph := `nameserver n0 slot=0 shard=0 networks=a`
	topo2, err := ParseTopology(strings.NewReader(eph))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := topo2.WellKnown(); err == nil {
		t.Error("ephemeral NS binding should fail WellKnown")
	}
}

func TestTopologyNSPeers(t *testing.T) {
	topo := parseSample(t)
	peers := topo.NSPeers("ns0")
	if len(peers) != 1 || peers[0].Name != "ns1" {
		t.Errorf("NSPeers(ns0) = %+v", peers)
	}
	if got := topo.NSPeers("ns2"); len(got) != 0 {
		t.Errorf("NSPeers(ns2) = %+v, want none (lone replica)", got)
	}
	if got := topo.NSPeers("gw1"); got != nil {
		t.Errorf("NSPeers(gw1) = %+v, want nil", got)
	}
}

func TestTopologyFormatRoundTrip(t *testing.T) {
	topo := parseSample(t)
	reparsed, err := ParseTopology(strings.NewReader(topo.Format()))
	if err != nil {
		t.Fatalf("reparse emitted topology: %v\n%s", err, topo.Format())
	}
	if len(reparsed.Procs) != len(topo.Procs) {
		t.Fatalf("round trip lost procs: %d != %d", len(reparsed.Procs), len(topo.Procs))
	}
	for i := range topo.Procs {
		a, b := topo.Procs[i], reparsed.Procs[i]
		if a.Kind != b.Kind || a.Name != b.Name || a.Machine != b.Machine ||
			a.Slot != b.Slot || a.Shard != b.Shard || a.Prime != b.Prime ||
			a.Role != b.Role || len(a.Bindings) != len(b.Bindings) {
			t.Errorf("proc %d: %+v != %+v", i, a, b)
		}
	}
	wantWK, _ := topo.WellKnown()
	gotWK, err := reparsed.WellKnown()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotWK.NameServers) != len(wantWK.NameServers) || len(gotWK.Gateways) != len(wantWK.Gateways) {
		t.Errorf("round trip changed preload: %+v != %+v", gotWK, wantWK)
	}
}
