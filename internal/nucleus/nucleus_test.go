package nucleus

import (
	"context"
	"testing"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/internal/wire"
)

type ident struct {
	u    addr.UAdd
	m    machine.Type
	name string
}

func (id ident) UAdd() addr.UAdd       { return id.u }
func (id ident) Machine() machine.Type { return id.m }
func (id ident) Name() string          { return id.name }

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("no networks should fail")
	}
	net := memnet.New("one", memnet.Options{})
	if _, err := New(Config{Networks: []ipcs.Network{net}}); err == nil {
		t.Error("no identity should fail")
	}
}

func TestAssemblyAndEndpoints(t *testing.T) {
	net1 := memnet.New("one", memnet.Options{})
	net2 := memnet.New("two", memnet.Options{})
	n, err := New(Config{
		Networks:      []ipcs.Network{net1, net2},
		EndpointHints: map[string]string{"one": "ep1", "two": "ep2"},
		Identity:      ident{u: 2000, m: machine.VAX, name: "m"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	eps := n.Endpoints()
	if len(eps) != 2 {
		t.Fatalf("endpoints = %v", eps)
	}
	byNet := map[string]string{}
	for _, ep := range eps {
		byNet[ep.Network] = ep.Addr
		if ep.Machine != machine.VAX {
			t.Errorf("endpoint machine = %v", ep.Machine)
		}
	}
	if byNet["one"] != "ep1" || byNet["two"] != "ep2" {
		t.Errorf("endpoints = %v", byNet)
	}
	if n.TAddResidue() != 0 {
		t.Errorf("fresh nucleus TAdd residue = %d", n.TAddResidue())
	}
}

func TestWellKnownPreloadReachesCache(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	wk := addr.WellKnown{
		NameServers: []addr.WellKnownEntry{{
			Name: "ns", UAdd: addr.NameServer,
			Endpoints: []addr.Endpoint{{Network: "one", Addr: "ns", Machine: machine.Apollo}},
		}},
		Gateways: []addr.WellKnownEntry{{
			Name: "gw", UAdd: addr.PrimeGatewayBase,
			Endpoints: []addr.Endpoint{
				{Network: "one", Addr: "gw1", Machine: machine.Apollo},
				{Network: "two", Addr: "gw2", Machine: machine.Apollo},
			},
		}},
	}
	n, err := New(Config{
		Networks:  []ipcs.Network{net},
		Identity:  ident{u: 2000, m: machine.VAX, name: "m"},
		WellKnown: wk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, ok := n.Cache.Find(addr.NameServer, "one"); !ok {
		t.Error("NS endpoint not preloaded")
	}
	if _, ok := n.Cache.Find(addr.PrimeGatewayBase, "two"); !ok {
		t.Error("gateway endpoint not preloaded")
	}
	gws := wellKnownGateways(wk)
	if len(gws) != 1 || len(gws[0].Networks) != 2 {
		t.Errorf("wellKnownGateways = %+v", gws)
	}
}

func TestDuplicateNetworkRejected(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	_, err := New(Config{
		Networks: []ipcs.Network{net, net},
		Identity: ident{u: 2000, m: machine.VAX, name: "m"},
	})
	if err == nil {
		t.Error("duplicate network binding should fail")
	}
}

func TestEndToEndThroughNucleus(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	a, err := New(Config{
		Networks:      []ipcs.Network{net},
		EndpointHints: map[string]string{"one": "a"},
		Identity:      ident{u: 2000, m: machine.VAX, name: "a"},
		CallTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := New(Config{
		Networks:      []ipcs.Network{net},
		EndpointHints: map[string]string{"one": "b"},
		Identity:      ident{u: 2001, m: machine.VAX, name: "b"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	a.Cache.Put(2001, addr.Endpoint{Network: "one", Addr: "b", Machine: machine.VAX})
	go func() {
		d, err := b.LCM.Recv(2 * time.Second)
		if err != nil {
			return
		}
		_ = b.LCM.Reply(&d, wire.ModePacked, 0, []byte("pong"))
	}()
	d, err := a.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != "pong" {
		t.Errorf("reply = %q", d.Payload)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	n, err := New(Config{
		Networks: []ipcs.Network{net},
		Identity: ident{u: 2000, m: machine.VAX, name: "m"},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close()
}
