package iplayer

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/drts/errlog"
	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/internal/ndlayer"
	"ntcs/internal/stats"
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

type mapDirectory struct {
	mu   sync.Mutex
	nets map[addr.UAdd]string
	gws  []GatewayInfo
}

func (d *mapDirectory) NetworkOf(u addr.UAdd) (string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n, ok := d.nets[u]
	if !ok {
		return "", fmt.Errorf("directory: no record for %v", u)
	}
	return n, nil
}

func (d *mapDirectory) Gateways() ([]GatewayInfo, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]GatewayInfo, len(d.gws))
	copy(out, d.gws)
	return out, nil
}

// node is a module (or gateway) assembled by hand: ND bindings + IP layer.
type node struct {
	id       ident
	cache    *addr.EndpointCache
	layer    *Layer
	bindings []*ndlayer.Binding
	inbound  chan ndlayer.Inbound
	errs     *errlog.Table
	stats    *stats.Registry
	nets     []ipcs.Network

	// holdDown, when set before any circuit exists, holds the layer's
	// circuit-down handling until it is closed.
	holdDown chan struct{}
}

func newNode(t *testing.T, name string, u addr.UAdd, relay bool, dir Directory, wkGws []GatewayInfo, nets ...ipcs.Network) *node {
	t.Helper()
	n := &node{
		id:      ident{u: u, m: machine.VAX, name: name},
		cache:   addr.NewEndpointCache(),
		inbound: make(chan ndlayer.Inbound, 256),
		errs:    errlog.NewTable(name, 0),
		stats:   stats.New(name),
		nets:    nets,
	}
	// The layer is created after the bindings, but bindings need to deliver
	// into it; route through the node pointer.
	for _, net := range nets {
		b, err := ndlayer.New(ndlayer.Config{
			Network:      net,
			EndpointHint: fmt.Sprintf("%s.%s", name, net.ID()),
			Identity:     n.id,
			Cache:        n.cache,
			Deliver:      func(in ndlayer.Inbound) { n.layer.HandleInbound(in) },
			OnCircuitDown: func(peer addr.UAdd, v *ndlayer.LVC, err error) {
				if n.holdDown != nil {
					<-n.holdDown
				}
				n.layer.HandleCircuitDown(peer, v, err)
			},
			Errors:      n.errs,
			OpenTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.bindings = append(n.bindings, b)
	}
	layer, err := New(Config{
		Bindings:          n.bindings,
		Identity:          n.id,
		Cache:             n.cache,
		WellKnownGateways: wkGws,
		Deliver:           func(in ndlayer.Inbound) { n.inbound <- in },
		RelayEnabled:      relay,
		Errors:            n.errs,
		Stats:             n.stats,
		OpenTimeout:       2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.layer = layer
	if dir != nil {
		layer.SetDirectory(dir)
	}
	t.Cleanup(func() { n.close() })
	return n
}

func (n *node) close() {
	n.layer.Close()
	for _, b := range n.bindings {
		b.Close()
	}
}

// checkCircuitGauge asserts the open-circuit gauge agrees with the
// circuits the layer actually holds: a sweep that deletes a circuit it no
// longer owns would decrement it twice.
func (n *node) checkCircuitGauge(t *testing.T) {
	t.Helper()
	if got, want := n.stats.Gauge(stats.IPCircuitsOpen).Load(), int64(len(n.layer.OpenCircuits())); got != want {
		t.Errorf("%s: %s gauge = %d, open circuits = %d", n.id.name, stats.IPCircuitsOpen, got, want)
	}
}

// learn teaches n the endpoints of another node (all its networks).
func (n *node) learn(other *node) {
	for _, b := range other.bindings {
		n.cache.Put(other.id.u, b.Endpoint())
	}
}

func dataHeader(src, dst addr.UAdd) wire.Header {
	return wire.Header{Type: wire.TData, Src: src, Dst: dst, SrcMachine: machine.VAX, Mode: wire.ModePacked}
}

func recvData(t *testing.T, n *node) ndlayer.Inbound {
	t.Helper()
	select {
	case in := <-n.inbound:
		return in
	case <-time.After(3 * time.Second):
		t.Fatal("no data delivered")
		return ndlayer.Inbound{}
	}
}

// world1gw builds: A on net "one", B on net "two", gateway G on both.
func world1gw(t *testing.T) (a, b, g *node, dir *mapDirectory) {
	net1 := memnet.New("one", memnet.Options{})
	net2 := memnet.New("two", memnet.Options{})
	dir = &mapDirectory{nets: map[addr.UAdd]string{2000: "one", 2001: "two"}}

	g = newNode(t, "gw", addr.PrimeGatewayBase, true, dir, nil, net1, net2)
	wk := []GatewayInfo{{UAdd: addr.PrimeGatewayBase, Name: "gw", Networks: []string{"one", "two"}}}
	a = newNode(t, "a", 2000, false, dir, wk, net1)
	b = newNode(t, "b", 2001, false, dir, wk, net2)

	// Everyone knows the gateway's endpoints (well-known preload); the
	// gateway knows both modules (standing in for the naming service).
	a.learn(g)
	b.learn(g)
	g.learn(a)
	g.learn(b)
	return a, b, g, dir
}

func TestDirectIVCOnSharedNetwork(t *testing.T) {
	net1 := memnet.New("one", memnet.Options{})
	a := newNode(t, "a", 2000, false, nil, nil, net1)
	b := newNode(t, "b", 2001, false, nil, nil, net1)
	a.learn(b)

	ivc, err := a.layer.Open(2001)
	if err != nil {
		t.Fatal(err)
	}
	if !ivc.Direct() {
		t.Error("same-network circuit should be direct")
	}
	if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("hi")); err != nil {
		t.Fatal(err)
	}
	in := recvData(t, b)
	if string(in.Payload) != "hi" || in.Header.Src != 2000 {
		t.Errorf("got %v %q", in.Header, in.Payload)
	}
	if in.Header.Hops != 0 {
		t.Errorf("direct delivery hops = %d", in.Header.Hops)
	}
}

func TestChainedIVCThroughOneGateway(t *testing.T) {
	a, b, g, _ := world1gw(t)

	if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("cross")); err != nil {
		t.Fatal(err)
	}
	in := recvData(t, b)
	if string(in.Payload) != "cross" {
		t.Fatalf("payload %q", in.Payload)
	}
	if in.Header.Src != 2000 {
		t.Errorf("Src = %v, want originator", in.Header.Src)
	}
	if in.Header.Hops != 1 {
		t.Errorf("Hops = %d, want 1", in.Header.Hops)
	}
	if in.Header.Circuit == 0 {
		t.Error("chained delivery should carry a circuit id")
	}
	// The gateway holds both directions of the relay entry.
	if got := g.layer.RelayCount(); got != 2 {
		t.Errorf("gateway relay entries = %d, want 2", got)
	}

	// Reply flows back over the same circuit (reverse relay path).
	if err := b.layer.SendVia(in.Via, in.Header.Circuit, dataHeader(2001, 2000), []byte("back")); err != nil {
		t.Fatal(err)
	}
	back := recvData(t, a)
	if string(back.Payload) != "back" || back.Header.Src != 2001 {
		t.Errorf("reply %v %q", back.Header, back.Payload)
	}

	// The IVC is reused for subsequent sends.
	before := len(a.layer.OpenCircuits())
	if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("again")); err != nil {
		t.Fatal(err)
	}
	recvData(t, b)
	if after := len(a.layer.OpenCircuits()); after != before {
		t.Errorf("circuit count changed %d -> %d", before, after)
	}
}

func TestChainedIVCThroughTwoGateways(t *testing.T) {
	net1 := memnet.New("one", memnet.Options{})
	net2 := memnet.New("two", memnet.Options{})
	net3 := memnet.New("three", memnet.Options{})
	dir := &mapDirectory{nets: map[addr.UAdd]string{2000: "one", 2001: "three"}}

	g1 := newNode(t, "gw1", addr.PrimeGatewayBase, true, dir, nil, net1, net2)
	g2 := newNode(t, "gw2", addr.PrimeGatewayBase+1, true, dir, nil, net2, net3)
	wk := []GatewayInfo{
		{UAdd: addr.PrimeGatewayBase, Name: "gw1", Networks: []string{"one", "two"}},
		{UAdd: addr.PrimeGatewayBase + 1, Name: "gw2", Networks: []string{"two", "three"}},
	}
	// Gateways know each other (well-known preload) and the route topology.
	g1.layer.SetDirectory(dir)
	g2.layer.SetDirectory(dir)
	for _, pair := range [][2]*node{{g1, g2}, {g2, g1}} {
		pair[0].learn(pair[1])
	}
	g1.cache.Put(addr.PrimeGatewayBase+1, g2.bindings[0].Endpoint())

	a := newNode(t, "a", 2000, false, dir, wk, net1)
	b := newNode(t, "b", 2001, false, dir, wk, net3)
	a.learn(g1)
	b.learn(g2)
	g1.learn(a)
	g2.learn(b)

	// g1 must be able to reach g2 over net "two": it has g2's endpoint.
	if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("far")); err != nil {
		t.Fatal(err)
	}
	in := recvData(t, b)
	if string(in.Payload) != "far" {
		t.Fatalf("payload %q", in.Payload)
	}
	if in.Header.Hops != 2 {
		t.Errorf("Hops = %d, want 2", in.Header.Hops)
	}
	// Reply across two gateways.
	if err := b.layer.SendVia(in.Via, in.Header.Circuit, dataHeader(2001, 2000), []byte("far-back")); err != nil {
		t.Fatal(err)
	}
	back := recvData(t, a)
	if string(back.Payload) != "far-back" {
		t.Errorf("reply %q", back.Payload)
	}
}

func TestNoRouteToUnknownNetwork(t *testing.T) {
	net1 := memnet.New("one", memnet.Options{})
	dir := &mapDirectory{nets: map[addr.UAdd]string{3000: "mars"}}
	a := newNode(t, "a", 2000, false, dir, nil, net1)
	err := a.layer.Send(3000, dataHeader(2000, 3000), nil)
	if !errors.Is(err, ErrNoRoute) {
		t.Errorf("got %v, want ErrNoRoute", err)
	}
}

func TestNoDirectoryFaults(t *testing.T) {
	net1 := memnet.New("one", memnet.Options{})
	a := newNode(t, "a", 2000, false, nil, nil, net1)
	err := a.layer.Send(3000, dataHeader(2000, 3000), nil)
	var fault *ndlayer.FaultError
	if !errors.As(err, &fault) {
		t.Fatalf("got %v, want FaultError", err)
	}
	if !errors.Is(err, ErrNoDirectory) {
		t.Errorf("cause = %v", err)
	}
}

func TestGatewayDeathTearsDownCircuits(t *testing.T) {
	a, b, g, _ := world1gw(t)
	if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvData(t, b)

	g.close() // gateway dies

	// The originator's next send must fail (stale IVC dropped, reopen
	// cannot reach the gateway).
	deadline := time.Now().Add(3 * time.Second)
	var err error
	for time.Now().Before(deadline) {
		err = a.layer.Send(2001, dataHeader(2000, 2001), []byte("y"))
		if err != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err == nil {
		t.Fatal("sends kept succeeding after gateway death")
	}
	var fault *ndlayer.FaultError
	if !errors.As(err, &fault) && !errors.Is(err, ErrOpenFailed) {
		t.Errorf("error = %v, want address fault or open failure", err)
	}
}

func TestDestinationDeathPropagatesCloseToOriginator(t *testing.T) {
	a, b, g, _ := world1gw(t)
	if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvData(t, b)
	if len(a.layer.OpenCircuits()) != 1 {
		t.Fatalf("originator circuits = %d", len(a.layer.OpenCircuits()))
	}

	b.close() // destination module dies

	// §4.3: the gateway detects the dead LVC, closes the associated IVC,
	// and the close propagates to the originator. The originator drops
	// the circuit before it records the teardown, so wait for both.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(a.layer.OpenCircuits()) == 0 && g.layer.RelayCount() == 0 && a.errs.Count(errlog.CodeIVCTorn) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := len(a.layer.OpenCircuits()); got != 0 {
		t.Errorf("originator still holds %d circuits", got)
	}
	if got := g.layer.RelayCount(); got != 0 {
		t.Errorf("gateway still holds %d relay entries", got)
	}
	if a.errs.Count(errlog.CodeIVCTorn) == 0 {
		t.Error("teardown not recorded at originator")
	}
	a.checkCircuitGauge(t)
}

func TestNonGatewayRejectsIVCOpen(t *testing.T) {
	net1 := memnet.New("one", memnet.Options{})
	dir := &mapDirectory{nets: map[addr.UAdd]string{2001: "two"}}
	// Module b is NOT a gateway but a names it as one.
	b := newNode(t, "b", addr.PrimeGatewayBase, false, nil, nil, net1)
	wk := []GatewayInfo{{UAdd: addr.PrimeGatewayBase, Name: "b", Networks: []string{"one", "two"}}}
	a := newNode(t, "a", 2000, false, dir, wk, net1)
	a.learn(b)

	err := a.layer.Send(2001, dataHeader(2000, 2001), nil)
	if !errors.Is(err, ErrOpenFailed) {
		t.Errorf("got %v, want ErrOpenFailed", err)
	}
}

func TestDropCircuitsForcesReestablish(t *testing.T) {
	a, b, _, _ := world1gw(t)
	if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("1")); err != nil {
		t.Fatal(err)
	}
	recvData(t, b)
	a.layer.DropCircuits(2001)
	if len(a.layer.OpenCircuits()) != 0 {
		t.Error("DropCircuits left circuits behind")
	}
	if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("2")); err != nil {
		t.Fatal(err)
	}
	in := recvData(t, b)
	if string(in.Payload) != "2" {
		t.Errorf("payload %q", in.Payload)
	}
}

func TestComputeRoute(t *testing.T) {
	gws := []GatewayInfo{
		{UAdd: 16, Networks: []string{"one", "two"}},
		{UAdd: 17, Networks: []string{"two", "three"}},
		{UAdd: 18, Networks: []string{"one", "four"}},
		{UAdd: 19, Networks: []string{"four", "three"}},
	}
	t.Run("local network needs no hops", func(t *testing.T) {
		r, err := ComputeRoute([]string{"one"}, "one", gws)
		if err != nil || r != nil {
			t.Errorf("got %v, %v", r, err)
		}
	})
	t.Run("one hop", func(t *testing.T) {
		r, err := ComputeRoute([]string{"one"}, "two", gws)
		if err != nil {
			t.Fatal(err)
		}
		if len(r) != 1 || r[0].Gateway != 16 || r[0].Via != "one" {
			t.Errorf("route = %+v", r)
		}
	})
	t.Run("two hops shortest", func(t *testing.T) {
		r, err := ComputeRoute([]string{"one"}, "three", gws)
		if err != nil {
			t.Fatal(err)
		}
		if len(r) != 2 {
			t.Fatalf("route = %+v, want 2 hops", r)
		}
	})
	t.Run("no route", func(t *testing.T) {
		if _, err := ComputeRoute([]string{"one"}, "mars", gws); !errors.Is(err, ErrNoRoute) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("no gateways", func(t *testing.T) {
		if _, err := ComputeRoute([]string{"one"}, "two", nil); !errors.Is(err, ErrNoRoute) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("deterministic", func(t *testing.T) {
		r1, _ := ComputeRoute([]string{"one"}, "three", gws)
		for i := 0; i < 10; i++ {
			r2, _ := ComputeRoute([]string{"one"}, "three", gws)
			if len(r1) != len(r2) {
				t.Fatal("route length varies")
			}
			for j := range r1 {
				if r1[j] != r2[j] {
					t.Fatal("route varies between computations")
				}
			}
		}
	})
	t.Run("multi-homed local set", func(t *testing.T) {
		r, err := ComputeRoute([]string{"one", "three"}, "three", gws)
		if err != nil || r != nil {
			t.Errorf("got %v, %v", r, err)
		}
	})
}

func TestRouteCacheInvalidation(t *testing.T) {
	a, b, _, _ := world1gw(t)
	if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("1")); err != nil {
		t.Fatal(err)
	}
	recvData(t, b)
	a.layer.InvalidateRoutes()
	a.layer.DropCircuits(2001)
	if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("2")); err != nil {
		t.Fatal(err)
	}
	recvData(t, b)
}

func TestNoInterGatewayCommunication(t *testing.T) {
	// §4.2: "no inter-gateway communication ever takes place" — gateways
	// exchange frames only as relay hops of module circuits; they never
	// originate traffic to each other. With a single gateway, the only
	// LVCs it holds are to the two endpoint modules.
	a, b, g, _ := world1gw(t)
	if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("x")); err != nil {
		t.Fatal(err)
	}
	recvData(t, b)
	for _, bind := range g.bindings {
		for _, peer := range bind.Circuits() {
			if peer.IsPrimeGateway() {
				t.Errorf("gateway holds an LVC to another gateway (%v)", peer)
			}
		}
	}
	if len(g.layer.OpenCircuits()) != 0 {
		t.Error("gateway originated its own IVCs")
	}
}

func TestRelayTeardownUnderTraffic(t *testing.T) {
	// The §4.3 teardown must be safe to run while frames are mid-flight
	// through the relay it is dismantling: relayFrame reads the relay
	// table lock-free and must never hold a layer lock across the
	// downstream Send, so a concurrent sweep cannot deadlock or race it.
	a, b, g, _ := world1gw(t)
	if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("prime")); err != nil {
		t.Fatal(err)
	}
	recvData(t, b)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Drain the destination so the circuit stays busy, not blocked.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-b.inbound:
			case <-stop:
				return
			}
		}
	}()

	// Hammer the relay from several goroutines until the teardown
	// surfaces as a send failure.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("x")); err != nil {
					return // circuit torn down mid-traffic: expected
				}
			}
		}()
	}

	time.Sleep(20 * time.Millisecond) // let frames pile into the relay
	b.close()                         // far side dies while traffic is in flight

	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) && g.layer.RelayCount() != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if got := g.layer.RelayCount(); got != 0 {
		t.Errorf("relay entries remain after teardown under traffic: %d", got)
	}
	a.checkCircuitGauge(t)
}

func TestCutThroughPreservesFrame(t *testing.T) {
	// A frame relayed by the in-place patch must arrive with the same
	// payload, span, source, and a correctly incremented hop count —
	// byte-for-byte what the old decode→re-marshal relay produced.
	a, b, _, _ := world1gw(t)
	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	h := dataHeader(2000, 2001)
	h.Span = 77
	if err := a.layer.Send(2001, h, payload); err != nil {
		t.Fatal(err)
	}
	in := recvData(t, b)
	if !bytes.Equal(in.Payload, payload) {
		t.Error("payload corrupted through cut-through relay")
	}
	if in.Header.Hops != 1 {
		t.Errorf("Hops = %d, want 1", in.Header.Hops)
	}
	if in.Header.Span != 77 {
		t.Errorf("Span = %d, want 77", in.Header.Span)
	}
	if in.Header.Src != 2000 {
		t.Errorf("Src = %v, want 2000", in.Header.Src)
	}
}

// TestRelayRefusesCallItCannotForward covers a call that reaches a
// gateway after the relay's downstream circuit has died but before the
// caller has seen the relay's close. The gateway must answer it with an
// error reply on the circuit it came in on (same Seq and span,
// ErrDestinationDown's text), so the caller fails at once instead of
// sitting out its CallTimeout. Two windows lead there:
//
//   - downstream dead: the call arrives before the gateway's circuit-down
//     handling has run, so the relay entry is still installed and the
//     forward fails. The test holds that handling back.
//   - relay torn down: the teardown has run and its close is on the way
//     to the caller, so the call finds no relay entry. The test holds the
//     gateway's frames toward the caller (memnet.Net.Hold) until the call
//     is sent.
func TestRelayRefusesCallItCannotForward(t *testing.T) {
	for _, torn := range []bool{false, true} {
		name := "downstream dead"
		if torn {
			name = "relay torn down"
		}
		t.Run(name, func(t *testing.T) {
			a, b, g, _ := world1gw(t)
			hold := make(chan struct{})
			if !torn {
				g.holdDown = hold
			}
			t.Cleanup(func() { close(hold) })

			if err := a.layer.Send(2001, dataHeader(2000, 2001), []byte("prime")); err != nil {
				t.Fatal(err)
			}
			recvData(t, b)

			gwToA := g.bindings[0].Endpoint().Addr
			net1 := g.nets[0].(*memnet.Net)
			if torn {
				net1.Hold(gwToA, true)
			}
			b.close() // the destination dies
			deadline := time.Now().Add(3 * time.Second)
			seen := func() bool {
				if torn {
					return g.layer.RelayCount() == 0
				}
				return g.errs.Count(errlog.CodeCircuitDead) > 0
			}
			for !seen() && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if !seen() {
				t.Fatal("gateway never saw its circuit to the destination die")
			}

			call := dataHeader(2000, 2001)
			call.Flags |= wire.FlagCall
			call.Seq, call.Span = 5, 77
			if err := a.layer.Send(2001, call, []byte("call")); err != nil {
				t.Fatal(err)
			}
			if torn {
				net1.Hold(gwToA, false) // the call is on its way already
			}
			in := recvData(t, a)
			const want = wire.FlagReply | wire.FlagError
			if in.Header.Type != wire.TData || in.Header.Flags&want != want {
				t.Fatalf("caller got %v flags %#x, want an error reply", in.Header.Type, in.Header.Flags)
			}
			if in.Header.Seq != 5 || in.Header.Span != 77 || in.Header.Src != 2001 {
				t.Errorf("refusal seq %d span %d src %v, want 5, 77, 2001", in.Header.Seq, in.Header.Span, in.Header.Src)
			}
			if string(in.Payload) != ErrDestinationDown.Error() {
				t.Errorf("refusal payload %q, want %q", in.Payload, ErrDestinationDown.Error())
			}
			// The relay's close reaches the caller too.
			for len(a.layer.OpenCircuits()) != 0 && time.Now().Before(deadline.Add(3*time.Second)) {
				time.Sleep(5 * time.Millisecond)
			}
			if got := len(a.layer.OpenCircuits()); got != 0 {
				t.Errorf("caller still holds %d circuits after the refusal", got)
			}
		})
	}
}
