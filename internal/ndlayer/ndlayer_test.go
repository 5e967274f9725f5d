package ndlayer

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/drts/errlog"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/internal/retry"
	"ntcs/internal/trace"
	"ntcs/internal/wire"
)

type testIdentity struct {
	mu   sync.Mutex
	u    addr.UAdd
	m    machine.Type
	name string
}

func (id *testIdentity) UAdd() addr.UAdd {
	id.mu.Lock()
	defer id.mu.Unlock()
	return id.u
}

func (id *testIdentity) SetUAdd(u addr.UAdd) {
	id.mu.Lock()
	defer id.mu.Unlock()
	id.u = u
}

func (id *testIdentity) Machine() machine.Type { return id.m }
func (id *testIdentity) Name() string          { return id.name }

type fixture struct {
	binding  *Binding
	identity *testIdentity
	cache    *addr.EndpointCache
	inbound  chan Inbound
	errs     *errlog.Table
	replaced chan [2]addr.UAdd
	down     chan addr.UAdd
}

func newFixture(t *testing.T, net *memnet.Net, name string, u addr.UAdd, m machine.Type) *fixture {
	t.Helper()
	f := &fixture{
		identity: &testIdentity{u: u, m: m, name: name},
		cache:    addr.NewEndpointCache(),
		inbound:  make(chan Inbound, 64),
		errs:     errlog.NewTable(name, 0),
		replaced: make(chan [2]addr.UAdd, 8),
		down:     make(chan addr.UAdd, 8),
	}
	b, err := New(Config{
		Network:      net,
		EndpointHint: name,
		Identity:     f.identity,
		Cache:        f.cache,
		Deliver:      func(in Inbound) { f.inbound <- in },
		OnTAddReplaced: func(old, real addr.UAdd) {
			f.replaced <- [2]addr.UAdd{old, real}
		},
		OnCircuitDown: func(peer addr.UAdd, _ *LVC, _ error) { f.down <- peer },
		Tracer:        trace.New(name, 0),
		Errors:        f.errs,
		OpenTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.binding = b
	t.Cleanup(func() { b.Close() })
	return f
}

// know teaches f where another fixture's endpoint is (standing in for the
// naming service or the well-known preload).
func (f *fixture) know(other *fixture) {
	f.cache.Put(other.identity.UAdd(), other.binding.Endpoint())
}

func dataHeader(src, dst addr.UAdd, m machine.Type) wire.Header {
	h := wire.Header{Type: wire.TData, Src: src, Dst: dst, SrcMachine: m, Mode: wire.ModePacked}
	if src.IsTemp() {
		h.Flags |= wire.FlagSrcTAdd
	}
	return h
}

func recvInbound(t *testing.T, ch chan Inbound) Inbound {
	t.Helper()
	select {
	case in := <-ch:
		return in
	case <-time.After(3 * time.Second):
		t.Fatal("no inbound frame")
		return Inbound{}
	}
}

func TestOpenAndExchange(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	a := newFixture(t, net, "mod-a", 2000, machine.VAX)
	b := newFixture(t, net, "mod-b", 2001, machine.Sun68K)
	a.know(b)

	v, err := a.binding.Open(2001)
	if err != nil {
		t.Fatal(err)
	}
	if v.Peer() != 2001 {
		t.Errorf("Peer = %v", v.Peer())
	}
	if v.PeerMachine() != machine.Sun68K {
		t.Errorf("PeerMachine = %v", v.PeerMachine())
	}
	if v.PeerName() != "mod-b" {
		t.Errorf("PeerName = %q", v.PeerName())
	}
	if v.Network() != "alpha" {
		t.Errorf("Network = %q", v.Network())
	}

	if err := v.Send(dataHeader(2000, 2001, machine.VAX), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	in := recvInbound(t, b.inbound)
	if in.Header.Src != 2000 || string(in.Payload) != "hello" {
		t.Errorf("b got %v %q", in.Header, in.Payload)
	}

	// Reply over the same circuit.
	if err := in.Via.Send(dataHeader(2001, 2000, machine.Sun68K), []byte("world")); err != nil {
		t.Fatal(err)
	}
	back := recvInbound(t, a.inbound)
	if back.Header.Src != 2001 || string(back.Payload) != "world" {
		t.Errorf("a got %v %q", back.Header, back.Payload)
	}
}

func TestOpenExchangeFillsResponderCache(t *testing.T) {
	// §3.3: UAdd→physical mapping is learned from "information exchanged
	// between modules during the channel open protocol".
	net := memnet.New("alpha", memnet.Options{})
	a := newFixture(t, net, "mod-a", 2000, machine.VAX)
	b := newFixture(t, net, "mod-b", 2001, machine.VAX)
	a.know(b)
	if _, err := a.binding.Open(2001); err != nil {
		t.Fatal(err)
	}
	ep, ok := b.cache.Find(2000, "alpha")
	if !ok {
		t.Fatal("responder did not cache opener's endpoint")
	}
	if ep.Addr != "mod-a" || ep.Machine != machine.VAX {
		t.Errorf("cached endpoint = %v", ep)
	}
}

func TestOpenIsIdempotentAndSingleflight(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	a := newFixture(t, net, "mod-a", 2000, machine.VAX)
	b := newFixture(t, net, "mod-b", 2001, machine.VAX)
	a.know(b)

	const goroutines = 16
	lvcs := make([]*LVC, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := a.binding.Open(2001)
			if err != nil {
				t.Errorf("open %d: %v", i, err)
				return
			}
			lvcs[i] = v
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if lvcs[i] != lvcs[0] {
			t.Fatalf("open %d returned a different circuit", i)
		}
	}
	if got := len(a.binding.Circuits()); got != 1 {
		t.Errorf("a has %d circuits, want 1", got)
	}
}

type mapResolver struct {
	mu    sync.Mutex
	eps   map[addr.UAdd]addr.Endpoint
	calls int
}

func (r *mapResolver) LookupEndpoint(u addr.UAdd, network string) (addr.Endpoint, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	ep, ok := r.eps[u]
	if !ok || ep.Network != network {
		return addr.Endpoint{}, fmt.Errorf("no record for %v on %s", u, network)
	}
	return ep, nil
}

func TestResolverUsedOnCacheMiss(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	a := newFixture(t, net, "mod-a", 2000, machine.VAX)
	b := newFixture(t, net, "mod-b", 2001, machine.VAX)

	r := &mapResolver{eps: map[addr.UAdd]addr.Endpoint{2001: b.binding.Endpoint()}}
	a.binding.SetResolver(r)

	if _, err := a.binding.Open(2001); err != nil {
		t.Fatal(err)
	}
	if r.calls != 1 {
		t.Errorf("resolver calls = %d, want 1", r.calls)
	}
	// Second open hits the circuit table; after a Drop, the endpoint cache.
	if _, err := a.binding.Open(2001); err != nil {
		t.Fatal(err)
	}
	a.binding.Drop(2001)
	if _, err := a.binding.Open(2001); err != nil {
		t.Fatal(err)
	}
	if r.calls != 1 {
		t.Errorf("resolver calls after cached reopen = %d, want 1", r.calls)
	}
}

func TestOpenWithoutResolverOrCacheFaults(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	a := newFixture(t, net, "mod-a", 2000, machine.VAX)
	_, err := a.binding.Open(9999)
	var fault *FaultError
	if !errors.As(err, &fault) {
		t.Fatalf("got %v, want FaultError", err)
	}
	if !errors.Is(err, ErrNoEndpoint) {
		t.Errorf("cause = %v, want ErrNoEndpoint", err)
	}
	if fault.Peer != 9999 {
		t.Errorf("fault peer = %v", fault.Peer)
	}
}

func TestOpenToDeadEndpointFaultsAndDropsCache(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	a := newFixture(t, net, "mod-a", 2000, machine.VAX)
	a.cache.Put(3000, addr.Endpoint{Network: "alpha", Addr: "nowhere", Machine: machine.VAX})

	_, err := a.binding.Open(3000)
	var fault *FaultError
	if !errors.As(err, &fault) {
		t.Fatalf("got %v, want FaultError", err)
	}
	if _, ok := a.cache.Find(3000, "alpha"); ok {
		t.Error("stale endpoint should be dropped from the cache")
	}
	// Retry on open was attempted (§2.2): the error table shows retries.
	if a.errs.Count(errlog.CodeOpenRetry) < 2 {
		t.Errorf("open retries = %d, want >= 2", a.errs.Count(errlog.CodeOpenRetry))
	}
}

func TestWrongModuleAtEndpoint(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	a := newFixture(t, net, "mod-a", 2000, machine.VAX)
	b := newFixture(t, net, "mod-b", 2001, machine.VAX)
	// a believes UAdd 7777 lives at b's endpoint.
	a.cache.Put(7777, b.binding.Endpoint())
	_, err := a.binding.Open(7777)
	if !errors.Is(err, ErrWrongModule) {
		t.Fatalf("got %v, want ErrWrongModule", err)
	}
	var fault *FaultError
	if !errors.As(err, &fault) {
		t.Fatal("wrong-module errors must be address faults")
	}
}

// TestOpenWithUnparsableInfoIsRefused: an openInfo that does not parse
// would leave Window 0, which means "uncredited" — one bad frame from
// outside the program must not switch a circuit's flow control off.
// Neither side of the handshake accepts it.
func TestOpenWithUnparsableInfoIsRefused(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	truncated := []byte("(") // a struct opener and nothing else

	// Responder: a raw conn sends a well-formed TOpen around the bad info.
	b := newFixture(t, net, "mod-b", 2001, machine.Sun68K)
	conn, err := net.Dial(b.binding.Endpoint().Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	answered := make(chan []byte, 1)
	closed := make(chan error, 1)
	conn.Start(func(msg []byte, err error) {
		if err != nil {
			closed <- err
			return
		}
		answered <- msg
	})
	open, err := wire.Marshal(wire.Header{Type: wire.TOpen, Src: 2000, Dst: 2001, SrcMachine: machine.VAX, Mode: wire.ModePacked}, truncated)
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(open); err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
	case msg := <-answered:
		t.Fatalf("responder answered an unparsable open with a %d-byte frame", len(msg))
	case <-time.After(3 * time.Second):
		t.Fatal("responder neither closed nor answered")
	}
	if c := b.binding.Circuits(); len(c) != 0 {
		t.Errorf("responder installed circuits %v", c)
	}

	// Dialer: a raw listener acknowledges with the same bad info.
	a := newFixture(t, net, "mod-a", 2000, machine.VAX)
	l, err := net.Listen("garbler")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Start(func(msg []byte, err error) {
			if err != nil {
				return
			}
			ack, _ := wire.Marshal(wire.Header{Type: wire.TOpenAck, Src: 3000, Dst: 2000, SrcMachine: machine.VAX, Mode: wire.ModePacked}, truncated)
			_ = c.Send(ack)
		})
	}()
	a.cache.Put(3000, addr.Endpoint{Network: "alpha", Addr: l.Addr(), Machine: machine.VAX})
	_, err = a.binding.Open(3000)
	var fault *FaultError
	if !errors.Is(err, ErrOpenRejected) || !errors.As(err, &fault) {
		t.Fatalf("dialer got %v, want a FaultError wrapping ErrOpenRejected", err)
	}
	if c := a.binding.Circuits(); len(c) != 0 {
		t.Errorf("dialer installed circuits %v", c)
	}
}

func TestTAddAliasAssignedAndReplaced(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	var src addr.TAddSource
	tadd := src.Next()
	a := newFixture(t, net, "newborn", tadd, machine.VAX)
	ns := newFixture(t, net, "ns", addr.NameServer, machine.Apollo)
	a.know(ns)

	// First communication: source is a TAdd.
	v, err := a.binding.Open(addr.NameServer)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Send(dataHeader(tadd, addr.NameServer, machine.VAX), []byte("register")); err != nil {
		t.Fatal(err)
	}
	in := recvInbound(t, ns.inbound)
	// §3.4: the receiver presents the peer under its own locally assigned
	// alias, not the sender's TAdd.
	if !in.Header.Src.IsTemp() {
		t.Fatalf("delivered Src = %v, want a TAdd alias", in.Header.Src)
	}
	if in.Header.Src == tadd {
		// Possible collision in principle, but the alias source starts at 1
		// like the module's own; ensure it is the receiver's alias by
		// checking the circuit table.
		t.Logf("alias equals sender TAdd (allowed; values are local)")
	}
	if ns.binding.TAddAliasCount() != 1 {
		t.Fatalf("ns alias count = %d, want 1", ns.binding.TAddAliasCount())
	}
	alias := in.Header.Src

	// The NS replies over the arriving circuit.
	if err := in.Via.Send(dataHeader(addr.NameServer, alias, machine.Apollo), []byte("assigned:5000")); err != nil {
		t.Fatal(err)
	}
	reply := recvInbound(t, a.inbound)
	if reply.Header.Src != addr.NameServer {
		t.Errorf("reply Src = %v", reply.Header.Src)
	}

	// The module adopts its real UAdd; its next message purges the alias.
	a.identity.SetUAdd(5000)
	if err := v.Send(dataHeader(5000, addr.NameServer, machine.VAX), []byte("second")); err != nil {
		t.Fatal(err)
	}
	second := recvInbound(t, ns.inbound)
	if second.Header.Src != 5000 {
		t.Errorf("second delivery Src = %v, want UAdd(5000)", second.Header.Src)
	}
	select {
	case pair := <-ns.replaced:
		if pair[0] != alias || pair[1] != 5000 {
			t.Errorf("replacement %v -> %v", pair[0], pair[1])
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnTAddReplaced not called")
	}
	if ns.binding.TAddAliasCount() != 0 {
		t.Errorf("ns alias count after replacement = %d, want 0", ns.binding.TAddAliasCount())
	}
	if ns.errs.Count(errlog.CodeTAddReplaced) != 1 {
		t.Errorf("replacement not recorded in error table")
	}
	// The circuit is now keyed under the real UAdd.
	if _, ok := ns.binding.Lookup(5000); !ok {
		t.Error("circuit not rekeyed under real UAdd")
	}
}

func TestCircuitDownNotification(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	a := newFixture(t, net, "mod-a", 2000, machine.VAX)
	b := newFixture(t, net, "mod-b", 2001, machine.VAX)
	a.know(b)
	v, err := a.binding.Open(2001)
	if err != nil {
		t.Fatal(err)
	}
	// b dies.
	b.binding.Close()
	select {
	case peer := <-a.down:
		if peer != 2001 {
			t.Errorf("down peer = %v", peer)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no circuit-down notification")
	}
	// Sends now fault.
	err = v.Send(dataHeader(2000, 2001, machine.VAX), []byte("x"))
	var fault *FaultError
	if !errors.As(err, &fault) {
		t.Errorf("send on dead circuit: %v, want FaultError", err)
	}
	if a.errs.Count(errlog.CodeCircuitDead) == 0 {
		t.Error("circuit death not recorded")
	}
}

func TestSendFaultRemovesCircuit(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	a := newFixture(t, net, "mod-a", 2000, machine.VAX)
	b := newFixture(t, net, "mod-b", 2001, machine.VAX)
	a.know(b)
	v, err := a.binding.Open(2001)
	if err != nil {
		t.Fatal(err)
	}
	_ = v.Close() // local close; further sends fault
	if err := v.Send(dataHeader(2000, 2001, machine.VAX), nil); err == nil {
		t.Fatal("send on closed LVC should fail")
	}
	// A fresh Open dials a new circuit.
	v2, err := a.binding.Open(2001)
	if err != nil {
		t.Fatal(err)
	}
	if v2 == v {
		t.Error("Open returned the dead circuit")
	}
}

func TestBindingCloseIsIdempotentAndFinal(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	a := newFixture(t, net, "mod-a", 2000, machine.VAX)
	if err := a.binding.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.binding.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.binding.Open(123); !errors.Is(err, ErrClosed) {
		t.Errorf("open after close: %v", err)
	}
}

func TestEndpointRecord(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	a := newFixture(t, net, "mod-a", 2000, machine.Sun68K)
	ep := a.binding.Endpoint()
	if ep.Network != "alpha" || ep.Addr != "mod-a" || ep.Machine != machine.Sun68K {
		t.Errorf("Endpoint = %v", ep)
	}
	if a.binding.Network() != "alpha" {
		t.Errorf("Network = %q", a.binding.Network())
	}
}

// TestCloseInterruptsOpenRetry: a dial retrying against a dead endpoint
// with a long backoff must be cut short the moment the binding closes —
// the 1986 fixed-sleep loop held a closing Nucleus for the full budget.
func TestCloseInterruptsOpenRetry(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	f := &fixture{
		identity: &testIdentity{u: 2000, m: machine.VAX, name: "mod-a"},
		cache:    addr.NewEndpointCache(),
		inbound:  make(chan Inbound, 4),
		errs:     errlog.NewTable("mod-a", 0),
	}
	// Stretch "retry on open" to 50 attempts from 500ms: uninterrupted,
	// the dial would hold its caller for the whole 5s open timeout.
	defer func(p retry.Policy) { dialPolicy = p }(dialPolicy)
	dialPolicy.Attempts = 50
	dialPolicy.BaseDelay = 500 * time.Millisecond
	dialPolicy.MaxDelay = 50 * time.Second
	b, err := New(Config{
		Network:      net,
		EndpointHint: "mod-a",
		Identity:     f.identity,
		Cache:        f.cache,
		Deliver:      func(in Inbound) { f.inbound <- in },
		Errors:       f.errs,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.cache.Put(3000, addr.Endpoint{Network: "alpha", Addr: "nowhere", Machine: machine.VAX})

	openDone := make(chan error, 1)
	go func() {
		_, err := b.Open(3000)
		openDone <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the dial enter its backoff wait
	start := time.Now()
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-openDone:
		if err == nil {
			t.Fatal("open to a dead endpoint succeeded")
		}
		var fault *FaultError
		if !errors.As(err, &fault) {
			t.Errorf("open error = %v, want FaultError", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not interrupt the open retry")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("close returned after %v; retry budget was not interrupted", elapsed)
	}
}

// TestContextInterruptsOpenRetry: a caller deadline cuts the dial
// retries short without touching the binding.
func TestContextInterruptsOpenRetry(t *testing.T) {
	net := memnet.New("alpha", memnet.Options{})
	a := newFixture(t, net, "mod-a", 2000, machine.VAX)
	a.cache.Put(3000, addr.Endpoint{Network: "alpha", Addr: "nowhere", Machine: machine.VAX})

	// Rebuild with a long retry budget via config is not possible on the
	// shared fixture, so exercise the ctx path against the default
	// policy: a pre-expired context must fail fast and report ctx.Err.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := a.binding.OpenContext(ctx, 3000)
	if err == nil {
		t.Fatal("open with dead context succeeded")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("canceled open took %v", elapsed)
	}
	// The binding itself stays usable.
	if _, err := a.binding.Open(3000); err == nil {
		t.Error("open to a dead endpoint should still fault")
	}
}
