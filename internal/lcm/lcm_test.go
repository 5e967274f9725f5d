package lcm_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/drts/errlog"
	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/iplayer"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
	"ntcs/internal/ndlayer"
	"ntcs/internal/nucleus"
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

// fakeNaming implements nucleus.NamingService from static maps.
type fakeNaming struct {
	mu           sync.Mutex
	eps          map[addr.UAdd][]addr.Endpoint
	nets         map[addr.UAdd]string
	forwardFn    func(addr.UAdd) (addr.UAdd, error)
	forwardCalls atomic.Int32
}

func newFakeNaming() *fakeNaming {
	return &fakeNaming{
		eps:  make(map[addr.UAdd][]addr.Endpoint),
		nets: make(map[addr.UAdd]string),
	}
}

func (f *fakeNaming) add(u addr.UAdd, ep addr.Endpoint) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.eps[u] = append(f.eps[u], ep)
	f.nets[u] = ep.Network
}

func (f *fakeNaming) LookupEndpoint(u addr.UAdd, network string) (addr.Endpoint, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ep := range f.eps[u] {
		if ep.Network == network {
			return ep, nil
		}
	}
	return addr.Endpoint{}, fmt.Errorf("fakeNaming: no endpoint for %v on %s", u, network)
}

func (f *fakeNaming) NetworkOf(u addr.UAdd) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	n, ok := f.nets[u]
	if !ok {
		return "", fmt.Errorf("fakeNaming: no record for %v", u)
	}
	return n, nil
}

func (f *fakeNaming) Gateways() ([]iplayer.GatewayInfo, error) { return nil, nil }

func (f *fakeNaming) Forward(old addr.UAdd) (addr.UAdd, error) {
	f.forwardCalls.Add(1)
	f.mu.Lock()
	fn := f.forwardFn
	f.mu.Unlock()
	if fn != nil {
		return fn(old)
	}
	return addr.Nil, lcm.ErrNoReplacement
}

type module struct {
	nuc  *nucleus.Nucleus
	id   ident
	errs *errlog.Table
}

type modOpts struct {
	wellKnown    addr.WellKnown
	disablePatch bool
	callTimeout  time.Duration
	hint         string
}

func newModule(t *testing.T, net ipcs.Network, name string, u addr.UAdd, naming nucleus.NamingService, o modOpts) *module {
	t.Helper()
	if o.callTimeout == 0 {
		o.callTimeout = 2 * time.Second
	}
	hint := o.hint
	if hint == "" {
		hint = name
	}
	errs := errlog.NewTable(name, 0)
	nuc, err := nucleus.New(nucleus.Config{
		Networks:      []ipcs.Network{net},
		EndpointHints: map[string]string{net.ID(): hint},
		Identity:      ident{u: u, m: machine.VAX, name: name},
		WellKnown:     o.wellKnown,
		Errors:        errs,
		CallTimeout:   o.callTimeout,
		OpenTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.disablePatch {
		nuc.LCM.DisableNSFaultPatch()
	}
	if naming != nil {
		nuc.SetNaming(naming)
	}
	m := &module{nuc: nuc, id: ident{u: u, m: machine.VAX, name: name}, errs: errs}
	t.Cleanup(func() { nuc.Close() })
	return m
}

// serveEcho replies to every call with the same payload prefixed "echo:".
func serveEcho(m *module) {
	go func() {
		for {
			d, err := m.nuc.LCM.Recv(30 * time.Second)
			if err != nil {
				return
			}
			if d.IsCall() {
				_ = m.nuc.LCM.Reply(d, wire.ModePacked, 0, append([]byte("echo:"), d.Payload...))
			}
		}
	}()
}

func TestSendRecvDirect(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	naming.add(2000, a.nuc.Endpoints()[0])

	if err := a.nuc.LCM.SendContext(context.Background(), 2001, wire.ModePacked, 0, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	d, err := b.nuc.LCM.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != "hello" || d.Src() != 2000 {
		t.Errorf("got %v %q", d.Header, d.Payload)
	}
	if d.IsCall() {
		t.Error("plain send marked as call")
	}
}

func TestCallReply(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	serveEcho(b)

	d, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(d.Payload) != "echo:ping" {
		t.Errorf("reply = %q", d.Payload)
	}
	if d.Src() != 2001 {
		t.Errorf("reply Src = %v", d.Src())
	}
	// Sequential calls match their own replies.
	for i := 0; i < 5; i++ {
		msg := fmt.Sprintf("m%d", i)
		d, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte(msg))
		if err != nil {
			t.Fatal(err)
		}
		if string(d.Payload) != "echo:"+msg {
			t.Errorf("call %d: reply %q", i, d.Payload)
		}
	}
}

func TestConcurrentCallsMatchReplies(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	serveEcho(b)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := fmt.Sprintf("c%d", i)
			d, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte(msg))
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if string(d.Payload) != "echo:"+msg {
				t.Errorf("call %d got %q", i, d.Payload)
			}
		}(i)
	}
	wg.Wait()
}

func TestReplyError(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	go func() {
		d, err := b.nuc.LCM.Recv(10 * time.Second)
		if err != nil {
			return
		}
		_ = b.nuc.LCM.ReplyError(d, "no such document")
	}()

	_, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte("fetch"))
	if !errors.Is(err, lcm.ErrRemote) {
		t.Fatalf("got %v, want ErrRemote", err)
	}
	if want := "no such document"; !errors.Is(err, lcm.ErrRemote) || err.Error() == want {
		// the message is embedded
		_ = want
	}
}

// TestInboxOverflowRefusesCalls: a call that finds the callee's inbox full
// is answered at once with an error reply naming the overflow, instead of
// being dropped and left to the caller's CallTimeout. The caller sees an
// ErrRemote that also matches ErrBackpressure; an ordinary error reply
// does not.
func TestInboxOverflowRefusesCalls(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{callTimeout: 5 * time.Second})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	// Open the circuit first (a ping never touches the inbox), so the
	// refusal time below is not the handshake's.
	if err := a.nuc.LCM.Ping(2001, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// b never calls Recv: its inbox (the default 256) fills and stays
	// full, and every call past it must be refused.
	const calls, inbox = 300, 256
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		err  error
		took time.Duration
	}
	results := make(chan result, calls)
	for i := 0; i < calls; i++ {
		go func() {
			start := time.Now()
			_, err := a.nuc.LCM.CallContext(ctx, 2001, wire.ModePacked, 0, []byte("q"))
			results <- result{err, time.Since(start)}
		}()
	}
	received := 0
	defer func() {
		cancel() // releases the calls parked in b's inbox
		for ; received < calls; received++ {
			<-results
		}
	}()
	timeout := time.After(2 * time.Second)
	for i := 0; i < calls-inbox; i++ {
		select {
		case r := <-results:
			received++
			if !errors.Is(r.err, lcm.ErrRemote) || !strings.Contains(r.err.Error(), lcm.ErrInboxOverflow.Error()) {
				t.Fatalf("refused call %d: %v, want an ErrRemote naming the inbox overflow", i, r.err)
			}
			if !errors.Is(r.err, ndlayer.ErrBackpressure) {
				t.Fatalf("refused call %d: %v does not match ErrBackpressure", i, r.err)
			}
			if r.took > 200*time.Millisecond {
				t.Errorf("refused call %d took %v, want < 200ms", i, r.took)
			}
		case <-timeout:
			t.Fatalf("%d of %d calls past the inbox refused within 2s; the rest are waiting out CallTimeout", i, calls-inbox)
		}
	}
	select {
	case r := <-results:
		received++
		t.Fatalf("a call held in the inbox returned: %v", r.err)
	case <-time.After(50 * time.Millisecond):
	}
	if other := (&lcm.RemoteError{Src: 2001, Msg: "no such document"}); errors.Is(other, ndlayer.ErrBackpressure) {
		t.Errorf("an ordinary error reply matches ErrBackpressure: %v", other)
	}
}

func TestCallTimeout(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{callTimeout: 100 * time.Millisecond})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	// b never replies.
	_, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte("void"))
	if !errors.Is(err, lcm.ErrCallTimeout) {
		t.Fatalf("got %v, want ErrCallTimeout", err)
	}
}

func TestLateReplyAbsorbed(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{callTimeout: 50 * time.Millisecond})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	go func() {
		d, err := b.nuc.LCM.Recv(10 * time.Second)
		if err != nil {
			return
		}
		time.Sleep(200 * time.Millisecond) // past a's timeout
		_ = b.nuc.LCM.Reply(d, wire.ModePacked, 0, []byte("too late"))
	}()
	if _, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte("x")); !errors.Is(err, lcm.ErrCallTimeout) {
		t.Fatalf("got %v", err)
	}
	// The late reply is absorbed and recorded, not delivered to the inbox.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && a.errs.Count(errlog.CodeDroppedMsg) == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if a.errs.Count(errlog.CodeDroppedMsg) == 0 {
		t.Error("late reply not recorded in error table")
	}
	if _, err := a.nuc.LCM.Recv(50 * time.Millisecond); err == nil {
		t.Error("late reply leaked into the inbox")
	}
}

func TestDynamicReconfigurationForwarding(t *testing.T) {
	// §3.5: b dies; replacement b2 comes up under a new UAdd; the naming
	// service maps old→new; a's sends reach b2 transparently.
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	serveEcho(b)

	// Warm the circuit.
	if _, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte("1")); err != nil {
		t.Fatal(err)
	}

	// b is replaced by b2.
	b.nuc.Close()
	b2 := newModule(t, net, "b2", 2002, naming, modOpts{})
	naming.add(2002, b2.nuc.Endpoints()[0])
	naming.mu.Lock()
	naming.forwardFn = func(old addr.UAdd) (addr.UAdd, error) {
		if old == 2001 {
			return 2002, nil
		}
		return addr.Nil, lcm.ErrNoReplacement
	}
	naming.mu.Unlock()
	serveEcho(b2)

	// The old address still works from the application's viewpoint.
	d, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte("2"))
	if err != nil {
		t.Fatalf("call after relocation: %v", err)
	}
	if string(d.Payload) != "echo:2" {
		t.Errorf("reply = %q", d.Payload)
	}
	if d.Src() != 2002 {
		t.Errorf("reply came from %v, want the replacement 2002", d.Src())
	}
	if a.errs.Count(errlog.CodeAddressFault) == 0 || a.errs.Count(errlog.CodeForwarded) == 0 {
		t.Error("fault and forwarding not recorded")
	}
	// The forwarding table now short-circuits: no second resolver call.
	calls := naming.forwardCalls.Load()
	if _, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte("3")); err != nil {
		t.Fatal(err)
	}
	if naming.forwardCalls.Load() != calls {
		t.Error("forwarding table not consulted before the naming service")
	}
}

func TestNoReplacementReturnsError(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	if err := a.nuc.LCM.SendContext(context.Background(), 2001, wire.ModePacked, 0, []byte("1")); err != nil {
		t.Fatal(err)
	}
	b.nuc.Close()
	// Forward has no answer.
	var err error
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		err = a.nuc.LCM.SendContext(context.Background(), 2001, wire.ModePacked, 0, []byte("2"))
		if err != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !errors.Is(err, lcm.ErrNoReplacement) {
		t.Fatalf("got %v, want ErrNoReplacement", err)
	}
}

func TestStillAliveTriggersReconnect(t *testing.T) {
	// The module is alive but the link broke: the naming service reports
	// ErrStillAlive and the LCM re-establishes the connection.
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	naming.forwardFn = func(addr.UAdd) (addr.UAdd, error) { return addr.Nil, lcm.ErrStillAlive }
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	serveEcho(b)

	if _, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte("1")); err != nil {
		t.Fatal(err)
	}
	// Break the link without killing b.
	net.Isolate("b", true)
	time.Sleep(20 * time.Millisecond)
	net.Isolate("b", false)
	serveEcho(b) // its recv loop may have exited with the broken circuits

	d, err := a.nuc.LCM.CallContext(context.Background(), 2001, wire.ModePacked, 0, []byte("2"))
	if err != nil {
		t.Fatalf("call after link repair: %v", err)
	}
	if string(d.Payload) != "echo:2" {
		t.Errorf("reply = %q", d.Payload)
	}
}

func TestConnectionlessNoRecovery(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])
	if err := a.nuc.LCM.SendContext(context.Background(), 2001, wire.ModePacked, wire.FlagConnless, []byte("cl")); err != nil {
		t.Fatal(err)
	}
	if d, err := b.nuc.LCM.Recv(2 * time.Second); err != nil || string(d.Payload) != "cl" {
		t.Fatalf("recv: %v %q", err, d.Payload)
	}
	b.nuc.Close()
	var err error
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		err = a.nuc.LCM.SendContext(context.Background(), 2001, wire.ModePacked, wire.FlagConnless, []byte("cl2"))
		if err != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err == nil {
		t.Fatal("connectionless send to dead module should eventually fail")
	}
	if naming.forwardCalls.Load() != 0 {
		t.Error("connectionless protocol must not attempt relocation")
	}
	if a.errs.Count(errlog.CodeDroppedMsg) == 0 {
		t.Error("drop not recorded")
	}
}

func wellKnownNS(ep addr.Endpoint) addr.WellKnown {
	return addr.WellKnown{
		NameServers: []addr.WellKnownEntry{{
			Name: "ns", UAdd: addr.NameServer, Endpoints: []addr.Endpoint{ep},
		}},
	}
}

func TestNameServerFaultPatchRedialsWellKnown(t *testing.T) {
	// §6.3 with the patch: a dead Name Server circuit is redialed at the
	// well-known address instead of consulting the naming service about
	// itself.
	net := memnet.New("one", memnet.Options{})
	nsEp := addr.Endpoint{Network: "one", Addr: "ns", Machine: machine.VAX}
	wk := wellKnownNS(nsEp)

	naming := newFakeNaming()
	ns := newModule(t, net, "ns", addr.NameServer, nil, modOpts{hint: "ns"})
	serveEcho(ns)
	a := newModule(t, net, "a", 2000, naming, modOpts{wellKnown: wk})

	if _, err := a.nuc.LCM.CallContext(context.Background(), addr.NameServer, wire.ModePacked, wire.FlagService, []byte("q1")); err != nil {
		t.Fatal(err)
	}

	// The NS dies. Sends during the outage hit the address fault; the
	// patch redials the well-known address instead of asking the naming
	// service about the Name Server.
	ns.nuc.Close()
	deadline := time.Now().Add(2 * time.Second)
	var outageErr error
	for time.Now().Before(deadline) {
		outageErr = a.nuc.LCM.SendContext(context.Background(), addr.NameServer, wire.ModePacked, wire.FlagService, []byte("during outage"))
		if outageErr != nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if outageErr == nil {
		t.Fatal("sends kept succeeding while the NS was down")
	}
	if a.errs.Count(errlog.CodeNSFaultPatch) == 0 {
		t.Error("patch engagement not recorded")
	}
	if naming.forwardCalls.Load() != 0 {
		t.Error("patched handler must not ask the naming service about the Name Server")
	}

	// The NS process restarts at the same well-known endpoint; the
	// redialed connection succeeds.
	ns2 := newModule(t, net, "ns2", addr.NameServer, nil, modOpts{hint: "ns"})
	serveEcho(ns2)
	d, err := a.nuc.LCM.CallContext(context.Background(), addr.NameServer, wire.ModePacked, wire.FlagService, []byte("q2"))
	if err != nil {
		t.Fatalf("call after NS restart: %v", err)
	}
	if string(d.Payload) != "echo:q2" {
		t.Errorf("reply = %q", d.Payload)
	}
}

func TestNameServerCircuitBreakPathologyWithoutPatch(t *testing.T) {
	// §6.3 without the patch: "It will see the dead circuit, and
	// recursively run through this whole thing until either the stack
	// overflows, or the connection can be reestablished with the Name
	// Server, whichever occurs first."
	net := memnet.New("one", memnet.Options{})
	nsEp := addr.Endpoint{Network: "one", Addr: "ns", Machine: machine.VAX}
	wk := wellKnownNS(nsEp)

	ns := newModule(t, net, "ns", addr.NameServer, nil, modOpts{hint: "ns"})
	serveEcho(ns)
	a := newModule(t, net, "a", 2000, nil, modOpts{wellKnown: wk, disablePatch: true, callTimeout: 500 * time.Millisecond})

	// The resolver is "a real NSP": Forward asks the Name Server — through
	// this very layer — about the dead address.
	recursiveResolver := &recursingResolver{layer: a.nuc.LCM}
	a.nuc.LCM.SetResolver(recursiveResolver)
	a.nuc.IP.SetDirectory(newFakeNaming())

	if _, err := a.nuc.LCM.CallContext(context.Background(), addr.NameServer, wire.ModePacked, wire.FlagService, []byte("q1")); err != nil {
		t.Fatal(err)
	}

	ns.nuc.Close() // the Name Server dies; its circuit is dead
	time.Sleep(20 * time.Millisecond)

	err := a.nuc.LCM.SendContext(context.Background(), addr.NameServer, wire.ModePacked, wire.FlagService, []byte("q2"))
	if err == nil {
		t.Fatal("send to dead NS should fail")
	}
	if !errors.Is(err, lcm.ErrFaultRecursion) {
		t.Fatalf("got %v, want the recursion overflow", err)
	}
	if a.errs.Count(errlog.CodeNSRecursion) == 0 {
		t.Error("recursion not recorded")
	}
	if got := recursiveResolver.calls.Load(); got < 4 {
		t.Errorf("resolver recursed only %d times", got)
	}
}

// recursingResolver reproduces the NSP behavior that triggers §6.3: asking
// the Name Server for a forwarding address via the LCM layer itself.
type recursingResolver struct {
	layer *lcm.Layer
	calls atomic.Int32
}

func (r *recursingResolver) Forward(old addr.UAdd) (addr.UAdd, error) {
	r.calls.Add(1)
	_, err := r.layer.CallContext(context.Background(), addr.NameServer, wire.ModePacked, wire.FlagService, []byte("forward?"))
	if err != nil {
		return addr.Nil, err
	}
	return addr.Nil, lcm.ErrNoReplacement
}

func TestHooksFireOnOrdinarySendsOnly(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])

	var mu sync.Mutex
	var events []lcm.Event
	var nowCalls int
	a.nuc.LCM.SetHooks(lcm.Hooks{
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			nowCalls++
			return time.Now()
		},
		Record: func(ev lcm.Event) {
			mu.Lock()
			defer mu.Unlock()
			events = append(events, ev)
		},
	})

	if err := a.nuc.LCM.SendContext(context.Background(), 2001, wire.ModePacked, 0, []byte("user data")); err != nil {
		t.Fatal(err)
	}
	if err := a.nuc.LCM.SendContext(context.Background(), 2001, wire.ModePacked, wire.FlagService, []byte("service data")); err != nil {
		t.Fatal(err)
	}
	if err := a.nuc.LCM.SendContext(context.Background(), 2001, wire.ModePacked, wire.FlagConnless, []byte("connless")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if nowCalls != 1 {
		t.Errorf("time hook called %d times, want 1 (service/connless suppressed)", nowCalls)
	}
	if len(events) != 1 || events[0].Kind != "send" || events[0].Peer != 2001 || events[0].Bytes != 9 {
		t.Errorf("events = %+v", events)
	}
}

func TestRecvHookOnInbound(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])

	events := make(chan lcm.Event, 4)
	b.nuc.LCM.SetHooks(lcm.Hooks{Record: func(ev lcm.Event) { events <- ev }})
	if err := a.nuc.LCM.SendContext(context.Background(), 2001, wire.ModePacked, 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Kind != "recv" || ev.Peer != 2000 {
			t.Errorf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no recv event")
	}
}

func TestPing(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	naming := newFakeNaming()
	a := newModule(t, net, "a", 2000, naming, modOpts{})
	b := newModule(t, net, "b", 2001, naming, modOpts{})
	naming.add(2001, b.nuc.Endpoints()[0])

	if err := a.nuc.LCM.Ping(2001, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	b.nuc.Close()
	time.Sleep(20 * time.Millisecond)
	if err := a.nuc.LCM.Ping(2001, 200*time.Millisecond); err == nil {
		t.Error("ping to dead module should fail")
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	net := memnet.New("one", memnet.Options{})
	a := newModule(t, net, "a", 2000, nil, modOpts{})
	done := make(chan error, 1)
	go func() {
		_, err := a.nuc.LCM.Recv(30 * time.Second)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	a.nuc.LCM.Close()
	select {
	case err := <-done:
		if !errors.Is(err, lcm.ErrClosed) {
			t.Errorf("got %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv not unblocked by Close")
	}
	if err := a.nuc.LCM.SendContext(context.Background(), 2001, wire.ModePacked, 0, nil); !errors.Is(err, lcm.ErrClosed) {
		t.Errorf("send after close: %v", err)
	}
}

func TestTAddResidueZeroAfterRegistration(t *testing.T) {
	// A module born with a TAdd talks to the NS twice; afterwards no table
	// anywhere still holds a TAdd (§3.4).
	net := memnet.New("one", memnet.Options{})
	nsEp := addr.Endpoint{Network: "one", Addr: "ns", Machine: machine.VAX}
	wk := wellKnownNS(nsEp)

	ns := newModule(t, net, "ns", addr.NameServer, nil, modOpts{hint: "ns"})
	serveEcho(ns)

	var src addr.TAddSource
	tadd := src.Next()
	errs := errlog.NewTable("newborn", 0)
	id := &mutableIdent{u: tadd, name: "newborn"}
	nuc, err := nucleus.New(nucleus.Config{
		Networks:      []ipcs.Network{net},
		EndpointHints: map[string]string{"one": "newborn"},
		Identity:      id,
		WellKnown:     wk,
		Errors:        errs,
		CallTimeout:   2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer nuc.Close()

	// Communication 1: "registration" (carries the TAdd).
	if _, err := nuc.LCM.CallContext(context.Background(), addr.NameServer, wire.ModePacked, wire.FlagService, []byte("register")); err != nil {
		t.Fatal(err)
	}
	if ns.nuc.TAddResidue() == 0 {
		t.Fatal("NS should hold a TAdd alias after the first communication")
	}
	// The module adopts its real UAdd.
	id.set(5000)
	// Communication 2: any message from the real UAdd purges the TAdds.
	if _, err := nuc.LCM.CallContext(context.Background(), addr.NameServer, wire.ModePacked, wire.FlagService, []byte("confirm")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && ns.nuc.TAddResidue() != 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := ns.nuc.TAddResidue(); got != 0 {
		t.Errorf("NS TAdd residue after two communications = %d, want 0", got)
	}
}

type mutableIdent struct {
	mu   sync.Mutex
	u    addr.UAdd
	name string
}

func (id *mutableIdent) UAdd() addr.UAdd {
	id.mu.Lock()
	defer id.mu.Unlock()
	return id.u
}

func (id *mutableIdent) set(u addr.UAdd) {
	id.mu.Lock()
	defer id.mu.Unlock()
	id.u = u
}

func (id *mutableIdent) Machine() machine.Type { return machine.VAX }
func (id *mutableIdent) Name() string          { return id.name }
