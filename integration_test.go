package ntcs_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ntcs"
	"ntcs/internal/cli"
	"ntcs/internal/drts/errlog"
	"ntcs/internal/ipcs/mbx"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/internal/nameserver"
	"ntcs/internal/wire"
	"ntcs/sim"
)

const tick = 2 * time.Second

// echoServe answers every call carrying s with "echo:"+s under type "echo".
func echoServe(m *ntcs.Module) { go m.Serve(cli.Echo) }

// oneNetWorld builds a single-network world with a name server.
func oneNetWorld(t *testing.T) (*sim.World, *sim.Host) {
	t.Helper()
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w, nsHost
}

func TestBootstrapRegisterLocateCall(t *testing.T) {
	w, _ := oneNetWorld(t)
	hostA := w.MustHost("vax-1", machine.VAX, "ring")
	hostB := w.MustHost("sun-1", machine.Sun68K, "ring")

	server, err := w.Attach(hostB, "searcher", map[string]string{"role": "search"})
	if err != nil {
		t.Fatal(err)
	}
	echoServe(server)

	client, err := w.Attach(hostA, "host-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if client.UAdd().IsTemp() {
		t.Fatal("module still on a TAdd after Attach")
	}
	if client.UAdd() == server.UAdd() {
		t.Fatal("UAdds must be unique")
	}

	u, err := client.Locate("searcher")
	if err != nil {
		t.Fatal(err)
	}
	if u != server.UAdd() {
		t.Errorf("Locate = %v, want %v", u, server.UAdd())
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "query", "find it", &reply); err != nil {
		t.Fatal(err)
	}
	if reply != "echo:find it" {
		t.Errorf("reply = %q", reply)
	}
}

func TestLocateUnknownName(t *testing.T) {
	w, _ := oneNetWorld(t)
	host := w.MustHost("vax-1", machine.VAX, "ring")
	m, err := w.Attach(host, "lonely", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Locate("no-such-module"); !errors.Is(err, ntcs.ErrNotFound) {
		t.Errorf("got %v, want ErrNotFound", err)
	}
}

func TestTAddsPurgedEverywhereAfterAttach(t *testing.T) {
	// E-TADD / §3.4: registration is the first communication with the NS,
	// the announce the second; afterwards no layer on either side holds a
	// TAdd.
	w, _ := oneNetWorld(t)
	host := w.MustHost("vax-1", machine.VAX, "ring")
	m, err := w.Attach(host, "newborn", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find the NS module: it is the first module the world tracked; use a
	// fresh attachment's view instead — the NS's own tables are what §3.4
	// speaks about, so grab them through the world's NS.
	if got := m.Nucleus().TAddResidue(); got != 0 {
		t.Errorf("client TAdd residue = %d, want 0", got)
	}
}

func TestNameServerTablesFreeOfTAdds(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	nsMod, err := w.StartNameServer(nsHost, "ns")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	host := w.MustHost("vax-1", machine.VAX, "ring")
	for i := 0; i < 3; i++ {
		if _, err := w.Attach(host, fmt.Sprintf("mod-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(tick)
	for time.Now().Before(deadline) && nsMod.Nucleus().TAddResidue() != 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if got := nsMod.Nucleus().TAddResidue(); got != 0 {
		t.Errorf("NS TAdd residue after %d registrations = %d, want 0", 3, got)
	}
	if nsMod.Errors().Count(errlog.CodeTAddReplaced) < 3 {
		t.Errorf("TAdd replacements recorded = %d, want >= 3", nsMod.Errors().Count(errlog.CodeTAddReplaced))
	}
}

type telemetry struct {
	Reading  int32
	Pressure float64
	Valid    bool
	Channel  uint16
	Raw      [4]byte
	Padding  int8
}

func TestConversionModeSelection(t *testing.T) {
	// E-CONV / §5: identical (layout-compatible) machines exchange images;
	// incompatible machines exchange packed representations. Both decode
	// to the same values.
	w, _ := oneNetWorld(t)
	vax1 := w.MustHost("vax-1", machine.VAX, "ring")
	vax2 := w.MustHost("vax-2", machine.VAX, "ring")
	sun := w.MustHost("sun-1", machine.Sun68K, "ring")

	serve := func(m *ntcs.Module, modes chan wire.Mode) {
		go func() {
			for {
				d, err := m.Recv(time.Hour)
				if err != nil {
					return
				}
				modes <- d.Mode()
				var tl telemetry
				if err := d.Decode(&tl); err != nil {
					_ = m.ReplyError(d, err.Error())
					continue
				}
				_ = m.Reply(d, "ack", tl) // echo the struct back
			}
		}()
	}

	vaxSrv, err := w.Attach(vax2, "vax-server", nil)
	if err != nil {
		t.Fatal(err)
	}
	vaxModes := make(chan wire.Mode, 8)
	serve(vaxSrv, vaxModes)

	sunSrv, err := w.Attach(sun, "sun-server", nil)
	if err != nil {
		t.Fatal(err)
	}
	sunModes := make(chan wire.Mode, 8)
	serve(sunSrv, sunModes)

	client, err := w.Attach(vax1, "vax-client", nil)
	if err != nil {
		t.Fatal(err)
	}

	in := telemetry{Reading: -42, Pressure: 1013.25, Valid: true, Channel: 7, Raw: [4]byte{1, 2, 3, 4}, Padding: -1}

	// VAX → VAX: image mode (byte copy, no conversion).
	uVax, err := client.Locate("vax-server")
	if err != nil {
		t.Fatal(err)
	}
	var out telemetry
	if err := client.CallContext(context.Background(), uVax, "telemetry", in, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("VAX→VAX round trip: %+v", out)
	}
	if mode := <-vaxModes; mode != wire.ModeImage {
		t.Errorf("VAX→VAX mode = %v, want image", mode)
	}

	// VAX → Sun: packed mode (conversion applied).
	uSun, err := client.Locate("sun-server")
	if err != nil {
		t.Fatal(err)
	}
	out = telemetry{}
	if err := client.CallContext(context.Background(), uSun, "telemetry", in, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("VAX→Sun round trip: %+v", out)
	}
	if mode := <-sunModes; mode != wire.ModePacked {
		t.Errorf("VAX→Sun mode = %v, want packed", mode)
	}
}

func TestCustomConverterUsed(t *testing.T) {
	w, _ := oneNetWorld(t)
	vax := w.MustHost("vax-1", machine.VAX, "ring")
	sun := w.MustHost("sun-1", machine.Sun68K, "ring")

	server, err := w.Attach(sun, "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Application-defined transport format (§5.1: "it can be entirely
	// application dependent"): a bare decimal string.
	if err := server.RegisterConverter("count", ntcs.Converter{
		Unpack: func(data []byte, out any) error {
			p, ok := out.(*int)
			if !ok {
				return errors.New("want *int")
			}
			_, err := fmt.Sscanf(string(data), "%d", p)
			return err
		},
	}); err != nil {
		t.Fatal(err)
	}
	got := make(chan int, 1)
	go func() {
		d, err := server.Recv(time.Hour)
		if err != nil {
			return
		}
		var n int
		if err := d.Decode(&n); err != nil {
			got <- -1
			return
		}
		got <- n
	}()

	client, err := w.Attach(vax, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.RegisterConverter("count", ntcs.Converter{
		Pack: func(body any) ([]byte, error) {
			return []byte(fmt.Sprintf("%d", body)), nil
		},
	}); err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}
	if err := client.SendMsg(context.Background(), u, "count", 12345); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-got:
		if n != 12345 {
			t.Errorf("decoded %d", n)
		}
	case <-time.After(tick):
		t.Fatal("no delivery")
	}
}

func TestStaticEnvironmentLosesNothing(t *testing.T) {
	// §3.5: "the NTCS can not lose messages in a static environment."
	w, _ := oneNetWorld(t)
	a := w.MustHost("vax-1", machine.VAX, "ring")
	b := w.MustHost("vax-2", machine.VAX, "ring")

	sink, err := w.AttachConfig(b, ntcs.Config{Name: "sink", InboxSize: 4096})
	if err != nil {
		t.Fatal(err)
	}
	src, err := w.Attach(a, "source", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := src.Locate("sink")
	if err != nil {
		t.Fatal(err)
	}
	const count = 500
	for i := 0; i < count; i++ {
		if err := src.SendMsg(context.Background(), u, "seq", int64(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	for i := 0; i < count; i++ {
		d, err := sink.Recv(tick)
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		var n int64
		if err := d.Decode(&n); err != nil {
			t.Fatal(err)
		}
		if n != int64(i) {
			t.Fatalf("message %d arrived as %d (loss or reorder)", i, n)
		}
	}
}

func TestDynamicReconfigurationEndToEnd(t *testing.T) {
	// E-RECONF / §3.5: the searcher is replaced while the host keeps
	// calling its old address; communication transparently reaches the
	// replacement.
	w, _ := oneNetWorld(t)
	hostA := w.MustHost("vax-1", machine.VAX, "ring")
	hostB := w.MustHost("sun-1", machine.Sun68K, "ring")
	hostC := w.MustHost("apollo-1", machine.Apollo, "ring")

	gen1, err := w.Attach(hostB, "searcher", map[string]string{"role": "search"})
	if err != nil {
		t.Fatal(err)
	}
	echoServe(gen1)

	client, err := w.Attach(hostA, "host-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("searcher")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "one", &reply); err != nil {
		t.Fatal(err)
	}

	// The searcher moves to another machine: generation 2.
	if err := gen1.Detach(); err != nil {
		t.Fatal(err)
	}
	gen2, err := w.Attach(hostC, "searcher", map[string]string{"role": "search"})
	if err != nil {
		t.Fatal(err)
	}
	echoServe(gen2)

	// The client still uses the OLD address: §3.3 "An application module
	// need only obtain an address once; module relocation will then occur
	// as required, during all communication, transparent at this
	// interface."
	deadline := time.Now().Add(3 * time.Second)
	var callErr error
	for time.Now().Before(deadline) {
		callErr = client.CallContext(context.Background(), u, "q", "two", &reply)
		if callErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if callErr != nil {
		t.Fatalf("call after relocation: %v", callErr)
	}
	if reply != "echo:two" {
		t.Errorf("reply = %q", reply)
	}
	if client.Errors().Count(errlog.CodeForwarded) == 0 {
		t.Error("no forwarding recorded; relocation was not exercised")
	}

	// Conversion adapts too (§5: "adapts dynamically to the environment
	// as modules are relocated"): gen1 was a Sun (packed from VAX), gen2
	// an Apollo — still packed; but a VAX replacement flips to image.
	if err := gen2.Detach(); err != nil {
		t.Fatal(err)
	}
	hostD := w.MustHost("vax-9", machine.VAX, "ring")
	gen3, err := w.Attach(hostD, "searcher", map[string]string{"role": "search"})
	if err != nil {
		t.Fatal(err)
	}
	modes := make(chan wire.Mode, 8)
	go func() {
		for {
			d, err := gen3.Recv(time.Hour)
			if err != nil {
				return
			}
			modes <- d.Mode()
			var tl telemetry
			if err := d.Decode(&tl); err != nil {
				_ = gen3.ReplyError(d, err.Error())
				continue
			}
			_ = gen3.Reply(d, "ack", tl)
		}
	}()

	// The first call after the fault may still carry the stale (packed)
	// decision; once the forwarding table and cache reflect gen3, the
	// selection flips to image. "Adapts dynamically" means converges, not
	// clairvoyance.
	deadline = time.Now().Add(3 * time.Second)
	var out telemetry
	sawImage := false
	for time.Now().Before(deadline) && !sawImage {
		if err := client.CallContext(context.Background(), u, "tele", telemetry{Reading: 1}, &out); err != nil {
			time.Sleep(20 * time.Millisecond)
			continue
		}
		select {
		case mode := <-modes:
			sawImage = mode == wire.ModeImage
		case <-time.After(tick):
			t.Fatal("no delivery at gen3")
		}
	}
	if !sawImage {
		t.Error("VAX→VAX after relocation never switched to image mode (adaptive selection)")
	}
}

func TestNameServerRemovableAfterResolution(t *testing.T) {
	// E-NSRM / §3.3: "once all necessary addresses have been resolved ...
	// the Name Server can be removed with no consequence, unless the
	// system is reconfigured."
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	nsMod, err := w.StartNameServer(nsHost, "ns")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	a := w.MustHost("vax-1", machine.VAX, "ring")
	b := w.MustHost("vax-2", machine.VAX, "ring")
	server, err := w.Attach(b, "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	echoServe(server)
	client, err := w.Attach(a, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "warm", &reply); err != nil {
		t.Fatal(err)
	}

	// The Name Server goes away.
	if err := nsMod.Detach(); err != nil {
		t.Fatal(err)
	}

	// Ongoing communication is unaffected.
	for i := 0; i < 5; i++ {
		if err := client.CallContext(context.Background(), u, "q", "after", &reply); err != nil {
			t.Fatalf("call %d after NS removal: %v", i, err)
		}
	}
	// But new resolution fails...
	if _, err := client.Locate("server"); err == nil {
		t.Error("Locate should fail with the NS gone")
	}
	// ...and reconfiguration cannot be followed.
	_ = server.Detach()
	deadline := time.Now().Add(tick)
	var callErr error
	for time.Now().Before(deadline) {
		callErr = client.CallContext(context.Background(), u, "q", "gone", &reply)
		if callErr != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if callErr == nil {
		t.Error("calls should fail after the destination died with no NS to consult")
	}
}

func TestDetachDeregisters(t *testing.T) {
	w, _ := oneNetWorld(t)
	host := w.MustHost("vax-1", machine.VAX, "ring")
	m, err := w.Attach(host, "ephemeral", nil)
	if err != nil {
		t.Fatal(err)
	}
	watcher, err := w.Attach(host, "watcher", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := watcher.Locate("ephemeral"); err != nil {
		t.Fatal(err)
	}
	if err := m.Detach(); err != nil {
		t.Fatal(err)
	}
	if _, err := watcher.Locate("ephemeral"); !errors.Is(err, ntcs.ErrNotFound) {
		t.Errorf("Locate after Detach: %v, want ErrNotFound", err)
	}
	// Double detach is safe.
	if err := m.Detach(); err != nil {
		t.Errorf("second Detach: %v", err)
	}
}

func TestAttributeQuery(t *testing.T) {
	// E-NAME / §7: the attribute-value naming successor.
	w, _ := oneNetWorld(t)
	host := w.MustHost("vax-1", machine.VAX, "ring")
	for i := 0; i < 3; i++ {
		attrs := map[string]string{"role": "search", "shard": fmt.Sprintf("%d", i)}
		if _, err := w.Attach(host, fmt.Sprintf("searcher-%d", i), attrs); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Attach(host, "indexer", map[string]string{"role": "index"}); err != nil {
		t.Fatal(err)
	}
	client, err := w.Attach(host, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := client.LocateAttrs(map[string]string{"role": "search"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Errorf("found %d searchers, want 3", len(recs))
	}
	recs, err = client.LocateAttrs(map[string]string{"role": "search", "shard": "1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Name != "searcher-1" {
		t.Errorf("shard query = %+v", recs)
	}
}

func TestALIParameterChecking(t *testing.T) {
	// §2.4: the ALI-Layer "performs parameter checking" and "tailors the
	// error returns".
	w, _ := oneNetWorld(t)
	host := w.MustHost("vax-1", machine.VAX, "ring")
	m, err := w.Attach(host, "checked", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SendMsg(context.Background(), 0, "t", "x"); err == nil {
		t.Error("send to nil address should fail")
	}
	if err := m.SendMsg(context.Background(), m.UAdd(), "", "x"); err == nil {
		t.Error("empty message type should fail")
	}
	if err := m.RegisterConverter("", ntcs.Converter{}); err == nil {
		t.Error("empty converter type should fail")
	}
	if _, err := m.Locate(""); err == nil {
		t.Error("empty name should fail")
	}
	if _, err := ntcs.Attach(ntcs.Config{Name: ""}); err == nil {
		t.Error("attach without a name should fail")
	}
	if _, err := ntcs.Attach(ntcs.Config{Name: "x", Machine: machine.VAX}); err == nil {
		t.Error("attach without networks should fail")
	}
	if _, err := ntcs.Attach(ntcs.Config{Name: "x", Networks: nil}); err == nil {
		t.Error("attach with invalid machine should fail")
	}
}

func TestCrossNetworkThroughGateway(t *testing.T) {
	// Two disjoint networks joined by a prime gateway; the NS lives on
	// "alpha"; a module on "beta" registers, is located, and serves calls
	// — all through the chained circuits of §4.
	w := sim.NewWorld()
	w.AddNetwork("alpha", memnet.Options{})
	w.AddNetwork("beta", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "alpha")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	gwHost := w.MustHost("gw-host", machine.Apollo, "alpha", "beta")
	if _, err := w.StartGateway(gwHost, "gw-ab"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	remote := w.MustHost("sun-remote", machine.Sun68K, "beta")
	local := w.MustHost("vax-local", machine.VAX, "alpha")

	server, err := w.Attach(remote, "remote-searcher", nil)
	if err != nil {
		t.Fatalf("attach across gateway: %v", err)
	}
	echoServe(server)

	client, err := w.Attach(local, "host-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("remote-searcher")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "across", &reply); err != nil {
		t.Fatal(err)
	}
	if reply != "echo:across" {
		t.Errorf("reply = %q", reply)
	}

	// And the reverse direction: the beta module calls back to alpha.
	u2, err := server.Locate("host-1")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		d, err := client.Recv(tick)
		if err != nil {
			done <- err
			return
		}
		done <- client.Reply(d, "r", "pong")
	}()
	var back string
	if err := server.CallContext(context.Background(), u2, "ping", "x", &back); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if back != "pong" {
		t.Errorf("reverse reply = %q", back)
	}
}

func TestOrdinaryGatewayLocatedThroughNamingService(t *testing.T) {
	// §4.1: non-prime gateways are registered with and located through
	// the naming service.
	w := sim.NewWorld()
	w.AddNetwork("alpha", memnet.Options{})
	w.AddNetwork("beta", memnet.Options{})
	w.AddNetwork("gamma", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "alpha")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	// Prime gateway alpha<->beta (preloaded)…
	gw1Host := w.MustHost("gw1-host", machine.Apollo, "alpha", "beta")
	if _, err := w.StartGateway(gw1Host, "gw-ab"); err != nil {
		t.Fatal(err)
	}
	// …and an ordinary gateway beta<->gamma, known only to the NS.
	gw2Host := w.MustHost("gw2-host", machine.Apollo, "beta", "gamma")
	gw2, err := w.StartOrdinaryGateway(gw2Host, "gw-bg")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	farHost := w.MustHost("far", machine.VAX, "gamma")
	nearHost := w.MustHost("near", machine.VAX, "alpha")

	// Hosts on gamma list gw-bg in their own well-known tables — "certain
	// 'prime' gateways" (§3.4) is per-site configuration; without it a
	// gamma module could never reach the Name Server to begin with. The
	// client on alpha has no such preload and must discover gw-bg through
	// the naming service (§4.1).
	farWK := w.WellKnown()
	farWK.Gateways = append(append([]ntcs.WellKnownEntry(nil), farWK.Gateways...), ntcs.WellKnownEntry{
		Name: gw2.Name(), UAdd: gw2.UAdd(), Endpoints: gw2.Endpoints(),
	})

	server, err := w.AttachConfig(farHost, ntcs.Config{Name: "far-server", WellKnown: farWK})
	if err != nil {
		t.Fatalf("attach on gamma: %v", err)
	}
	echoServe(server)
	client, err := w.Attach(nearHost, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("far-server")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "two hops", &reply); err != nil {
		t.Fatal(err)
	}
	if reply != "echo:two hops" {
		t.Errorf("reply = %q", reply)
	}
}

func TestPortabilityMatrix(t *testing.T) {
	// E-PORT / §7: the same application code runs unchanged over each
	// IPCS — the NTCS's central portability claim.
	build := func(t *testing.T, w *sim.World, netID string) {
		nsHost := w.MustHost("ns-host", machine.Apollo, netID)
		if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.Close)
		a := w.MustHost("vax-1", machine.VAX, netID)
		b := w.MustHost("sun-1", machine.Sun68K, netID)
		server, err := w.Attach(b, "server", nil)
		if err != nil {
			t.Fatal(err)
		}
		echoServe(server)
		client, err := w.Attach(a, "client", nil)
		if err != nil {
			t.Fatal(err)
		}
		u, err := client.Locate("server")
		if err != nil {
			t.Fatal(err)
		}
		var reply string
		if err := client.CallContext(context.Background(), u, "q", "portable", &reply); err != nil {
			t.Fatal(err)
		}
		if reply != "echo:portable" {
			t.Errorf("reply = %q", reply)
		}
	}
	t.Run("memnet", func(t *testing.T) {
		w := sim.NewWorld()
		w.AddNetwork("net", memnet.Options{})
		build(t, w, "net")
	})
	t.Run("tcp", func(t *testing.T) {
		w := sim.NewWorld()
		w.AddTCPNetwork("net")
		build(t, w, "net")
	})
	t.Run("mbx", func(t *testing.T) {
		w := sim.NewWorld()
		w.AddMBXNetwork("net", mbx.Options{Capacity: 256})
		build(t, w, "net")
	})
}

func TestCrossIPCSThroughGateway(t *testing.T) {
	// The 1986 deployment's headline: processes distributed across both
	// TCP and Apollo MBX support, joined by the portable gateway.
	w := sim.NewWorld()
	w.AddTCPNetwork("tcp-net")
	w.AddMBXNetwork("mbx-net", mbx.Options{Capacity: 256})
	nsHost := w.MustHost("ns-host", machine.Apollo, "tcp-net")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	gwHost := w.MustHost("gw-host", machine.Apollo, "tcp-net", "mbx-net")
	if _, err := w.StartGateway(gwHost, "gw"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	apolloHost := w.MustHost("apollo-1", machine.Apollo, "mbx-net")
	vaxHost := w.MustHost("vax-1", machine.VAX, "tcp-net")

	server, err := w.Attach(apolloHost, "mbx-server", nil)
	if err != nil {
		t.Fatalf("attach on MBX network: %v", err)
	}
	echoServe(server)
	client, err := w.Attach(vaxHost, "tcp-client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("mbx-server")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "tcp to mbx", &reply); err != nil {
		t.Fatal(err)
	}
	if reply != "echo:tcp to mbx" {
		t.Errorf("reply = %q", reply)
	}
}

// TestDetachedNameServerReadsDead: a Name Server replica that detaches
// retires its own record, so its surviving peer reads it dead — as after
// Drain, and unlike Kill.
func TestDetachedNameServerReadsDead(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	t.Cleanup(w.Close)
	ns1, err := w.StartNameServer(w.MustHost("ns1-host", machine.Apollo, "ring"), "ns-primary")
	if err != nil {
		t.Fatal(err)
	}
	ns2, err := w.StartNameServer(w.MustHost("ns2-host", machine.Apollo, "ring"), "ns-backup")
	if err != nil {
		t.Fatal(err)
	}
	if err := ns1.Detach(); err != nil {
		t.Fatal(err)
	}
	var rec nameserver.Record
	for deadline := time.Now().Add(tick); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if rec, err = ns2.DB().Lookup(ns1.UAdd()); err == nil && !rec.Alive {
			return
		}
	}
	t.Fatalf("surviving replica's record for the detached one: %+v, %v", rec, err)
}

func TestReplicatedNameServerFailover(t *testing.T) {
	// E-NAME / §7: "the latter will be replicated for failure resiliency."
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	h1 := w.MustHost("ns1-host", machine.Apollo, "ring")
	h2 := w.MustHost("ns2-host", machine.Apollo, "ring")
	ns1, err := w.StartNameServer(h1, "ns-primary")
	if err != nil {
		t.Fatal(err)
	}
	ns2, err := w.StartNameServer(h2, "ns-backup")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	host := w.MustHost("vax-1", machine.VAX, "ring")
	server, err := w.Attach(host, "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	echoServe(server)
	client, err := w.Attach(host, "client", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Give replication a moment.
	deadline := time.Now().Add(tick)
	for time.Now().Before(deadline) {
		if _, err := ns2.DB().Resolve("server"); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := ns2.DB().Resolve("server"); err != nil {
		t.Fatalf("backup never learned about the registration: %v", err)
	}

	// Primary dies; resolution falls over to the backup.
	if err := ns1.Detach(); err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatalf("Locate after primary failure: %v", err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "failover", &reply); err != nil {
		t.Fatal(err)
	}
	if reply != "echo:failover" {
		t.Errorf("reply = %q", reply)
	}
}
