package ntcs_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntcs"
	"ntcs/internal/drts/errlog"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// TestGatewayFailureTeardown is E-GWFAIL (§4.3) at the full-system level:
// the gateway between two networks dies mid-conversation; circuits tear
// down back to the originator; a replacement gateway registered through
// the naming service restores communication (route recomputation).
func TestGatewayFailureTeardown(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("alpha", memnet.Options{})
	w.AddNetwork("beta", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "alpha")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	gw1Host := w.MustHost("gw1-host", machine.Apollo, "alpha", "beta")
	gw1, err := w.StartGateway(gw1Host, "gw-main")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	server, err := w.Attach(w.MustHost("beta-host", machine.VAX, "beta"), "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	echoServe(server)
	client, err := w.Attach(w.MustHost("alpha-host", machine.VAX, "alpha"), "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "before", &reply); err != nil {
		t.Fatal(err)
	}

	// The gateway dies.
	if err := gw1.Detach(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(tick)
	var failErr error
	for time.Now().Before(deadline) {
		failErr = client.CallContext(context.Background(), u, "q", "during", &reply)
		if failErr != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if failErr == nil {
		t.Fatal("calls kept succeeding with the only gateway dead")
	}

	// A standby gateway comes up, registered only with the naming
	// service. The client's stale route is invalidated on failure and
	// the topology re-read.
	gw2Host := w.MustHost("gw2-host", machine.Apollo, "alpha", "beta")
	if _, err := w.StartOrdinaryGateway(gw2Host, "gw-standby"); err != nil {
		t.Fatal(err)
	}
	client.NSP().InvalidateGatewayCache()
	client.Nucleus().IP.InvalidateRoutes()

	deadline = time.Now().Add(3 * time.Second)
	var okErr error
	for time.Now().Before(deadline) {
		okErr = client.CallContext(context.Background(), u, "q", "after", &reply)
		if okErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if okErr != nil {
		t.Fatalf("calls never recovered through the standby gateway: %v", okErr)
	}
	if reply != "echo:after" {
		t.Errorf("reply = %q", reply)
	}
	if client.Errors().Count(errlog.CodeIVCTorn) == 0 && client.Errors().Count(errlog.CodeAddressFault) == 0 {
		t.Error("no teardown or fault recorded at the originator")
	}
}

// TestNetworkPartitionAndHeal breaks the whole network mid-conversation
// and verifies the §3.5 "still alive" path: the modules did not move, so
// after the heal the LCM simply reconnects.
func TestNetworkPartitionAndHeal(t *testing.T) {
	w := sim.NewWorld()
	net := w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	server, err := w.Attach(w.MustHost("vax-1", machine.VAX, "ring"), "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	echoServe(server)
	client, err := w.Attach(w.MustHost("vax-2", machine.VAX, "ring"), "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "pre", &reply); err != nil {
		t.Fatal(err)
	}

	net.SetDown(true)
	if err := client.CallContext(context.Background(), u, "q", "partitioned", &reply); err == nil {
		t.Fatal("call should fail during the partition")
	}
	net.SetDown(false)

	deadline := time.Now().Add(3 * time.Second)
	var healErr error
	for time.Now().Before(deadline) {
		healErr = client.CallContext(context.Background(), u, "q", "healed", &reply)
		if healErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if healErr != nil {
		t.Fatalf("calls never recovered after the heal: %v", healErr)
	}
	if reply != "echo:healed" {
		t.Errorf("reply = %q", reply)
	}
}

// TestLossyNetworkDegradesWithoutWedging injects message loss under live
// traffic: some calls fail (the NTCS does not retransmit — reliability
// is the substrate's job in the paper's design), none wedge, and the
// system returns to full health when the loss stops.
func TestLossyNetworkDegradesWithoutWedging(t *testing.T) {
	w := sim.NewWorld()
	net := w.AddNetwork("ring", memnet.Options{Seed: 11})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	server, err := w.AttachConfig(w.MustHost("vax-1", machine.VAX, "ring"),
		ntcs.Config{Name: "server"})
	if err != nil {
		t.Fatal(err)
	}
	echoServe(server)
	client, err := w.AttachConfig(w.MustHost("vax-2", machine.VAX, "ring"),
		ntcs.Config{Name: "client", CallTimeout: 150 * time.Millisecond, OpenTimeout: 150 * time.Millisecond})
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

	net.SetLossProb(0.10)
	ok, failed := 0, 0
	for i := 0; i < 60; i++ {
		if err := client.CallContext(context.Background(), u, "q", fmt.Sprintf("lossy-%d", i), &reply); err != nil {
			failed++
		} else {
			ok++
		}
	}
	net.SetLossProb(0)
	if ok == 0 {
		t.Error("no call survived 10% loss")
	}
	t.Logf("under 10%% loss: %d ok, %d failed", ok, failed)

	// Full health afterwards.
	echoServe(server)
	deadline := time.Now().Add(3 * time.Second)
	var cleanErr error
	for time.Now().Before(deadline) {
		cleanErr = client.CallContext(context.Background(), u, "q", "clean", &reply)
		if cleanErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if cleanErr != nil {
		t.Fatalf("system wedged after loss stopped: %v", cleanErr)
	}

	// One-way traffic on small windows. Lost data frames leave the
	// receiver's consumed count short and lost grants leave the sender's
	// watermark stale, until a sender is a whole window ahead of grants
	// that will never come. Only the credit probe resyncs the two; one
	// circuit is healed by blocking sends, the other by WithNoBlock sends.
	if _, err := w.AttachConfig(w.MustHost("vax-3", machine.VAX, "ring"),
		ntcs.Config{Name: "sink", CreditWindow: 8, InboxSize: 4096}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sources := make([]*ntcs.Module, 2)
	var su ntcs.UAdd
	for i := range sources {
		src, err := w.AttachConfig(w.MustHost(fmt.Sprintf("vax-%d", 4+i), machine.VAX, "ring"),
			ntcs.Config{Name: fmt.Sprintf("source-%d", i), CreditWaitMax: 200 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if su, err = src.Locate("sink"); err != nil {
			t.Fatal(err)
		}
		if err := src.SendMsg(ctx, su, "tick", []byte("open")); err != nil {
			t.Fatal(err)
		}
		sources[i] = src
	}
	blocking, noBlock := sources[0], sources[1]

	net.SetLossProb(0.20)
	for i := 0; i < 200; i++ {
		for _, src := range sources {
			if err := src.SendMsg(ctx, su, "tick", []byte("lossy"), ntcs.WithNoBlock); err != nil {
				time.Sleep(time.Millisecond) // let grants catch up
			}
		}
	}
	net.SetLossProb(0)

	// Blocking sends probe halfway through their credit wait.
	for i := 0; i < 32; i++ {
		if err := blocking.SendMsg(ctx, su, "tick", []byte("healed")); err != nil {
			t.Fatalf("blocking send %d after the loss stopped: %v", i, err)
		}
	}
	// A refused WithNoBlock send probes too, so the circuit recovers
	// within a bound.
	deadline = time.Now().Add(2 * time.Second)
	for {
		err := noBlock.SendMsg(ctx, su, "tick", []byte("healed"), ntcs.WithNoBlock)
		if err == nil {
			break
		}
		if !errors.Is(err, ntcs.ErrBackpressure) {
			t.Fatalf("WithNoBlock send after the loss stopped: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("WithNoBlock sends still refused 2s after the loss stopped: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInboxOverflowDropsVisibly floods a receiver with a tiny inbox: the
// overflow is dropped (never blocks the network layers) and recorded in
// the running error table (§6.3).
func TestInboxOverflowDropsVisibly(t *testing.T) {
	w, _ := oneNetWorld(t)
	recv, err := w.AttachConfig(w.MustHost("vax-1", machine.VAX, "ring"),
		ntcs.Config{Name: "tiny", InboxSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := w.Attach(w.MustHost("vax-2", machine.VAX, "ring"), "flood", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sender.Locate("tiny")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if err := sender.SendMsg(context.Background(), u, "burst", int64(i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	deadline := time.Now().Add(tick)
	for time.Now().Before(deadline) && recv.Errors().Count(errlog.CodeDroppedMsg) == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	if recv.Errors().Count(errlog.CodeDroppedMsg) == 0 {
		t.Error("overflow not recorded")
	}
	// The receiver still works: drain what survived.
	got := 0
	for {
		if _, err := recv.Recv(100 * time.Millisecond); err != nil {
			break
		}
		got++
	}
	if got == 0 {
		t.Error("nothing delivered at all")
	}
}

// TestConcurrentClientsOneServer drives one server from many clients at
// once: ordering per client holds and nothing deadlocks.
func TestConcurrentClientsOneServer(t *testing.T) {
	w, _ := oneNetWorld(t)
	server, err := w.AttachConfig(w.MustHost("srv", machine.VAX, "ring"),
		ntcs.Config{Name: "server", InboxSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	echoServe(server)

	const clients = 8
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		host := w.MustHost(fmt.Sprintf("cli-%d", c), machine.VAX, "ring")
		mod, err := w.Attach(host, fmt.Sprintf("client-%d", c), nil)
		if err != nil {
			t.Fatal(err)
		}
		u, err := mod.Locate("server")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				msg := fmt.Sprintf("c%d-%d", c, i)
				var reply string
				if err := mod.CallContext(context.Background(), u, "q", msg, &reply); err != nil {
					t.Errorf("client %d call %d: %v", c, i, err)
					return
				}
				if reply != "echo:"+msg {
					t.Errorf("client %d call %d: reply %q", c, i, reply)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestRelocationUnderConcurrentLoad relocates the server while several
// clients hammer it: every client recovers, total disruption is bounded.
func TestRelocationUnderConcurrentLoad(t *testing.T) {
	w, _ := oneNetWorld(t)
	h1 := w.MustHost("vax-1", machine.VAX, "ring")
	h2 := w.MustHost("vax-2", machine.VAX, "ring")
	gen1, err := w.AttachConfig(h1, ntcs.Config{Name: "server", Attrs: map[string]string{"role": "s"}, InboxSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	echoServe(gen1)

	const clients = 4
	mods := make([]*ntcs.Module, clients)
	addrs := make([]ntcs.UAdd, clients)
	for c := 0; c < clients; c++ {
		mod, err := w.Attach(w.MustHost(fmt.Sprintf("c-%d", c), machine.VAX, "ring"), fmt.Sprintf("client-%d", c), nil)
		if err != nil {
			t.Fatal(err)
		}
		u, err := mod.Locate("server")
		if err != nil {
			t.Fatal(err)
		}
		mods[c], addrs[c] = mod, u
	}

	// Progress-based phases (wall-clock windows starve under load): each
	// client must reach okTarget successes; the relocation happens once
	// everyone has made some progress.
	const okTarget = 10
	stop := make(chan struct{})
	type result struct {
		ok, failed atomic.Int64
	}
	results := make([]result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var reply string
				if err := mods[c].CallContext(context.Background(), addrs[c], "q", "x", &reply); err != nil {
					results[c].failed.Add(1)
					time.Sleep(5 * time.Millisecond)
				} else {
					results[c].ok.Add(1)
				}
			}
		}(c)
	}

	waitProgress := func(min int64) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			done := true
			for c := 0; c < clients; c++ {
				if results[c].ok.Load() < min {
					done = false
					break
				}
			}
			if done {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("clients never reached %d successes each", min)
	}

	waitProgress(3)
	before := make([]int64, clients)
	for c := range before {
		before[c] = results[c].ok.Load()
	}
	if err := gen1.Detach(); err != nil {
		t.Fatal(err)
	}
	gen2, err := w.AttachConfig(h2, ntcs.Config{Name: "server", Attrs: map[string]string{"role": "s"}, InboxSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	echoServe(gen2)
	waitProgress(okTarget)
	close(stop)
	wg.Wait()

	for c := 0; c < clients; c++ {
		if got := results[c].ok.Load(); got < okTarget {
			t.Errorf("client %d: only %d successful calls (failed %d)", c, got, results[c].failed.Load())
		}
	}
	// Every client ended up talking to gen2: one more call each.
	for c := 0; c < clients; c++ {
		var reply string
		deadline := time.Now().Add(tick)
		var err error
		for time.Now().Before(deadline) {
			if err = mods[c].CallContext(context.Background(), addrs[c], "q", "final", &reply); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Errorf("client %d final call: %v", c, err)
		}
	}
}

// TestCallTimeoutSurfacesCleanly: a server that never answers produces a
// timeout error, not a hang, and late replies are absorbed.
func TestCallTimeoutSurfacesCleanly(t *testing.T) {
	w, _ := oneNetWorld(t)
	if _, err := w.Attach(w.MustHost("vax-1", machine.VAX, "ring"), "mute", nil); err != nil {
		t.Fatal(err)
	}
	client, err := w.AttachConfig(w.MustHost("vax-2", machine.VAX, "ring"),
		ntcs.Config{Name: "client", CallTimeout: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("mute")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	var reply string
	err = client.CallContext(context.Background(), u, "q", "anyone?", &reply)
	if !errors.Is(err, ntcs.ErrCallTimeout) {
		t.Fatalf("got %v, want ErrCallTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

// TestGatewayFailoverAutomatic is the self-healing counterpart of
// TestGatewayFailureTeardown: the standby gateway is already registered
// when the prime gateway crashes (abruptly — its naming record stays
// alive), and the client recovers with NO manual cache invalidation. The
// IP-Layer's failover loop must exclude the dead hop, re-read the
// topology, and re-route through the standby on its own (§4.3).
func TestGatewayFailoverAutomatic(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("alpha", memnet.Options{})
	w.AddNetwork("beta", memnet.Options{})
	if _, err := w.StartNameServer(w.MustHost("ns-host", machine.Apollo, "alpha"), "ns"); err != nil {
		t.Fatal(err)
	}
	gw1, err := w.StartGateway(w.MustHost("gw1-host", machine.Apollo, "alpha", "beta"), "gw-main")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartOrdinaryGateway(w.MustHost("gw2-host", machine.Apollo, "alpha", "beta"), "gw-standby"); err != nil {
		t.Fatal(err)
	}

	server, err := w.Attach(w.MustHost("beta-host", machine.VAX, "beta"), "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	echoServe(server)
	client, err := w.Attach(w.MustHost("alpha-host", machine.VAX, "alpha"), "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "before", &reply); err != nil {
		t.Fatal(err)
	}

	// The prime gateway crashes without deregistering: the topology still
	// lists it, so failover must learn it is dead the hard way.
	gw1.Kill()

	deadline := time.Now().Add(5 * time.Second)
	var callErr error
	for time.Now().Before(deadline) {
		callErr = client.CallContext(context.Background(), u, "q", "after", &reply)
		if callErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if callErr != nil {
		t.Fatalf("calls never re-routed through the standby gateway: %v", callErr)
	}
	if reply != "echo:after" {
		t.Errorf("reply = %q", reply)
	}
}

// TestNameServerReplicaRotation kills the primary Name Server abruptly
// and verifies the NSP-Layer rotates to the configured replica — and
// stays there (sticky preference), so later requests skip the dead
// primary entirely.
func TestNameServerReplicaRotation(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsPrimary, err := w.StartNameServer(w.MustHost("ns1-host", machine.Apollo, "ring"), "ns-primary")
	if err != nil {
		t.Fatal(err)
	}
	nsReplica, err := w.StartNameServer(w.MustHost("ns2-host", machine.Apollo, "ring"), "ns-replica")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	server, err := w.Attach(w.MustHost("vax-1", machine.VAX, "ring"), "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	echoServe(server)
	client, err := w.Attach(w.MustHost("vax-2", machine.VAX, "ring"), "client", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Replication must deliver the server's record to the replica before
	// the primary dies, or rotation has nothing to answer from.
	deadline := time.Now().Add(tick)
	for time.Now().Before(deadline) {
		if _, err := nsReplica.DB().Resolve("server"); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := nsReplica.DB().Resolve("server"); err != nil {
		t.Fatalf("replica never learned about the registration: %v", err)
	}

	if got := client.NSP().PreferredServer(); got != nsPrimary.UAdd() {
		t.Fatalf("preferred server before the crash = %v, want primary %v", got, nsPrimary.UAdd())
	}

	// The primary crashes without deregistering.
	nsPrimary.Kill()

	u, err := client.Locate("server")
	if err != nil {
		t.Fatalf("Locate after primary crash: %v", err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "rotated", &reply); err != nil {
		t.Fatal(err)
	}
	if reply != "echo:rotated" {
		t.Errorf("reply = %q", reply)
	}
	if got := client.NSP().PreferredServer(); got != nsReplica.UAdd() {
		t.Errorf("preferred server after rotation = %v, want replica %v", got, nsReplica.UAdd())
	}

	// Sticky preference: the next naming request must not re-pay the dead
	// primary's failure before reaching the replica.
	start := time.Now()
	if _, err := client.Locate("server"); err != nil {
		t.Fatalf("Locate via sticky replica: %v", err)
	}
	if elapsed := time.Since(start); elapsed > tick {
		t.Errorf("sticky rotation still took %v", elapsed)
	}
}
