package ntcs_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"ntcs"
	"ntcs/internal/core"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// endpointOn returns m's physical address on the network netID.
func endpointOn(t *testing.T, m *core.Module, netID string) string {
	t.Helper()
	for _, ep := range m.Endpoints() {
		if ep.Network == netID {
			return ep.Addr
		}
	}
	t.Fatalf("%s has no endpoint on %s", m.Name(), netID)
	return ""
}

// TestBackpressureDirect starves a direct circuit of credit — the
// simulator holds every grant the receiver sends — and asserts the
// full contract: WithNoBlock sends fail fast with an error matching
// ntcs.ErrBackpressure whose inspectable form carries the peer and queue
// depth; blocking sends give up after the module's CreditWaitMax; every
// send that returned nil is delivered intact and in order; and once the
// hold is released, sending works again.
func TestBackpressureDirect(t *testing.T) {
	w := sim.NewWorld()
	ring := w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	const window = 8
	recv, err := w.AttachConfig(w.MustHost("recv-host", machine.VAX, "ring"), core.Config{
		Name:         "bp-receiver",
		CreditWindow: window,
		InboxSize:    4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := w.AttachConfig(w.MustHost("send-host", machine.VAX, "ring"), core.Config{
		Name:          "bp-sender",
		CreditWaitMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := sender.Locate("bp-receiver")
	if err != nil {
		t.Fatal(err)
	}

	// Open the circuit while the receiver is healthy: the hold below
	// stalls the open handshake's answer too.
	ctx := context.Background()
	if err := sender.SendMsg(ctx, u, "prime", []byte("prime")); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Recv(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Slow-loris the receiver: its ND-Layer still drains frames, but none
	// of its credit grants arrive.
	recvAddr := endpointOn(t, recv, "ring")
	ring.Hold(recvAddr, true)

	accepted := 0
	// fill pumps WithNoBlock sends until the window refuses one, and
	// returns that refusal (nil if the circuit never pushed back).
	fill := func() error {
		for i := 0; i < 20*window; i++ {
			err := sender.SendMsg(ctx, u, "seq", []byte(fmt.Sprintf("m-%04d", accepted)), ntcs.WithNoBlock)
			switch {
			case err == nil:
				accepted++
			case errors.Is(err, ntcs.ErrBackpressure):
				return err
			default:
				t.Fatalf("send %d: unexpected error %v", accepted, err)
			}
		}
		return nil
	}
	bperr := fill()
	if bperr == nil {
		t.Fatalf("no WithNoBlock send was refused after %d accepted (window %d, receiver held)", accepted, window)
	}
	// The first refusal can race a grant already in flight; let it land,
	// then top the window back up so the starvation is stable (every
	// later grant stays held).
	time.Sleep(200 * time.Millisecond)
	if again := fill(); again == nil {
		t.Fatalf("window kept refilling while the receiver was held (%d accepted)", accepted)
	}
	var bp *ntcs.BackpressureError
	if !errors.As(bperr, &bp) {
		t.Fatalf("refused send error %v does not expose *BackpressureError", bperr)
	}
	if bp.Peer != u {
		t.Errorf("BackpressureError.Peer = %v, want %v", bp.Peer, u)
	}
	if bp.QueueDepth <= 0 || bp.SuggestedWait <= 0 {
		t.Errorf("BackpressureError not inspectable: depth=%d wait=%v", bp.QueueDepth, bp.SuggestedWait)
	}

	// A blocking send against the same starved circuit waits out
	// CreditWaitMax (50ms here) and then surfaces the same sentinel.
	start := time.Now()
	if err := sender.SendMsg(ctx, u, "seq", []byte("blocked")); !errors.Is(err, ntcs.ErrBackpressure) {
		t.Fatalf("blocking send on starved circuit: got %v, want ErrBackpressure", err)
	} else if waited := time.Since(start); waited < 40*time.Millisecond {
		t.Errorf("blocking send gave up after %v, before the 50ms credit wait", waited)
	}

	// Backpressure refused cleanly: everything accepted arrives, in order,
	// uncorrupted.
	for i := 0; i < accepted; i++ {
		d, err := recv.Recv(10 * time.Second)
		if err != nil {
			t.Fatalf("after %d deliveries: %v", i, err)
		}
		var body []byte
		if err := d.Decode(&body); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("m-%04d", i); string(body) != want {
			t.Fatalf("delivery %d: body %q, want %q", i, body, want)
		}
	}

	// Heal: with the hold released the circuit drains and sends succeed again.
	ring.Hold(recvAddr, false)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := sender.SendMsg(ctx, u, "seq", []byte("healed"), ntcs.WithNoBlock); err == nil {
			break
		} else if !errors.Is(err, ntcs.ErrBackpressure) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("circuit never recovered after the hold was released")
		}
		time.Sleep(10 * time.Millisecond)
	}

	snap := sender.Stats().Snapshot()
	if snap.Counters["nd.backpressure.errors"] == 0 {
		t.Error("sender nd.backpressure.errors = 0; refusals were not metered")
	}
}

// TestBackpressureAcrossGateway congests the far side of a chained
// circuit: the gateway's downstream LVC to a slow-loris receiver runs
// out of credit, so the relay must drop frames and NACK the upstream
// sender — observable as nd.backpressure.drops and nd.nacks at the
// gateway and nd.backpressure.nacks_in at the sender — while the circuit
// itself stays up and traffic flows again after the receiver heals.
func TestBackpressureAcrossGateway(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("alpha", memnet.Options{})
	beta := w.AddNetwork("beta", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "alpha")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	gw, err := w.StartGateway(w.MustHost("gw-host", machine.Apollo, "alpha", "beta"), "gw-ab")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	recv, err := w.AttachConfig(w.MustHost("recv-host", machine.VAX, "beta"), core.Config{
		Name:         "gw-bp-receiver",
		CreditWindow: 8,
		InboxSize:    8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := w.Attach(w.MustHost("send-host", machine.VAX, "alpha"), "gw-bp-sender", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sender.Locate("gw-bp-receiver")
	if err != nil {
		t.Fatal(err)
	}

	// Prime the chained circuit while the receiver is healthy.
	if err := sender.SendMsg(context.Background(), u, "seq", []byte("prime")); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Recv(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Choke the receiver, then flood. The congestion lands on the
	// gateway's downstream circuit: the relay waits out its bounded credit
	// budget, then sheds the frame rather than park forever or tear the
	// chain down. While relay workers wait, the gateway stops consuming the
	// sender's frames, so the sender's own first hop may legitimately feel
	// backpressure too — propagation toward the origin, not a failure.
	recvAddr := endpointOn(t, recv, "beta")
	beta.Hold(recvAddr, true)
	deadline := time.Now().Add(30 * time.Second)
	for gw.Stats().Snapshot().Counters["nd.backpressure.drops"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("gateway never hit downstream backpressure")
		}
		if err := sender.SendMsg(context.Background(), u, "seq", []byte("flood")); err != nil && !errors.Is(err, ntcs.ErrBackpressure) {
			t.Fatalf("sender first hop failed: %v", err)
		}
	}

	gwSnap := gw.Stats().Snapshot()
	if gwSnap.Counters["nd.nacks"] == 0 {
		t.Error("gateway dropped on backpressure but sent no NACK upstream")
	}

	// The NACK reaches the sender's ND-Layer and slows it down.
	deadline = time.Now().Add(10 * time.Second)
	for sender.Stats().Snapshot().Counters["nd.backpressure.nacks_in"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sender never saw the gateway's NACK")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The relayed circuit survived the episode: heal the receiver and
	// verify end-to-end delivery still works over the same chain. The
	// first-hop window may still be exhausted while the backlog drains, so
	// backpressure refusals here are retried, not fatal.
	beta.Hold(recvAddr, false)
	for i := 0; ; i++ {
		if err := sender.SendMsg(context.Background(), u, "seq", []byte("after-heal")); err != nil && !errors.Is(err, ntcs.ErrBackpressure) {
			t.Fatalf("post-heal send: %v", err)
		}
		d, err := recv.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("post-heal recv: %v", err)
		}
		var body []byte
		if err := d.Decode(&body); err != nil {
			t.Fatal(err)
		}
		if string(body) == "after-heal" {
			break
		}
		// Backlogged flood frames drain first; keep reading.
		if i > 20000 {
			t.Fatal("post-heal message never arrived")
		}
	}
}

// TestSlowLorisChaosEpisode drives the same failure through the chaos
// harness: a scheduled SlowLorisEpisode holds the receiver's grants
// mid-stream, the episode's stats delta shows backpressure engaging, and
// the heal event restores flow — the congestion analogue of a cable
// pull.
func TestSlowLorisChaosEpisode(t *testing.T) {
	w := sim.NewWorld()
	ring := w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	recv, err := w.AttachConfig(w.MustHost("recv-host", machine.VAX, "ring"), core.Config{
		Name:         "loris-receiver",
		CreditWindow: 8,
		InboxSize:    8192,
	})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := w.AttachConfig(w.MustHost("send-host", machine.VAX, "ring"), core.Config{
		Name:          "loris-sender",
		CreditWaitMax: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := sender.Locate("loris-receiver")
	if err != nil {
		t.Fatal(err)
	}

	chaos := sim.NewChaos(7).ObserveStats(w.StatsTotals)
	chaos.SlowLorisEpisode(ring, endpointOn(t, recv, "ring"), 50*time.Millisecond, 300*time.Millisecond)
	// A terminal marker event so the last episode's delta is recorded too.
	chaos.Schedule(500*time.Millisecond, "end", func() {})

	stop := make(chan struct{})
	refusals := make(chan int, 1)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				refusals <- n
				return
			default:
			}
			if err := sender.SendMsg(context.Background(), u, "tick", []byte("t"), ntcs.WithNoBlock); errors.Is(err, ntcs.ErrBackpressure) {
				n++
				time.Sleep(time.Millisecond)
			}
		}
	}()

	log := chaos.Run(context.Background())
	close(stop)
	n := <-refusals

	if len(log) != 3 {
		t.Fatalf("chaos fired %d events, want 3: %+v", len(log), log)
	}
	if n == 0 {
		t.Error("no send was refused during the slow-loris episode")
	}
	// The heal event's delta covers the choked window: backpressure
	// refusals must have been metered somewhere inside it.
	healDelta := log[1].Delta
	endDelta := log[2].Delta
	if healDelta["nd.backpressure.errors"] == 0 && endDelta["nd.backpressure.errors"] == 0 {
		t.Errorf("no nd.backpressure.errors recorded across the episode: heal=%v end=%v", healDelta, endDelta)
	}

	// Flow restored after the heal.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := sender.SendMsg(context.Background(), u, "tick", []byte("done"), ntcs.WithNoBlock); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sends still refused after the slow-loris healed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRelayParksAWindowAcrossGateway pins the relay's parking queue. With
// the receiver's grants held, a burst of one and a half windows reaches
// the gateway: what the downstream credit covers goes out at once, the
// rest waits parked on the downstream circuit, and nothing is shed. On
// release every frame arrives, in order. A relay that refused whenever
// the downstream window was empty would shed the burst's tail.
func TestRelayParksAWindowAcrossGateway(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("alpha", memnet.Options{})
	beta := w.AddNetwork("beta", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "alpha")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	gw, err := w.StartGateway(w.MustHost("gw-host", machine.Apollo, "alpha", "beta"), "gw-ab")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	const window, burst = 8, 12
	recv, err := w.AttachConfig(w.MustHost("recv-host", machine.VAX, "beta"), core.Config{
		Name:         "park-receiver",
		CreditWindow: window,
	})
	if err != nil {
		t.Fatal(err)
	}
	sender, err := w.Attach(w.MustHost("send-host", machine.VAX, "alpha"), "park-sender", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sender.Locate("park-receiver")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := sender.SendMsg(ctx, u, "seq", []byte("prime")); err != nil {
		t.Fatal(err)
	}
	if _, err := recv.Recv(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	recvAddr := endpointOn(t, recv, "beta")
	beta.Hold(recvAddr, true)
	relayed := func() uint64 { return gw.Stats().Snapshot().Counters["ip.relays"] }
	base := relayed()
	for i := 0; i < burst; i++ {
		if err := sender.SendMsg(ctx, u, "seq", []byte(fmt.Sprintf("b-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for relayed() < base+burst {
		if time.Now().After(deadline) {
			t.Fatalf("gateway relayed %d of %d burst frames", relayed()-base, burst)
		}
		time.Sleep(time.Millisecond)
	}
	beta.Hold(recvAddr, false)

	for i := 0; i < burst; i++ {
		d, err := recv.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("after %d burst deliveries: %v", i, err)
		}
		var body []byte
		if err := d.Decode(&body); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("b-%02d", i); string(body) != want {
			t.Fatalf("burst delivery %d: body %q, want %q", i, body, want)
		}
	}
	if drops := gw.Stats().Snapshot().Counters["nd.backpressure.drops"]; drops != 0 {
		t.Errorf("gateway shed %d frames of a burst within one parked window", drops)
	}
}
