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

// TestBackpressureDirect starves a direct circuit of credit — the
// receiver's admission valve is throttled to a trickle — and asserts the
// full contract: WithNoBlock sends fail fast with an error matching
// ntcs.ErrBackpressure whose inspectable form carries the peer and queue
// depth; blocking sends give up after the module's CreditWaitMax; every
// send that returned nil is delivered intact and in order; and once the
// valve reopens, sending works again.
func TestBackpressureDirect(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
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

	// Slow-loris the receiver: its ND-Layer still drains frames, but hands
	// out almost no fresh credit.
	recv.SetAdmissionRate(0.1)

	ctx := context.Background()
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
		t.Fatalf("no WithNoBlock send was refused after %d accepted (window %d, admission throttled)", accepted, window)
	}
	// The first refusal can race a grant already in flight; let it land,
	// then top the window back up so the starvation is stable (the next
	// admission token is ten seconds out at 0.1 grants/sec).
	time.Sleep(200 * time.Millisecond)
	if again := fill(); again == nil {
		t.Fatalf("window kept refilling after the admission valve closed (%d accepted)", accepted)
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

	// Heal: with the valve open the circuit drains and sends succeed again.
	recv.SetAdmissionRate(0)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if err := sender.SendMsg(ctx, u, "seq", []byte("healed"), ntcs.WithNoBlock); err == nil {
			break
		} else if !errors.Is(err, ntcs.ErrBackpressure) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("circuit never recovered after admission valve reopened")
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
	w.AddNetwork("beta", memnet.Options{})
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
	recv.SetAdmissionRate(0.1)
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
	recv.SetAdmissionRate(0)
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
// harness: a scheduled SlowLorisEpisode throttles the receiver
// mid-stream, the episode's stats delta shows backpressure engaging, and
// the heal event restores flow — the congestion analogue of the soak's
// cable pulls.
func TestSlowLorisChaosEpisode(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
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
	chaos.SlowLorisEpisode(50*time.Millisecond, 300*time.Millisecond, "loris-receiver", recv, 0.1)
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
