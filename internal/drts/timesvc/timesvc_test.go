package timesvc_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"ntcs/internal/drts/timesvc"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
	"ntcs/sim"
)

func world(t *testing.T) *sim.World {
	t.Helper()
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestCorrectorEstimatesSkew(t *testing.T) {
	w := world(t)
	host := w.MustHost("vax-1", machine.VAX, "ring")

	const skew = 500 * time.Millisecond
	tsMod, err := w.Attach(host, "time-server", map[string]string{"role": "time"})
	if err != nil {
		t.Fatal(err)
	}
	server := timesvc.NewServer(tsMod, skew)
	go server.Run()

	clientMod, err := w.Attach(host, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := timesvc.NewCorrector(clientMod, "time-server", time.Minute)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	got := c.Offset()
	if got < skew-100*time.Millisecond || got > skew+100*time.Millisecond {
		t.Errorf("offset = %v, want ~%v", got, skew)
	}
	if c.Syncs() != 1 {
		t.Errorf("syncs = %d", c.Syncs())
	}
	// Now applies the offset.
	now := c.Now()
	wall := time.Now()
	if d := now.Sub(wall); d < skew-150*time.Millisecond || d > skew+150*time.Millisecond {
		t.Errorf("corrected-now differs from wall clock by %v, want ~%v", d, skew)
	}
	// Fresh estimate: no extra sync.
	_ = c.Now()
	if c.Syncs() != 1 {
		t.Errorf("fresh Now re-synced: %d", c.Syncs())
	}
}

func TestCorrectorResyncsWhenStale(t *testing.T) {
	w := world(t)
	host := w.MustHost("vax-1", machine.VAX, "ring")
	tsMod, err := w.Attach(host, "time-server", nil)
	if err != nil {
		t.Fatal(err)
	}
	go timesvc.NewServer(tsMod, 0).Run()

	clientMod, err := w.Attach(host, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := timesvc.NewCorrector(clientMod, "time-server", 30*time.Millisecond)
	_ = c.Now() // first sync
	time.Sleep(60 * time.Millisecond)
	_ = c.Now() // stale: second sync
	if got := c.Syncs(); got < 2 {
		t.Errorf("syncs = %d, want >= 2", got)
	}
}

func TestCorrectorDegradesWhenServerGone(t *testing.T) {
	w := world(t)
	host := w.MustHost("vax-1", machine.VAX, "ring")
	clientMod, err := w.Attach(host, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := timesvc.NewCorrector(clientMod, "no-such-time-server", time.Minute)
	before := time.Now()
	got := c.Now()
	if got.Before(before.Add(-time.Second)) || got.After(time.Now().Add(time.Second)) {
		t.Errorf("degraded Now = %v, want ~wall clock", got)
	}
	if c.Failures() == 0 {
		t.Error("failure not counted")
	}
}

func TestCorrectorFollowsRelocation(t *testing.T) {
	w := world(t)
	hostA := w.MustHost("vax-1", machine.VAX, "ring")
	hostB := w.MustHost("vax-2", machine.VAX, "ring")

	gen1, err := w.Attach(hostA, "time-server", map[string]string{"role": "time"})
	if err != nil {
		t.Fatal(err)
	}
	go timesvc.NewServer(gen1, 0).Run()

	clientMod, err := w.Attach(hostA, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	c := timesvc.NewCorrector(clientMod, "time-server", time.Minute)
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}

	_ = gen1.Detach()
	gen2, err := w.Attach(hostB, "time-server", map[string]string{"role": "time"})
	if err != nil {
		t.Fatal(err)
	}
	go timesvc.NewServer(gen2, 0).Run()

	// The next sync recovers, either through LCM forwarding or by
	// re-locating after the first failure.
	deadline := time.Now().Add(3 * time.Second)
	var syncErr error
	for time.Now().Before(deadline) {
		syncErr = c.Sync()
		if syncErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if syncErr != nil {
		t.Fatalf("sync after relocation: %v", syncErr)
	}
}

func TestUnknownCallIsRefusedAndDrainStaysPrompt(t *testing.T) {
	// A call the server does not serve is answered with an error: left
	// unanswered it would keep its caller waiting for the call timeout, and
	// count as work in hand for the life of the module, so that every Drain
	// ran to the end of its context.
	w := world(t)
	host := w.MustHost("vax-1", machine.VAX, "ring")
	tsMod, err := w.Attach(host, "time-server", map[string]string{"role": "time"})
	if err != nil {
		t.Fatal(err)
	}
	go timesvc.NewServer(tsMod, 0).Run()
	clientMod, err := w.Attach(host, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := clientMod.Locate("time-server")
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	err = clientMod.CallContext(context.Background(), u, "weather", "tomorrow", nil)
	if !errors.Is(err, lcm.ErrRemote) || !strings.Contains(err.Error(), "weather") {
		t.Errorf("call of a type the server does not serve: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("the refusal took %v: the call was waited out", took)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start = time.Now()
	if err := tsMod.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("drain took %v after one refused call", took)
	}
}
