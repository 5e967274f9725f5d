package ntcs_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ntcs"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// chaosSeed returns the soak seed: fixed by default so failures reproduce,
// overridable via NTCS_SEED or NTCS_CHAOS_SEED (the Makefile soak target
// sets the latter).
func chaosSeed() int64 {
	for _, key := range []string{"NTCS_SEED", "NTCS_CHAOS_SEED"} {
		if s := os.Getenv(key); s != "" {
			if v, err := strconv.ParseInt(s, 10, 64); err == nil {
				return v
			}
		}
	}
	return 42
}

// TestChaosSoak drives a two-network world through the paper's worst
// afternoon: the only preloaded gateway crashes mid-conversation (§4.3),
// the primary Name Server crashes without deregistering (§6.3), and both
// networks suffer 10% loss episodes — on a deterministic schedule. The
// soak asserts the self-healing contract: no acknowledged call is ever
// lost or corrupted, and the system recovers from every episode without
// any manual cache invalidation.
func TestChaosSoak(t *testing.T) {
	seed := chaosSeed()

	w := sim.NewWorld()
	alpha := w.AddNetwork("alpha", memnet.Options{Seed: seed})
	beta := w.AddNetwork("beta", memnet.Options{Seed: seed + 1})
	nsPrimary, err := w.StartNameServer(w.MustHost("ns1-host", machine.Apollo, "alpha"), "ns-primary")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.StartNameServer(w.MustHost("ns2-host", machine.Apollo, "alpha"), "ns-replica"); err != nil {
		t.Fatal(err)
	}
	gw1, err := w.StartGateway(w.MustHost("gw1-host", machine.Apollo, "alpha", "beta"), "gw-main")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	// The standby is registered with the naming service only: failover
	// must locate it through the topology query, not the preload.
	if _, err := w.StartOrdinaryGateway(w.MustHost("gw2-host", machine.Apollo, "alpha", "beta"), "gw-standby"); err != nil {
		t.Fatal(err)
	}

	server, err := w.Attach(w.MustHost("beta-host", machine.VAX, "beta"), "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	echoServe(server)
	client, err := w.AttachConfig(w.MustHost("alpha-host", machine.VAX, "alpha"), ntcs.Config{
		Name: "client",
		// Short call timeout: a lost frame must cost the workload well
		// under an episode length, not the 5s default.
		CallTimeout: 750 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "warmup", &reply); err != nil {
		t.Fatal(err)
	}

	// Workload: sequential numbered calls. A call that returns success
	// with the wrong body is a lost/corrupted acknowledged call — the one
	// thing the soak forbids outright. Failures are tolerated during
	// episodes; recovery is asserted per-event below.
	type sample struct {
		at time.Time
		ok bool
	}
	var (
		mu        sync.Mutex
		samples   []sample
		corrupted []string
	)
	stop := make(chan struct{})
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		for seq := 0; ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			msg := fmt.Sprintf("m%d", seq)
			var got string
			err := client.CallContext(context.Background(), u, "q", msg, &got)
			mu.Lock()
			if err == nil && got != "echo:"+msg {
				corrupted = append(corrupted, fmt.Sprintf("seq %d: reply %q", seq, got))
			}
			samples = append(samples, sample{at: time.Now(), ok: err == nil})
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	chaos := sim.NewChaos(seed)
	chaos.ObserveStats(w.StatsTotals)
	chaos.KillModule(400*time.Millisecond, "gw-main", gw1)
	chaos.LossEpisode(alpha, 1800*time.Millisecond, 700*time.Millisecond, 0.10)
	chaos.KillModule(3200*time.Millisecond, "ns-primary", nsPrimary)
	chaos.LossEpisode(beta, 4200*time.Millisecond, 700*time.Millisecond, 0.10)

	start := time.Now()
	records := chaos.Run(context.Background())
	if len(records) != 6 {
		t.Errorf("chaos fired %d events, want 6: %+v", len(records), records)
	}

	// Settle: after the last heal the system must return to steady state.
	deadline := time.Now().Add(5 * time.Second)
	var settleErr error
	for time.Now().Before(deadline) {
		if settleErr = client.CallContext(context.Background(), u, "q", "settle", &reply); settleErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	<-workerDone
	if settleErr != nil {
		t.Fatalf("system never settled after the chaos schedule: %v", settleErr)
	}
	if reply != "echo:settle" {
		t.Errorf("settle reply = %q", reply)
	}

	// With the primary Name Server dead (and still registered as alive),
	// naming traffic must rotate to the replica.
	if _, err := client.Locate("server"); err != nil {
		t.Errorf("Locate after primary Name Server death: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(corrupted) > 0 {
		t.Errorf("%d acknowledged calls lost or corrupted: %v", len(corrupted), corrupted)
	}
	okCount := 0
	for _, s := range samples {
		if s.ok {
			okCount++
		}
	}
	if okCount < 50 {
		t.Errorf("only %d successful calls across the soak; workload starved", okCount)
	}

	// The metrics must tell the same story the samples do: surviving the
	// gateway kill requires gateway failovers, surviving the Name Server
	// kill requires replica rotations, and both recoveries ride the retry
	// budgets. Zeros here mean the observability layer missed the episode.
	totals := w.StatsTotals()
	if totals.Counters["ip.gateway_failovers"] == 0 {
		t.Errorf("soak survived a gateway kill with ip.gateway_failovers = 0")
	}
	if totals.Counters["nsp.replica_rotations"] == 0 {
		t.Errorf("soak survived a Name Server kill with nsp.replica_rotations = 0")
	}
	var retryTotal uint64
	for name, v := range totals.Counters {
		if strings.HasPrefix(name, "retry.attempts.") {
			retryTotal += v
		}
	}
	if retryTotal == 0 {
		t.Errorf("soak recovered without a single metered retry attempt")
	}
	for _, rec := range records {
		if len(rec.Delta) > 0 {
			t.Logf("episode %-24s delta %v", rec.Name, rec.Delta)
		}
	}

	// Per-event recovery latency: the first successful call after each
	// kill, measured from the moment the module died.
	for _, rec := range records {
		if rec.Name != "kill gw-main" && rec.Name != "kill ns-primary" {
			continue
		}
		killedAt := start.Add(rec.Fired)
		recovered := time.Duration(-1)
		for _, s := range samples {
			if s.ok && s.at.After(killedAt) {
				recovered = s.at.Sub(killedAt)
				break
			}
		}
		if recovered < 0 {
			t.Errorf("%s: no successful call after the kill", rec.Name)
			continue
		}
		t.Logf("%s: first successful call %v after the crash", rec.Name, recovered)
		if recovered > 5*time.Second {
			t.Errorf("%s: recovery took %v", rec.Name, recovered)
		}
	}
}
