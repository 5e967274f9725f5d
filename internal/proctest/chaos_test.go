package proctest_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"ntcs/internal/cli"
	"ntcs/internal/core"
	"ntcs/internal/proctest"
	"ntcs/internal/stats"
	"ntcs/internal/stats/statshttp"
)

// soakTopology is the two-network deployment the kill -9 gauntlet runs
// against: a two-replica naming tier reachable from both networks (so
// naming never depends on the gateway under test), the preloaded prime
// gateway plus a standby discovered only through the naming service
// (§4.3 failover), and an echo worker across the gateway from the
// driver.
func soakTopology() *cli.Topology {
	topo, err := cli.ParseTopology(strings.NewReader(`
nameserver ns0 machine=apollo slot=0 shard=0 anti-entropy=500ms networks=backbone,branch
nameserver ns1 machine=apollo slot=1 shard=0 anti-entropy=500ms networks=backbone,branch
gateway    gw1 machine=apollo prime=true networks=backbone,branch
gateway    gw2 machine=apollo networks=backbone,branch
worker     echo-1 machine=vax role=echo networks=backbone
`))
	if err != nil {
		panic(err)
	}
	return topo
}

// soakWindow returns the traffic window between episodes, honoring
// NTCS_SOAK_MS exactly like the in-process soak.
func soakWindow(def time.Duration) time.Duration {
	if ms := os.Getenv("NTCS_SOAK_MS"); ms != "" {
		if n, err := strconv.Atoi(ms); err == nil && n > 0 {
			return time.Duration(n) * time.Millisecond
		}
	}
	return def
}

// driver is the in-test workload client: sequential numbered calls to
// the echo worker with corruption tracking — a call that returns success
// with the wrong body is a lost/corrupted acknowledged call, the one
// thing every episode forbids outright. The driver serves its own
// statshttp listener so episode assertions read it exactly like the
// child processes: per-process /stats.json over HTTP.
type driver struct {
	mod       *core.Module
	StatsAddr string

	mu        sync.Mutex
	ok        int
	failed    int
	corrupted []string

	stop chan struct{}
	done chan struct{}
}

func newDriver(t *testing.T, d *proctest.Deployment, network string) *driver {
	t.Helper()
	mod := d.AttachConfig(t, core.Config{
		Name: "driver",
		// Short call timeout: a lost frame must cost the workload well
		// under an episode length, not the 5s default.
		CallTimeout: 750 * time.Millisecond,
	}, network)
	srv, bound, err := statshttp.Serve("127.0.0.1:0", func() []stats.Snapshot {
		return []stats.Snapshot{mod.Stats().Snapshot()}
	})
	if err != nil {
		t.Fatalf("driver stats listener: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return &driver{mod: mod, StatsAddr: bound, stop: make(chan struct{}), done: make(chan struct{})}
}

// run drives traffic at the named worker until Stop. Every iteration
// re-Locates the worker — naming traffic is part of the workload, so a
// Name Server death surfaces as replica rotations, and a relocated
// worker is re-resolved without manual cache invalidation.
func (dr *driver) run(name string) {
	go func() {
		defer close(dr.done)
		for seq := 0; ; seq++ {
			select {
			case <-dr.stop:
				return
			default:
			}
			msg := fmt.Sprintf("m%d", seq)
			var got string
			u, err := dr.mod.Locate(name)
			if err == nil {
				err = dr.mod.CallContext(context.Background(), u, "q", msg, &got)
			}
			dr.mu.Lock()
			switch {
			case err != nil:
				dr.failed++
			case got != "echo:"+msg:
				dr.corrupted = append(dr.corrupted, fmt.Sprintf("seq %d: reply %q", seq, got))
			default:
				dr.ok++
			}
			dr.mu.Unlock()
			time.Sleep(5 * time.Millisecond)
		}
	}()
}

func (dr *driver) Stop() {
	close(dr.stop)
	<-dr.done
}

// snapshotOK returns the successful-call count so far.
func (dr *driver) snapshotOK() int {
	dr.mu.Lock()
	defer dr.mu.Unlock()
	return dr.ok
}

// assertClean fails the test if any acknowledged call was corrupted.
func (dr *driver) assertClean(t *testing.T) {
	t.Helper()
	dr.mu.Lock()
	defer dr.mu.Unlock()
	if len(dr.corrupted) > 0 {
		t.Errorf("%d acknowledged calls lost or corrupted: %v", len(dr.corrupted), dr.corrupted)
	}
}

// waitProgress waits until the workload lands at least n MORE successful
// calls than it had at call time — the recovery signal after a fault.
func (dr *driver) waitProgress(n int, budget time.Duration) bool {
	base := dr.snapshotOK()
	return proctest.PollUntil(budget, func() bool {
		return dr.snapshotOK() >= base+n
	})
}

// observerFor registers the driver and every cluster process.
func observerFor(dr *driver, c *proctest.Cluster) *proctest.Observer {
	obs := proctest.NewObserver(proctest.Target{Name: "driver", Addr: dr.StatsAddr})
	for _, p := range c.Procs() {
		obs.AddTarget(proctest.Target{Name: p.Name, Addr: p.StatsAddr})
	}
	return obs
}

// TestKillNineGatewayEpisode is the CI-sized slice of the gauntlet: the
// preloaded prime gateway dies by SIGKILL mid-conversation and the
// driver must fail over to the standby it only knows through the naming
// service, with the recovery visible in its scraped stats delta.
func TestKillNineGatewayEpisode(t *testing.T) {
	d := proctest.BootReal(t, soakTopology())
	c := d.Cluster
	dr := newDriver(t, d, "branch")
	obs := observerFor(dr, c)
	budget := proctest.WaitBudget(20 * time.Second)

	dr.run("echo-1")
	if !dr.waitProgress(5, budget) {
		t.Fatal("workload never started flowing")
	}

	ep := obs.Begin("kill -9 gw1")
	if err := c.Kill("gw1"); err != nil {
		t.Fatal(err)
	}
	if !dr.waitProgress(10, budget) {
		t.Fatal("workload never recovered after the gateway kill")
	}
	rec := ep.End()
	dr.Stop()
	dr.assertClean(t)

	t.Logf("episode %s: driver delta %v", rec.Name, rec.Delta["driver"])
	if rec.Delta["driver"]["ip.gateway_failovers"] == 0 {
		t.Errorf("driver survived a gateway kill with ip.gateway_failovers delta = 0: %v", rec.Delta["driver"])
	}
}

// TestProcSoak is the full multi-process kill -9 gauntlet — the paper's
// "two years of production use" (§8) compressed into one run. Gated
// behind NTCS_PROC_SOAK=1 (make soak-proc); every episode must recover
// with zero corrupted acknowledged calls, and each recovery must be
// visible in the per-process /stats.json deltas.
func TestProcSoak(t *testing.T) {
	if os.Getenv("NTCS_PROC_SOAK") == "" {
		t.Skip("set NTCS_PROC_SOAK=1 (make soak-proc) to run the multi-process gauntlet")
	}
	d := proctest.BootReal(t, soakTopology())
	c := d.Cluster
	dr := newDriver(t, d, "branch")
	obs := observerFor(dr, c)
	budget := proctest.WaitBudget(30 * time.Second)
	window := soakWindow(500 * time.Millisecond)

	dr.run("echo-1")
	if !dr.waitProgress(10, budget) {
		t.Fatal("workload never started flowing")
	}

	// --- Episode 1: kill -9 the prime gateway (§4.3). -----------------
	ep := obs.Begin("kill -9 gw1")
	if err := c.Kill("gw1"); err != nil {
		t.Fatal(err)
	}
	if !dr.waitProgress(20, budget) {
		t.Fatal("no recovery after gateway kill")
	}
	rec := ep.End()
	t.Logf("episode %-22s driver delta %v", rec.Name, rec.Delta["driver"])
	if rec.Delta["driver"]["ip.gateway_failovers"] == 0 {
		t.Errorf("gateway kill: ip.gateway_failovers delta = 0: %v", rec.Delta["driver"])
	}
	time.Sleep(window)

	// --- Episode 2: kill -9 a Name Server replica (§6.3). -------------
	ep = obs.Begin("kill -9 ns0")
	if err := c.Kill("ns0"); err != nil {
		t.Fatal(err)
	}
	if !dr.waitProgress(20, budget) {
		t.Fatal("no recovery after name-server kill")
	}
	rec = ep.End()
	t.Logf("episode %-22s driver delta %v", rec.Name, rec.Delta["driver"])
	if rec.Delta["driver"]["nsp.replica_rotations"] == 0 {
		t.Errorf("NS kill: nsp.replica_rotations delta = 0: %v", rec.Delta["driver"])
	}
	time.Sleep(window)

	// --- Episode 3: kill -9 the worker, restart it under the same name
	// (crash + rebirth: the §3.5 machinery heals the stale address). ----
	ep = obs.Begin("kill -9 echo-1")
	if err := c.Kill("echo-1"); err != nil {
		t.Fatal(err)
	}
	repl, err := c.StartProc("echo-1")
	if err != nil {
		t.Fatalf("restart echo-1: %v", err)
	}
	obs.ReplaceTarget("echo-1", repl.StatsAddr)
	if !dr.waitProgress(20, budget) {
		t.Fatal("no recovery after worker kill + restart")
	}
	rec = ep.End()
	t.Logf("episode %-22s driver delta %v", rec.Name, rec.Delta["driver"])
	snaps, err := repl.Scrape()
	if err != nil {
		t.Fatalf("scrape restarted worker: %v", err)
	}
	if proctest.Totals(snaps)["lcm.replies"] == 0 {
		t.Error("restarted worker scraped lcm.replies = 0; traffic never reached the replacement")
	}
	time.Sleep(window)

	// --- Episode 4: rolling relocation under load (§3.5): boot the
	// replacement first, then SIGTERM-drain the incumbent. -------------
	ep = obs.Begin("relocate echo-1")
	repl2, code, err := c.Relocate("echo-1", budget)
	if err != nil {
		t.Fatalf("relocate echo-1: %v", err)
	}
	if code != 0 {
		t.Errorf("relocation drain exit code = %d, want 0", code)
	}
	obs.ReplaceTarget("echo-1", repl2.StatsAddr)
	if !dr.waitProgress(20, budget) {
		t.Fatal("no recovery after rolling relocation")
	}
	rec = ep.End()
	t.Logf("episode %-22s driver delta %v", rec.Name, rec.Delta["driver"])
	time.Sleep(window)

	// --- Episode 5: SIGTERM graceful drain under load. The in-flight
	// acknowledged calls must all complete or fail cleanly — corruption
	// is checked for the whole soak below. -----------------------------
	if err := c.Signal("echo-1", syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	code, err = c.WaitExit("echo-1", budget)
	if err != nil || code != 0 {
		t.Fatalf("final drain: code=%d err=%v", code, err)
	}

	dr.Stop()
	dr.assertClean(t)
	dr.mu.Lock()
	ok, failed := dr.ok, dr.failed
	dr.mu.Unlock()
	t.Logf("soak complete: %d acknowledged calls, %d failed-and-retried, 0 corrupted", ok, failed)
	if ok < 70 {
		t.Errorf("only %d successful calls across the soak; workload starved", ok)
	}
	for _, r := range obs.Log() {
		t.Logf("episode %-22s fired %v", r.Name, r.Fired.Round(time.Millisecond))
	}
}
