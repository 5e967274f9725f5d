package proctest_test

import (
	"context"
	"strings"
	"syscall"
	"testing"
	"time"

	"ntcs/internal/cli"
	"ntcs/internal/machine"
	"ntcs/internal/proctest"
)

// TestInProcessDeploymentFixture is the exec-free realization of the
// smoke topology: the same wiring as the real-process smoke test, every
// "process" its own tcpnet instance inside this test binary. CI
// environments that cannot exec still cover the deployment wiring here.
func TestInProcessDeploymentFixture(t *testing.T) {
	d := proctest.BootInProcess(t, proctest.SmokeTopology())
	proctest.VerifyEcho(t, d, "tcp-server")
}

// TestRealProcessSmoke boots the smoke topology as genuinely separate OS
// processes over real TCP — nameserver and ursad binaries, TAdd
// bootstrap against the remote NS — and round-trips a call from a client
// in the test process.
func TestRealProcessSmoke(t *testing.T) {
	d := proctest.BootReal(t, proctest.SmokeTopology())
	proctest.VerifyEcho(t, d, "tcp-server")

	// The scraped /stats.json must tell the same story: the worker
	// process answered a call.
	worker := d.Cluster.Proc("tcp-server")
	snaps, err := worker.Scrape()
	if err != nil {
		t.Fatalf("scrape %s: %v", worker.Name, err)
	}
	if got := proctest.Totals(snaps)["lcm.replies"]; got == 0 {
		t.Errorf("worker process served a call but scraped lcm.replies = 0")
	}
}

// gracefulTopology boots a deployment where every binary kind can drain:
// a two-replica naming tier (so a draining NS has a peer to push its
// death notice to), a prime gateway, and an echo worker.
func gracefulTopology() *cli.Topology {
	topo, err := cli.ParseTopology(strings.NewReader(`
nameserver ns0 machine=apollo slot=0 shard=0 networks=backbone
nameserver ns1 machine=apollo slot=1 shard=0 networks=backbone
gateway    gw1 machine=apollo prime=true networks=backbone,branch
worker     tcp-server machine=sun68k role=echo networks=backbone
`))
	if err != nil {
		panic(err)
	}
	return topo
}

// TestGracefulShutdownBinaries delivers SIGTERM to each cmd binary and
// asserts the drain contract: exit code 0 within the drain deadline, the
// drained announcement printed, the module deregistered (its record
// tombstoned — a fresh client can no longer locate it) with forwarding
// intact (a call to the dead worker's old UAdd forwards to its §3.5
// replacement once one registers).
func TestGracefulShutdownBinaries(t *testing.T) {
	d := proctest.BootReal(t, gracefulTopology())
	c := d.Cluster
	drainBudget := proctest.WaitBudget(10 * time.Second)

	// Warm a client against the worker and remember the worker's UAdd.
	client := d.Client(t, "probe", "backbone", machine.VAX)
	oldU, err := client.Locate("tcp-server")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	if err := client.CallContext(context.Background(), oldU, "q", "pre-drain", &reply); err != nil {
		t.Fatal(err)
	}

	// --- ursad worker: SIGTERM drains and exits 0. --------------------
	if err := c.Signal("tcp-server", syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	worker := c.Proc("tcp-server")
	code, err := c.WaitExit("tcp-server", drainBudget)
	if err != nil || code != 0 {
		t.Fatalf("worker SIGTERM exit: code=%d err=%v", code, err)
	}
	if !worker.Drained() {
		t.Error("worker exited without printing its drained line")
	}

	// Deregistered: a fresh client (no lease cache) cannot locate it.
	fresh := d.Client(t, "probe-2", "backbone", machine.VAX)
	if _, err := fresh.Locate("tcp-server"); err == nil {
		t.Error("tcp-server still resolvable after graceful drain")
	}

	// Forwarders intact: a replacement registers under the same name,
	// and a call aimed at the DEAD incarnation's UAdd is forwarded.
	if _, err := c.StartProc("tcp-server"); err != nil {
		t.Fatalf("restart worker: %v", err)
	}
	ok := proctest.PollUntil(drainBudget, func() bool {
		var got string
		return client.CallContext(context.Background(), oldU, "q", "post-relocate", &got) == nil && got == "echo:post-relocate"
	})
	if !ok {
		t.Error("call to the drained worker's old UAdd never forwarded to the replacement")
	}

	// --- gateway: SIGTERM drains and exits 0. -------------------------
	if err := c.Signal("gw1", syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	gw := c.Proc("gw1")
	code, err = c.WaitExit("gw1", drainBudget)
	if err != nil || code != 0 {
		t.Fatalf("gateway SIGTERM exit: code=%d err=%v", code, err)
	}
	if !gw.Drained() {
		t.Error("gateway exited without printing its drained line")
	}

	// --- nameserver: SIGTERM drains, exits 0, and its death notice
	// reached the replica (ns0's record tombstoned on ns1). ------------
	if err := c.Signal("ns0", syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	ns0 := c.Proc("ns0")
	ns1 := c.Proc("ns1")
	code, err = c.WaitExit("ns0", drainBudget)
	if err != nil || code != 0 {
		t.Fatalf("nameserver SIGTERM exit: code=%d err=%v", code, err)
	}
	if !ns0.Drained() {
		t.Error("nameserver exited without printing its drained line")
	}
	tombstoned := proctest.PollUntil(drainBudget, func() bool {
		snaps, err := ns1.Scrape()
		if err != nil {
			return false
		}
		for _, s := range snaps {
			if s.Gauges["ns.tombstones"] > 0 {
				return true
			}
		}
		return false
	})
	if !tombstoned {
		t.Error("ns0's graceful drain never produced a tombstone on its replica ns1")
	}

	// The surviving replica still serves naming traffic.
	late := d.Client(t, "probe-3", "backbone", machine.VAX)
	if _, err := late.Locate("tcp-server"); err != nil {
		t.Errorf("naming unavailable after ns0 drained: %v", err)
	}
}
