package ntcs_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ntcs"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/internal/nameserver"
	"ntcs/sim"
)

// startShardedNS boots a sharded name service: `shards` groups of
// `replicas` servers each, returning the server modules by group. Every
// module attached afterwards sees the full shard map in its well-known
// preload.
func startShardedNS(t *testing.T, w *sim.World, shards, replicas int) [][]*ntcs.Module {
	t.Helper()
	groups := make([][]*ntcs.Module, shards)
	for s := 0; s < shards; s++ {
		for r := 0; r < replicas; r++ {
			host := w.MustHost(fmt.Sprintf("ns-%d-%d-host", s, r), machine.Apollo, "ring")
			m, err := w.StartNameServerShard(host, fmt.Sprintf("ns-%d-%d", s, r), s)
			if err != nil {
				t.Fatal(err)
			}
			groups[s] = append(groups[s], m)
		}
	}
	return groups
}

// namesPerShard finds one name owned by each shard group under the
// world's current hash partition.
func namesPerShard(t *testing.T, w *sim.World, shards int) []string {
	t.Helper()
	wk := w.WellKnown()
	out := make([]string, shards)
	found := 0
	for i := 0; found < shards && i < 10_000; i++ {
		name := fmt.Sprintf("svc-%d", i)
		if s := wk.ShardForName(name); out[s] == "" {
			out[s] = name
			found++
		}
	}
	if found != shards {
		t.Fatalf("could not find a name for every shard: %v", out)
	}
	return out
}

// TestShardedNameService exercises the hash-partitioned namespace end to
// end: registrations land only on the owning shard group (replicated
// within it, absent from the others), name resolution routes to the
// single owning group, and attribute queries fan out across every group
// and merge.
func TestShardedNameService(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	groups := startShardedNS(t, w, 2, 2)
	t.Cleanup(w.Close)
	if n := w.WellKnown().NumShards(); n != 2 {
		t.Fatalf("NumShards = %d, want 2", n)
	}
	names := namesPerShard(t, w, 2)

	servers := make([]*ntcs.Module, 2)
	for s, name := range names {
		m, err := w.Attach(w.MustHost("host-"+name, machine.VAX, "ring"), name,
			map[string]string{"role": "worker"})
		if err != nil {
			t.Fatal(err)
		}
		echoServe(m)
		servers[s] = m
	}
	client, err := w.Attach(w.MustHost("client-host", machine.VAX, "ring"), "client", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Resolution and messaging work for names on both shards.
	for s, name := range names {
		u, err := client.Locate(name)
		if err != nil {
			t.Fatalf("Locate(%q): %v", name, err)
		}
		if u != servers[s].UAdd() {
			t.Fatalf("Locate(%q) = %v, want %v", name, u, servers[s].UAdd())
		}
		var reply string
		if err := client.CallContext(context.Background(), u, "q", "hi", &reply); err != nil || reply != "echo:hi" {
			t.Fatalf("Call via shard %d: %q, %v", s, reply, err)
		}
	}

	// The partition is real: each record lives on every replica of its
	// owning group (intra-group replication is async, so poll) and on no
	// replica of the other group.
	deadline := time.Now().Add(5 * time.Second)
	for s, name := range names {
		for _, replica := range groups[s] {
			for {
				if _, err := replica.DB().Resolve(name); err == nil {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("%q never replicated within its owning shard %d", name, s)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
		for _, other := range groups[1-s] {
			if _, err := other.DB().Resolve(name); !errors.Is(err, nameserver.ErrNotFound) {
				t.Errorf("%q leaked onto shard %d: %v", name, 1-s, err)
			}
		}
	}

	// Attribute queries cannot be answered by one group: they fan out and
	// the results merge across shards.
	recs, err := client.LocateAttrs(map[string]string{"role": "worker"})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("LocateAttrs found %d workers, want 2: %+v", len(recs), recs)
	}

	totals := w.StatsTotals()
	if totals.Counters["ns.shard.routed"] == 0 {
		t.Error("no request was metered as routed to its owning shard")
	}
	if totals.Counters["ns.shard.fanouts"] == 0 {
		t.Error("the attribute query was not metered as a cross-shard fan-out")
	}
	if totals.Counters["ns.shard.partials"] != 0 {
		t.Errorf("ns.shard.partials = %d with every shard healthy",
			totals.Counters["ns.shard.partials"])
	}
}

// TestShardKillChaos is the graceful-degradation contract of the
// partitioned namespace: killing every replica of one shard group takes
// out resolution for that shard's slice of the namespace only. Names on
// the surviving shard keep resolving, established conversations keep
// flowing, and the episode is visible in the shard metrics.
func TestShardKillChaos(t *testing.T) {
	seed := chaosSeed()
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{Seed: seed})
	groups := startShardedNS(t, w, 2, 2)
	t.Cleanup(w.Close)
	names := namesPerShard(t, w, 2)

	servers := make([]*ntcs.Module, 2)
	for s, name := range names {
		m, err := w.Attach(w.MustHost("host-"+name, machine.VAX, "ring"), name, nil)
		if err != nil {
			t.Fatal(err)
		}
		echoServe(m)
		servers[s] = m
	}
	// Short call timeout: probing a dead shard must fail in milliseconds,
	// not the 5s default.
	client, err := w.AttachConfig(w.MustHost("client-host", machine.VAX, "ring"), ntcs.Config{
		Name:        "client",
		CallTimeout: 250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if _, err := client.Locate(name); err != nil {
			t.Fatalf("warmup Locate(%q): %v", name, err)
		}
	}

	// Workload against the shard that stays up: every resolution is fresh
	// (no lease cache on the client), so each sample re-proves the
	// surviving shard answers while its sibling is dead.
	type sample struct {
		at time.Time
		ok bool
	}
	var (
		mu      sync.Mutex
		samples []sample
	)
	stop := make(chan struct{})
	workerDone := make(chan struct{})
	go func() {
		defer close(workerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			u, err := client.Locate(names[0])
			if err == nil {
				var reply string
				err = client.CallContext(context.Background(), u, "q", "ping", &reply)
			}
			mu.Lock()
			samples = append(samples, sample{at: time.Now(), ok: err == nil})
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
		}
	}()

	chaos := sim.NewChaos(seed)
	chaos.ObserveStats(w.StatsTotals)
	chaos.KillShard(300*time.Millisecond, "group-1", groups[1]...)
	start := time.Now()
	records := chaos.Run(context.Background())
	if len(records) != 1 {
		t.Fatalf("chaos fired %d events, want 1", len(records))
	}
	killedAt := start.Add(records[0].Fired)

	// The dead shard's slice of the namespace is gone: resolution fails
	// once the client exhausts the group's replicas.
	deadline := time.Now().Add(5 * time.Second)
	var lostErr error
	for time.Now().Before(deadline) {
		if _, lostErr = client.Locate(names[1]); lostErr != nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if lostErr == nil {
		t.Errorf("Locate(%q) still succeeds with every shard-1 replica dead", names[1])
	}

	// The surviving shard is unaffected: fresh resolution and messaging
	// both work right now, with the sibling group dead.
	u0, err := client.Locate(names[0])
	if err != nil {
		t.Fatalf("Locate(%q) with shard 1 dead: %v", names[0], err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u0, "q", "after", &reply); err != nil || reply != "echo:after" {
		t.Fatalf("Call on surviving shard: %q, %v", reply, err)
	}

	close(stop)
	<-workerDone

	// The workload on the surviving shard must not have starved after the
	// kill: resolutions of shard-0 names never touch the dead group.
	mu.Lock()
	defer mu.Unlock()
	okAfter, totalAfter := 0, 0
	for _, s := range samples {
		if !s.at.After(killedAt) {
			continue
		}
		totalAfter++
		if s.ok {
			okAfter++
		}
	}
	if totalAfter == 0 || okAfter < totalAfter*9/10 {
		t.Errorf("surviving-shard workload degraded after the kill: %d/%d ok", okAfter, totalAfter)
	}

	totals := w.StatsTotals()
	if totals.Counters["ns.shard.routed"] == 0 {
		t.Error("no request was metered as shard-routed")
	}
	if totals.Counters["nsp.query_failures"] == 0 {
		t.Error("probing the dead shard left nsp.query_failures at 0")
	}
	for _, rec := range records {
		if len(rec.Delta) > 0 {
			t.Logf("episode %-16s delta %v", rec.Name, rec.Delta)
		}
	}
}
