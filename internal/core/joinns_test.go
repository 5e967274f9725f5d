package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ntcs/internal/addr"
	"ntcs/internal/cli"
	"ntcs/internal/core"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/internal/proctest"
	"ntcs/sim"
)

// TestJoinNameServersOneRuleInBothRealizations: a replicated, sharded
// naming tier is wired by one rule whether it is booted from a topology
// file or built in the simulator. With two shards of two replicas each,
// every server holds a live record for each of the three others, and it
// replicates to exactly its shard peer.
func TestJoinNameServersOneRuleInBothRealizations(t *testing.T) {
	check := func(t *testing.T, servers []*core.Module, shards []int) {
		t.Helper()
		for i, s := range servers {
			var want []addr.UAdd
			for j, o := range servers {
				if i == j {
					continue
				}
				if rec, err := s.DB().Lookup(o.UAdd()); err != nil || !rec.Alive {
					t.Errorf("%s: no live record for %s (alive %v, err %v)", s.Name(), o.Name(), rec.Alive, err)
				}
				if shards[j] == shards[i] {
					want = append(want, o.UAdd())
				}
			}
			got := s.NameServerReplicas()
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Errorf("%s (shard %d): replicas %v, want its shard peers %v", s.Name(), shards[i], got, want)
			}
		}
	}

	t.Run("topology", func(t *testing.T) {
		topo, err := cli.ParseTopology(strings.NewReader(`
nameserver ns0 slot=0 shard=0 networks=backbone
nameserver ns1 slot=1 shard=0 networks=backbone
nameserver ns2 slot=2 shard=1 networks=backbone
nameserver ns3 slot=3 shard=1 networks=backbone
`))
		if err != nil {
			t.Fatal(err)
		}
		d := proctest.BootInProcess(t, topo)
		servers := []*core.Module{d.Mods["ns0"], d.Mods["ns1"], d.Mods["ns2"], d.Mods["ns3"]}
		check(t, servers, []int{0, 0, 1, 1})
	})

	t.Run("sim", func(t *testing.T) {
		w := sim.NewWorld()
		w.AddNetwork("ring", memnet.Options{})
		t.Cleanup(w.Close)
		// Interleaved shards: every start rewires the servers before it.
		shards := []int{0, 1, 0, 1}
		var servers []*core.Module
		for i, shard := range shards {
			h := w.MustHost(fmt.Sprintf("ns%d-host", i), machine.Apollo, "ring")
			m, err := w.StartNameServerShard(h, fmt.Sprintf("ns%d", i), shard)
			if err != nil {
				t.Fatal(err)
			}
			servers = append(servers, m)
		}
		check(t, servers, shards)
	})
}
