// URSA: the paper's motivating application — a distributed information
// retrieval system with index, search, and document backends on
// heterogeneous machines across two disjoint networks, joined by an NTCS
// gateway. Mid-run, the search server is relocated to another machine
// while the host keeps querying.
//
// Run with: go run ./examples/ursa
package main

import (
	"fmt"
	"log"
	"time"

	"ntcs"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/ursa"
	"ntcs/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Topology: the host workstation lives on the office ring; the
	// backends on the machine-room net. A prime gateway joins them.
	world := sim.NewWorld()
	world.AddNetwork("office-ring", memnet.Options{Latency: 200 * time.Microsecond})
	world.AddNetwork("machine-room", memnet.Options{Latency: 50 * time.Microsecond})
	defer world.Close()

	nsHost := world.MustHost("apollo-ns", ntcs.Apollo, "machine-room")
	if _, err := world.StartNameServer(nsHost, "ns"); err != nil {
		return err
	}
	gwHost := world.MustHost("apollo-gw", ntcs.Apollo, "office-ring", "machine-room")
	if _, err := world.StartGateway(gwHost, "gw-office"); err != nil {
		return err
	}

	// Backends on three different machine types.
	idxHost := world.MustHost("apollo-1", ntcs.Apollo, "machine-room")
	docHost := world.MustHost("vax-1", ntcs.VAX, "machine-room")
	searchHost := world.MustHost("sun-1", ntcs.Sun68K, "machine-room")
	dep, err := ursa.Deploy(world, idxHost, docHost, searchHost)
	if err != nil {
		return err
	}
	fmt.Println("backends up:",
		ursa.IndexServerName, "on apollo-1,",
		ursa.DocServerName, "on vax-1,",
		ursa.SearchServerName, "on sun-1")

	// The host workstation, across the gateway.
	hostHost := world.MustHost("sun-desk", ntcs.Sun68K, "office-ring")
	hostMod, err := world.Attach(hostHost, "host-1", nil)
	if err != nil {
		return err
	}
	client := ursa.NewClient(hostMod)

	if err := client.Ingest(ursa.BuiltinCorpus()); err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	fmt.Printf("ingested %d documents; index holds %d terms\n",
		len(ursa.BuiltinCorpus()), dep.Index.Terms())

	show := func(query string) error {
		reply, err := client.Search(query, 3)
		if err != nil {
			return fmt.Errorf("search %q: %w", query, err)
		}
		fmt.Printf("query %q → %d hits\n", query, len(reply.Hits))
		for _, h := range reply.Hits {
			fmt.Printf("  doc %-2d score %-5d %s\n", h.DocID, h.Score, h.Title)
		}
		return nil
	}
	if err := show("distributed system"); err != nil {
		return err
	}
	if err := show("information retrieval"); err != nil {
		return err
	}

	// Dynamic reconfiguration (§3.5): the search server moves from the
	// Sun to the VAX while the host keeps its old address.
	fmt.Println("\nrelocating", ursa.SearchServerName, "from sun-1 to vax-1 ...")
	if err := dep.SearchModule.Detach(); err != nil {
		return err
	}
	m, err := world.Attach(docHost, ursa.SearchServerName, map[string]string{"role": "search"})
	if err != nil {
		return err
	}
	ursa.NewSearchServer(m) // serves on its own loops; no handle needed

	// The host's cached UAdd now points at a dead module; the first
	// query faults, forwards, and lands on the replacement.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if err := show("network transparent communication"); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	faults := hostMod.Errors()
	fmt.Printf("\nhost error table after relocation:\n%s", faults)
	return nil
}
