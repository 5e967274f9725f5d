// Reconfig: dynamic reconfiguration under load (§3.5). A worker module
// migrates across three machines — driven by the DRTS process control
// service — while a client hammers it with calls addressed to the UAdd it
// resolved once at startup. The client observes only brief faults; the
// address-fault handler and the forwarding table keep the conversation
// alive across every move.
//
// Run with: go run ./examples/reconfig
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"ntcs"
	"ntcs/internal/core"
	"ntcs/internal/drts/proctl"
	"ntcs/internal/ipcs/memnet"
	"ntcs/sim"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	world := sim.NewWorld()
	world.AddNetwork("ring", memnet.Options{})
	defer world.Close()
	nsHost := world.MustHost("apollo-ns", ntcs.Apollo, "ring")
	if _, err := world.StartNameServer(nsHost, "ns"); err != nil {
		return err
	}

	// Three machines, each with a process-control agent able to start the
	// worker locally.
	hostNames := []string{"vax-1", "sun-1", "apollo-1"}
	machines := []ntcs.Machine{ntcs.VAX, ntcs.Sun68K, ntcs.Apollo}
	agents := make([]string, len(hostNames))
	for i, hn := range hostNames {
		host := world.MustHost(hn, machines[i], "ring")
		agentMod, err := world.Attach(host, "agent-"+hn, map[string]string{"role": "proctl"})
		if err != nil {
			return err
		}
		agent := proctl.NewAgent(agentMod, workerFactory(world, host))
		go agent.Run()
		agents[i] = "agent-" + hn
	}

	ctlHost := world.MustHost("console", ntcs.Apollo, "ring")
	ctl, err := world.Attach(ctlHost, "console", nil)
	if err != nil {
		return err
	}

	// Start the worker on the first machine and resolve it ONCE.
	if _, err := proctl.Start(ctl, agents[0], "worker", map[string]string{"role": "work"}); err != nil {
		return err
	}
	client, err := world.Attach(ctlHost, "client", nil)
	if err != nil {
		return err
	}
	u, err := client.Locate("worker")
	if err != nil {
		return err
	}
	fmt.Printf("worker located once: %v (never re-resolved below)\n\n", u)

	call := func() (string, error) {
		var where string
		err := client.CallContext(context.Background(), u, "work", "job", &where)
		return where, err
	}

	for leg := 0; leg < len(hostNames); leg++ {
		// A burst of calls against the current incarnation.
		ok, faults := 0, 0
		var lastWhere string
		for i := 0; i < 25; i++ {
			where, err := call()
			if err != nil {
				faults++
				time.Sleep(10 * time.Millisecond)
				continue
			}
			ok++
			lastWhere = where
		}
		fmt.Printf("leg %d: %2d calls served by %-9s (%d transient faults)\n",
			leg+1, ok, lastWhere, faults)
		fmt.Printf("       client tables: %d forwarding entries, %d address faults absorbed\n",
			client.Nucleus().LCM.ForwardTable().Len(),
			client.Errors().Count("lcm.address-fault"))

		if leg == len(hostNames)-1 {
			break
		}
		from, to := agents[leg], agents[leg+1]
		fmt.Printf("       relocating worker %s → %s ...\n", from, to)
		if _, err := proctl.Relocate(ctl, from, to, "worker", map[string]string{"role": "work"}); err != nil {
			return err
		}
	}
	fmt.Println("\nthe client never re-located the worker; every move was absorbed")
	fmt.Println("by the LCM address-fault handler and the naming service (§3.5).")
	return nil
}

// workerFactory builds worker incarnations that answer with their host.
func workerFactory(world *sim.World, host *sim.Host) proctl.Factory {
	return func(name string, attrs map[string]string) (*core.Module, error) {
		m, err := world.Attach(host, name, attrs)
		if err != nil {
			return nil, err
		}
		go m.Serve(func(*core.Delivery) (string, any, error) { return "done", host.Name, nil })
		return m, nil
	}
}
