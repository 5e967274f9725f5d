// gateway runs a standalone NTCS gateway joining two or more TCP
// networks — "the same Gateway module ... used for all networks and
// machines" (paper §4.1). It registers itself with the Name Server so
// other modules discover the topology through the naming service.
//
// Example:
//
//	gateway -bind backbone=127.0.0.1:4101,branch=127.0.0.1:4102 \
//	        -ns backbone=127.0.0.1:4001 -prime
//
// In a config-driven deployment the same process boots from a topology
// file instead: gateway -topo site.topo -proc gw1. SIGTERM drains
// gracefully (deregister, quiesce, flush); SIGINT exits directly.
package main

import (
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/cli"
	"ntcs/internal/core"
	"ntcs/internal/machine"
)

func main() {
	var (
		bind     = flag.String("bind", "", "network=host:port bindings (two or more), comma separated")
		ns       = flag.String("ns", "", "Name Server endpoints: network=host:port, comma separated")
		name     = flag.String("name", "gw", "logical gateway name")
		machName = flag.String("machine", "apollo", "simulated machine type")
		nsMach   = flag.String("ns-machine", "apollo", "the Name Server host's machine type")
		prime    = flag.Bool("prime", true, "claim a well-known prime gateway UAdd (§3.4)")
		topoPath = flag.String("topo", "", "topology file; boots this process's entry instead of the hand flags")
		proc     = flag.String("proc", "", "process name within -topo (defaults to -name)")
		httpAddr = flag.String("http", "", "serve /stats, /stats.json, expvar and pprof on this address (off when empty)")
		drainT   = flag.Duration("drain-timeout", 5*time.Second, "bound on the SIGTERM graceful drain")
	)
	flag.Parse()
	if err := run(*bind, *ns, *name, *machName, *nsMach, *prime, *topoPath, *proc, *httpAddr, *drainT); err != nil {
		fmt.Fprintln(os.Stderr, "gateway:", err)
		os.Exit(1)
	}
}

// serve prints the ready line, waits for a signal, and shuts down:
// SIGTERM drains gracefully, SIGINT detaches directly.
func serve(rt *cli.ProcRuntime, drainT time.Duration) error {
	fmt.Println(rt.ReadyLine())
	if rt.WaitSignals() == syscall.SIGTERM {
		if err := rt.Drain(drainT); err != nil {
			fmt.Fprintln(os.Stderr, "gateway: drain:", err)
		}
		fmt.Println(rt.DrainedLine())
		return nil
	}
	rt.Close()
	fmt.Println("shutting down")
	return nil
}

func run(bind, ns, name, machName, nsMach string, prime bool, topoPath, proc, httpAddr string, drainT time.Duration) error {
	if topoPath != "" {
		if proc == "" {
			proc = name
		}
		rt, err := cli.StartProc(cli.ProcOptions{
			TopoPath: topoPath, Proc: proc, HTTPAddr: httpAddr, DrainTimeout: drainT,
		})
		if err != nil {
			return err
		}
		return serve(rt, drainT)
	}

	m, err := machine.ParseType(machName)
	if err != nil {
		return err
	}
	bindings, err := cli.ParseBindings(bind)
	if err != nil {
		return err
	}
	if len(bindings) < 2 {
		return fmt.Errorf("a gateway must join at least two networks")
	}
	wk, err := cli.ParseWellKnown(ns, nsMach)
	if err != nil {
		return err
	}
	nets, hints := cli.OpenNetworks(bindings)

	cfg := core.Config{
		Name:          name,
		Machine:       m,
		Networks:      nets,
		EndpointHints: hints,
		WellKnown:     wk,
		Kind:          core.KindGateway,
	}
	if prime {
		cfg.FixedUAdd = addr.PrimeGatewayBase
	}
	mod, err := core.Attach(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("gateway %q up as %v joining:\n", name, mod.UAdd())
	for _, ep := range mod.Endpoints() {
		fmt.Printf("  %s at %s\n", ep.Network, ep.Addr)
	}

	rt, err := cli.NewRuntime(mod, httpAddr)
	if err != nil {
		return err
	}
	return serve(rt, drainT)
}
