package proctest

import (
	"context"
	"strings"
	"testing"

	"ntcs/internal/cli"
	"ntcs/internal/core"
	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/tcpnet"
	"ntcs/internal/machine"
)

// Deployment abstracts "a booted topology" over its two realizations:
// every entry a separate OS process (BootReal), or every entry its own
// module + tcpnet instance inside the test process (BootInProcess — the
// fallback covering the same wiring in environments without exec).
// Tests written against Deployment run identically against both.
type Deployment struct {
	Topo    *cli.Topology
	Cluster *Cluster                // nil for the in-process realization
	Mods    map[string]*core.Module // in-process modules by entry name
}

// Real reports whether the deployment is real OS processes.
func (d *Deployment) Real() bool { return d.Cluster != nil }

// SmokeTopology is the minimal deployment the smoke tests boot: one Name
// Server and one echo worker on the backbone — the converted
// TestMultiProcessStyleDeployment wiring as a topology file.
func SmokeTopology() *cli.Topology {
	topo, err := cli.ParseTopology(strings.NewReader(`
nameserver ns0 machine=apollo slot=0 shard=0 networks=backbone
worker     tcp-server machine=sun68k role=echo networks=backbone
`))
	if err != nil {
		panic("proctest: smoke topology invalid: " + err.Error())
	}
	return topo
}

// BootInProcess realizes the topology inside the test process: each
// entry gets its own open tcpnet instance (nothing shared in memory but
// the loopback interface) and attaches exactly as the cmd binaries do,
// through cli.AttachEntry. role=echo workers serve the echo protocol.
func BootInProcess(tb testing.TB, topo *cli.Topology) *Deployment {
	tb.Helper()
	if err := AssignPorts(topo); err != nil {
		tb.Fatalf("proctest: assign ports: %v", err)
	}
	d := &Deployment{Topo: topo, Mods: map[string]*core.Module{}}
	for _, kind := range []string{cli.ProcNameServer, cli.ProcGateway, cli.ProcWorker} {
		for i := range topo.Procs {
			entry := &topo.Procs[i]
			if entry.Kind != kind {
				continue
			}
			mod, err := cli.AttachEntry(topo, entry)
			if err != nil {
				tb.Fatalf("proctest: attach %s: %v", entry.Name, err)
			}
			tb.Cleanup(func() { _ = mod.Detach() })
			d.Mods[entry.Name] = mod
			if entry.Role == "echo" {
				go mod.Serve(cli.Echo)
			}
		}
	}
	return d
}

// BootReal realizes the topology as separate OS processes (skipping the
// test when the binaries cannot be built).
func BootReal(tb testing.TB, topo *cli.Topology) *Deployment {
	tb.Helper()
	return &Deployment{Topo: topo, Cluster: Boot(tb, topo)}
}

// Client attaches a fresh client module to the deployment over its own
// tcpnet instance, learning the Name Server only from the topology's
// well-known preload — the -ns flag-style bootstrap of a real process,
// whichever realization is underneath.
func (d *Deployment) Client(tb testing.TB, name, network string, m machine.Type) *core.Module {
	tb.Helper()
	return d.AttachConfig(tb, core.Config{Name: name, Machine: m}, network)
}

// AttachConfig is Client with full Config control (call timeouts, cache
// knobs): networks, endpoint hints and the well-known preload are filled
// from the deployment.
func (d *Deployment) AttachConfig(tb testing.TB, cfg core.Config, networks ...string) *core.Module {
	tb.Helper()
	wk, err := d.Topo.WellKnown()
	if err != nil {
		tb.Fatal(err)
	}
	cfg.WellKnown = wk
	cfg.Networks = nil
	cfg.EndpointHints = map[string]string{}
	for _, network := range networks {
		cfg.Networks = append(cfg.Networks, ipcs.Network(tcpnet.NewOpen(network)))
		cfg.EndpointHints[network] = "127.0.0.1:0"
	}
	if cfg.Machine == 0 {
		cfg.Machine = machine.VAX
	}
	mod, err := core.Attach(cfg)
	if err != nil {
		tb.Fatalf("proctest: attach client %s: %v", cfg.Name, err)
	}
	tb.Cleanup(func() { _ = mod.Detach() })
	return mod
}

// VerifyEcho is the smoke assertion both realizations share: a client
// bootstraps against the deployment's Name Server, locates the echo
// worker, and round-trips one call over real sockets.
func VerifyEcho(tb testing.TB, d *Deployment, workerName string) {
	tb.Helper()
	client := d.Client(tb, "probe-"+workerName, d.Topo.Procs[0].Bindings[0].Network, machine.VAX)
	u, err := client.Locate(workerName)
	if err != nil {
		tb.Fatalf("proctest: locate %s: %v", workerName, err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "over real sockets", &reply); err != nil {
		tb.Fatalf("proctest: call %s: %v", workerName, err)
	}
	if reply != "echo:over real sockets" {
		tb.Errorf("proctest: reply = %q", reply)
	}
}
