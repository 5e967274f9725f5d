// nameserver runs a standalone NTCS Name Server over TCP, for
// multi-process deployments. Other processes preload its address with
// their -ns flag (the "well known" configuration of paper §3.4).
//
// A server occupies one well-known slot (-slot, 0-15): its UAdd is
// NameServer+slot and its generated UAdds carry slot+1 as the server
// identifier, which is what routes UAdd-keyed requests back to it in a
// sharded deployment. Replica peers (-peers) receive every write and
// are reconciled by anti-entropy (-anti-entropy); dead records are
// garbage collected after -tombstone-ttl.
//
// Example, a two-replica group:
//
//	nameserver -bind backbone=127.0.0.1:4001 -slot 0 \
//	           -peers 1@backbone=127.0.0.1:4002 -anti-entropy 5s
//	nameserver -bind backbone=127.0.0.1:4002 -slot 1 \
//	           -peers 0@backbone=127.0.0.1:4001 -anti-entropy 5s
//	gateway    -bind backbone=127.0.0.1:4101,branch=127.0.0.1:4102 \
//	           -ns backbone=127.0.0.1:4001
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/cli"
	"ntcs/internal/core"
	"ntcs/internal/machine"
	"ntcs/internal/nameserver"
)

func main() {
	var (
		bind        = flag.String("bind", "backbone=127.0.0.1:4001", "network=host:port bindings, comma separated")
		name        = flag.String("name", "ns", "logical module name")
		machName    = flag.String("machine", "apollo", "simulated machine type (vax, sun68k, apollo, pyramid)")
		slot        = flag.Int("slot", 0, "well-known name server slot (0-15); UAdd = NameServer+slot")
		peers       = flag.String("peers", "", "replica peers, slot@network=host:port[,network=host:port] joined by ';'")
		peerMach    = flag.String("peer-machine", "", "peer hosts' machine type (defaults to -machine)")
		antiEntropy = flag.Duration("anti-entropy", 0, "digest reconciliation interval with one peer per tick (0 = off)")
		tombTTL     = flag.Duration("tombstone-ttl", 0, "retain dead records (and their forwarding) this long (0 = forever)")
		maxHandlers = flag.Int("max-handlers", 0, "bound on concurrent request handlers (0 = default, negative = unbounded)")
		topoPath    = flag.String("topo", "", "topology file; boots this process's entry instead of the hand flags")
		proc        = flag.String("proc", "", "process name within -topo (defaults to -name)")
		httpAddr    = flag.String("http", "", "serve /stats, /stats.json, expvar and pprof on this address (off when empty)")
		drainT      = flag.Duration("drain-timeout", 5*time.Second, "bound on the SIGTERM graceful drain")
	)
	flag.Parse()
	if err := run(config{
		bind: *bind, name: *name, machName: *machName, slot: *slot,
		peers: *peers, peerMach: *peerMach,
		antiEntropy: *antiEntropy, tombTTL: *tombTTL, maxHandlers: *maxHandlers,
		topoPath: *topoPath, proc: *proc, httpAddr: *httpAddr, drainT: *drainT,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "nameserver:", err)
		os.Exit(1)
	}
}

type config struct {
	bind, name, machName string
	slot                 int
	peers, peerMach      string
	antiEntropy, tombTTL time.Duration
	maxHandlers          int
	topoPath, proc       string
	httpAddr             string
	drainT               time.Duration
}

type peer struct {
	uadd      addr.UAdd
	endpoints []addr.Endpoint
}

// parsePeers parses "1@backbone=127.0.0.1:4002;2@backbone=127.0.0.1:4003":
// each peer is its well-known slot plus its bindings.
func parsePeers(spec string, m machine.Type) ([]peer, error) {
	if spec == "" {
		return nil, nil
	}
	var out []peer
	for _, part := range strings.Split(spec, ";") {
		slotStr, bindSpec, ok := strings.Cut(strings.TrimSpace(part), "@")
		if !ok {
			return nil, fmt.Errorf("peer %q is not slot@bindings", part)
		}
		n, err := strconv.Atoi(slotStr)
		if err != nil || n < 0 || n > int(addr.NameServerLimit-addr.NameServer) {
			return nil, fmt.Errorf("peer %q: bad slot %q", part, slotStr)
		}
		bindings, err := cli.ParseBindings(bindSpec)
		if err != nil {
			return nil, fmt.Errorf("peer %q: %w", part, err)
		}
		p := peer{uadd: addr.NameServer + addr.UAdd(n)}
		for _, b := range bindings {
			if b.Addr == "" {
				return nil, fmt.Errorf("peer %q: binding %q needs an explicit address", part, b.Network)
			}
			p.endpoints = append(p.endpoints, addr.Endpoint{Network: b.Network, Addr: b.Addr, Machine: m})
		}
		out = append(out, p)
	}
	return out, nil
}

// serve prints the ready line, waits for a signal, and shuts down:
// SIGTERM drains gracefully (deregister, quiesce, flush — the record's
// tombstone keeps §3.5 forwarding intact), SIGINT detaches directly.
func serve(rt *cli.ProcRuntime, drainT time.Duration) error {
	fmt.Println(rt.ReadyLine())
	if rt.WaitSignals() == syscall.SIGTERM {
		if err := rt.Drain(drainT); err != nil {
			fmt.Fprintln(os.Stderr, "nameserver: drain:", err)
		}
		fmt.Println(rt.DrainedLine())
		return nil
	}
	rt.Close()
	fmt.Println("shutting down")
	return nil
}

func run(cfg config) error {
	if cfg.topoPath != "" {
		proc := cfg.proc
		if proc == "" {
			proc = cfg.name
		}
		rt, err := cli.StartProc(cli.ProcOptions{
			TopoPath: cfg.topoPath, Proc: proc,
			HTTPAddr: cfg.httpAddr, DrainTimeout: cfg.drainT,
		})
		if err != nil {
			return err
		}
		return serve(rt, cfg.drainT)
	}
	m, err := machine.ParseType(cfg.machName)
	if err != nil {
		return err
	}
	if cfg.slot < 0 || cfg.slot > int(addr.NameServerLimit-addr.NameServer) {
		return fmt.Errorf("slot %d outside the well-known range 0-%d", cfg.slot, int(addr.NameServerLimit-addr.NameServer))
	}
	pm := m
	if cfg.peerMach != "" {
		if pm, err = machine.ParseType(cfg.peerMach); err != nil {
			return err
		}
	}
	peerList, err := parsePeers(cfg.peers, pm)
	if err != nil {
		return err
	}
	bindings, err := cli.ParseBindings(cfg.bind)
	if err != nil {
		return err
	}
	nets, hints := cli.OpenNetworks(bindings)

	mod, err := core.Attach(core.Config{
		Name:           cfg.name,
		Machine:        m,
		Networks:       nets,
		EndpointHints:  hints,
		Kind:           core.KindNameServer,
		FixedUAdd:      addr.NameServer + addr.UAdd(cfg.slot),
		ServerID:       uint16(cfg.slot + 1),
		NSAntiEntropy:  cfg.antiEntropy,
		NSTombstoneTTL: cfg.tombTTL,
		NSMaxHandlers:  cfg.maxHandlers,
	})
	if err != nil {
		return err
	}

	// Seed the peer records (so this server's own Nucleus can reach them)
	// and enable write propagation; anti-entropy reconciles the rest.
	if len(peerList) > 0 {
		uadds := make([]addr.UAdd, 0, len(peerList))
		for _, p := range peerList {
			mod.DB().Insert(nameserver.Record{
				Name:      fmt.Sprintf("ns%d", uint64(p.uadd-addr.NameServer)),
				UAdd:      p.uadd,
				Attrs:     map[string]string{"type": "nameserver"},
				Endpoints: p.endpoints,
				Alive:     true,
			})
			uadds = append(uadds, p.uadd)
		}
		mod.SetNameServerReplicas(uadds)
	}

	for _, ep := range mod.Endpoints() {
		fmt.Printf("name server %q serving %v on %s at %s\n", cfg.name, mod.UAdd(), ep.Network, ep.Addr)
	}
	fmt.Println("pass to other modules:  -ns", nsFlagValue(mod))

	rt, err := cli.NewRuntime(mod, cfg.httpAddr)
	if err != nil {
		return err
	}
	return serve(rt, cfg.drainT)
}

func nsFlagValue(mod *core.Module) string {
	out := ""
	for i, ep := range mod.Endpoints() {
		if i > 0 {
			out += ","
		}
		out += ep.Network + "=" + ep.Addr
	}
	return out
}
