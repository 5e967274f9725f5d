// ntcstopo renders the paper's architecture figures (2-1 … 2-4) from a
// LIVE assembled system: it boots a two-network testbed (Name Server,
// prime gateway, an application module and a backend), then draws each
// figure populated with the real module names, UAdds, networks and
// endpoints — the figures as facts, not pictures.
//
// It is also the topology-file tool of the deployment mode: -emit writes
// a declarative topology file (the site configuration of §3.4, one
// process per line) that the cmd binaries consume with -topo/-proc, and
// -topo FILE validates an existing file and renders the deployment it
// describes — processes, shard groups, and the derived well-known
// preload.
//
// Usage:
//
//	ntcstopo                 # all figures plus the live topology
//	ntcstopo -fig 2-2        # one figure
//	ntcstopo -emit site.topo # write the reference deployment file
//	ntcstopo -topo site.topo # validate + render a topology file
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"ntcs/internal/cli"
	"ntcs/internal/core"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/internal/trace"
	"ntcs/sim"
)

func main() {
	var (
		fig      = flag.String("fig", "", "figure to render: 2-1, 2-2, 2-3, 2-4, topo (default: all)")
		emit     = flag.String("emit", "", "write the reference deployment topology to this file ('-' for stdout)")
		topoPath = flag.String("topo", "", "validate and render an existing topology file")
	)
	flag.Parse()
	var err error
	switch {
	case *emit != "":
		err = emitTopology(*emit)
	case *topoPath != "":
		err = renderTopology(*topoPath)
	default:
		err = run(*fig)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ntcstopo:", err)
		os.Exit(1)
	}
}

// referenceTopology is the deployment the emitted file describes: a
// two-replica naming tier on the backbone, a prime gateway joining the
// branch network, and an echo worker — the real-process analogue of the
// figure testbed above.
const referenceTopology = `# NTCS reference deployment — consumed by:
#   nameserver -topo site.topo -proc ns0
#   nameserver -topo site.topo -proc ns1
#   gateway    -topo site.topo -proc gw1
#   ursad      -topo site.topo -proc echo-1
nameserver ns0 machine=apollo slot=0 shard=0 anti-entropy=2s bind=backbone=127.0.0.1:4001
nameserver ns1 machine=apollo slot=1 shard=0 anti-entropy=2s bind=backbone=127.0.0.1:4002
gateway    gw1 machine=apollo prime=true bind=backbone=127.0.0.1:4101,branch=127.0.0.1:4102
worker     echo-1 machine=vax role=echo networks=backbone
`

func emitTopology(path string) error {
	// Round-trip through the parser so the emitted file is, by
	// construction, a file the binaries will accept.
	if _, err := cli.ParseTopology(strings.NewReader(referenceTopology)); err != nil {
		return fmt.Errorf("reference topology invalid: %w", err)
	}
	var err error
	if path == "-" {
		_, err = os.Stdout.WriteString(referenceTopology)
		return err
	}
	return os.WriteFile(path, []byte(referenceTopology), 0o644)
}

func renderTopology(path string) error {
	topo, err := cli.ParseTopologyFile(path)
	if err != nil {
		return err
	}
	wk, err := topo.WellKnown()
	if err != nil {
		return err
	}
	fmt.Printf("topology %s: %d processes\n", path, len(topo.Procs))
	for i := range topo.Procs {
		p := &topo.Procs[i]
		fmt.Printf("  %-10s %-12s machine=%-7s", p.Kind, p.Name, p.Machine)
		if u := p.UAdd(); u != 0 {
			fmt.Printf(" uadd=%v", u)
		}
		if p.Kind == cli.ProcNameServer {
			fmt.Printf(" shard=%d", p.Shard)
			if peers := topo.NSPeers(p.Name); len(peers) > 0 {
				names := make([]string, 0, len(peers))
				for _, q := range peers {
					names = append(names, q.Name)
				}
				fmt.Printf(" replicas=%s", strings.Join(names, ","))
			}
		}
		if p.Role != "" {
			fmt.Printf(" role=%s", p.Role)
		}
		for _, b := range p.Bindings {
			if b.Addr != "" {
				fmt.Printf("  %s!%s", b.Network, b.Addr)
			} else {
				fmt.Printf("  %s!(ephemeral)", b.Network)
			}
		}
		fmt.Println()
	}
	fmt.Printf("well-known preload: %d name servers, %d prime gateways\n",
		len(wk.NameServers), len(wk.Gateways))
	for _, e := range wk.NameServers {
		fmt.Printf("  NS %-12s %v shard=%d serverID=%d\n", e.Name, e.UAdd, e.Shard, e.ServerID)
	}
	for _, e := range wk.Gateways {
		fmt.Printf("  GW %-12s %v\n", e.Name, e.UAdd)
	}
	return nil
}

type world struct {
	w       *sim.World
	ns      *core.Module
	gw      *core.Module
	host    *core.Module
	backend *core.Module
}

func boot() (*world, error) {
	w := sim.NewWorld()
	w.AddNetwork("backbone", memnet.Options{})
	w.AddNetwork("branch", memnet.Options{})
	nsHost := w.MustHost("apollo-ns", machine.Apollo, "backbone")
	ns, err := w.StartNameServer(nsHost, "ns")
	if err != nil {
		return nil, err
	}
	gwHost := w.MustHost("apollo-gw", machine.Apollo, "backbone", "branch")
	gw, err := w.StartGateway(gwHost, "gw-1")
	if err != nil {
		return nil, err
	}
	beHost := w.MustHost("vax-1", machine.VAX, "backbone")
	backend, err := w.Attach(beHost, "searcher", map[string]string{"role": "search"})
	if err != nil {
		return nil, err
	}
	go backend.Serve(func(*core.Delivery) (string, any, error) { return "r", "ok", nil })
	hostHost := w.MustHost("sun-1", machine.Sun68K, "branch")
	host, err := w.Attach(hostHost, "host-1", nil)
	if err != nil {
		return nil, err
	}
	// Drive one call so the traces and circuit tables are populated —
	// from a clean trace, so the figures show application operations, not
	// the Attach-time registration.
	host.Tracer().SetEnabled(true)
	host.Tracer().Clear()
	u, err := host.Locate("searcher")
	if err != nil {
		return nil, err
	}
	var reply string
	if err := host.CallContext(context.Background(), u, "q", "x", &reply); err != nil {
		return nil, err
	}
	return &world{w: w, ns: ns, gw: gw, host: host, backend: backend}, nil
}

func run(fig string) error {
	wd, err := boot()
	if err != nil {
		return err
	}
	defer wd.w.Close()

	figs := map[string]func(*world){
		"2-1":  fig21,
		"2-2":  fig22,
		"2-3":  fig23,
		"2-4":  fig24,
		"topo": topo,
	}
	if fig != "" {
		f, ok := figs[fig]
		if !ok {
			return fmt.Errorf("unknown figure %q (2-1, 2-2, 2-3, 2-4, topo)", fig)
		}
		f(wd)
		return nil
	}
	for _, name := range []string{"2-1", "2-2", "2-3", "2-4", "topo"} {
		figs[name](wd)
		fmt.Println()
	}
	return nil
}

func fig21(w *world) {
	m := w.host
	fmt.Println("Figure 2-1 — The Application's View of the NTCS (live)")
	fmt.Printf(`
   ┌─ application module %q ──────────────┐
   │                                            │
   │       Send · Call · Recv · Locate          │
   │                   │                        │
   │   ┌─ ComMod (the NTCS, %v) ─┐   │
   │   │  the only NTCS surface the app sees │   │
   │   └──────────────────┬───────────────────┘   │
   └──────────────────────┼───────────────────────┘
                          ▼ native IPCS
`, m.Name(), m.UAdd())
	seq := m.Tracer().LayerSequence()
	fmt.Printf("   observed: every operation entered via layer %q first (trace: %v)\n", seq[0], seq)
}

func fig22(w *world) {
	m := w.host
	eps := m.Endpoints()
	fmt.Println("Figure 2-2 — The Nucleus Internal Layering (live)")
	fmt.Printf(`
   module %q
   ┌────────────────────────────────────────────┐
   │ LCM-Layer   reconfiguration, no open/close │
   │   forwarding entries: %-4d                 │
   ├────────────────────────────────────────────┤
   │ IP-Layer    internet circuits, routing     │
   │   open IVCs: %-4d                          │
   ├────────────────────────────────────────────┤
   │ ND-Layer    STD-IF local virtual circuits  │
`, m.Name(), m.Nucleus().LCM.ForwardTable().Len(), len(m.Nucleus().IP.OpenCircuits()))
	for _, ep := range eps {
		fmt.Printf("   │   %s at %q\n", ep.Network, ep.Addr)
	}
	fmt.Println(`   └────────────────────────────────────────────┘`)
	gw := w.gw
	fmt.Printf("   gateway %q binds one ND layer per network: %v\n", gw.Name(), gw.Nucleus().IP.Networks())
}

func fig23(w *world) {
	m := w.host
	fmt.Println("Figure 2-3 — The Naming Service Protocol (NSP) Layer (live)")
	fmt.Printf(`
               ALI (locate) ──┐         ┌── LCM (address faults)
                              ▼         ▼
   ┌────────────────────── NSP-Layer ──────────────────────┐
   │  the single naming access point; isolates the         │
   │  naming service implementation from the ComMod        │
   └───────────────────────────┬────────────────────────────┘
                               ▼ ordinary Nucleus calls
                     Name Server %v (module %q)
`, w.ns.UAdd(), w.ns.Name())
	fmt.Printf("   observed: %d NSP entries in %q's trace\n",
		m.Tracer().CountLayer(trace.LayerNSP), m.Name())
}

func fig24(w *world) {
	m := w.host
	fmt.Println("Figure 2-4 — The ComMod Internal Layering (live)")
	fmt.Printf(`
   module %q (%s machine)
   ┌────────────────────────────────────────────┐
   │ ALI-Layer   thin veneer: parameter checks, │
   │             tailored errors                │
   ├────────────────────────────────────────────┤
   │ NSP-Layer   naming access point            │
   ├────────────────────────────────────────────┤
   │ Nucleus     LCM / IP / ND (Figure 2-2)     │
   └────────────────────────────────────────────┘
`, m.Name(), m.Machine())
	fmt.Printf("   running error table:\n%s", indent(m.Errors().String()))
}

func topo(w *world) {
	fmt.Println("Live topology")
	mods := []*core.Module{w.ns, w.gw, w.backend, w.host}
	for _, m := range mods {
		fmt.Printf("  %-10s %v  machine=%-7s", m.Name(), m.UAdd(), m.Machine())
		for _, ep := range m.Endpoints() {
			fmt.Printf("  %s!%s", ep.Network, ep.Addr)
		}
		fmt.Println()
	}
	fmt.Println("  networks: backbone ── gw-1 ── branch (chained LVCs relay across)")
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "     " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var lines []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			lines = append(lines, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		lines = append(lines, cur)
	}
	return lines
}
