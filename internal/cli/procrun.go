package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ntcs/internal/core"
	"ntcs/internal/stats"
	"ntcs/internal/stats/statshttp"
)

// ProcOptions configure one OS process booted from a topology file
// (the -topo/-proc flags shared by the cmd binaries).
type ProcOptions struct {
	// TopoPath is the topology file; Proc names this process's entry.
	TopoPath string
	Proc     string
	// HTTPAddr, when non-empty, serves /stats, /stats.json, expvar and
	// pprof for this process ("127.0.0.1:0" for an ephemeral port).
	HTTPAddr string
	// DrainTimeout bounds the SIGTERM graceful-drain quiesce and flush
	// phases (default 5s).
	DrainTimeout time.Duration
}

// Main is the whole main function of a deployment binary whose only job
// is to boot its topology entry (cmd/nameserver, cmd/gateway): it parses
// -topo, -proc, -http and -drain-timeout, exits 2 with the usage when
// -topo or -proc is missing, and otherwise runs Run, exiting 1 on error.
func Main(prog string) {
	topoPath := flag.String("topo", "", "topology file (required; ntcstopo -emit writes a reference one)")
	proc := flag.String("proc", "", "this process's entry in -topo (required)")
	httpAddr := flag.String("http", "", "serve /stats, /stats.json, expvar and pprof on this address (off when empty)")
	drainT := flag.Duration("drain-timeout", 5*time.Second, "bound on the SIGTERM graceful drain")
	flag.Parse()
	if *topoPath == "" || *proc == "" {
		fmt.Fprintf(os.Stderr, "%s: -topo and -proc are required\n", prog)
		flag.Usage()
		os.Exit(2)
	}
	err := Run(ProcOptions{TopoPath: *topoPath, Proc: *proc, HTTPAddr: *httpAddr, DrainTimeout: *drainT})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", prog, err)
		os.Exit(1)
	}
}

// Run boots the named topology entry as this OS process (AttachEntry plus
// the optional stats listener) and serves it until a signal. It prints
// the machine-readable boot announcement the process harness scans for,
//
//	ntcs-proc ready name=<proc> uadd=<uadd> stats=<host:port|->
//
// then waits. SIGTERM drains gracefully (deregister, quiesce, flush,
// teardown — see core.Module.Drain) within opts.DrainTimeout and prints
// "ntcs-proc drained name=<proc>"; a failed deregistration is reported
// on stderr but is no error, because the drain is politeness, not a
// correctness gate. SIGINT detaches directly.
func Run(opts ProcOptions) error {
	topo, err := ParseTopologyFile(opts.TopoPath)
	if err != nil {
		return err
	}
	entry, ok := topo.Proc(opts.Proc)
	if !ok {
		return fmt.Errorf("cli: topology %s has no process %q", opts.TopoPath, opts.Proc)
	}
	mod, err := AttachEntry(topo, entry)
	if err != nil {
		return err
	}
	statsAddr := "-"
	if opts.HTTPAddr != "" {
		collect := func() []stats.Snapshot { return []stats.Snapshot{mod.Stats().Snapshot()} }
		srv, bound, err := statshttp.Serve(opts.HTTPAddr, collect)
		if err != nil {
			mod.Kill()
			return fmt.Errorf("cli: stats listener: %w", err)
		}
		defer srv.Close()
		statsAddr = bound
	}

	// Catch signals before the ready line: a harness may signal the moment
	// it reads that line, and a SIGTERM arriving before the handler is
	// installed would kill the process instead of draining it.
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	fmt.Printf("ntcs-proc ready name=%s uadd=%d stats=%s\n", entry.Name, uint64(mod.UAdd()), statsAddr)
	sig := <-signals
	signal.Stop(signals)
	if sig != syscall.SIGTERM {
		_ = mod.Detach()
		fmt.Println("shutting down")
		return nil
	}
	timeout := opts.DrainTimeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := mod.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: drain: %v\n", entry.Name, err)
	}
	fmt.Printf("ntcs-proc drained name=%s\n", entry.Name)
	return nil
}

// AttachEntry attaches one topology entry as a live module and starts its
// role. It opens the entry's networks, derives the shared well-known
// preload from the file and attaches with the kind-appropriate
// configuration. A name server then joins its peers
// (core.Module.JoinNameServers), and a role=echo worker serves Echo.
// Shared by Run (one entry per OS process) and the in-process deployment
// fixture (every entry in one test process), so the two realizations are
// one code path.
func AttachEntry(topo *Topology, entry *TopoProc) (*core.Module, error) {
	wk, err := topo.WellKnown()
	if err != nil {
		return nil, err
	}
	nets, hints := OpenNetworks(entry.Bindings)

	cfg := core.Config{
		Name:          entry.Name,
		Machine:       entry.Machine,
		Networks:      nets,
		EndpointHints: hints,
		WellKnown:     wk,
	}
	switch entry.Kind {
	case ProcNameServer:
		cfg.Kind = core.KindNameServer
		cfg.FixedUAdd = entry.UAdd()
		cfg.ServerID = uint16(entry.Slot + 1)
		cfg.NSAntiEntropy = entry.AntiEntropy
		cfg.NSTombstoneTTL = entry.TombstoneTTL
	case ProcGateway:
		cfg.Kind = core.KindGateway
		if entry.Prime {
			cfg.FixedUAdd = entry.UAdd()
		}
	default:
		cfg.Kind = core.KindApplication
		if entry.Role != "" {
			cfg.Attrs = map[string]string{"role": entry.Role}
		}
	}

	mod, err := core.Attach(cfg)
	if err != nil {
		return nil, err
	}
	mod.JoinNameServers(wk)
	if entry.Role == "echo" {
		go mod.Serve(Echo)
	}
	return mod, nil
}

// Echo is the handler of role=echo workers, served through Module.Serve:
// it answers a call carrying a string s with "echo:"+s. It is the workload
// module the process harness measures recovery against.
func Echo(d *core.Delivery) (string, any, error) {
	var s string
	if err := d.Decode(&s); err != nil {
		return "", nil, fmt.Errorf("decode: %w", err)
	}
	return "echo", "echo:" + s, nil
}
