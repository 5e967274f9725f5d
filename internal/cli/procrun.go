package cli

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/nameserver"
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

// ProcRuntime is a topology entry running as this OS process.
type ProcRuntime struct {
	Mod       *core.Module
	Topo      *Topology
	Entry     *TopoProc
	StatsAddr string // bound stats listener, "" when off

	statsSrv *http.Server
	signals  chan os.Signal
}

// StartProc boots the named topology entry: it opens the entry's
// networks, derives the shared well-known preload from the file, attaches
// the module (TAdd bootstrap against the remote NS for workers and
// non-prime gateways), seeds replica peers for name servers, and starts
// the optional stats listener. The caller prints ReadyLine and runs its
// serve loop (or WaitSignals).
func StartProc(opts ProcOptions) (*ProcRuntime, error) {
	topo, err := ParseTopologyFile(opts.TopoPath)
	if err != nil {
		return nil, err
	}
	entry, ok := topo.Proc(opts.Proc)
	if !ok {
		return nil, fmt.Errorf("cli: topology %s has no process %q", opts.TopoPath, opts.Proc)
	}
	mod, err := AttachEntry(topo, entry)
	if err != nil {
		return nil, err
	}
	rt := &ProcRuntime{Mod: mod, Topo: topo, Entry: entry}

	if opts.HTTPAddr != "" {
		collect := func() []stats.Snapshot { return []stats.Snapshot{mod.Stats().Snapshot()} }
		srv, bound, err := statshttp.Serve(opts.HTTPAddr, collect)
		if err != nil {
			mod.Kill()
			return nil, fmt.Errorf("cli: stats listener: %w", err)
		}
		rt.statsSrv, rt.StatsAddr = srv, bound
	}
	rt.catchSignals()
	return rt, nil
}

// AttachEntry attaches one topology entry as a live module: it opens the
// entry's networks, derives the shared well-known preload from the file,
// attaches with the kind-appropriate configuration, and — for name
// servers — seeds the replica peers' records (reachable through the
// server's own Nucleus before any traffic flows) and turns on write
// propagation; anti-entropy reconciles whatever the seeds miss. Shared
// by the cmd binaries (one entry per OS process) and the in-process
// deployment fixture (every entry in one test process).
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

	if entry.Kind == ProcNameServer {
		peers := topo.NSPeers(entry.Name)
		uadds := make([]addr.UAdd, 0, len(peers))
		for _, p := range peers {
			eps := make([]addr.Endpoint, 0, len(p.Bindings))
			for _, b := range p.Bindings {
				eps = append(eps, addr.Endpoint{Network: b.Network, Addr: b.Addr, Machine: p.Machine})
			}
			mod.DB().Insert(nameserver.Record{
				Name:      p.Name,
				UAdd:      p.UAdd(),
				Attrs:     map[string]string{"type": "nameserver"},
				Endpoints: eps,
				Alive:     true,
			})
			uadds = append(uadds, p.UAdd())
		}
		if len(uadds) > 0 {
			mod.SetNameServerReplicas(uadds)
		}
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

// NewRuntime wraps an already-attached module in a ProcRuntime — the
// legacy hand-flag path of the cmd binaries, which shares the ready-line
// and drain plumbing with the -topo path.
func NewRuntime(mod *core.Module, httpAddr string) (*ProcRuntime, error) {
	rt := &ProcRuntime{Mod: mod, Entry: &TopoProc{Name: mod.Name()}}
	if httpAddr != "" {
		collect := func() []stats.Snapshot { return []stats.Snapshot{mod.Stats().Snapshot()} }
		srv, bound, err := statshttp.Serve(httpAddr, collect)
		if err != nil {
			mod.Kill()
			return nil, fmt.Errorf("cli: stats listener: %w", err)
		}
		rt.statsSrv, rt.StatsAddr = srv, bound
	}
	rt.catchSignals()
	return rt, nil
}

// catchSignals starts catching SIGINT and SIGTERM before the caller prints
// ReadyLine: a harness may signal the moment it reads that line, and a
// SIGTERM arriving before the handler is installed would kill the process
// instead of draining it.
func (rt *ProcRuntime) catchSignals() {
	rt.signals = make(chan os.Signal, 1)
	signal.Notify(rt.signals, os.Interrupt, syscall.SIGTERM)
}

// ReadyLine is the machine-readable boot announcement the process harness
// scans for on stdout:
//
//	ntcs-proc ready name=<proc> uadd=<uadd> stats=<host:port|->
func (rt *ProcRuntime) ReadyLine() string {
	statsAddr := rt.StatsAddr
	if statsAddr == "" {
		statsAddr = "-"
	}
	return fmt.Sprintf("ntcs-proc ready name=%s uadd=%d stats=%s", rt.Entry.Name, uint64(rt.Mod.UAdd()), statsAddr)
}

// DrainedLine is the companion announcement after a graceful drain.
func (rt *ProcRuntime) DrainedLine() string {
	return fmt.Sprintf("ntcs-proc drained name=%s", rt.Entry.Name)
}

// Drain runs the module's graceful shutdown (deregister, quiesce, flush,
// teardown — see core.Module.Drain) bounded by timeout, then closes the
// stats listener. The error is the deregistration outcome; the process
// should still exit 0 — the drain is best-effort politeness, not a
// correctness gate.
func (rt *ProcRuntime) Drain(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	err := rt.Mod.Drain(ctx)
	if rt.statsSrv != nil {
		_ = rt.statsSrv.Close()
	}
	return err
}

// Close tears the runtime down without draining (the deferred cleanup
// path when the serve loop fails).
func (rt *ProcRuntime) Close() {
	if rt.statsSrv != nil {
		_ = rt.statsSrv.Close()
	}
	_ = rt.Mod.Detach()
}

// WaitSignals blocks until SIGINT or SIGTERM, including one that arrived
// after the runtime was built but before this call.
func (rt *ProcRuntime) WaitSignals() os.Signal {
	s := <-rt.signals
	signal.Stop(rt.signals)
	return s
}
