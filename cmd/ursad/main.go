// ursad boots the full URSA demonstration system — Name Server, gateway,
// index/search/document backends on heterogeneous machines — and serves
// interactive queries from stdin.
//
// Usage:
//
//	ursad [-docs 200] [-seed 1] [-http 127.0.0.1:7171] [-hist]
//	> distributed system
//	> information retrieval
//	> :quit
//
// With -http the daemon serves its per-module metrics (text at /stats,
// JSON at /stats.json for ntcsstat, expvar at /debug/vars) and the pprof
// profile endpoints; -hist additionally turns on the latency-histogram
// tier for every module.
//
// With -topo FILE -proc NAME the daemon instead becomes one worker
// process of a real multi-process deployment: it boots that topology
// entry over real TCP sockets, bootstraps against the remote Name
// Server, serves its role (role=echo answers calls with "echo:"+body),
// and drains gracefully on SIGTERM.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ntcs"
	"ntcs/internal/cli"
	"ntcs/internal/drts/monitor"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/stats/statshttp"
	"ntcs/internal/ursa"
	"ntcs/sim"
)

func main() {
	var (
		docs     = flag.Int("docs", 0, "synthetic corpus size (0 = built-in corpus)")
		seed     = flag.Int64("seed", 1, "corpus generator seed")
		httpAddr = flag.String("http", "", "serve /stats, expvar and pprof on this address (off when empty)")
		hist     = flag.Bool("hist", false, "enable the latency-histogram tier on every module")
		topoPath = flag.String("topo", "", "topology file; run as one worker process of a real deployment instead of the in-process demo")
		proc     = flag.String("proc", "", "process name within -topo")
		drainT   = flag.Duration("drain-timeout", 5*time.Second, "bound on the SIGTERM graceful drain")
	)
	flag.Parse()
	var err error
	if *topoPath != "" {
		err = cli.Run(cli.ProcOptions{TopoPath: *topoPath, Proc: *proc, HTTPAddr: *httpAddr, DrainTimeout: *drainT})
	} else {
		err = run(*docs, *seed, *httpAddr, *hist)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ursad:", err)
		os.Exit(1)
	}
}

func run(docCount int, seed int64, httpAddr string, hist bool) error {
	world := sim.NewWorld()
	world.AddNetwork("machine-room", memnet.Options{})
	world.AddNetwork("office-ring", memnet.Options{})
	defer world.Close()

	nsHost := world.MustHost("apollo-ns", ntcs.Apollo, "machine-room")
	if _, err := world.StartNameServer(nsHost, "ns"); err != nil {
		return err
	}
	gwHost := world.MustHost("apollo-gw", ntcs.Apollo, "machine-room", "office-ring")
	if _, err := world.StartGateway(gwHost, "gw"); err != nil {
		return err
	}

	monHost := world.MustHost("apollo-mon", ntcs.Apollo, "machine-room")
	monMod, err := world.Attach(monHost, "monitor", map[string]string{"role": "monitor"})
	if err != nil {
		return err
	}
	monSrv := monitor.NewServer(monMod)
	go monSrv.Run()

	idxHost := world.MustHost("apollo-1", ntcs.Apollo, "machine-room")
	docHost := world.MustHost("vax-1", ntcs.VAX, "machine-room")
	searchHost := world.MustHost("sun-1", ntcs.Sun68K, "machine-room")
	dep, err := ursa.Deploy(world, idxHost, docHost, searchHost)
	if err != nil {
		return err
	}

	hostHost := world.MustHost("sun-desk", ntcs.Sun68K, "office-ring")
	hostMod, err := world.Attach(hostHost, "host-1", nil)
	if err != nil {
		return err
	}
	// Monitoring on: every host send is recorded (§6.1 recursion, live).
	hostMod.SetMonitor(monitor.NewClient(hostMod, "monitor", 8).Record)
	client := ursa.NewClient(hostMod)

	if hist {
		for _, m := range world.Modules() {
			m.Stats().SetHistograms(true)
		}
	}
	if httpAddr != "" {
		srv, bound, err := statshttp.Serve(httpAddr, world.Snapshots)
		if err != nil {
			return fmt.Errorf("stats listener: %w", err)
		}
		defer srv.Close()
		fmt.Printf("stats on http://%s/stats (ntcsstat -addr %s; pprof at /debug/pprof/)\n", bound, bound)
	}

	corpus := ursa.BuiltinCorpus()
	if docCount > 0 {
		corpus = ursa.GenerateCorpus(docCount, seed)
	}
	if err := client.Ingest(corpus); err != nil {
		return err
	}
	fmt.Printf("URSA up: %d documents, %d terms; host on office-ring, backends in the machine room\n",
		len(corpus), dep.Index.Terms())
	fmt.Println(`type a query, ":stats" for monitor counters, ":quit" to exit`)

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == ":quit", line == ":q":
			return nil
		case line == ":stats":
			stats := monSrv.Snapshot()
			fmt.Printf("monitor: %d records, %d bytes; by kind %v\n",
				stats.TotalRecords, stats.TotalBytes, stats.ByKind)
			continue
		}
		reply, err := client.Search(line, 5)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		if len(reply.Hits) == 0 {
			fmt.Println("no hits")
			continue
		}
		for _, h := range reply.Hits {
			fmt.Printf("  doc %-3d score %-6d %s\n", h.DocID, h.Score, h.Title)
		}
	}
	return sc.Err()
}
