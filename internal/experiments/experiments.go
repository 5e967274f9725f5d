package experiments

import (
	"context"
	"errors"
	"io"
	"sort"
	"time"

	"fmt"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/drts/monitor"
	"ntcs/internal/drts/timesvc"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/iplayer"
	"ntcs/internal/machine"
	"ntcs/internal/pack"
	"ntcs/internal/ursa"
	"ntcs/internal/wire"
	"ntcs/sim"
)

// timings runs f n times and returns the sorted durations.
func timings(n int, f func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := f(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func median(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	return d[len(d)/2]
}

// ShiftVsPackedHeaders is E-SHIFT (§5.2): "a mode efficient enough to be
// used for all transfers, regardless of destination, was desired.
// Character conversion was viewed as excessive overhead, and results in
// undesirable variable length (or worst-case-long) messages."
func ShiftVsPackedHeaders(w io.Writer) error {
	fmt.Fprintln(w, "E-SHIFT — shift-mode vs character-packed headers (§5.2)")
	const iters = 200000

	small := wire.Header{Type: wire.TData, Src: 1, Dst: 2, Seq: 1}
	big := wire.Header{
		Type: wire.TData, Flags: 0xFFFF, SrcMachine: machine.Sun68K, Mode: wire.ModePacked,
		Src: addr.UAdd(1<<47 - 1), Dst: addr.UAdd(1<<47 - 2),
		Circuit: 1 << 30, Seq: 1<<31 - 1, Hops: 200,
	}

	shiftCost := func(h wire.Header) (time.Duration, int, error) {
		frame, err := wire.Marshal(h, nil)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			f, err := wire.Marshal(h, nil)
			if err != nil {
				return 0, 0, err
			}
			if _, _, err := wire.Unmarshal(f); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(start) / iters, len(frame), nil
	}
	packedCost := func(h wire.Header) (time.Duration, int, error) {
		type packedHeader struct {
			Type, SrcMachine, Mode, Hops uint8
			Flags                        uint16
			Src, Dst                     uint64
			Circuit, Seq, PayloadLen     uint32
		}
		ph := packedHeader{
			Type: uint8(h.Type), SrcMachine: uint8(h.SrcMachine), Mode: uint8(h.Mode),
			Hops: h.Hops, Flags: h.Flags, Src: uint64(h.Src), Dst: uint64(h.Dst),
			Circuit: h.Circuit, Seq: h.Seq,
		}
		data, err := pack.Marshal(ph)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			d, err := pack.Marshal(ph)
			if err != nil {
				return 0, 0, err
			}
			var out packedHeader
			if err := pack.Unmarshal(d, &out); err != nil {
				return 0, 0, err
			}
		}
		return time.Since(start) / iters, len(data), nil
	}

	fmt.Fprintf(w, "  %-28s %12s %10s\n", "encoding", "ns/roundtrip", "bytes")
	for _, row := range []struct {
		name string
		h    wire.Header
		f    func(wire.Header) (time.Duration, int, error)
	}{
		{"shift (small values)", small, shiftCost},
		{"shift (large values)", big, shiftCost},
		{"packed (small values)", small, packedCost},
		{"packed (large values)", big, packedCost},
	} {
		d, size, err := row.f(row.h)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  %-28s %12d %10d\n", row.name, d.Nanoseconds(), size)
	}
	fmt.Fprintln(w, "  claim: shift is fixed-length and cheaper; packed is variable-length.")
	fmt.Fprintln(w)
	return nil
}

// ConversionModes is E-CONV (§5): mode selection per machine pair, and
// the per-mode conversion cost.
func ConversionModes(w io.Writer) error {
	fmt.Fprintln(w, "E-CONV — conversion mode by machine pair (§5)")
	fmt.Fprintf(w, "  %-24s %-8s %14s\n", "pair", "mode", "rtt (median)")
	pairs := []struct {
		name           string
		client, server machine.Type
		wantImage      bool
	}{
		{"VAX → VAX", machine.VAX, machine.VAX, true},
		{"VAX → Sun68K", machine.VAX, machine.Sun68K, false},
		{"Apollo → Pyramid", machine.Apollo, machine.Pyramid, true},
		{"Sun68K → Apollo", machine.Sun68K, machine.Apollo, false},
	}
	for _, p := range pairs {
		env, err := PairWithHops(0, p.client, p.server)
		if err != nil {
			return err
		}
		if err := env.RoundTripImage(); err != nil { // warm up
			env.Close()
			return err
		}
		ts, err := timings(200, env.RoundTripImage)
		if err != nil {
			env.Close()
			return err
		}
		mode := "packed"
		if machine.Compatible(p.client, p.server) {
			mode = "image"
		}
		fmt.Fprintf(w, "  %-24s %-8s %14v\n", p.name, mode, median(ts))
		if (mode == "image") != p.wantImage {
			fmt.Fprintf(w, "  !! unexpected mode for %s\n", p.name)
		}
		env.Close()
	}

	// Raw conversion costs, outside the stack.
	body := ImageBody{A: 1, E: 2.5, H: 3}
	img, err := machine.Image(body, machine.VAX)
	if err != nil {
		return err
	}
	packed, err := pack.Marshal(body)
	if err != nil {
		return err
	}
	const iters = 100000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := machine.Image(body, machine.VAX); err != nil {
			return err
		}
	}
	imgCost := time.Since(start) / iters
	start = time.Now()
	for i := 0; i < iters; i++ {
		if _, err := pack.Marshal(body); err != nil {
			return err
		}
	}
	packCost := time.Since(start) / iters
	fmt.Fprintf(w, "  encode only: image %v (%d B)  packed %v (%d B)\n",
		imgCost, len(img), packCost, len(packed))
	fmt.Fprintln(w, "  claim: image avoids the conversion entirely between identical machines.")
	fmt.Fprintln(w)
	return nil
}

// AdaptiveVsAlwaysPacked is the E-CONV ablation: the NTCS's adaptive
// selection against an XDR-style always-convert baseline, on a same-
// machine workload where the adaptation pays.
func AdaptiveVsAlwaysPacked(w io.Writer) error {
	fmt.Fprintln(w, "E-CONV ablation — adaptive selection vs always-packed baseline (VAX → VAX)")
	run := func(force bool) (time.Duration, error) {
		wld := sim.NewWorld()
		wld.AddNetwork("net", memnet.Options{})
		defer wld.Close()
		nsHost := wld.MustHost("ns-host", machine.Apollo, "net")
		if _, err := wld.StartNameServer(nsHost, "ns"); err != nil {
			return 0, err
		}
		sHost := wld.MustHost("server-host", machine.VAX, "net")
		server, err := wld.Attach(sHost, "echo-server", nil)
		if err != nil {
			return 0, err
		}
		serveEcho(server)
		cHost := wld.MustHost("client-host", machine.VAX, "net")
		client, err := wld.AttachConfig(cHost, core.Config{Name: "client", ForcePacked: force})
		if err != nil {
			return 0, err
		}
		u, err := client.Locate("echo-server")
		if err != nil {
			return 0, err
		}
		call := func() error {
			in := ImageBody{A: 9, E: 1.25}
			var out ImageBody
			return client.CallContext(context.Background(), u, "image", in, &out)
		}
		if err := call(); err != nil {
			return 0, err
		}
		ts, err := timings(300, call)
		if err != nil {
			return 0, err
		}
		return median(ts), nil
	}
	adaptive, err := run(false)
	if err != nil {
		return err
	}
	forced, err := run(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  adaptive (image):    %v / call\n", adaptive)
	fmt.Fprintf(w, "  always-packed:       %v / call\n", forced)
	fmt.Fprintf(w, "  claim: adaptive wins on same-machine traffic (ratio %.2fx)\n",
		float64(forced)/float64(adaptive))
	fmt.Fprintln(w)
	return nil
}

// GatewayHops is E-GWHOP (§4): latency as chained LVCs grow.
func GatewayHops(w io.Writer) error {
	fmt.Fprintln(w, "E-GWHOP — round trip vs gateway hops (§4, chained LVCs)")
	fmt.Fprintf(w, "  %-6s %14s\n", "hops", "rtt (median)")
	var base time.Duration
	for hops := 0; hops <= 3; hops++ {
		env, err := PairWithHops(hops, machine.VAX, machine.VAX)
		if err != nil {
			return err
		}
		if err := env.RoundTrip(256); err != nil {
			env.Close()
			return err
		}
		ts, err := timings(200, func() error { return env.RoundTrip(256) })
		if err != nil {
			env.Close()
			return err
		}
		m := median(ts)
		if hops == 0 {
			base = m
		}
		fmt.Fprintf(w, "  %-6d %14v\n", hops, m)
		env.Close()
	}
	_ = base
	fmt.Fprintln(w, "  claim: cost grows roughly linearly per relay hop; no inter-gateway protocol.")
	fmt.Fprintln(w)
	return nil
}

// FirstSendVsWarm is E-RECUR's quantitative face (§6.1): the first send
// pays resolution, circuit establishment and the DRTS recursion; warm
// sends pay none of it.
func FirstSendVsWarm(w io.Writer) error {
	fmt.Fprintln(w, "E-RECUR — first send (cold, with DRTS recursion) vs warm send (§6.1)")
	wld := sim.NewWorld()
	wld.AddNetwork("net", memnet.Options{})
	defer wld.Close()
	nsHost := wld.MustHost("ns-host", machine.Apollo, "net")
	if _, err := wld.StartNameServer(nsHost, "ns"); err != nil {
		return err
	}
	host := wld.MustHost("vax-1", machine.VAX, "net")

	tsMod, err := wld.Attach(host, "time-server", nil)
	if err != nil {
		return err
	}
	go timesvc.NewServer(tsMod, 0).Run()
	monMod, err := wld.Attach(host, "monitor", nil)
	if err != nil {
		return err
	}
	go monitor.NewServer(monMod).Run()

	recv, err := wld.Attach(host, "receiver", nil)
	if err != nil {
		return err
	}
	go func() {
		for {
			if _, err := recv.Recv(time.Hour); err != nil {
				return
			}
		}
	}()

	sender, err := wld.Attach(host, "sender", nil)
	if err != nil {
		return err
	}
	corr := timesvc.NewCorrector(sender, "time-server", time.Hour)
	sender.SetClock(corr.Now)
	sender.SetMonitor(monitor.NewClient(sender, "monitor", 1).Record)

	u, err := sender.Locate("receiver")
	if err != nil {
		return err
	}
	sender.Tracer().Clear()
	start := time.Now()
	if err := sender.SendMsg(context.Background(), u, "m", "first"); err != nil {
		return err
	}
	first := time.Since(start)
	firstDepth := sender.Tracer().MaxDepth()
	firstEvents := len(sender.Tracer().Events())

	sender.Tracer().Clear()
	ts, err := timings(300, func() error { return sender.SendMsg(context.Background(), u, "m", "warm") })
	if err != nil {
		return err
	}
	warm := median(ts)
	warmDepth := sender.Tracer().MaxDepth()

	fmt.Fprintf(w, "  first send: %v   trace depth %d, %d layer entries\n", first, firstDepth, firstEvents)
	fmt.Fprintf(w, "  warm send:  %v   trace depth %d\n", warm, warmDepth)
	fmt.Fprintf(w, "  claim: \"recursive calls are rare under normal operation\" — cold/warm ratio %.1fx\n",
		float64(first)/float64(warm))
	fmt.Fprintln(w)
	return nil
}

// RelocationBlackout is E-RECONF (§3.5): how long communication is
// disturbed when a module relocates, and what a static run loses (nothing).
func RelocationBlackout(w io.Writer) error {
	fmt.Fprintln(w, "E-RECONF — dynamic reconfiguration (§3.5)")
	wld := sim.NewWorld()
	wld.AddNetwork("net", memnet.Options{})
	defer wld.Close()
	nsHost := wld.MustHost("ns-host", machine.Apollo, "net")
	if _, err := wld.StartNameServer(nsHost, "ns"); err != nil {
		return err
	}
	h1 := wld.MustHost("vax-1", machine.VAX, "net")
	h2 := wld.MustHost("vax-2", machine.VAX, "net")

	start := func(h *sim.Host) (*core.Module, error) {
		m, err := wld.Attach(h, "worker", map[string]string{"role": "work"})
		if err != nil {
			return nil, err
		}
		serveEcho(m)
		return m, nil
	}
	gen1, err := start(h1)
	if err != nil {
		return err
	}
	client, err := wld.Attach(h1, "client", nil)
	if err != nil {
		return err
	}
	u, err := client.Locate("worker")
	if err != nil {
		return err
	}
	call := func() error {
		var out EchoBody
		return client.CallContext(context.Background(), u, "echo", EchoBody{Payload: []byte("x")}, &out)
	}
	// Static phase: no losses.
	staticCalls := 200
	failures := 0
	for i := 0; i < staticCalls; i++ {
		if err := call(); err != nil {
			failures++
		}
	}
	fmt.Fprintf(w, "  static phase: %d calls, %d failures (claim: zero loss in a static environment)\n",
		staticCalls, failures)

	// Relocation: measure the blackout from kill to first success.
	if err := gen1.Detach(); err != nil {
		return err
	}
	killed := time.Now()
	if _, err := start(h2); err != nil {
		return err
	}
	transient := 0
	for {
		if err := call(); err == nil {
			break
		}
		transient++
		if time.Since(killed) > 5*time.Second {
			return errors.New("relocation never recovered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	blackout := time.Since(killed)
	fmt.Fprintf(w, "  relocation: blackout %v, %d transient call failures, then transparent forwarding\n",
		blackout, transient)
	fmt.Fprintf(w, "  client absorbed: %d address faults, %d forwards\n",
		client.Errors().Count("lcm.address-fault"), client.Errors().Count("lcm.forwarded"))
	fmt.Fprintln(w)
	return nil
}

// ResolutionCache is E-NSRM (§3.3): cached resolution vs per-call naming
// service traffic, and the Name-Server-removal property.
func ResolutionCache(w io.Writer) error {
	fmt.Fprintln(w, "E-NSRM — resolution caching and Name Server removal (§3.3)")
	env, err := PairWithHops(0, machine.VAX, machine.VAX)
	if err != nil {
		return err
	}
	defer env.Close()

	if err := env.RoundTrip(64); err != nil {
		return err
	}
	warm, err := timings(200, func() error { return env.RoundTrip(64) })
	if err != nil {
		return err
	}

	// Force a naming round trip before every call by clearing the cached
	// circuit and endpoint (what life without the ND cache would be).
	cold, err := timings(200, func() error {
		env.Client.Nucleus().IP.DropCircuits(env.Dst)
		env.Client.Nucleus().Cache.Delete(env.Dst)
		return env.RoundTrip(64)
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  cached addresses:   %v / call\n", median(warm))
	fmt.Fprintf(w, "  uncached (ask NS):  %v / call  (%.1fx)\n",
		median(cold), float64(median(cold))/float64(median(warm)))
	fmt.Fprintln(w)
	return nil
}

// PortabilityMatrix is E-PORT (§7): the same workload over each IPCS.
func PortabilityMatrix(w io.Writer) error {
	fmt.Fprintln(w, "E-PORT — identical workload over each IPCS (§7 portability)")
	fmt.Fprintf(w, "  %-8s %14s %12s\n", "ipcs", "rtt (median)", "calls/sec")
	for _, kind := range []string{"memnet", "mbx", "tcp"} {
		env, err := PairOverIPCS(kind)
		if err != nil {
			return err
		}
		if err := env.RoundTrip(256); err != nil {
			env.Close()
			return err
		}
		ts, err := timings(200, func() error { return env.RoundTrip(256) })
		if err != nil {
			env.Close()
			return err
		}
		m := median(ts)
		fmt.Fprintf(w, "  %-8s %14v %12.0f\n", kind, m, float64(time.Second)/float64(m))
		env.Close()
	}
	fmt.Fprintln(w, "  claim: everything above the ND-Layer is identical code across all three.")
	fmt.Fprintln(w)
	return nil
}

// RouteComputation is the §4.2 ablation: the cost of the decentralized
// route computation over centralized topology, as the internet grows.
func RouteComputation(w io.Writer) error {
	fmt.Fprintln(w, "E-ROUTE — route computation cost vs topology size (§4.2)")
	fmt.Fprintf(w, "  %-20s %14s\n", "nets × gateways", "ns/route")
	for _, n := range []int{4, 16, 64, 256} {
		gws := make([]iplayer.GatewayInfo, 0, n-1)
		for i := 0; i < n-1; i++ {
			gws = append(gws, iplayer.GatewayInfo{
				UAdd:     addr.UAdd(1000 + i),
				Networks: []string{netName(i), netName(i + 1)},
			})
		}
		dest := netName(n - 1)
		const iters = 2000
		start := time.Now()
		for i := 0; i < iters; i++ {
			if _, err := iplayer.ComputeRoute([]string{netName(0)}, dest, gws); err != nil {
				return err
			}
		}
		per := time.Since(start) / iters
		fmt.Fprintf(w, "  %-20s %14d\n", fmt.Sprintf("%d × %d", n, n-1), per.Nanoseconds())
	}
	fmt.Fprintln(w, "  claim: establishment-time routing is cheap enough to centralize only the data.")
	fmt.Fprintln(w)
	return nil
}

func netName(i int) string { return fmt.Sprintf("n%d", i) }

// URSAThroughput is the application-level number: queries/sec for the
// paper's motivating workload, in three topologies. Only the host→search
// leg crosses the gateway in the second; in the third the search server's
// per-query backend chatter (one index lookup per term, one fetch per
// hit) crosses too, which is where the gateway cost becomes visible.
func URSAThroughput(w io.Writer) error {
	fmt.Fprintln(w, "E-URSA — information retrieval workload (the paper's application)")
	fmt.Fprintf(w, "  %-26s %14s %12s\n", "topology", "query (median)", "queries/sec")
	for _, topo := range []string{"same network", "host across gateway", "backends split by gateway"} {
		wld := sim.NewWorld()
		wld.AddNetwork("backend", memnet.Options{})
		hostNet, searchNet := "backend", "backend"
		switch topo {
		case "host across gateway":
			wld.AddNetwork("office", memnet.Options{})
			hostNet = "office"
		case "backends split by gateway":
			wld.AddNetwork("office", memnet.Options{})
			hostNet, searchNet = "office", "office"
		}
		nsHost := wld.MustHost("ns-host", machine.Apollo, "backend")
		if _, err := wld.StartNameServer(nsHost, "ns"); err != nil {
			return err
		}
		if hostNet != "backend" {
			gwHost := wld.MustHost("gw-host", machine.Apollo, "backend", "office")
			if _, err := wld.StartGateway(gwHost, "gw"); err != nil {
				return err
			}
		}
		bHost := wld.MustHost("backend-host", machine.VAX, "backend")
		sHost := bHost
		if searchNet != "backend" {
			sHost = wld.MustHost("search-host", machine.VAX, searchNet)
		}
		if _, err := ursa.Deploy(wld, bHost, bHost, sHost); err != nil {
			return err
		}
		cHost := wld.MustHost("host-host", machine.Sun68K, hostNet)
		hostMod, err := wld.Attach(cHost, "host-1", nil)
		if err != nil {
			return err
		}
		client := ursa.NewClient(hostMod)
		if err := client.Ingest(ursa.GenerateCorpus(200, 1)); err != nil {
			return err
		}
		queries := ursa.Queries(50, 2)
		qi := 0
		runQuery := func() error {
			q := queries[qi%len(queries)]
			qi++
			_, err := client.Search(q, 5)
			return err
		}
		for i := 0; i < 20; i++ { // warm every circuit and cache
			if err := runQuery(); err != nil {
				return err
			}
		}
		ts, err := timings(200, runQuery)
		if err != nil {
			return err
		}
		m := median(ts)
		fmt.Fprintf(w, "  %-26s %14v %12.0f\n", topo, m, float64(time.Second)/float64(m))
		wld.Close()
	}
	fmt.Fprintln(w, "  claim: gateway cost shows where the chatter crosses it, and nowhere else.")
	fmt.Fprintln(w)
	return nil
}

// RunAll executes every experiment in index order.
func RunAll(w io.Writer) error {
	fmt.Fprintln(w, "NTCS experiment harness — regenerating the paper's evaluation")
	fmt.Fprintln(w, "==============================================================")
	fmt.Fprintln(w)
	for _, exp := range []func(io.Writer) error{
		ShiftVsPackedHeaders,
		ConversionModes,
		AdaptiveVsAlwaysPacked,
		GatewayHops,
		FirstSendVsWarm,
		RelocationBlackout,
		ResolutionCache,
		PortabilityMatrix,
		RouteComputation,
		URSAThroughput,
		URSAServe,
	} {
		if err := exp(w); err != nil {
			return err
		}
	}
	return nil
}
