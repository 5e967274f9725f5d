// Benchmarks regenerating the experiment index of DESIGN.md §4: one
// bench per quantified claim. `go test -bench=. -benchmem` prints the
// series; EXPERIMENTS.md records representative runs. The ntcsbench
// binary prints the same measurements as tables.
package ntcs_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/drts/monitor"
	"ntcs/internal/drts/timesvc"
	"ntcs/internal/experiments"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/iplayer"
	"ntcs/internal/machine"
	"ntcs/internal/pack"
	"ntcs/internal/ursa"
	"ntcs/internal/wire"
	"ntcs/sim"
)

// --- E-SHIFT -------------------------------------------------------------

func BenchmarkShiftVsPackedHeaders(b *testing.B) {
	h := wire.Header{
		Type: wire.TData, Flags: 0x00FF, SrcMachine: machine.Sun68K, Mode: wire.ModePacked,
		Src: 1 << 40, Dst: 2 << 40, Circuit: 7, Seq: 42,
	}
	b.Run("shift", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			frame, err := wire.Marshal(h, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := wire.Unmarshal(frame); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("packed", func(b *testing.B) {
		type packedHeader struct {
			Type, SrcMachine, Mode, Hops uint8
			Flags                        uint16
			Src, Dst                     uint64
			Circuit, Seq                 uint32
		}
		ph := packedHeader{
			Type: uint8(h.Type), SrcMachine: uint8(h.SrcMachine), Mode: uint8(h.Mode),
			Flags: h.Flags, Src: uint64(h.Src), Dst: uint64(h.Dst), Circuit: h.Circuit, Seq: h.Seq,
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			data, err := pack.Marshal(ph)
			if err != nil {
				b.Fatal(err)
			}
			var out packedHeader
			if err := pack.Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E-CONV --------------------------------------------------------------

func BenchmarkConversionModes(b *testing.B) {
	pairs := []struct {
		name           string
		client, server machine.Type
	}{
		{"image/VAX-to-VAX", machine.VAX, machine.VAX},
		{"image/Apollo-to-Pyramid", machine.Apollo, machine.Pyramid},
		{"packed/VAX-to-Sun68K", machine.VAX, machine.Sun68K},
		{"packed/Sun68K-to-Apollo", machine.Sun68K, machine.Apollo},
	}
	for _, p := range pairs {
		b.Run(p.name, func(b *testing.B) {
			env, err := experiments.PairWithHops(0, p.client, p.server)
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			if err := env.RoundTripImage(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.RoundTripImage(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAdaptiveVsAlwaysPacked(b *testing.B) {
	run := func(b *testing.B, force bool) {
		w := sim.NewWorld()
		w.AddNetwork("net", memnet.Options{})
		defer w.Close()
		nsHost := w.MustHost("ns-host", machine.Apollo, "net")
		if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
			b.Fatal(err)
		}
		sHost := w.MustHost("server-host", machine.VAX, "net")
		server, err := w.Attach(sHost, "echo-server", nil)
		if err != nil {
			b.Fatal(err)
		}
		serveImageEcho(server)
		cHost := w.MustHost("client-host", machine.VAX, "net")
		client, err := w.AttachConfig(cHost, core.Config{Name: "client", ForcePacked: force})
		if err != nil {
			b.Fatal(err)
		}
		u, err := client.Locate("echo-server")
		if err != nil {
			b.Fatal(err)
		}
		in := experiments.ImageBody{A: 1, E: 2.5}
		var out experiments.ImageBody
		if err := client.CallContext(context.Background(), u, "image", in, &out); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := client.CallContext(context.Background(), u, "image", in, &out); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("adaptive", func(b *testing.B) { run(b, false) })
	b.Run("always-packed", func(b *testing.B) { run(b, true) })
}

// --- E-PACK (cross-machine leg) ------------------------------------------

// crossCallBody is the structured payload for the differing-machine-type
// call: the shape a real NSP record or application request carries, so
// both ends execute their compiled conversion plans (§5.1 packed mode).
type crossCallBody struct {
	Seq     int64
	Flags   uint32
	Load    float64
	OK      bool
	Name    string
	Detail  string
	Raw     []byte
	Samples []int32
	Attrs   map[string]string
}

// BenchmarkCrossMachineCall measures the end-to-end structured Call
// between differing machine types (VAX client, Sun68K server): machine
// incompatibility forces packed mode, so each round trip pays encode +
// decode on the request and again on the reply — the path the compiled
// codecs exist to speed up.
func BenchmarkCrossMachineCall(b *testing.B) {
	w := sim.NewWorld()
	w.AddNetwork("net", memnet.Options{})
	defer w.Close()
	nsHost := w.MustHost("ns-host", machine.Apollo, "net")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		b.Fatal(err)
	}
	sHost := w.MustHost("server-host", machine.Sun68K, "net")
	server, err := w.Attach(sHost, "pack-echo", nil)
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			d, err := server.Recv(time.Hour)
			if err != nil {
				return
			}
			if !d.IsCall() {
				continue
			}
			var body crossCallBody
			if err := d.Decode(&body); err != nil {
				_ = server.ReplyError(d, err.Error())
				continue
			}
			_ = server.Reply(d, "pack", body)
		}
	}()
	cHost := w.MustHost("client-host", machine.VAX, "net")
	client, err := w.Attach(cHost, "client", nil)
	if err != nil {
		b.Fatal(err)
	}
	u, err := client.Locate("pack-echo")
	if err != nil {
		b.Fatal(err)
	}
	in := crossCallBody{
		Seq:     987654321,
		Flags:   0xBEEF,
		Load:    0.8125,
		OK:      true,
		Name:    "search-backend",
		Detail:  "replica 3 of 5, rack c-12",
		Raw:     []byte{0, 1, 2, 3, 4, 5, 6, 7},
		Samples: []int32{-1, 0, 1, 1 << 30, 42},
		Attrs:   map[string]string{"role": "server", "machine": "sun"},
	}
	var out crossCallBody
	if err := client.CallContext(context.Background(), u, "pack", in, &out); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.CallContext(context.Background(), u, "pack", in, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func serveImageEcho(m *core.Module) {
	go func() {
		for {
			d, err := m.Recv(time.Hour)
			if err != nil {
				return
			}
			if !d.IsCall() {
				continue
			}
			var body experiments.ImageBody
			if err := d.Decode(&body); err != nil {
				_ = m.ReplyError(d, err.Error())
				continue
			}
			_ = m.Reply(d, "image", body)
		}
	}()
}

// --- E-GWHOP -------------------------------------------------------------

func BenchmarkGatewayHops(b *testing.B) {
	for hops := 0; hops <= 3; hops++ {
		b.Run(fmt.Sprintf("hops-%d", hops), func(b *testing.B) {
			env, err := experiments.PairWithHops(hops, machine.VAX, machine.VAX)
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			if err := env.RoundTrip(256); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.RoundTrip(256); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E-RECUR -------------------------------------------------------------

func BenchmarkFirstSendVsWarmSend(b *testing.B) {
	build := func(b *testing.B) (*sim.World, *core.Module, addr.UAdd) {
		w := sim.NewWorld()
		w.AddNetwork("net", memnet.Options{})
		nsHost := w.MustHost("ns-host", machine.Apollo, "net")
		if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
			b.Fatal(err)
		}
		host := w.MustHost("vax-1", machine.VAX, "net")
		tsMod, err := w.Attach(host, "time-server", nil)
		if err != nil {
			b.Fatal(err)
		}
		go timesvc.NewServer(tsMod, 0).Run()
		monMod, err := w.Attach(host, "monitor", nil)
		if err != nil {
			b.Fatal(err)
		}
		go monitor.NewServer(monMod).Run()
		recv, err := w.Attach(host, "receiver", nil)
		if err != nil {
			b.Fatal(err)
		}
		go func() {
			for {
				if _, err := recv.Recv(time.Hour); err != nil {
					return
				}
			}
		}()
		sender, err := w.Attach(host, "sender", nil)
		if err != nil {
			b.Fatal(err)
		}
		corr := timesvc.NewCorrector(sender, "time-server", time.Hour)
		sender.SetClock(corr.Now)
		sender.SetMonitor(monitor.NewClient(sender, "monitor", 64).Record)
		u, err := sender.Locate("receiver")
		if err != nil {
			b.Fatal(err)
		}
		return w, sender, u
	}

	b.Run("first-send", func(b *testing.B) {
		// Each iteration needs a fresh world: first sends are by
		// definition unrepeatable.
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w, sender, u := build(b)
			b.StartTimer()
			if err := sender.SendMsg(context.Background(), u, "m", "cold"); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			w.Close()
			b.StartTimer()
		}
	})
	b.Run("warm-send", func(b *testing.B) {
		w, sender, u := build(b)
		defer w.Close()
		if err := sender.SendMsg(context.Background(), u, "m", "warmup"); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := sender.SendMsg(context.Background(), u, "m", "warm"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWarmSendParallel hammers one module's warm path from many
// goroutines at once: the measure of the lock-striping and pooling work
// (a coarse global mutex would serialize here; striped waiters, the
// destination cache, and sync.Map circuits let sends proceed in
// parallel).
func BenchmarkWarmSendParallel(b *testing.B) {
	w := sim.NewWorld()
	w.AddNetwork("net", memnet.Options{})
	defer w.Close()
	nsHost := w.MustHost("ns-host", machine.Apollo, "net")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		b.Fatal(err)
	}
	host := w.MustHost("vax-1", machine.VAX, "net")
	recv, err := w.Attach(host, "receiver", nil)
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for {
			if _, err := recv.Recv(time.Hour); err != nil {
				return
			}
		}
	}()
	sender, err := w.Attach(host, "sender", nil)
	if err != nil {
		b.Fatal(err)
	}
	u, err := sender.Locate("receiver")
	if err != nil {
		b.Fatal(err)
	}
	if err := sender.SendMsg(context.Background(), u, "m", "warmup"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := sender.SendMsg(context.Background(), u, "m", "warm"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E-RECONF ------------------------------------------------------------

func BenchmarkRelocationLatency(b *testing.B) {
	w := sim.NewWorld()
	w.AddNetwork("net", memnet.Options{})
	defer w.Close()
	nsHost := w.MustHost("ns-host", machine.Apollo, "net")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		b.Fatal(err)
	}
	hosts := []*sim.Host{
		w.MustHost("vax-1", machine.VAX, "net"),
		w.MustHost("vax-2", machine.VAX, "net"),
	}
	start := func(i int) *core.Module {
		m, err := w.Attach(hosts[i%2], "worker", map[string]string{"role": "w"})
		if err != nil {
			b.Fatal(err)
		}
		serveImageEcho(m)
		return m
	}
	cur := start(0)
	client, err := w.Attach(hosts[0], "client", nil)
	if err != nil {
		b.Fatal(err)
	}
	u, err := client.Locate("worker")
	if err != nil {
		b.Fatal(err)
	}
	call := func() error {
		in := experiments.ImageBody{A: 1}
		var out experiments.ImageBody
		return client.CallContext(context.Background(), u, "image", in, &out)
	}
	if err := call(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	// Each iteration: kill, restart elsewhere, measure until recovered.
	for i := 0; i < b.N; i++ {
		if err := cur.Detach(); err != nil {
			b.Fatal(err)
		}
		cur = start(i + 1)
		for call() != nil {
		}
	}
}

// --- E-NSRM --------------------------------------------------------------

func BenchmarkResolutionCache(b *testing.B) {
	env, err := experiments.PairWithHops(0, machine.VAX, machine.VAX)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	if err := env.RoundTrip(64); err != nil {
		b.Fatal(err)
	}
	b.Run("cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := env.RoundTrip(64); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			env.Client.Nucleus().IP.DropCircuits(env.Dst)
			env.Client.Nucleus().Cache.Delete(env.Dst)
			if err := env.RoundTrip(64); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E-PORT --------------------------------------------------------------

func BenchmarkPortabilityMatrix(b *testing.B) {
	for _, kind := range []string{"memnet", "mbx", "tcp"} {
		b.Run(kind, func(b *testing.B) {
			env, err := experiments.PairOverIPCS(kind)
			if err != nil {
				b.Fatal(err)
			}
			defer env.Close()
			if err := env.RoundTrip(256); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := env.RoundTrip(256); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E-ROUTE -------------------------------------------------------------

func BenchmarkRouteComputation(b *testing.B) {
	for _, n := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("networks-%d", n), func(b *testing.B) {
			gws := make([]iplayer.GatewayInfo, 0, n-1)
			for i := 0; i < n-1; i++ {
				gws = append(gws, iplayer.GatewayInfo{
					UAdd:     addr.UAdd(1000 + i),
					Networks: []string{fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1)},
				})
			}
			dest := fmt.Sprintf("n%d", n-1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := iplayer.ComputeRoute([]string{"n0"}, dest, gws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E-URSA --------------------------------------------------------------

func BenchmarkURSAQuery(b *testing.B) {
	for _, cross := range []bool{false, true} {
		name := "same-network"
		if cross {
			name = "across-gateway"
		}
		b.Run(name, func(b *testing.B) {
			w := sim.NewWorld()
			w.AddNetwork("backend", memnet.Options{})
			hostNet := "backend"
			if cross {
				w.AddNetwork("office", memnet.Options{})
				hostNet = "office"
			}
			defer w.Close()
			nsHost := w.MustHost("ns-host", machine.Apollo, "backend")
			if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
				b.Fatal(err)
			}
			if cross {
				gwHost := w.MustHost("gw-host", machine.Apollo, "backend", "office")
				if _, err := w.StartGateway(gwHost, "gw"); err != nil {
					b.Fatal(err)
				}
			}
			bHost := w.MustHost("backend-host", machine.VAX, "backend")
			if _, err := ursa.Deploy(w, bHost, bHost, bHost); err != nil {
				b.Fatal(err)
			}
			cHost := w.MustHost("host-host", machine.Sun68K, hostNet)
			hostMod, err := w.Attach(cHost, "host-1", nil)
			if err != nil {
				b.Fatal(err)
			}
			client := ursa.NewClient(hostMod)
			if err := client.Ingest(ursa.GenerateCorpus(200, 1)); err != nil {
				b.Fatal(err)
			}
			queries := ursa.Queries(50, 2)
			if _, err := client.Search(queries[0], 5); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := client.Search(queries[i%len(queries)], 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
