package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/iplayer"
	"ntcs/internal/machine"
	"ntcs/internal/pack"
	"ntcs/internal/stats"
	"ntcs/internal/wire"
	"ntcs/sim"
)

// Each E-* claim of EXPERIMENTS.md is asserted here on a deterministic
// quantity — bytes, counters, route length — never on a wall-clock ratio.
// The root testing.B series times the same claims.

func counter(m *core.Module, name string) uint64 { return m.Stats().Counter(name).Load() }

func TestPairWithHopsEnv(t *testing.T) {
	for _, hops := range []int{0, 1} {
		env, err := PairWithHops(hops, machine.VAX, machine.Sun68K)
		if err != nil {
			t.Fatalf("hops=%d: %v", hops, err)
		}
		if err := env.RoundTrip(128); err != nil {
			t.Errorf("hops=%d round trip: %v", hops, err)
		}
		if err := env.RoundTripImage(); err != nil {
			t.Errorf("hops=%d image round trip: %v", hops, err)
		}
		env.Close()
	}
}

func TestPairOverIPCSEnv(t *testing.T) {
	for _, kind := range []string{"memnet", "mbx", "tcp"} {
		env, err := PairOverIPCS(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if err := env.RoundTrip(64); err != nil {
			t.Errorf("%s round trip: %v", kind, err)
		}
		env.Close()
	}
	if _, err := PairOverIPCS("carrier-pigeon"); err == nil {
		t.Error("unknown IPCS kind should fail")
	}
}

// TestShiftHeadersAreFixedLength is E-SHIFT (§5.2): "Character conversion
// ... results in undesirable variable length (or worst-case-long)
// messages." A shift-mode header is the same length whatever its values;
// a character-packed encoding of the same fields is not.
func TestShiftHeadersAreFixedLength(t *testing.T) {
	small := wire.Header{Type: wire.TData, Src: 1, Dst: 2, Seq: 1}
	big := wire.Header{
		Type: wire.TData, Flags: 0xFFFF, SrcMachine: machine.Sun68K, Mode: wire.ModePacked,
		Src: addr.UAdd(1<<47 - 1), Dst: addr.UAdd(1<<47 - 2),
		Circuit: 1 << 30, Seq: 1<<31 - 1, Hops: 200,
	}
	type packedHeader struct {
		Type, SrcMachine, Mode, Hops uint8
		Flags                        uint16
		Src, Dst                     uint64
		Circuit, Seq                 uint32
	}
	lengths := func(h wire.Header) (shift, packed int) {
		frame, err := wire.Marshal(h, nil)
		if err != nil {
			t.Fatal(err)
		}
		data, err := pack.Marshal(packedHeader{
			Type: uint8(h.Type), SrcMachine: uint8(h.SrcMachine), Mode: uint8(h.Mode),
			Hops: h.Hops, Flags: h.Flags, Src: uint64(h.Src), Dst: uint64(h.Dst),
			Circuit: h.Circuit, Seq: h.Seq,
		})
		if err != nil {
			t.Fatal(err)
		}
		return len(frame), len(data)
	}
	shiftSmall, packedSmall := lengths(small)
	shiftBig, packedBig := lengths(big)
	t.Logf("shift %d/%d B, packed %d/%d B (small/large values)", shiftSmall, shiftBig, packedSmall, packedBig)
	if shiftSmall != wire.HeaderSize || shiftBig != wire.HeaderSize {
		t.Errorf("shift headers are %d and %d B, want both %d", shiftSmall, shiftBig, wire.HeaderSize)
	}
	if packedSmall == packedBig {
		t.Errorf("packed headers are %d B for both value sets; character packing should vary with the values", packedSmall)
	}
}

// TestImageShorterThanPacked is the E-CONV ablation (§5): "Messages between
// identical machines are simply byte-copied ... thus avoiding needless
// conversions." The image of ImageBody is shorter than its packed form,
// and the adaptive selection puts that difference on the wire: a
// VAX → VAX call sends fewer bytes than the same call VAX → Sun68K.
func TestImageShorterThanPacked(t *testing.T) {
	body := ImageBody{A: 1, E: 2.5, H: 3}
	img, err := machine.Image(body, machine.VAX)
	if err != nil {
		t.Fatal(err)
	}
	packed, err := pack.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) >= len(packed) {
		t.Errorf("image %d B, packed %d B: image should be shorter", len(img), len(packed))
	}

	sent := func(server machine.Type) uint64 {
		env, err := PairWithHops(0, machine.VAX, server)
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		if err := env.RoundTripImage(); err != nil { // resolve the destination's machine type
			t.Fatal(err)
		}
		before := counter(env.Client, stats.NDBytesOut)
		if err := env.RoundTripImage(); err != nil {
			t.Fatal(err)
		}
		return counter(env.Client, stats.NDBytesOut) - before
	}
	same, cross := sent(machine.VAX), sent(machine.Sun68K)
	t.Logf("image %d B, packed %d B; one call sends %d B VAX→VAX, %d B VAX→Sun68K", len(img), len(packed), same, cross)
	if same >= cross {
		t.Errorf("VAX→VAX call sent %d B, VAX→Sun68K %d B: image mode should send less", same, cross)
	}
}

// TestGatewayHopsCutThrough is E-GWHOP (§4): chained LVCs, no
// inter-gateway protocol. One warm call plus its reply crosses each of
// h gateways once per direction, every crossing is an in-place cut-through,
// and no crossing asks the naming service anything.
func TestGatewayHopsCutThrough(t *testing.T) {
	for hops := 1; hops <= 3; hops++ {
		t.Run(fmt.Sprintf("hops=%d", hops), func(t *testing.T) {
			env, err := PairWithHops(hops, machine.VAX, machine.VAX)
			if err != nil {
				t.Fatal(err)
			}
			defer env.Close()
			if err := env.RoundTrip(256); err != nil {
				t.Fatal(err)
			}
			cut := env.World.StatsTotals().Counters[stats.IPCutThrough]
			queries := counter(env.Client, stats.NSPQueries)
			if err := env.RoundTrip(256); err != nil {
				t.Fatal(err)
			}
			if got := env.World.StatsTotals().Counters[stats.IPCutThrough] - cut; got != uint64(2*hops) {
				t.Errorf("call and reply cut through %d times, want %d", got, 2*hops)
			}
			if got := counter(env.Client, stats.NSPQueries) - queries; got != 0 {
				t.Errorf("warm call made %d naming queries, want 0", got)
			}
		})
	}
}

// TestRouteComputationExperiment is E-ROUTE (§4.2): the decentralized
// route computation finds the whole chain of a linear internet of n
// networks — n−1 gateways, in order — from establishment-time topology.
func TestRouteComputationExperiment(t *testing.T) {
	netName := func(i int) string { return fmt.Sprintf("n%d", i) }
	for _, n := range []int{4, 16, 64, 256} {
		gws := make([]iplayer.GatewayInfo, 0, n-1)
		for i := 0; i < n-1; i++ {
			gws = append(gws, iplayer.GatewayInfo{
				UAdd:     addr.UAdd(1000 + i),
				Networks: []string{netName(i), netName(i + 1)},
			})
		}
		route, err := iplayer.ComputeRoute([]string{netName(0)}, netName(n-1), gws)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(route) != n-1 {
			t.Fatalf("n=%d: route has %d hops, want %d", n, len(route), n-1)
		}
		for i, h := range route {
			if h.Gateway != addr.UAdd(1000+i) {
				t.Fatalf("n=%d: hop %d is gateway %v, want %v", n, i, h.Gateway, addr.UAdd(1000+i))
			}
		}
	}
}

// TestExperimentsSmoke asserts E-NSRM (§3.3) and E-RECONF (§3.5) end to
// end: a warm call asks the naming service nothing and a call with its
// circuit and endpoint dropped asks again; a static run loses no call,
// and a relocated server is reached again without client intervention.
func TestExperimentsSmoke(t *testing.T) {
	t.Run("E-NSRM", func(t *testing.T) {
		env, err := PairWithHops(0, machine.VAX, machine.VAX)
		if err != nil {
			t.Fatal(err)
		}
		defer env.Close()
		if err := env.RoundTrip(64); err != nil {
			t.Fatal(err)
		}
		before := counter(env.Client, stats.NSPQueries)
		if err := env.RoundTrip(64); err != nil {
			t.Fatal(err)
		}
		if got := counter(env.Client, stats.NSPQueries) - before; got != 0 {
			t.Errorf("warm call made %d naming queries, want 0", got)
		}
		env.Client.Nucleus().IP.DropCircuits(env.Dst)
		env.Client.Nucleus().Cache.Delete(env.Dst)
		before = counter(env.Client, stats.NSPQueries)
		if err := env.RoundTrip(64); err != nil {
			t.Fatal(err)
		}
		if got := counter(env.Client, stats.NSPQueries) - before; got < 1 {
			t.Errorf("call after dropping the cached endpoint made %d naming queries, want ≥1", got)
		}
	})

	t.Run("E-RECONF", func(t *testing.T) {
		w := sim.NewWorld()
		defer w.Close()
		w.AddNetwork("net", memnet.Options{})
		if _, err := w.StartNameServer(w.MustHost("ns-host", machine.Apollo, "net"), "ns"); err != nil {
			t.Fatal(err)
		}
		h1 := w.MustHost("vax-1", machine.VAX, "net")
		h2 := w.MustHost("vax-2", machine.VAX, "net")
		start := func(h *sim.Host) *core.Module {
			m, err := w.Attach(h, "worker", map[string]string{"role": "work"})
			if err != nil {
				t.Fatal(err)
			}
			serveEcho(m)
			return m
		}
		gen1 := start(h1)
		client, err := w.Attach(h1, "client", nil)
		if err != nil {
			t.Fatal(err)
		}
		u, err := client.Locate("worker")
		if err != nil {
			t.Fatal(err)
		}
		call := func() error {
			var out EchoBody
			return client.CallContext(context.Background(), u, "echo", EchoBody{Payload: []byte("x")}, &out)
		}
		for i := 0; i < 200; i++ {
			if err := call(); err != nil {
				t.Fatalf("static call %d failed: %v", i, err)
			}
		}

		if err := gen1.Detach(); err != nil {
			t.Fatal(err)
		}
		start(h2)
		deadline := time.Now().Add(5 * time.Second)
		for call() != nil {
			if time.Now().After(deadline) {
				t.Fatal("relocation never recovered")
			}
			time.Sleep(2 * time.Millisecond)
		}
	})
}
