package nameserver_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
	"ntcs/internal/nameserver"
	"ntcs/internal/nsp"
	"ntcs/internal/pack"
	"ntcs/internal/wire"
	"ntcs/sim"
)

// TestRawProtocolPaths sends raw naming-protocol requests the way the NSP
// layer does, exercising the server's handling of every op — including
// the malformed input an application never produces.
func TestRawProtocolPaths(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	host := w.MustHost("vax-1", machine.VAX, "ring")
	m, err := w.Attach(host, "probe", nil)
	if err != nil {
		t.Fatal(err)
	}
	lcmLayer := m.Nucleus().LCM

	call := func(req nsp.Request) nsp.Response {
		t.Helper()
		payload, err := pack.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		d, err := lcmLayer.CallContext(context.Background(), addr.NameServer, wire.ModePacked, wire.FlagService, payload)
		if err != nil {
			t.Fatal(err)
		}
		var resp nsp.Response
		if err := pack.Unmarshal(d.Payload, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}

	t.Run("unknown op", func(t *testing.T) {
		resp := call(nsp.Request{Op: "dance"})
		if resp.Code != nsp.CodeBadRequest || !strings.Contains(resp.Detail, "dance") {
			t.Errorf("resp = %+v", resp)
		}
	})
	t.Run("register empty name", func(t *testing.T) {
		resp := call(nsp.Request{Op: nsp.OpRegister})
		if resp.Code != nsp.CodeBadRequest {
			t.Errorf("resp = %+v", resp)
		}
	})
	t.Run("lookup unknown", func(t *testing.T) {
		resp := call(nsp.Request{Op: nsp.OpLookup, UAdd: 999999})
		if resp.Code != nsp.CodeNotFound {
			t.Errorf("resp = %+v", resp)
		}
	})
	t.Run("deregister unknown", func(t *testing.T) {
		resp := call(nsp.Request{Op: nsp.OpDeregister, UAdd: 999999})
		if resp.Code != nsp.CodeNotFound {
			t.Errorf("resp = %+v", resp)
		}
	})
	t.Run("forward unknown", func(t *testing.T) {
		resp := call(nsp.Request{Op: nsp.OpForward, UAdd: 999999})
		if resp.Code != nsp.CodeNotFound {
			t.Errorf("resp = %+v", resp)
		}
	})
	t.Run("replicate without record", func(t *testing.T) {
		resp := call(nsp.Request{Op: nsp.OpReplicate})
		if resp.Code != nsp.CodeBadRequest {
			t.Errorf("resp = %+v", resp)
		}
	})
	t.Run("replicate record installs", func(t *testing.T) {
		resp := call(nsp.Request{Op: nsp.OpReplicate, Record: nsp.RecordRec{
			Name: "ghost", UAdd: 777777, Alive: true, Incarnation: 1,
			Endpoints: []nsp.EndpointRec{{Network: "ring", Addr: "gx", Machine: uint8(machine.VAX)}},
		}})
		if resp.Code != nsp.CodeOK {
			t.Fatalf("resp = %+v", resp)
		}
		resolved := call(nsp.Request{Op: nsp.OpResolve, Name: "ghost"})
		if resolved.Code != nsp.CodeOK || resolved.UAdd != 777777 {
			t.Errorf("resolve replicated: %+v", resolved)
		}
	})
	t.Run("malformed payload", func(t *testing.T) {
		d, err := lcmLayer.CallContext(context.Background(), addr.NameServer, wire.ModePacked, wire.FlagService, []byte("not packed"))
		if err != nil {
			t.Fatal(err)
		}
		var resp nsp.Response
		if err := pack.Unmarshal(d.Payload, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Code != nsp.CodeBadRequest {
			t.Errorf("resp = %+v", resp)
		}
	})
	t.Run("announce is acknowledged", func(t *testing.T) {
		resp := call(nsp.Request{Op: nsp.OpAnnounce, UAdd: uint64(m.UAdd())})
		if resp.Code != nsp.CodeOK {
			t.Errorf("resp = %+v", resp)
		}
	})
	_ = w
}

// TestRequestStormBoundsHandlers floods the Name Server with naming
// requests whose handlers block: each asks for the §3.5 forwarding of a
// live module, and with the network slowed past the ping timeout every
// liveness probe waits it out. The server must take the storm on its
// bounded handler set, pushing the excess back into its inbox, instead
// of growing a goroutine per request.
func TestRequestStormBoundsHandlers(t *testing.T) {
	w := sim.NewWorld()
	ring := w.AddNetwork("ring", memnet.Options{})
	ns, err := w.StartNameServer(w.MustHost("ns-host", machine.Apollo, "ring"), "ns")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	target, err := w.Attach(w.MustHost("vax-0", machine.VAX, "ring"), "target", nil)
	if err != nil {
		t.Fatal(err)
	}
	forward, err := pack.Marshal(nsp.Request{Op: nsp.OpForward, UAdd: uint64(target.UAdd())})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const clients, perClient = 3, 1000
	var storm []*lcm.Layer
	for i := 0; i < clients; i++ {
		m, err := w.Attach(w.MustHost(fmt.Sprintf("vax-%d", i+1), machine.VAX, "ring"), fmt.Sprintf("storm-%d", i), nil)
		if err != nil {
			t.Fatal(err)
		}
		// A warm-up forward opens every circuit the storm will use:
		// client to server, and the server's probe path to the target.
		l := m.Nucleus().LCM
		if _, err := l.CallContext(ctx, addr.NameServer, wire.ModePacked, wire.FlagService, forward); err != nil {
			t.Fatal(err)
		}
		storm = append(storm, l)
	}

	ring.SetLatency(400 * time.Millisecond) // a probe's round trip now outlasts its 300ms timeout
	ops := func() uint64 { return ns.Stats().Snapshot().Counters["ns.ops"] }
	before, baseline := ops(), runtime.NumGoroutine()
	for i := 0; i < perClient; i++ {
		for _, l := range storm {
			// One-way and no-block: the storm never waits on the server.
			_ = l.SendContext(ctx, addr.NameServer, wire.ModePacked, wire.FlagService|wire.FlagNoBlock, forward)
		}
		if i%50 == 49 {
			time.Sleep(2 * time.Millisecond) // pace the storm: bursts past the inbox would be dropped
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for ops()-before < nameserver.MaxHandlers {
		if time.Now().After(deadline) {
			t.Fatalf("storm reached %d handlers, want %d", ops()-before, nameserver.MaxHandlers)
		}
		time.Sleep(time.Millisecond)
	}
	// Let the rest of the storm land; the first probes hold their
	// handlers for 300ms, so none has finished yet.
	time.Sleep(150 * time.Millisecond)
	if grown := runtime.NumGoroutine() - baseline; grown > nameserver.MaxHandlers+nameserver.MaxHandlers/4 {
		t.Errorf("a storm of %d requests grew %d goroutines (%d handlers started); the bound is %d handlers",
			clients*perClient, grown, ops()-before, nameserver.MaxHandlers)
	}
	if ns.Stats().Snapshot().Counters["ns.handler_waits"] == 0 {
		t.Error("ns.handler_waits = 0: the storm never met the handler bound")
	}
	ring.SetLatency(0)
}
