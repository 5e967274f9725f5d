package nameserver_test

import (
	"context"
	"strings"
	"testing"

	"ntcs/internal/addr"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
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
