// The warm-path allocation budget, enforced as a plain test so CI fails
// the moment metering (or anything else) sneaks an allocation into the
// hot path. Excluded under the race detector: -race instruments
// allocation behaviour and the budget would measure the instrumentation.

//go:build !race

package ntcs_test

import (
	"context"
	"testing"
	"time"

	"ntcs"
	"ntcs/internal/drts/monitor"
	"ntcs/internal/drts/timesvc"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// warmSendAllocBudget pins a warm send with the monitor hook and
// corrected clock attached, the receiver's Recv included: 1 alloc, the
// frame memnet copies the message into (it rides the LCM inbox in a
// pooled cell). It started at 9; the observability layer (counters on
// every layer, span IDs in every header) must not move it.
const warmSendAllocBudget = 1

func TestWarmSendAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget skipped in -short mode")
	}
	res := testing.Benchmark(func(b *testing.B) {
		w := sim.NewWorld()
		w.AddNetwork("net", memnet.Options{})
		if _, err := w.StartNameServer(w.MustHost("ns-host", machine.Apollo, "net"), "ns"); err != nil {
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
	allocs := res.AllocsPerOp()
	t.Logf("warm send: %v/op, %d B/op, %d allocs/op (budget %d)",
		time.Duration(res.NsPerOp()), res.AllocedBytesPerOp(), allocs, warmSendAllocBudget)
	if allocs > warmSendAllocBudget {
		t.Errorf("warm send costs %d allocs/op with counters on; budget is %d", allocs, warmSendAllocBudget)
	}
}

// warmCallAllocBudget pins a warm structured call over memnet, reply
// decoded: a VAX caller and a Sun-3 callee, so both bodies travel in
// packed mode. It counts both ends, since they share the process. The
// envelope and reply decodes borrow pooled decoders, the reply comes back
// from the LCM by value and is decoded through a Delivery on the caller's
// stack, and the server's Serve loop reuses one Delivery. memnet keeps
// each pipe's queue array across drains, so the call and reply frames
// cost only their copies.
const warmCallAllocBudget = 5

type callBody struct {
	Seq  int64
	Text string
}

func TestWarmCallAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc budget skipped in -short mode")
	}
	res := testing.Benchmark(func(b *testing.B) {
		w := sim.NewWorld()
		w.AddNetwork("net", memnet.Options{})
		if _, err := w.StartNameServer(w.MustHost("ns-host", machine.Apollo, "net"), "ns"); err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		server, err := w.Attach(w.MustHost("sun-1", machine.Sun68K, "net"), "server", nil)
		if err != nil {
			b.Fatal(err)
		}
		go server.Serve(func(d *ntcs.Delivery) (string, any, error) {
			var req callBody
			if err := d.Decode(&req); err != nil {
				return "", nil, err
			}
			return "reply", callBody{Seq: req.Seq + 1, Text: req.Text}, nil
		})
		caller, err := w.Attach(w.MustHost("vax-1", machine.VAX, "net"), "caller", nil)
		if err != nil {
			b.Fatal(err)
		}
		u, err := caller.Locate("server")
		if err != nil {
			b.Fatal(err)
		}
		req := callBody{Text: "warm structured call"}
		var rep callBody
		if err := caller.CallContext(context.Background(), u, "m", req, &rep); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			req.Seq = int64(i)
			if err := caller.CallContext(context.Background(), u, "m", req, &rep); err != nil {
				b.Fatal(err)
			}
			if rep.Seq != req.Seq+1 || rep.Text != req.Text {
				b.Fatalf("reply %+v to %+v", rep, req)
			}
		}
	})
	allocs := res.AllocsPerOp()
	t.Logf("warm call: %v/op, %d B/op, %d allocs/op (budget %d)",
		time.Duration(res.NsPerOp()), res.AllocedBytesPerOp(), allocs, warmCallAllocBudget)
	if allocs > warmCallAllocBudget {
		t.Errorf("warm structured call costs %d allocs/op; budget is %d", allocs, warmCallAllocBudget)
	}
}
