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

	"ntcs/internal/drts/monitor"
	"ntcs/internal/drts/timesvc"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// warmSendAllocBudget is the PR1 baseline: 9 allocs per warm send with
// the monitor hook and corrected clock attached. The observability layer
// (counters on every layer, span IDs in every header) must not move it.
const warmSendAllocBudget = 9

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
