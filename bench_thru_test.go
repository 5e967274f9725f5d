// Throughput benchmarks for the PR-4 batching work (DESIGN.md §9,
// EXPERIMENTS.md E-THRU): pipelined many-senders→one-receiver message
// rate through the ND-Layer group-commit writer, and the gateway relay
// hop that the zero-copy cut-through accelerates.
package ntcs_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"ntcs/internal/core"
	"ntcs/internal/experiments"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// BenchmarkThroughputPipelined measures sustained one-way message rate:
// GOMAXPROCS senders firing datagrams at a single receiver over loopback
// TCP, the timer stopping only once every message has been delivered.
// Concurrent senders on the shared circuit are drained by the ND-Layer
// group-commit writer into single vectored writes instead of one syscall
// per frame.
func BenchmarkThroughputPipelined(b *testing.B) {
	const payloadLen = 256
	w := sim.NewWorld()
	w.AddTCPNetwork("net")
	defer w.Close()
	nsHost := w.MustHost("ns-host", machine.Apollo, "net")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		b.Fatal(err)
	}
	rHost := w.MustHost("recv-host", machine.VAX, "net")
	recv, err := w.AttachConfig(rHost, core.Config{Name: "receiver", InboxSize: 1 << 15})
	if err != nil {
		b.Fatal(err)
	}
	var received atomic.Int64
	for i := 0; i < 4; i++ {
		go func() {
			for {
				if _, err := recv.Recv(time.Hour); err != nil {
					return
				}
				received.Add(1)
			}
		}()
	}
	sHost := w.MustHost("send-host", machine.VAX, "net")
	sender, err := w.Attach(sHost, "sender", nil)
	if err != nil {
		b.Fatal(err)
	}
	u, err := sender.Locate("receiver")
	if err != nil {
		b.Fatal(err)
	}
	body := make([]byte, payloadLen)
	if err := sender.SendMsg(context.Background(), u, "m", body); err != nil {
		b.Fatal(err)
	}
	for received.Load() < 1 {
		time.Sleep(time.Millisecond)
	}

	base := received.Load()
	want := base + int64(b.N)
	b.SetBytes(payloadLen)
	b.ReportAllocs()
	// Keep the sender pool deep even on small GOMAXPROCS: the writer
	// only coalesces what concurrent senders pile up behind it.
	b.SetParallelism(8)
	b.ResetTimer()
	start := time.Now()
	ctx := context.Background()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := sender.SendMsg(ctx, u, "m", body, core.WithNoCopy); err != nil {
				b.Fatal(err)
			}
		}
	})
	// Pipelined: sends return before delivery, so wait for the
	// receiver to catch up. A stall means messages were dropped
	// (inbox overflow) and the run is invalid.
	lastProgress := time.Now()
	last := received.Load()
	for {
		got := received.Load()
		if got >= want {
			break
		}
		if got != last {
			last, lastProgress = got, time.Now()
		} else if time.Since(lastProgress) > 10*time.Second {
			b.Fatalf("delivery stalled at %d/%d messages", got-base, b.N)
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "msgs/s")
}

// BenchmarkGatewayCutThrough times the one-gateway round trip the
// zero-copy relay path accelerates: the gateway patches the circuit word
// in place and forwards the inbound frame bytes instead of re-marshaling
// the header (compare against the parent commit back-to-back; PR 4's
// numbers are BENCH_PR4.json in git history at 62fe75a).
func BenchmarkGatewayCutThrough(b *testing.B) {
	env, err := experiments.PairWithHops(1, machine.VAX, machine.VAX)
	if err != nil {
		b.Fatal(err)
	}
	defer env.Close()
	if err := env.RoundTrip(256); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := env.RoundTrip(256); err != nil {
			b.Fatal(err)
		}
	}
}
