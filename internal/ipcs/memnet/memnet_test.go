package memnet

import (
	"errors"
	"testing"
	"time"

	"ntcs/internal/ipcs"
	"ntcs/internal/ipcs/ipcstest"
)

func TestConformance(t *testing.T) {
	ipcstest.Run(t, func(t *testing.T) ipcs.Network {
		return New("mem-test", Options{})
	})
}

func dialPair(t *testing.T, n *Net) (client, server ipcs.Conn) {
	t.Helper()
	l, err := n.Listen("svc")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	client, err = n.Dial("svc")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan ipcs.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- nil
			return
		}
		done <- c
	}()
	server = <-done
	if server == nil {
		t.Fatal("accept failed")
	}
	return client, server
}

// rxEvent is one callback delivery. A single ordered channel (rather
// than separate message/error channels) keeps the terminal error behind
// any buffered messages.
type rxEvent struct {
	msg []byte
	err error
}

func recvChan(c ipcs.Conn) <-chan rxEvent {
	events := make(chan rxEvent, 1024)
	c.Start(func(m []byte, err error) { events <- rxEvent{msg: m, err: err} })
	return events
}

func recvOne(t *testing.T, events <-chan rxEvent) []byte {
	t.Helper()
	select {
	case ev := <-events:
		if ev.err != nil {
			t.Fatalf("terminal error: %v", ev.err)
		}
		return ev.msg
	case <-time.After(5 * time.Second):
		t.Fatal("no delivery within 5s")
	}
	return nil
}

func TestNamedEndpoints(t *testing.T) {
	n := New("alpha", Options{})
	l, err := n.Listen("ns")
	if err != nil {
		t.Fatal(err)
	}
	if l.Addr() != "ns" {
		t.Errorf("Addr = %q", l.Addr())
	}
	if _, err := n.Listen("ns"); err == nil {
		t.Error("duplicate endpoint name should fail")
	}
	eps := n.Endpoints()
	if len(eps) != 1 || eps[0] != "ns" {
		t.Errorf("Endpoints = %v", eps)
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := New("slow", Options{Latency: 30 * time.Millisecond})
	client, server := dialPair(t, n)
	events := recvChan(server)
	start := time.Now()
	if err := client.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	recvOne(t, events)
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("delivery took %v, want >= ~30ms", elapsed)
	}
}

func TestJitterPreservesOrder(t *testing.T) {
	n := New("jittery", Options{Latency: time.Millisecond, Jitter: 5 * time.Millisecond, Seed: 42})
	client, server := dialPair(t, n)
	events := recvChan(server)
	const count = 30
	go func() {
		for i := 0; i < count; i++ {
			_ = client.Send([]byte{byte(i)})
		}
	}()
	for i := 0; i < count; i++ {
		got := recvOne(t, events)
		if got[0] != byte(i) {
			t.Fatalf("message %d arrived as %d: jitter reordered delivery", i, got[0])
		}
	}
}

func TestLossDropsSilently(t *testing.T) {
	n := New("lossy", Options{LossProb: 0.5, Seed: 7})
	client, server := dialPair(t, n)
	events := recvChan(server)
	const sent = 200
	for i := 0; i < sent; i++ {
		if err := client.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err) // loss is silent, never an error
		}
	}
	client.Close()
	received := 0
drain:
	for {
		select {
		case ev := <-events:
			if ev.err != nil {
				break drain
			}
			received++
		case <-time.After(5 * time.Second):
			t.Fatal("no terminal error within 5s")
		}
	}
	if received == 0 || received == sent {
		t.Errorf("received %d of %d; loss probability 0.5 should drop some but not all", received, sent)
	}
}

func TestIsolateBreaksEndpoint(t *testing.T) {
	n := New("alpha", Options{})
	client, server := dialPair(t, n)
	events := recvChan(server)
	n.Isolate("svc", true)

	// Existing connections break.
	select {
	case ev := <-events:
		if !errors.Is(ev.err, ipcs.ErrClosed) {
			t.Errorf("terminal error on isolated endpoint: %v", ev.err)
		}
	case <-time.After(5 * time.Second):
		t.Error("no terminal error on isolated endpoint within 5s")
	}
	_ = client
	// New dials fail.
	if _, err := n.Dial("svc"); !errors.Is(err, ipcs.ErrUnreachable) {
		t.Errorf("Dial isolated endpoint: %v", err)
	}
	// Restoration allows dialing again.
	n.Isolate("svc", false)
	if _, err := n.Dial("svc"); err != nil {
		t.Errorf("Dial after restore: %v", err)
	}
}

func TestHoldStallsAcceptedSideUntilRelease(t *testing.T) {
	n := New("alpha", Options{})
	client, server := dialPair(t, n)
	toClient := recvChan(client)
	toServer := recvChan(server)
	n.Hold("svc", true)

	// The held endpoint still receives...
	if err := client.Send([]byte("in")); err != nil {
		t.Fatal(err)
	}
	if got := recvOne(t, toServer); string(got) != "in" {
		t.Fatalf("held endpoint received %q", got)
	}
	// ...but what it sends waits, queued and unbroken.
	for _, m := range []string{"a", "b", "c"} {
		if err := server.Send([]byte(m)); err != nil {
			t.Fatalf("send while held: %v", err)
		}
	}
	select {
	case ev := <-toClient:
		t.Fatalf("delivered while held: %q (err %v)", ev.msg, ev.err)
	case <-time.After(50 * time.Millisecond):
	}

	// Release delivers the backlog in order.
	n.Hold("svc", false)
	for _, want := range []string{"a", "b", "c"} {
		if got := recvOne(t, toClient); string(got) != want {
			t.Fatalf("after release got %q, want %q", got, want)
		}
	}
}

func TestSetDownFailsEverything(t *testing.T) {
	n := New("alpha", Options{})
	client, server := dialPair(t, n)
	events := recvChan(server)
	n.SetDown(true)
	if _, err := n.Listen("new"); !errors.Is(err, ipcs.ErrNetworkDown) {
		t.Errorf("Listen on down network: %v", err)
	}
	if _, err := n.Dial("svc"); !errors.Is(err, ipcs.ErrNetworkDown) {
		t.Errorf("Dial on down network: %v", err)
	}
	select {
	case ev := <-events:
		if ev.err == nil {
			t.Errorf("expected terminal error, got message %q", ev.msg)
		}
	case <-time.After(5 * time.Second):
		t.Error("existing connection should break")
	}
	_ = client
	n.SetDown(false)
	if _, err := n.Listen("new"); err != nil {
		t.Errorf("Listen after restore: %v", err)
	}
}

func TestQueueOverflow(t *testing.T) {
	n := New("tiny", Options{QueueLen: 4})
	client, _ := dialPair(t, n)
	var overflow error
	for i := 0; i < 10; i++ {
		if err := client.Send([]byte("x")); err != nil {
			overflow = err
			break
		}
	}
	if !errors.Is(overflow, ipcs.ErrMailboxFull) {
		t.Errorf("overflow error = %v, want ErrMailboxFull", overflow)
	}
}

func TestDisjointNetworksShareNothing(t *testing.T) {
	a := New("alpha", Options{})
	b := New("beta", Options{})
	if _, err := a.Listen("shared-name"); err != nil {
		t.Fatal(err)
	}
	// The same endpoint name on another network is a different endpoint —
	// and an endpoint on alpha is invisible from beta.
	if _, err := b.Dial("shared-name"); !errors.Is(err, ipcs.ErrNoSuchEndpoint) {
		t.Errorf("cross-network dial: %v, want ErrNoSuchEndpoint", err)
	}
	if _, err := b.Listen("shared-name"); err != nil {
		t.Errorf("same name on disjoint network should be fine: %v", err)
	}
}

func TestDeterministicLossWithSeed(t *testing.T) {
	run := func() []bool {
		n := New("det", Options{LossProb: 0.3, Seed: 99})
		client, server := dialPair(t, n)
		events := recvChan(server)
		for i := 0; i < 50; i++ {
			_ = client.Send([]byte{byte(i)})
		}
		client.Close()
		var pattern []bool
		seen := make(map[byte]bool)
	drain:
		for {
			select {
			case ev := <-events:
				if ev.err != nil {
					break drain
				}
				seen[ev.msg[0]] = true
			case <-time.After(5 * time.Second):
				t.Fatal("no terminal error within 5s")
			}
		}
		for i := 0; i < 50; i++ {
			pattern = append(pattern, seen[byte(i)])
		}
		return pattern
	}
	p1, p2 := run(), run()
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("loss pattern not deterministic at message %d", i)
		}
	}
}

// TestRoundTripAllocatesOnlyTheFrameCopy is memnet's allocation gate: on
// a steady pipe, a Send, the drain goroutine it starts and the callback
// that goroutine runs allocate one object, the copy of the frame. The
// queue's array is kept across drains and the drain function is bound
// once per pipe.
func TestRoundTripAllocatesOnlyTheFrameCopy(t *testing.T) {
	n := New("alloc", Options{})
	client, server := dialPair(t, n)
	got := make(chan struct{}, 1)
	server.Start(func(m []byte, err error) {
		if err == nil {
			got <- struct{}{}
		}
	})
	msg := []byte("one frame")
	roundTrip := func() {
		if err := client.Send(msg); err != nil {
			t.Fatal(err)
		}
		<-got
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(1000, roundTrip); allocs != 1 {
		t.Fatalf("Send + drain + callback = %v allocs/message, want 1 (the frame copy)", allocs)
	}
}

// TestQueueOrderAcrossReuse stops the callback at message 20 of 41
// queued ones, then queues 100 more: they fill the kept array behind a
// delivered prefix, so an append slides the queued tail down. Every
// message must still arrive exactly once and in order.
func TestQueueOrderAcrossReuse(t *testing.T) {
	n := New("reuse", Options{})
	client, server := dialPair(t, n)
	gate := map[int]chan struct{}{0: make(chan struct{}), 20: make(chan struct{})}
	stopped := make(chan int, 2)
	got := make(chan int, 256) // every message, never blocking the callback
	server.Start(func(m []byte, err error) {
		if err != nil {
			return
		}
		if g, ok := gate[int(m[0])]; ok {
			stopped <- int(m[0])
			<-g
		}
		got <- int(m[0])
	})
	send := func(from, to int) {
		for i := from; i < to; i++ {
			if err := client.Send([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	send(0, 41)
	<-stopped // at message 0, with the rest queued
	close(gate[0])
	<-stopped // at message 20
	send(41, 141)
	close(gate[20])
	for want := 0; want < 141; want++ {
		select {
		case v := <-got:
			if v != want {
				t.Fatalf("message %d arrived at position %d", v, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("message %d never arrived", want)
		}
	}
}
