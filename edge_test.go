package ntcs_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntcs"
	"ntcs/internal/drts/errlog"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
	"ntcs/internal/wire"
	"ntcs/sim"
)

// TestReplyFallsBackToRoutedSend: the circuit a call arrived on dies
// before the reply; the LCM falls back to a routed send to the caller's
// UAdd.
func TestReplyFallsBackToRoutedSend(t *testing.T) {
	w, _ := oneNetWorld(t)
	server, err := w.Attach(w.MustHost("vax-1", machine.VAX, "ring"), "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := w.AttachConfig(w.MustHost("vax-2", machine.VAX, "ring"),
		ntcs.Config{Name: "client", CallTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		d, err := server.Recv(5 * time.Second)
		if err != nil {
			done <- err
			return
		}
		// Sever the arriving circuit before replying: the server's ND
		// drops every LVC to the client.
		for _, b := range server.Nucleus().Bindings {
			b.Drop(d.Src())
		}
		done <- server.Reply(d, "r", "made it anyway")
	}()

	var reply string
	if err := client.CallContext(context.Background(), u, "q", "x", &reply); err != nil {
		t.Fatalf("call: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("server reply: %v", err)
	}
	if reply != "made it anyway" {
		t.Errorf("reply = %q", reply)
	}
}

// TestNDChurn opens and drops circuits from many goroutines while traffic
// flows: the circuit tables stay consistent and the system ends healthy.
func TestNDChurn(t *testing.T) {
	w, _ := oneNetWorld(t)
	server, err := w.AttachConfig(w.MustHost("vax-1", machine.VAX, "ring"),
		ntcs.Config{Name: "server", InboxSize: 2048})
	if err != nil {
		t.Fatal(err)
	}
	echoServe(server)
	client, err := w.Attach(w.MustHost("vax-2", machine.VAX, "ring"), "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	firstDrop := make(chan struct{})
	// Churner: keeps killing the client's circuits. The callers below
	// only start once the first drop landed, so every call runs against
	// live churn rather than racing the churner's warm-up.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			client.Nucleus().IP.DropCircuits(u)
			for _, b := range client.Nucleus().Bindings {
				b.Drop(u)
			}
			if i == 0 {
				close(firstDrop)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	<-firstDrop
	// Callers: bounded work, so the test ends when they do — no fixed
	// sleep to race against on a loaded machine.
	var okCount, failCount int
	var mu sync.Mutex
	var callers sync.WaitGroup
	for g := 0; g < 4; g++ {
		callers.Add(1)
		go func(g int) {
			defer callers.Done()
			for i := 0; i < 60; i++ {
				var reply string
				msg := fmt.Sprintf("g%d-%d", g, i)
				err := client.CallContext(context.Background(), u, "q", msg, &reply)
				mu.Lock()
				if err != nil {
					failCount++
				} else {
					okCount++
					if reply != "echo:"+msg {
						t.Errorf("wrong reply %q for %q", reply, msg)
					}
				}
				mu.Unlock()
			}
		}(g)
	}
	callers.Wait()
	close(stop)
	wg.Wait()
	if okCount == 0 {
		t.Fatal("no call survived the churn")
	}
	t.Logf("churn: %d ok, %d failed", okCount, failCount)
	// Healthy afterwards.
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "final", &reply); err != nil {
		t.Fatalf("post-churn call: %v", err)
	}
}

// TestLargePayloadThroughGateway pushes a 1MB body across a chained
// circuit.
func TestLargePayloadThroughGateway(t *testing.T) {
	w := sim.NewWorld()
	w.AddNetwork("alpha", memnet.Options{})
	w.AddNetwork("beta", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "alpha")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	gwHost := w.MustHost("gw-host", machine.Apollo, "alpha", "beta")
	if _, err := w.StartGateway(gwHost, "gw"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	server, err := w.Attach(w.MustHost("beta-big", machine.VAX, "beta"), "big-server", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			d, err := server.Recv(time.Hour)
			if err != nil {
				return
			}
			if d.IsCall() {
				var b []byte
				if err := d.Decode(&b); err != nil {
					_ = server.ReplyError(d, err.Error())
					continue
				}
				_ = server.Reply(d, "r", b)
			}
		}
	}()
	client, err := w.Attach(w.MustHost("alpha-big", machine.VAX, "alpha"), "big-client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("big-server")
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 13)
	}
	var out []byte
	if err := client.CallContext(context.Background(), u, "q", big, &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(big) {
		t.Fatalf("got %d bytes back", len(out))
	}
	for i := range big {
		if out[i] != big[i] {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

// TestServiceSendSuppressesHooks: DRTS traffic sent or called with
// WithService never fires the monitor or time hooks (the §6.1 recursion
// guard). WithConnless is the connectionless protocol: one attempt, no
// relocation recovery.
func TestServiceSendSuppressesHooks(t *testing.T) {
	ctx := context.Background()
	w, _ := oneNetWorld(t)
	recv, err := w.Attach(w.MustHost("vax-1", machine.VAX, "ring"), "recv", nil)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := w.Attach(w.MustHost("vax-2", machine.VAX, "ring"), "sender", nil)
	if err != nil {
		t.Fatal(err)
	}
	var recorded, clocked atomic.Int32
	sender.SetMonitor(func(lcm.Event) { recorded.Add(1) })
	sender.SetClock(func() time.Time { clocked.Add(1); return time.Now() })
	u, err := sender.Locate("recv")
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.SendMsg(ctx, u, "svc", "internal", ntcs.WithService); err != nil {
		t.Fatal(err)
	}
	d, err := recv.Recv(tick)
	if err != nil {
		t.Fatal(err)
	}
	var s string
	if err := d.Decode(&s); err != nil || s != "internal" {
		t.Errorf("decode: %q %v", s, err)
	}
	go func() {
		if d, err := recv.Recv(tick); err == nil {
			_ = recv.Reply(d, "r", "svc-reply")
		}
	}()
	var reply string
	if err := sender.CallContext(ctx, u, "svc", "ping", &reply, ntcs.WithService); err != nil || reply != "svc-reply" {
		t.Fatalf("service call: %q %v", reply, err)
	}
	if n, c := recorded.Load(), clocked.Load(); n != 0 || c != 0 {
		t.Errorf("service traffic fired the hooks: monitor %d, clock %d", n, c)
	}
	// An ordinary send IS monitored and stamped.
	if err := sender.SendMsg(ctx, u, "app", "visible"); err != nil {
		t.Fatal(err)
	}
	if n, c := recorded.Load(), clocked.Load(); n != 1 || c == 0 {
		t.Errorf("ordinary send: monitor %d (want 1), clock %d (want > 0)", n, c)
	}

	// Connectionless: once recv is replaced, a WithConnless send to its
	// old UAdd fails instead of following the relocation; an ordinary
	// send to the same UAdd reaches the replacement.
	if err := recv.Detach(); err != nil {
		t.Fatal(err)
	}
	next, err := w.Attach(w.MustHost("vax-3", machine.VAX, "ring"), "recv", nil)
	if err != nil {
		t.Fatal(err)
	}
	clErr := error(nil)
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if clErr = sender.SendMsg(ctx, u, "cl", "lost", ntcs.WithConnless); clErr != nil {
			break
		}
	}
	if clErr == nil {
		t.Fatal("connectionless send to a replaced module kept succeeding")
	}
	if n := sender.Errors().Count(errlog.CodeForwarded); n != 0 {
		t.Errorf("connectionless send was forwarded %d times", n)
	}
	if sender.Errors().Count(errlog.CodeDroppedMsg) == 0 {
		t.Error("connectionless loss not recorded")
	}
	if d, err := next.Recv(50 * time.Millisecond); err == nil {
		t.Fatalf("replacement received a connectionless send: %q", d.Type)
	}
	if err := sender.SendMsg(ctx, u, "app", "relocated"); err != nil {
		t.Fatalf("ordinary send after relocation: %v", err)
	}
	if d, err := next.Recv(tick); err != nil || d.Type != "app" {
		t.Fatalf("replacement recv: %v", err)
	}
}

// TestModeByteVisibleToReceiver: the receiver can inspect the conversion
// mode and source machine of every delivery (diagnostic surface of §5).
func TestModeByteVisibleToReceiver(t *testing.T) {
	w, _ := oneNetWorld(t)
	recv, err := w.Attach(w.MustHost("sun-x", machine.Sun68K, "ring"), "recv", nil)
	if err != nil {
		t.Fatal(err)
	}
	sender, err := w.Attach(w.MustHost("vax-x", machine.VAX, "ring"), "sender", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sender.Locate("recv")
	if err != nil {
		t.Fatal(err)
	}
	if err := sender.SendMsg(context.Background(), u, "m", "text"); err != nil {
		t.Fatal(err)
	}
	d, err := recv.Recv(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if d.SrcMachine() != machine.VAX {
		t.Errorf("SrcMachine = %v", d.SrcMachine())
	}
	if d.Mode() != wire.ModePacked {
		t.Errorf("Mode = %v (string body across byte orders must be packed)", d.Mode())
	}
	if d.Type != "m" {
		t.Errorf("Type = %q", d.Type)
	}
}

// TestDetachDeliversAcceptedSends: a one-way send returns once its frame
// is on the circuit's write queue, so a clean shutdown must flush that
// queue. Every round a fresh sender issues 100 sends and detaches at
// once; the receiver must get all 100, in order.
func TestDetachDeliversAcceptedSends(t *testing.T) {
	const rounds, perRound = 30, 100
	for _, sub := range []struct {
		name string
		add  func(w *sim.World)
	}{
		{"memnet", func(w *sim.World) { w.AddNetwork("ring", memnet.Options{}) }},
		{"tcpnet", func(w *sim.World) { w.AddTCPNetwork("ring") }},
	} {
		t.Run(sub.name, func(t *testing.T) {
			w := sim.NewWorld()
			sub.add(w)
			t.Cleanup(w.Close)
			if _, err := w.StartNameServer(w.MustHost("ns-host", machine.Apollo, "ring"), "ns"); err != nil {
				t.Fatal(err)
			}
			recv, err := w.Attach(w.MustHost("recv-host", machine.VAX, "ring"), "receiver", nil)
			if err != nil {
				t.Fatal(err)
			}
			sendHost := w.MustHost("send-host", machine.VAX, "ring")
			for r := 0; r < rounds; r++ {
				sender, err := w.Attach(sendHost, fmt.Sprintf("sender-%d", r), nil)
				if err != nil {
					t.Fatal(err)
				}
				u, err := sender.Locate("receiver")
				if err != nil {
					t.Fatal(err)
				}
				for i := 0; i < perRound; i++ {
					if err := sender.SendMsg(context.Background(), u, "seq", []byte(fmt.Sprintf("r%02d-%03d", r, i))); err != nil {
						t.Fatalf("round %d send %d: %v", r, i, err)
					}
				}
				if err := sender.Detach(); err != nil {
					t.Fatalf("round %d detach: %v", r, err)
				}
				for i := 0; i < perRound; i++ {
					d, err := recv.Recv(5 * time.Second)
					if err != nil {
						t.Fatalf("round %d: got %d of %d accepted sends: %v", r, i, perRound, err)
					}
					var body []byte
					if err := d.Decode(&body); err != nil {
						t.Fatal(err)
					}
					if want := fmt.Sprintf("r%02d-%03d", r, i); string(body) != want {
						t.Fatalf("round %d: message %d is %q, want %q", r, i, body, want)
					}
				}
			}
		})
	}
}
