package ntcs_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"ntcs"
	"ntcs/internal/drts/monitor"
	"ntcs/internal/drts/timesvc"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
	"ntcs/internal/trace"
	"ntcs/sim"
)

// drtsWorld assembles the full §6.1 environment: name server, time
// server, monitor, a receiver, and a sender with both DRTS couplings
// enabled.
func drtsWorld(t *testing.T) (sender, receiver *ntcs.Module, corr *timesvc.Corrector, monSrv *monitor.Server) {
	t.Helper()
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	host := w.MustHost("vax-1", machine.VAX, "ring")

	tsMod, err := w.Attach(host, "time-server", map[string]string{"role": "time"})
	if err != nil {
		t.Fatal(err)
	}
	go timesvc.NewServer(tsMod, 250*time.Millisecond).Run()

	monMod, err := w.Attach(host, "monitor", map[string]string{"role": "monitor"})
	if err != nil {
		t.Fatal(err)
	}
	monSrv = monitor.NewServer(monMod)
	go monSrv.Run()

	receiver, err = w.Attach(host, "receiver", nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := receiver.Recv(time.Hour); err != nil {
				return
			}
		}
	}()

	sender, err = w.Attach(host, "sender", nil)
	if err != nil {
		t.Fatal(err)
	}
	corr = timesvc.NewCorrector(sender, "time-server", time.Minute)
	sender.SetClock(corr.Now)
	monClient := monitor.NewClient(sender, "monitor", 1)
	sender.SetMonitor(monClient.Record)
	return sender, receiver, corr, monSrv
}

func TestFirstSendRecursionScenario(t *testing.T) {
	// E-RECUR / §6.1: "sending a message to a destination for the first
	// time, with monitoring and time correction enabled" triggers the
	// documented cascade: the time primitive recursively calls the ComMod
	// (locating its support module first), the naming service is consulted
	// recursively for the actual send, and on success the monitor data is
	// shipped by the LCM "calling itself".
	sender, receiver, corr, monSrv := drtsWorld(t)

	u, err := sender.Locate("receiver")
	if err != nil {
		t.Fatal(err)
	}
	sender.Tracer().SetEnabled(true)
	sender.Tracer().Clear()

	if err := sender.SendMsg(context.Background(), u, "greeting", "first contact"); err != nil {
		t.Fatal(err)
	}

	// The time primitive ran (and located its module through the ComMod).
	if corr.Syncs() != 1 {
		t.Errorf("time corrector syncs = %d, want 1", corr.Syncs())
	}
	// The monitor received the record of the send.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && monSrv.Snapshot().ByModule["sender"] == 0 {
		time.Sleep(10 * time.Millisecond)
	}
	if got := monSrv.Snapshot().ByModule["sender"]; got == 0 {
		t.Error("monitor never received the send record")
	}

	tr := sender.Tracer()
	// The recursion is visible: ALI entered more than once (the original
	// send, plus the recursive locate/call of the time service and the
	// monitor shipping)...
	if got := tr.CountLayer(trace.LayerALI); got < 3 {
		t.Errorf("ALI entries = %d, want >= 3 (recursive ComMod use)\n%s", got, tr.Tree())
	}
	// ...as is the nesting: the DRTS calls run inside the original send.
	if got := tr.MaxDepth(); got < 4 {
		t.Errorf("max recursion depth = %d, want >= 4\n%s", got, tr.Tree())
	}
	// The NSP layer was consulted recursively (time-server location).
	if got := tr.CountLayer(trace.LayerNSP); got < 1 {
		t.Errorf("NSP entries = %d, want >= 1", got)
	}

	// The warm path is dramatically simpler: "recursive calls are rare
	// under normal operation."
	firstDepth := tr.MaxDepth()
	firstEvents := len(tr.Events())
	tr.Clear()
	if err := sender.SendMsg(context.Background(), u, "greeting", "second contact"); err != nil {
		t.Fatal(err)
	}
	if warm := tr.MaxDepth(); warm >= firstDepth {
		t.Errorf("warm-send depth %d not shallower than first-send depth %d", warm, firstDepth)
	}
	if warmEvents := len(tr.Events()); warmEvents >= firstEvents {
		t.Errorf("warm-send events %d not fewer than first-send events %d", warmEvents, firstEvents)
	}
	_ = receiver
}

func TestFigure21ApplicationsView(t *testing.T) {
	// F2-1: "the ComMod is the only aspect of the NTCS visible to the
	// application. To the application, the ComMod is the NTCS." Every
	// application operation enters through the ALI layer first.
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	host := w.MustHost("vax-1", machine.VAX, "ring")
	server, err := w.Attach(host, "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	echoServe(server)
	client, err := w.Attach(host, "client", nil)
	if err != nil {
		t.Fatal(err)
	}

	client.Tracer().SetEnabled(true)
	client.Tracer().Clear()
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "x", &reply); err != nil {
		t.Fatal(err)
	}
	seq := client.Tracer().LayerSequence()
	if len(seq) == 0 || seq[0] != trace.LayerALI {
		t.Errorf("first layer entered = %v, want ali\n%s", seq, client.Tracer().Tree())
	}
	for _, ev := range client.Tracer().Events() {
		if ev.Depth == 0 && ev.Layer != trace.LayerALI {
			t.Errorf("outermost entry into %s.%s bypassed the ALI veneer", ev.Layer, ev.Op)
		}
	}
}

func TestFigure22NucleusLayering(t *testing.T) {
	// F2-2: a send traverses LCM → IP → ND in order.
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	host := w.MustHost("vax-1", machine.VAX, "ring")
	server, err := w.Attach(host, "server", nil)
	if err != nil {
		t.Fatal(err)
	}
	client, err := w.Attach(host, "client", nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}
	client.Tracer().SetEnabled(true)
	client.Tracer().Clear()
	if err := client.SendMsg(context.Background(), u, "t", "x"); err != nil {
		t.Fatal(err)
	}
	_ = server

	var order []trace.Layer
	seen := map[trace.Layer]bool{}
	for _, ev := range client.Tracer().Events() {
		switch ev.Layer {
		case trace.LayerLCM, trace.LayerIP, trace.LayerND:
			if !seen[ev.Layer] {
				seen[ev.Layer] = true
				order = append(order, ev.Layer)
			}
		}
	}
	want := []trace.Layer{trace.LayerLCM, trace.LayerIP, trace.LayerND}
	if len(order) != 3 {
		t.Fatalf("layer entries = %v, want lcm, ip, nd\n%s", order, client.Tracer().Tree())
	}
	for i, l := range want {
		if order[i] != l {
			t.Errorf("traversal[%d] = %v, want %v (Figure 2-2 order)", i, order[i], l)
		}
	}
	// Nesting: IP inside LCM, ND inside IP.
	depths := map[trace.Layer]int{}
	for _, ev := range client.Tracer().Events() {
		if _, seen := depths[ev.Layer]; !seen {
			depths[ev.Layer] = ev.Depth
		}
	}
	if !(depths[trace.LayerLCM] < depths[trace.LayerIP] && depths[trace.LayerIP] < depths[trace.LayerND]) {
		t.Errorf("nesting depths lcm=%d ip=%d nd=%d violate Figure 2-2",
			depths[trace.LayerLCM], depths[trace.LayerIP], depths[trace.LayerND])
	}
}

func TestFigure23NSPFunnel(t *testing.T) {
	// F2-3: the NSP layer is the single naming access point — consulted
	// from above (the ALI resource location primitives) and from below
	// (the LCM address-fault handler).
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	hostA := w.MustHost("vax-1", machine.VAX, "ring")
	hostB := w.MustHost("vax-2", machine.VAX, "ring")
	gen1, err := w.Attach(hostA, "server", map[string]string{"role": "srv"})
	if err != nil {
		t.Fatal(err)
	}
	echoServe(gen1)
	client, err := w.Attach(hostA, "client", nil)
	if err != nil {
		t.Fatal(err)
	}

	// From above: Locate.
	client.Tracer().SetEnabled(true)
	client.Tracer().Clear()
	u, err := client.Locate("server")
	if err != nil {
		t.Fatal(err)
	}
	if got := client.Tracer().CountOp(trace.LayerNSP, "resolve"); got != 1 {
		t.Errorf("resolve through NSP = %d, want 1", got)
	}
	var reply string
	if err := client.CallContext(context.Background(), u, "q", "warm", &reply); err != nil {
		t.Fatal(err)
	}

	// From below: relocation forces the LCM fault handler through the NSP.
	_ = gen1.Detach()
	gen2, err := w.Attach(hostB, "server", map[string]string{"role": "srv"})
	if err != nil {
		t.Fatal(err)
	}
	echoServe(gen2)
	client.Tracer().SetEnabled(true)
	client.Tracer().Clear()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if err := client.CallContext(context.Background(), u, "q", "again", &reply); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got := client.Tracer().CountOp(trace.LayerNSP, "forward"); got < 1 {
		t.Errorf("forward through NSP = %d, want >= 1 (the LCM consults the funnel)\n%s",
			got, client.Tracer().Tree())
	}
}

func TestFigure24ComModVeneer(t *testing.T) {
	// F2-4: the ALI layer "may be better described as a thin veneer" —
	// parameter checking happens there, without entering deeper layers.
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	host := w.MustHost("vax-1", machine.VAX, "ring")
	m, err := w.Attach(host, "veneer", nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Tracer().SetEnabled(true)
	m.Tracer().Clear()
	if err := m.SendMsg(context.Background(), 0, "t", "x"); err == nil {
		t.Fatal("nil destination must be rejected")
	}
	if err := m.SendMsg(context.Background(), m.UAdd(), "", "x"); err == nil {
		t.Fatal("empty type must be rejected")
	}
	for _, ev := range m.Tracer().Events() {
		if ev.Layer != trace.LayerALI {
			t.Errorf("parameter check leaked into %s.%s", ev.Layer, ev.Op)
		}
	}
	// And the trace renders a readable tree (the §6.2 aid).
	if err := m.SendMsg(context.Background(), 0, "t", "x"); err == nil {
		t.Fatal("unexpected success")
	}
	tree := m.Tracer().Tree()
	if !strings.Contains(tree, "ali.send") {
		t.Errorf("tree missing veneer entries:\n%s", tree)
	}
}
