package proctl_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"ntcs/internal/core"
	"ntcs/internal/drts/proctl"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
	"ntcs/sim"
)

// echoFactory builds modules that echo calls, attached to the given host.
func echoFactory(w *sim.World, h *sim.Host) proctl.Factory {
	return func(name string, attrs map[string]string) (*core.Module, error) {
		m, err := w.Attach(h, name, attrs)
		if err != nil {
			return nil, err
		}
		go func() {
			for {
				d, err := m.Recv(time.Hour)
				if err != nil {
					return
				}
				if d.IsCall() {
					var s string
					if err := d.Decode(&s); err != nil {
						_ = m.ReplyError(d, err.Error())
						continue
					}
					_ = m.Reply(d, "echo", h.Name+":"+s)
				}
			}
		}()
		return m, nil
	}
}

type fixture struct {
	w      *sim.World
	ctl    *core.Module
	agentA *proctl.Agent
	agentB *proctl.Agent
}

func setup(t *testing.T) *fixture {
	t.Helper()
	w := sim.NewWorld()
	w.AddNetwork("ring", memnet.Options{})
	nsHost := w.MustHost("ns-host", machine.Apollo, "ring")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	hostA := w.MustHost("vax-1", machine.VAX, "ring")
	hostB := w.MustHost("sun-1", machine.Sun68K, "ring")

	agentAMod, err := w.Attach(hostA, "agent-vax-1", map[string]string{"role": "proctl"})
	if err != nil {
		t.Fatal(err)
	}
	agentA := proctl.NewAgent(agentAMod, echoFactory(w, hostA))
	go agentA.Run()
	t.Cleanup(agentA.StopAll)

	agentBMod, err := w.Attach(hostB, "agent-sun-1", map[string]string{"role": "proctl"})
	if err != nil {
		t.Fatal(err)
	}
	agentB := proctl.NewAgent(agentBMod, echoFactory(w, hostB))
	go agentB.Run()
	t.Cleanup(agentB.StopAll)

	ctlHost := w.MustHost("ctl-host", machine.Apollo, "ring")
	ctl, err := w.Attach(ctlHost, "controller", nil)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{w: w, ctl: ctl, agentA: agentA, agentB: agentB}
}

func TestStartListStop(t *testing.T) {
	f := setup(t)
	u, err := proctl.Start(f.ctl, "agent-vax-1", "searcher", map[string]string{"role": "search"})
	if err != nil {
		t.Fatal(err)
	}
	if u == 0 {
		t.Fatal("no UAdd returned")
	}
	// The module is callable.
	var reply string
	if err := f.ctl.CallContext(context.Background(), u, "q", "hello", &reply); err != nil {
		t.Fatal(err)
	}
	if reply != "vax-1:hello" {
		t.Errorf("reply = %q", reply)
	}
	names, err := proctl.List(f.ctl, "agent-vax-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "searcher" {
		t.Errorf("list = %v", names)
	}
	if err := proctl.Stop(f.ctl, "agent-vax-1", "searcher"); err != nil {
		t.Fatal(err)
	}
	names, err = proctl.List(f.ctl, "agent-vax-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 0 {
		t.Errorf("list after stop = %v", names)
	}
}

func TestDuplicateStartRejected(t *testing.T) {
	f := setup(t)
	if _, err := proctl.Start(f.ctl, "agent-vax-1", "dup", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := proctl.Start(f.ctl, "agent-vax-1", "dup", nil); !errors.Is(err, lcm.ErrRemote) {
		t.Errorf("duplicate start: %v, want remote error", err)
	}
}

func TestStopUnknownRejected(t *testing.T) {
	f := setup(t)
	if err := proctl.Stop(f.ctl, "agent-vax-1", "ghost"); !errors.Is(err, lcm.ErrRemote) {
		t.Errorf("stop unknown: %v, want remote error", err)
	}
}

func TestRelocateKeepsOldAddressWorking(t *testing.T) {
	// The paper's dynamic reconfiguration, driven by the DRTS: a module
	// moves between machines while a client keeps using the original
	// address.
	f := setup(t)
	u, err := proctl.Start(f.ctl, "agent-vax-1", "searcher", map[string]string{"role": "search"})
	if err != nil {
		t.Fatal(err)
	}
	var reply string
	if err := f.ctl.CallContext(context.Background(), u, "q", "one", &reply); err != nil {
		t.Fatal(err)
	}
	if reply != "vax-1:one" {
		t.Errorf("reply = %q", reply)
	}

	newU, err := proctl.Relocate(f.ctl, "agent-vax-1", "agent-sun-1", "searcher", map[string]string{"role": "search"})
	if err != nil {
		t.Fatal(err)
	}
	if newU == u {
		t.Error("relocation should assign a fresh UAdd")
	}

	// Old address, new machine: transparent forwarding (§3.5).
	deadline := time.Now().Add(3 * time.Second)
	var callErr error
	for time.Now().Before(deadline) {
		callErr = f.ctl.CallContext(context.Background(), u, "q", "two", &reply)
		if callErr == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if callErr != nil {
		t.Fatalf("call after relocation: %v", callErr)
	}
	if reply != "sun-1:two" {
		t.Errorf("reply = %q, want it served from sun-1", reply)
	}
}
