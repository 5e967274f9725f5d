// Package proctl is the distributed process control service of paper
// §1.2: the DRTS layer that starts, stops and relocates application
// modules across machines — the mechanism behind the URSA testbed
// requirement "to dynamically add, modify, or replace system modules,
// while in operation."
//
// An Agent runs on each host; it starts modules through a Factory the
// application registers (the 1986 equivalent: forking the right binary on
// that machine). A controller — any module — commands agents over
// ordinary NTCS calls: Start, Stop, List, and the composite Relocate that
// drives the §3.5 reconfiguration path end to end.
package proctl

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"ntcs/internal/addr"
	"ntcs/internal/core"
)

// Message types of the process control protocol.
const (
	MsgStart = "drts.proctl.start"
	MsgStop  = "drts.proctl.stop"
	MsgList  = "drts.proctl.list"
)

// StartRequest asks an agent to start a module.
type StartRequest struct {
	Name  string
	Attrs map[string]string
}

// StartReply reports the started module's UAdd.
type StartReply struct {
	UAdd uint64
}

// StopRequest asks an agent to stop a module it runs.
type StopRequest struct {
	Name string
}

// Ack is an empty acknowledgment.
type Ack struct{}

// ListRequest asks for the agent's running modules.
type ListRequest struct{}

// ListReply names the agent's running modules.
type ListReply struct {
	Names []string
}

// Factory starts one application module on the agent's host, including
// whatever serving goroutines it needs, and returns its ComMod.
type Factory func(name string, attrs map[string]string) (*core.Module, error)

// Agent executes process control commands on one host.
type Agent struct {
	m       *core.Module
	factory Factory

	mu      sync.Mutex
	running map[string]*core.Module
}

// NewAgent wraps an attached module as a process control agent.
func NewAgent(m *core.Module, factory Factory) *Agent {
	return &Agent{
		m:       m,
		factory: factory,
		running: make(map[string]*core.Module),
	}
}

// Run serves until the agent's module is torn down.
func (a *Agent) Run() { a.m.Serve(a.handle) }

func (a *Agent) handle(d *core.Delivery) (string, any, error) {
	switch d.Type {
	case MsgStart:
		var req StartRequest
		if err := d.Decode(&req); err != nil {
			return "", nil, err
		}
		u, err := a.start(req)
		return MsgStart, StartReply{UAdd: uint64(u)}, err
	case MsgStop:
		var req StopRequest
		if err := d.Decode(&req); err != nil {
			return "", nil, err
		}
		return MsgStop, Ack{}, a.stop(req.Name)
	case MsgList:
		return MsgList, ListReply{Names: a.Running()}, nil
	}
	return "", nil, errors.New("proctl: unknown request " + d.Type)
}

func (a *Agent) start(req StartRequest) (addr.UAdd, error) {
	a.mu.Lock()
	_, dup := a.running[req.Name]
	a.mu.Unlock()
	if dup {
		return addr.Nil, fmt.Errorf("proctl: %q already running on this host", req.Name)
	}
	mod, err := a.factory(req.Name, req.Attrs)
	if err != nil {
		return addr.Nil, err
	}
	a.mu.Lock()
	a.running[req.Name] = mod
	a.mu.Unlock()
	return mod.UAdd(), nil
}

func (a *Agent) stop(name string) error {
	a.mu.Lock()
	mod, ok := a.running[name]
	delete(a.running, name)
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("proctl: %q is not running on this host", name)
	}
	return mod.Detach()
}

// Running lists the modules this agent runs, sorted.
func (a *Agent) Running() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.running))
	for n := range a.running {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// StopAll detaches everything the agent started (shutdown).
func (a *Agent) StopAll() {
	a.mu.Lock()
	mods := make([]*core.Module, 0, len(a.running))
	for _, m := range a.running {
		mods = append(mods, m)
	}
	a.running = make(map[string]*core.Module)
	a.mu.Unlock()
	for _, m := range mods {
		_ = m.Detach()
	}
}

// Start asks the named agent to start a module; any module can command.
func Start(ctl *core.Module, agentName, name string, attrs map[string]string) (addr.UAdd, error) {
	u, err := ctl.Locate(agentName)
	if err != nil {
		return addr.Nil, err
	}
	var reply StartReply
	if err := ctl.CallContext(context.TODO(), u, MsgStart, StartRequest{Name: name, Attrs: attrs}, &reply, core.WithService); err != nil {
		return addr.Nil, err
	}
	return addr.UAdd(reply.UAdd), nil
}

// Stop asks the named agent to stop a module.
func Stop(ctl *core.Module, agentName, name string) error {
	u, err := ctl.Locate(agentName)
	if err != nil {
		return err
	}
	var ack Ack
	return ctl.CallContext(context.TODO(), u, MsgStop, StopRequest{Name: name}, &ack, core.WithService)
}

// List asks the named agent what it runs.
func List(ctl *core.Module, agentName string) ([]string, error) {
	u, err := ctl.Locate(agentName)
	if err != nil {
		return nil, err
	}
	var reply ListReply
	if err := ctl.CallContext(context.TODO(), u, MsgList, ListRequest{}, &reply, core.WithService); err != nil {
		return nil, err
	}
	return reply.Names, nil
}

// Relocate stops name on fromAgent and starts it on toAgent: the §3.5
// dynamic reconfiguration, driven as the testbed drove it. The new
// incarnation registers under the same logical name, so traffic to the
// old UAdd forwards transparently.
func Relocate(ctl *core.Module, fromAgent, toAgent, name string, attrs map[string]string) (addr.UAdd, error) {
	if err := Stop(ctl, fromAgent, name); err != nil {
		return addr.Nil, fmt.Errorf("relocate %q: stop: %w", name, err)
	}
	u, err := Start(ctl, toAgent, name, attrs)
	if err != nil {
		return addr.Nil, fmt.Errorf("relocate %q: start: %w", name, err)
	}
	return u, nil
}
