// Package errnet distributes the running error tables of §6.3: each
// module's Publisher periodically ships its errlog.Table counters to a
// Collector module, so the relentless exception handling the paper warns
// about ("the better the system is at it, the less one may know about how
// it is actually running") stays observable fleet-wide.
package errnet

import (
	"context"
	"errors"
	"sort"
	"sync"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/drts/errlog"
)

// Message types of the error-log collection protocol.
const (
	MsgReport = "drts.errlog.report"
	MsgQuery  = "drts.errlog.query"
)

// Report is one module's error-table summary, shipped periodically.
type Report struct {
	Module string
	Counts map[string]int64
}

// QueryRequest asks the collector for the fleet-wide view.
type QueryRequest struct{}

// FleetView is the collector's aggregate: per-module, per-code counters.
type FleetView struct {
	Modules map[string]map[string]int64
}

// Collector aggregates error tables from across the system — the
// monitored "running table of errors" of §6.3, system-wide.
type Collector struct {
	m *core.Module

	mu      sync.Mutex
	modules map[string]map[string]int64
}

// NewCollector wraps an attached module as the error-log collector.
func NewCollector(m *core.Module) *Collector {
	return &Collector{m: m, modules: make(map[string]map[string]int64)}
}

// Run serves until the module is torn down.
func (c *Collector) Run() { c.m.Serve(c.handle) }

func (c *Collector) handle(d *core.Delivery) (string, any, error) {
	switch d.Type {
	case MsgReport:
		var rep Report
		err := d.Decode(&rep)
		if err == nil {
			c.absorb(rep)
		}
		// A report is one-way: sent as a call, it gets ErrBadType's text.
		return "", nil, err
	case MsgQuery:
		return MsgQuery, c.Fleet(), nil
	}
	return "", nil, errors.New("errnet: unknown request " + d.Type)
}

func (c *Collector) absorb(rep Report) {
	if rep.Module == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	// Reports carry absolute counters; the latest wins.
	counts := make(map[string]int64, len(rep.Counts))
	for k, v := range rep.Counts {
		counts[k] = v
	}
	c.modules[rep.Module] = counts
}

// Fleet returns the aggregate view.
func (c *Collector) Fleet() FleetView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := FleetView{Modules: make(map[string]map[string]int64, len(c.modules))}
	for mod, counts := range c.modules {
		cp := make(map[string]int64, len(counts))
		for k, v := range counts {
			cp[k] = v
		}
		out.Modules[mod] = cp
	}
	return out
}

// ModuleNames lists reporting modules, sorted.
func (c *Collector) ModuleNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.modules))
	for m := range c.modules {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Publisher periodically ships a module's error table to the collector,
// with the connectionless protocol (reporting must never recover, block,
// or recurse through itself — FlagService keeps the hooks off).
type Publisher struct {
	m             *core.Module
	table         *errlog.Table
	collectorName string
	interval      time.Duration

	mu        sync.Mutex
	collector addr.UAdd

	stop chan struct{}
	done chan struct{}
}

// NewPublisher creates a publisher for the module's table, shipping every
// interval (default 100ms).
func NewPublisher(m *core.Module, table *errlog.Table, collectorName string, interval time.Duration) *Publisher {
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	return &Publisher{
		m: m, table: table, collectorName: collectorName, interval: interval,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
}

// Start begins periodic publication; Stop ends it.
func (p *Publisher) Start() {
	go func() {
		defer close(p.done)
		ticker := time.NewTicker(p.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				p.PublishOnce()
			case <-p.stop:
				return
			}
		}
	}()
}

// Stop halts publication and waits for the loop to exit.
func (p *Publisher) Stop() {
	close(p.stop)
	<-p.done
}

// PublishOnce ships the current table, best effort.
func (p *Publisher) PublishOnce() {
	counts := p.table.Counts()
	rep := Report{Module: p.m.Name(), Counts: make(map[string]int64, len(counts))}
	for code, n := range counts {
		rep.Counts[string(code)] = int64(n)
	}
	p.mu.Lock()
	dst := p.collector
	p.mu.Unlock()
	if dst == addr.Nil {
		u, err := p.m.Locate(p.collectorName)
		if err != nil {
			return
		}
		p.mu.Lock()
		p.collector = u
		dst = u
		p.mu.Unlock()
	}
	if err := p.m.SendMsg(context.TODO(), dst, MsgReport, rep, core.WithConnless); err != nil {
		p.mu.Lock()
		p.collector = addr.Nil // re-locate next round
		p.mu.Unlock()
	}
}

// QueryFleet asks a collector for the fleet-wide error view.
func QueryFleet(m *core.Module, collectorName string) (FleetView, error) {
	u, err := m.Locate(collectorName)
	if err != nil {
		return FleetView{}, err
	}
	var out FleetView
	if err := m.CallContext(context.TODO(), u, MsgQuery, QueryRequest{}, &out, core.WithService); err != nil {
		return FleetView{}, err
	}
	return out, nil
}
