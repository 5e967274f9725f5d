// Package monitor is the distributed network monitor of paper §1.3
// (Wang's performance monitor [27]), built on top of the NTCS and used by
// it — the second leg of the §6.1 recursion: "Upon success, the LCM-layer
// sends data to the monitor by calling itself."
//
// A Client batches the LCM's monitoring events and ships them to the
// monitor module with the connectionless protocol under FlagService
// (monitoring of monitoring is disabled, per the paper's guard). The
// Server aggregates per-module, per-kind counters and answers statistics
// queries.
package monitor

import (
	"context"
	"errors"
	"sort"
	"sync"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/lcm"
)

// Message types of the monitor protocol.
const (
	MsgBatch = "drts.monitor.batch"
	MsgStats = "drts.monitor.stats"
)

// Record is one monitored communication event.
type Record struct {
	WhenNanos int64
	Module    string
	Kind      string // "send", "recv"
	Peer      uint64
	Bytes     int64
}

// Batch is the unit shipped to the monitor module.
type Batch struct {
	Records []Record
}

// Stats is the aggregate view the server maintains.
type Stats struct {
	TotalRecords int64
	ByModule     map[string]int64
	ByKind       map[string]int64
	TotalBytes   int64
}

// StatsRequest asks for the current aggregates.
type StatsRequest struct{}

// Server aggregates monitoring records.
type Server struct {
	m *core.Module

	mu       sync.Mutex
	total    int64
	bytes    int64
	byModule map[string]int64
	byKind   map[string]int64
}

// NewServer wraps an attached module as the monitor.
func NewServer(m *core.Module) *Server {
	return &Server{
		m:        m,
		byModule: make(map[string]int64),
		byKind:   make(map[string]int64),
	}
}

// Run serves until the module is torn down.
func (s *Server) Run() { s.m.Serve(s.handle) }

func (s *Server) handle(d *core.Delivery) (string, any, error) {
	switch d.Type {
	case MsgBatch:
		var b Batch
		err := d.Decode(&b)
		if err == nil {
			s.absorb(b)
		}
		// A batch is one-way: sent as a call, it gets ErrBadType's text.
		return "", nil, err
	case MsgStats:
		return MsgStats, s.Snapshot(), nil
	}
	return "", nil, errors.New("monitor: unknown request " + d.Type)
}

func (s *Server) absorb(b Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range b.Records {
		s.total++
		s.bytes += r.Bytes
		s.byModule[r.Module]++
		s.byKind[r.Kind]++
	}
}

// Snapshot returns a copy of the aggregates.
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{
		TotalRecords: s.total,
		TotalBytes:   s.bytes,
		ByModule:     make(map[string]int64, len(s.byModule)),
		ByKind:       make(map[string]int64, len(s.byKind)),
	}
	for k, v := range s.byModule {
		out.ByModule[k] = v
	}
	for k, v := range s.byKind {
		out.ByKind[k] = v
	}
	return out
}

// Modules lists the modules seen, sorted (diagnostics).
func (s *Server) Modules() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.byModule))
	for m := range s.byModule {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Client batches and ships a module's monitoring events. Its Record
// method plugs into core.Module.SetMonitor.
type Client struct {
	m          *core.Module
	serverName string
	batchSize  int

	mu      sync.Mutex
	serverU addr.UAdd
	buf     []Record
	shipped int64
	dropped int64
}

// NewClient creates a client shipping to the named monitor module every
// batchSize events (default 16).
func NewClient(m *core.Module, serverName string, batchSize int) *Client {
	if batchSize <= 0 {
		batchSize = 16
	}
	return &Client{m: m, serverName: serverName, batchSize: batchSize}
}

// Record buffers one event, shipping the batch when full. It is the §6.1
// hook: called by the LCM after every ordinary send, and itself sending
// through the ComMod (guarded by FlagService/connectionless).
func (c *Client) Record(ev lcm.Event) {
	c.mu.Lock()
	c.buf = append(c.buf, Record{
		WhenNanos: ev.When.UnixNano(),
		Module:    c.m.Name(),
		Kind:      ev.Kind,
		Peer:      uint64(ev.Peer),
		Bytes:     int64(ev.Bytes),
	})
	full := len(c.buf) >= c.batchSize
	c.mu.Unlock()
	if full {
		c.Flush()
	}
}

// Flush ships the buffered records, best effort (the connectionless
// protocol: monitoring must never block or recover).
func (c *Client) Flush() {
	c.mu.Lock()
	if len(c.buf) == 0 {
		c.mu.Unlock()
		return
	}
	batch := Batch{Records: c.buf}
	c.buf = nil
	server := c.serverU
	c.mu.Unlock()

	if server == addr.Nil {
		u, err := c.m.Locate(c.serverName)
		if err != nil {
			c.mu.Lock()
			c.dropped += int64(len(batch.Records))
			c.mu.Unlock()
			return
		}
		c.mu.Lock()
		c.serverU = u
		server = u
		c.mu.Unlock()
	}
	if err := c.m.SendMsg(context.TODO(), server, MsgBatch, batch, core.WithConnless); err != nil {
		c.mu.Lock()
		c.dropped += int64(len(batch.Records))
		c.serverU = addr.Nil // relocate next time
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	c.shipped += int64(len(batch.Records))
	c.mu.Unlock()
}

// Shipped returns how many records reached the wire.
func (c *Client) Shipped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shipped
}

// Dropped returns how many records were lost (monitor unreachable).
func (c *Client) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// QueryStats asks a monitor module for its aggregates (any module can).
func QueryStats(m *core.Module, monitorName string) (Stats, error) {
	u, err := m.Locate(monitorName)
	if err != nil {
		return Stats{}, err
	}
	var out Stats
	if err := m.CallContext(context.TODO(), u, MsgStats, StatsRequest{}, &out, core.WithService); err != nil {
		return Stats{}, err
	}
	return out, nil
}
