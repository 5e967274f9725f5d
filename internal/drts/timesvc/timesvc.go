// Package timesvc is the distributed "precision time corrector" of paper
// §1.3, built — like every DRTS service — on top of the NTCS it serves:
// "a distributed network monitor and precision time corrector have been
// developed ... on top of the NTCS. Since the NTCS itself utilizes both
// of these services, recursive operation ... is observed."
//
// A Server is an ordinary NTCS module answering time requests. A
// Corrector estimates the local clock's offset against it (Cristian's
// round-trip halving) and serves as the LCM-Layer's time hook; when its
// estimate is stale, asking it for the time makes it communicate through
// the very ComMod that asked — the §6.1 recursion. Its own messages carry
// FlagService, so they do not re-trigger the hooks (the guard the paper
// describes: "time correction and monitoring are disabled here, to avoid
// the obvious infinite recursion").
package timesvc

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
)

// MsgTime is the time request/reply message type.
const MsgTime = "drts.time"

// Reply carries the server's clock reading.
type Reply struct {
	ServerNanos int64
}

// Server answers time requests, optionally with a simulated clock skew
// (so correction is observable on a single laptop).
type Server struct {
	m    *core.Module
	skew time.Duration
}

// NewServer wraps an attached module as a time server.
func NewServer(m *core.Module, skew time.Duration) *Server {
	return &Server{m: m, skew: skew}
}

// Run serves until the module is torn down.
func (s *Server) Run() { s.m.Serve(s.handle) }

func (s *Server) handle(d *core.Delivery) (string, any, error) {
	if d.Type != MsgTime {
		return "", nil, errors.New("timesvc: unknown request " + d.Type)
	}
	return MsgTime, Reply{ServerNanos: time.Now().Add(s.skew).UnixNano()}, nil
}

// Corrector estimates and applies the clock offset. Its Now method plugs
// into core.Module.SetClock.
type Corrector struct {
	m          *core.Module
	serverName string
	maxAge     time.Duration

	mu       sync.Mutex
	serverU  addr.UAdd
	offset   time.Duration
	syncedAt time.Time

	syncs    atomic.Int64
	failures atomic.Int64
}

// NewCorrector creates a corrector that re-synchronizes against the named
// time server whenever its estimate is older than maxAge (default 1s).
func NewCorrector(m *core.Module, serverName string, maxAge time.Duration) *Corrector {
	if maxAge <= 0 {
		maxAge = time.Second
	}
	return &Corrector{m: m, serverName: serverName, maxAge: maxAge}
}

// Now returns the corrected time, synchronizing first if the estimate is
// stale — the recursive call of §6.1: "A distributed time primitive is
// called, which may recursively call on the ComMod to communicate with
// its support module."
func (c *Corrector) Now() time.Time {
	c.mu.Lock()
	fresh := !c.syncedAt.IsZero() && time.Since(c.syncedAt) < c.maxAge
	offset := c.offset
	c.mu.Unlock()
	if !fresh {
		if err := c.Sync(); err != nil {
			// Degrade to the uncorrected clock; the failure is counted.
			c.failures.Add(1)
			return time.Now()
		}
		c.mu.Lock()
		offset = c.offset
		c.mu.Unlock()
	}
	return time.Now().Add(offset)
}

// Sync performs one Cristian exchange: offset ≈ serverTime + rtt/2 − now.
func (c *Corrector) Sync() error {
	c.mu.Lock()
	server := c.serverU
	c.mu.Unlock()
	if server == addr.Nil {
		// "If this is the first such communication, it will call the
		// resource location primitives to locate the module, invoking the
		// ComMod recursively again." (§6.1)
		u, err := c.m.Locate(c.serverName)
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.serverU = u
		server = u
		c.mu.Unlock()
	}

	t0 := time.Now()
	var reply Reply
	if err := c.m.CallContext(context.TODO(), server, MsgTime, Reply{}, &reply, core.WithService); err != nil {
		// The server may have relocated; drop the cached address so the
		// next sync re-locates.
		c.mu.Lock()
		c.serverU = addr.Nil
		c.mu.Unlock()
		return err
	}
	t1 := time.Now()
	rtt := t1.Sub(t0)
	serverTime := time.Unix(0, reply.ServerNanos).Add(rtt / 2)

	c.mu.Lock()
	c.offset = serverTime.Sub(t1)
	c.syncedAt = t1
	c.mu.Unlock()
	c.syncs.Add(1)
	return nil
}

// Offset returns the current estimate.
func (c *Corrector) Offset() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.offset
}

// Syncs returns how many successful synchronizations have run (the
// recursion counter the §6.1 test asserts on).
func (c *Corrector) Syncs() int64 { return c.syncs.Load() }

// Failures returns how many syncs degraded to the local clock.
func (c *Corrector) Failures() int64 { return c.failures.Load() }
