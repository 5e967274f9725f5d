package sim

import (
	"context"
	"math/rand"
	"sort"
	"sync"
	"time"

	"ntcs/internal/core"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/retry"
	"ntcs/internal/stats"
)

// ChaosEvent is one scheduled fault action.
type ChaosEvent struct {
	// At is the offset from the start of Run.
	At time.Duration
	// Name labels the event in the run log.
	Name string
	// Do performs the fault (or the heal).
	Do func()
}

// ChaosRecord is one fired event in the run log.
type ChaosRecord struct {
	Name    string
	Planned time.Duration // scheduled offset
	Fired   time.Duration // actual offset from Run start
	// Delta holds the nonzero world-wide counter movements since the
	// previous event fired (or since Run started, for the first event).
	// Nil unless ObserveStats installed a snapshot source.
	Delta map[string]uint64
}

// Chaos is the failure-injection side of the testbed: a deterministic
// schedule of network degradations (loss, latency, partitions) and module
// crashes, played back against a running World. The 1986 project proved
// its recovery paths by literally unplugging Apollo ring nodes; Chaos is
// that cable-pull with a fixed seed, so a failing soak reproduces.
//
// Build the schedule with the episode helpers (or Schedule for arbitrary
// actions), optionally Perturb the offsets from the seed, then Run it. A
// Chaos is single-use.
type Chaos struct {
	rng *rand.Rand

	mu      sync.Mutex
	events  []ChaosEvent
	log     []ChaosRecord
	observe func() stats.Snapshot
}

// NewChaos creates an empty schedule. The seed drives Perturb; two Chaos
// instances with the same seed and the same build sequence fire the same
// schedule.
func NewChaos(seed int64) *Chaos {
	if seed == 0 {
		seed = 1
	}
	return &Chaos{rng: rand.New(rand.NewSource(seed))}
}

// ObserveStats installs a snapshot source — typically World.StatsTotals —
// so every fired event records the counter deltas of the episode that
// preceded it: which retries, failovers and rotations each fault bought.
func (c *Chaos) ObserveStats(fn func() stats.Snapshot) *Chaos {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.observe = fn
	return c
}

// Schedule adds an arbitrary event.
func (c *Chaos) Schedule(at time.Duration, name string, do func()) *Chaos {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ChaosEvent{At: at, Name: name, Do: do})
	return c
}

// LossEpisode drops each message on n with probability p from at until
// at+dur, then restores the network's configured loss.
func (c *Chaos) LossEpisode(n *memnet.Net, at, dur time.Duration, p float64) *Chaos {
	c.Schedule(at, "loss "+n.ID(), func() { n.SetLossProb(p) })
	c.Schedule(at+dur, "heal-loss "+n.ID(), func() { n.SetLossProb(0) })
	return c
}

// LatencyEpisode degrades n's delivery delay from at until at+dur.
func (c *Chaos) LatencyEpisode(n *memnet.Net, at, dur, latency, jitter time.Duration) *Chaos {
	c.Schedule(at, "latency "+n.ID(), func() {
		n.SetLatency(latency)
		n.SetJitter(jitter)
	})
	c.Schedule(at+dur, "heal-latency "+n.ID(), func() {
		n.SetLatency(0)
		n.SetJitter(0)
	})
	return c
}

// Partition isolates one endpoint of n (existing connections break, new
// dials fail) from at until at+dur.
func (c *Chaos) Partition(n *memnet.Net, physAddr string, at, dur time.Duration) *Chaos {
	c.Schedule(at, "partition "+physAddr, func() { n.Isolate(physAddr, true) })
	c.Schedule(at+dur, "heal-partition "+physAddr, func() { n.Isolate(physAddr, false) })
	return c
}

// KillModule crashes m abruptly at the given offset: no deregistration,
// its naming record stays alive — peers must discover the death.
func (c *Chaos) KillModule(at time.Duration, name string, m *core.Module) *Chaos {
	return c.Schedule(at, "kill "+name, m.Kill)
}

// KillShard crashes an entire name-server shard group at the given
// offset: every replica dies at once, so resolution of names owned by
// the shard fails while names on other shards keep resolving — the
// graceful-degradation contract of the partitioned namespace.
func (c *Chaos) KillShard(at time.Duration, name string, servers ...*core.Module) *Chaos {
	return c.Schedule(at, "kill-shard "+name, func() {
		for _, m := range servers {
			m.Kill()
		}
	})
}

// SlowLorisEpisode turns the endpoint at physAddr on n into a slow-loris
// receiver from at until at+dur (memnet.Net.Hold): it keeps consuming,
// but its credit grants stop arriving, so every peer sending to it feels
// backpressure at the source — a cable pull where nothing breaks but
// nothing drains. Healing releases the held frames in order.
func (c *Chaos) SlowLorisEpisode(n *memnet.Net, physAddr string, at, dur time.Duration) *Chaos {
	c.Schedule(at, "slow-loris "+physAddr, func() { n.Hold(physAddr, true) })
	c.Schedule(at+dur, "heal-slow-loris "+physAddr, func() { n.Hold(physAddr, false) })
	return c
}

// Perturb shifts every scheduled offset by a seeded uniform amount in
// [-maxSkew, +maxSkew] (clamped at zero): the same seed always produces
// the same perturbation, so randomized schedules stay reproducible.
func (c *Chaos) Perturb(maxSkew time.Duration) *Chaos {
	if maxSkew <= 0 {
		return c
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.events {
		skew := time.Duration(c.rng.Int63n(int64(2*maxSkew))) - maxSkew
		if at := c.events[i].At + skew; at > 0 {
			c.events[i].At = at
		} else {
			c.events[i].At = 0
		}
	}
	return c
}

// Run plays the schedule: events fire in offset order (ties in insertion
// order) relative to the moment Run is called. Run blocks until the last
// event has fired or ctx is done, and returns the log of what fired.
func (c *Chaos) Run(ctx context.Context) []ChaosRecord {
	c.mu.Lock()
	events := make([]ChaosEvent, len(c.events))
	copy(events, c.events)
	observe := c.observe
	c.mu.Unlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })

	var prev stats.Snapshot
	if observe != nil {
		prev = observe()
	}
	start := time.Now()
	for _, ev := range events {
		if err := retry.Wait(ctx, nil, ev.At-time.Since(start)); err != nil {
			break
		}
		ev.Do()
		rec := ChaosRecord{Name: ev.Name, Planned: ev.At, Fired: time.Since(start)}
		if observe != nil {
			cur := observe()
			rec.Delta = cur.Sub(prev)
			prev = cur
		}
		c.mu.Lock()
		c.log = append(c.log, rec)
		c.mu.Unlock()
	}
	return c.Log()
}

// Log returns the events fired so far.
func (c *Chaos) Log() []ChaosRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ChaosRecord, len(c.log))
	copy(out, c.log)
	return out
}

// Duration reports the offset of the last scheduled event.
func (c *Chaos) Duration() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	var max time.Duration
	for _, ev := range c.events {
		if ev.At > max {
			max = ev.At
		}
	}
	return max
}
