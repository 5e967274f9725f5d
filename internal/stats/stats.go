// Package stats is the quantitative side of the paper's §5 monitoring
// service: per-layer counters, gauges and latency histograms for one
// module's ComMod, kept cheap enough to leave on in production.
//
// The registry is deliberately primitive — no labels, no export
// dependencies — because it sits underneath every Nucleus layer,
// including the ones the naming service and the monitor itself are built
// on (the §5 recursion: the monitor observes the very Nucleus that
// carries its reports). Design rules:
//
//   - A nil *Registry is valid: every method no-ops, every instrument it
//     hands out is a nil pointer whose methods no-op. Layers hold their
//     instruments unconditionally.
//   - Instruments are resolved ONCE at layer construction (Counter,
//     Gauge, Histogram are get-or-create by name) and then updated with
//     single atomic operations — the warm send path never touches a map
//     or a lock.
//   - Counters and gauges are always live; they are one atomic add each.
//     Histograms are a separately gated tier (SetHistograms, default
//     off): when off, Observe is one atomic load and a branch, so the
//     hot path is bit-identical to an uninstrumented build.
//
// Snapshot and WriteTo render a consistent-enough view for the ntcsstat
// tool, the daemon's expvar listener, and the chaos reports.
package stats

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready; a nil *Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current count; 0 on a nil counter.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (circuits open, cache entries). A nil
// *Gauge no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set stores the level.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Load returns the current level; 0 on a nil gauge.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram bucket geometry: powers of two from 1µs to ~8.4s, plus an
// overflow bucket. Fixed at compile time so Observe is an index
// computation and one atomic add — no allocation, ever.
const numBuckets = 24

// bucketBound returns the inclusive upper bound of bucket i in
// nanoseconds; the last bucket is unbounded.
func bucketBound(i int) time.Duration {
	return time.Duration(1000 << uint(i)) // 1µs << i
}

// Histogram is a fixed-bucket latency histogram. It records only while
// the owning registry's histogram tier is enabled; a nil *Histogram
// no-ops.
type Histogram struct {
	on      *atomic.Bool // owning registry's histogram gate
	count   atomic.Uint64
	sum     atomic.Int64 // total nanoseconds
	buckets [numBuckets]atomic.Uint64
}

// Observe records one duration. When the histogram tier is off this is
// a single atomic load and a branch.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || !h.on.Load() {
		return
	}
	h.count.Add(1)
	h.sum.Add(int64(d))
	i := 0
	for i < numBuckets-1 && d > bucketBound(i) {
		i++
	}
	h.buckets[i].Add(1)
}

// Enabled reports whether Observe would record: hot paths use it to skip
// the pair of time.Now calls entirely while the tier is off.
func (h *Histogram) Enabled() bool {
	return h != nil && h.on.Load()
}

// Count returns how many observations were recorded.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Registry is one module's instrument set. Create with New; a nil
// *Registry is a valid no-op registry.
type Registry struct {
	module string
	histOn atomic.Bool

	mu     sync.Mutex
	order  []string // registration order, for stable dumps
	ctrs   map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	fns    map[string]func() uint64
}

// New creates an empty registry for the named module. The histogram
// tier starts off.
func New(module string) *Registry {
	return &Registry{
		module: module,
		ctrs:   make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
	}
}

// Module returns the owning module name.
func (r *Registry) Module() string {
	if r == nil {
		return ""
	}
	return r.module
}

// SetHistograms turns the latency-histogram tier on or off. Counters
// and gauges are unaffected.
func (r *Registry) SetHistograms(on bool) {
	if r != nil {
		r.histOn.Store(on)
	}
}

// HistogramsOn reports whether the latency tier records.
func (r *Registry) HistogramsOn() bool {
	return r != nil && r.histOn.Load()
}

// Counter returns the named counter, creating it on first use. On a nil
// registry it returns nil, which is itself a valid no-op counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		r.ctrs[name] = c
		r.order = append(r.order, name)
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
		r.order = append(r.order, name)
	}
	return g
}

// CounterFunc registers a function-backed read-only counter: fn is
// called at Snapshot time and its value reported under name alongside
// the regular counters. It exists for process-global sources — the pack
// plan cache is one compiled-plan table shared by every module, so each
// module's registry surfaces the shared totals by reference instead of
// owning a copy. Re-registering a name replaces the function.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fns == nil {
		r.fns = make(map[string]func() uint64)
	}
	if _, ok := r.fns[name]; !ok {
		r.order = append(r.order, name)
	}
	r.fns[name] = fn
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{on: &r.histOn}
		r.hists[name] = h
		r.order = append(r.order, name)
	}
	return h
}

// HistogramView is the exported state of one histogram.
type HistogramView struct {
	Count    uint64   `json:"count"`
	SumNanos int64    `json:"sum_ns"`
	Buckets  []uint64 `json:"buckets"` // cumulative-free per-bucket counts
}

// Quantile estimates the latency at quantile q (0 < q ≤ 1) by linear
// interpolation within the bucket holding the q-th observation. The
// power-of-two geometry bounds the estimate to within its bucket (≤2x);
// good enough to rank p50/p99/p999 and spot tail regressions.
func (v HistogramView) Quantile(q float64) time.Duration {
	if v.Count == 0 || len(v.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(v.Count)
	var cum float64
	for i, n := range v.Buckets {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo := time.Duration(0)
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			hi := bucketBound(i)
			if i == len(v.Buckets)-1 {
				hi = 2 * lo // overflow bucket: pretend one more doubling
			}
			frac := (rank - cum) / float64(n)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum = next
	}
	return bucketBound(len(v.Buckets) - 1)
}

// Snapshot is a point-in-time copy of every instrument. Individual
// values are each read atomically; the set is not a single consistent
// cut — fine for monitoring, as in the original DRTS monitor.
type Snapshot struct {
	Module     string                   `json:"module"`
	Counters   map[string]uint64        `json:"counters"`
	Gauges     map[string]int64         `json:"gauges"`
	Histograms map[string]HistogramView `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramView{},
	}
	if r == nil {
		return s
	}
	s.Module = r.module
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.ctrs {
		s.Counters[name] = c.Load()
	}
	for name, fn := range r.fns {
		s.Counters[name] = fn()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Load()
	}
	for name, h := range r.hists {
		if h.count.Load() == 0 {
			continue
		}
		v := HistogramView{Count: h.count.Load(), SumNanos: h.sum.Load(), Buckets: make([]uint64, numBuckets)}
		for i := range h.buckets {
			v.Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms[name] = v
	}
	return s
}

// Sub returns the counter-wise difference s - prev, dropping zero
// deltas: the per-episode accounting the chaos reports print.
func (s Snapshot) Sub(prev Snapshot) map[string]uint64 {
	out := make(map[string]uint64)
	for name, v := range s.Counters {
		if d := v - prev.Counters[name]; d != 0 {
			out[name] = d
		}
	}
	return out
}

// WriteTo renders the registry as a sorted text dump, one instrument
// per line, and reports the bytes written.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	return writeSnapshot(w, r.Snapshot())
}

// WriteSnapshot renders a snapshot in the same text format WriteTo uses,
// so the daemon's /stats endpoint and the ntcsstat tool print byte-identical
// dumps whether they hold a live registry or a decoded snapshot.
func WriteSnapshot(w io.Writer, s Snapshot) (int64, error) {
	return writeSnapshot(w, s)
}

func writeSnapshot(w io.Writer, s Snapshot) (int64, error) {
	var total int64
	emit := func(format string, args ...any) error {
		n, err := fmt.Fprintf(w, format, args...)
		total += int64(n)
		return err
	}
	if err := emit("module %s\n", s.Module); err != nil {
		return total, err
	}
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := emit("counter %-36s %d\n", name, s.Counters[name]); err != nil {
			return total, err
		}
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := emit("gauge   %-36s %d\n", name, s.Gauges[name]); err != nil {
			return total, err
		}
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		mean := time.Duration(0)
		if h.Count > 0 {
			mean = time.Duration(h.SumNanos / int64(h.Count))
		}
		if err := emit("hist    %-36s count=%d mean=%v\n", name, h.Count, mean); err != nil {
			return total, err
		}
		for i, n := range h.Buckets {
			if n == 0 {
				continue
			}
			bound := "+inf"
			if i < numBuckets-1 {
				bound = bucketBound(i).String()
			}
			if err := emit("          le=%-10s %d\n", bound, n); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// Instrument names. Each layer registers under "<layer>.<event>"; the
// DESIGN.md Observability table documents the full set. Declared here so
// tests and tools never drift from the layers.
const (
	// ND-Layer
	NDFramesIn    = "nd.frames_in"
	NDFramesOut   = "nd.frames_out"
	NDBytesIn     = "nd.bytes_in"
	NDBytesOut    = "nd.bytes_out"
	NDRedials     = "nd.redials"
	NDCircuitsUp  = "nd.circuits_up" // gauge
	NDCircuitDown = "nd.circuit_down"
	// Group-commit coalescing: batches actually coalesced (≥2 frames in
	// one vectored write) and the frames they carried; frames_per_batch ÷
	// batches is the mean coalescing factor under load.
	NDBatches        = "nd.batches"
	NDFramesPerBatch = "nd.frames_per_batch"

	// IP-Layer
	IPRelays       = "ip.relays"
	IPCutThrough   = "ip.cutthrough" // relayed frames forwarded by in-place patch, no re-marshal
	IPHops         = "ip.hops"       // cumulative hop count of relayed frames
	IPFailovers    = "ip.gateway_failovers"
	IPRouteMisses  = "ip.route_misses"
	IPCircuitsOpen = "ip.ivcs_open" // gauge

	// LCM-Layer
	LCMSends         = "lcm.sends"
	LCMCalls         = "lcm.calls"
	LCMReplies       = "lcm.replies"
	LCMRetries       = "lcm.retries"
	LCMAddressFaults = "lcm.address_faults"
	LCMDestHits      = "lcm.destcache_hits"
	LCMDestMisses    = "lcm.destcache_misses"
	LCMInboxDepth    = "lcm.inbox_depth"  // gauge
	LCMSendLatency   = "lcm.send_latency" // histogram
	LCMCallLatency   = "lcm.call_latency" // histogram

	// NSP-Layer
	NSPQueries        = "nsp.queries"
	NSPRotations      = "nsp.replica_rotations"
	NSPFailures       = "nsp.query_failures"
	NSPCacheHits      = "nsp.cache.hits"
	NSPCacheMisses    = "nsp.cache.misses"
	NSPCacheEvictions = "nsp.cache.evictions"

	// Shard routing (metered at the NSP client, where routing happens)
	NSShardRouted     = "ns.shard.routed"     // requests routed to a single owning shard
	NSShardFanouts    = "ns.shard.fanouts"    // attribute queries fanned out to every shard
	NSShardBroadcasts = "ns.shard.broadcasts" // well-known writes pushed to every shard
	NSShardPartials   = "ns.shard.partials"   // fan-outs that lost at least one shard

	// Name Server module
	NSOps          = "ns.ops"
	NSReplRounds   = "ns.replication_rounds"
	NSReplRecs     = "ns.replicated_records"
	NSReplStale    = "ns.replication_stale" // pushes dropped by the incarnation merge
	NSAERounds     = "ns.antientropy.rounds"
	NSAEPulled     = "ns.antientropy.pulled"
	NSAEPushed     = "ns.antientropy.pushed"
	NSHandlerWaits = "ns.handler_waits" // requests that waited for a handler slot
	NSTombstones   = "ns.tombstones"    // gauge: dead records retained
	NSTombstonesGC = "ns.tombstones_gc"

	// retry budgets (suffixed with the budget name by the retry package)
	RetryAttempts = "retry.attempts"
	RetryGiveUps  = "retry.giveups"

	// spans
	SpansStarted = "span.started"

	// Packed-codec plan cache (process-global; surfaced per module via
	// CounterFunc so ntcsstat shows compilation and reuse rates)
	PackCompiles = "pack.compiles"
	PackPlanHits = "pack.plan_hits"

	// ND-Layer flow control: credit-gated senders that had to wait, sends
	// that failed with a BackpressureError, relayed frames a gateway
	// dropped for want of downstream credit, and NACKs seen from the peer.
	NDBackpressureWaits   = "nd.backpressure.waits"
	NDBackpressureErrors  = "nd.backpressure.errors"
	NDBackpressureDrops   = "nd.backpressure.drops"
	NDBackpressureNacksIn = "nd.backpressure.nacks_in"
	// NDNacks counts overrun NACKs this side sent (receiver role).
	NDNacks = "nd.nacks"

	// IPCS queue drains (process-global; surfaced per module via
	// CounterFunc): drains started by memnet pipes and ND send queues
	// going busy (wakeups equals dispatches), and memnet timer rounds.
	IPCSPollerWakeups    = "ipcs.poller.wakeups"
	IPCSPollerDispatches = "ipcs.poller.dispatches"
	IPCSPollerPolls      = "ipcs.poller.polls"
	// IPCSPollerFullBatches names a counter no module registers any
	// more (no substrate has an event buffer to fill); it stays only
	// while the benchmark adapter reads it.
	IPCSPollerFullBatches = "ipcs.poller.full_batches"
)
