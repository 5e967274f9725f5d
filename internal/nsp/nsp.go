// Package nsp implements the Name Service Protocol Layer of paper §2.4:
// "the single naming service access point for all layers within the
// ComMod. Its purpose is to fully isolate the ComMod from the naming
// service implementation."
//
// The NSP-Layer is a client of the Name Server module over the Nucleus
// itself — the recursion of §3.1: "The NSP-layers talk across multiple
// networks in the identical manner as application modules do." Every
// request is an ordinary synchronous call carrying FlagService (so the
// monitoring/time hooks of §6.1 do not recurse through it) in packed mode
// (control data travels packed, §5.2).
//
// It implements all three narrow views the Nucleus layers need —
// ndlayer.Resolver, iplayer.Directory and lcm.Resolver — so a single
// SetNaming call wires the recursion.
package nsp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/iplayer"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
	"ntcs/internal/pack"
	"ntcs/internal/retry"
	"ntcs/internal/stats"
	"ntcs/internal/trace"
	"ntcs/internal/wire"
)

// Op codes of the naming service protocol.
const (
	OpRegister   = "register"
	OpAnnounce   = "announce" // post-registration confirmation (purges TAdds, §3.4)
	OpDeregister = "deregister"
	OpResolve    = "resolve"
	OpLookup     = "lookup"
	OpForward    = "forward"
	OpQuery      = "query"
	OpReplicate  = "replicate" // server-to-server write propagation
	OpDigest     = "digest"    // server-to-server anti-entropy exchange
)

// Result codes carried in responses.
const (
	CodeOK            = ""
	CodeNotFound      = "not-found"
	CodeStillAlive    = "still-alive"
	CodeNoReplacement = "no-replacement"
	CodeBadRequest    = "bad-request"
)

// EndpointRec is the wire form of a physical endpoint, kept
// "uninterpreted" by the naming service (§3.2).
type EndpointRec struct {
	Network string
	Addr    string
	Machine uint8
}

// RecordRec is the wire form of a naming record.
type RecordRec struct {
	Name        string
	Attrs       map[string]string
	UAdd        uint64
	Endpoints   []EndpointRec
	Incarnation uint64
	Alive       bool
	// Registered carries the origin server's registration stamp (unix
	// nanoseconds) so replicas agree on record age. Zero means "stamp
	// locally" — the pre-PR-7 wire form, still accepted.
	Registered int64
	// Died carries the origin's death stamp (unix nanoseconds, zero when
	// alive or from an old peer), so tombstone windows do not restart on
	// every replica a death notice reaches.
	Died int64
}

// DigestRec is one record's identity in an anti-entropy digest: enough
// to decide which side holds the newer version without shipping the
// record itself.
type DigestRec struct {
	UAdd        uint64
	Incarnation uint64
	Alive       bool
}

// Request is a naming service request.
type Request struct {
	Op        string
	Name      string
	Attrs     map[string]string
	UAdd      uint64
	Endpoints []EndpointRec
	Record    RecordRec   // replication payload (single record)
	Records   []RecordRec // batched replication payload (coalesced writes)
	// Anti-entropy page (OpDigest): the requester's records with UAdds in
	// [From, To], identified by incarnation.
	Digest []DigestRec
	From   uint64
	To     uint64
}

// Response is a naming service response.
type Response struct {
	Code    string
	Detail  string
	UAdd    uint64
	Records []RecordRec
	// Want lists UAdds the digest peer holds older versions of (or lacks
	// entirely); the requester pushes them back in one replication round.
	Want []uint64
	// To is the UAdd bound the digest peer actually covered (it may stop
	// short of the requested range to bound the response); the requester
	// resumes its next page after it.
	To uint64
}

// ToEndpoint converts the wire form back to an addr.Endpoint.
func (e EndpointRec) ToEndpoint() addr.Endpoint {
	return addr.Endpoint{Network: e.Network, Addr: e.Addr, Machine: machine.Type(e.Machine)}
}

// FromEndpoint converts an addr.Endpoint to wire form.
func FromEndpoint(ep addr.Endpoint) EndpointRec {
	return EndpointRec{Network: ep.Network, Addr: ep.Addr, Machine: uint8(ep.Machine)}
}

// Record is the NSP-visible naming record.
type Record struct {
	Name        string
	Attrs       map[string]string
	UAdd        addr.UAdd
	Endpoints   []addr.Endpoint
	Incarnation uint64
	Alive       bool
	Registered  time.Time
}

func fromRec(r RecordRec) Record {
	out := Record{
		Name:        r.Name,
		Attrs:       r.Attrs,
		UAdd:        addr.UAdd(r.UAdd),
		Incarnation: r.Incarnation,
		Alive:       r.Alive,
	}
	if r.Registered != 0 {
		out.Registered = time.Unix(0, r.Registered)
	}
	for _, e := range r.Endpoints {
		out.Endpoints = append(out.Endpoints, e.ToEndpoint())
	}
	return out
}

// Errors returned by the NSP-Layer.
var (
	ErrNotFound    = errors.New("nsp: no such name or address")
	ErrUnavailable = errors.New("nsp: naming service unreachable")
	ErrProtocol    = errors.New("nsp: malformed naming service response")
)

// Config assembles a Layer.
type Config struct {
	// LCM carries the protocol (the §3.1 recursion).
	LCM *lcm.Layer
	// WellKnown lists the Name Server addresses in preference order.
	WellKnown addr.WellKnown
	// Tracer receives diagnostics; may be nil.
	Tracer *trace.Tracer
	// Stats receives the layer's counters; nil disables metering.
	Stats *stats.Registry
	// RecordTTL leases resolved naming records this long: within the
	// lease, Resolve/Lookup answer from the local cache without a naming
	// exchange. Zero disables the cache (the pre-lease behavior: every
	// resolution is a round trip); stale leases self-heal through the
	// §3.5 forwarding path and are explicitly invalidated on relocation
	// and deregistration.
	RecordTTL time.Duration
	// RecordCacheSize bounds the lease cache (entries); default 4096.
	RecordCacheSize int
}

// failoverPolicy bounds the rounds of replica rotation when no configured
// Name Server answers: each round walks every replica starting from the
// last one that answered, then backs off.
var failoverPolicy = retry.Policy{
	Attempts:   2,
	BaseDelay:  50 * time.Millisecond,
	MaxDelay:   time.Second,
	Multiplier: 2,
	Jitter:     0.25,
}

// recEntry is one leased naming record.
type recEntry struct {
	rec     Record
	expires time.Time
}

// Layer is the NSP-Layer: one per ComMod.
type Layer struct {
	cfg      Config
	failover retry.Policy // failoverPolicy, metered

	// Shard map, frozen at construction from the well-known preload: the
	// server groups, the name→shard hash, and the generator-ID routing
	// for UAdd-keyed requests.
	numShards int
	groups    [][]addr.UAdd

	mu        sync.Mutex
	gwCache   []iplayer.GatewayInfo
	gwFetched time.Time
	// preferred is, per shard group, the index (into the group's server
	// list) of the last replica that answered: rotation is sticky, so
	// after a primary dies every later request goes straight to the live
	// replica instead of re-paying the dead primary's timeout.
	preferred []int

	// Lease cache (RecordTTL > 0): one entry per record, indexed both
	// ways. Guarded by recMu, off the gateway-cache lock.
	recMu     sync.Mutex
	recByName map[string]*recEntry
	recByU    map[addr.UAdd]*recEntry

	// Instruments, resolved once at construction; nil pointers no-op.
	queries         *stats.Counter
	rotations       *stats.Counter
	failures        *stats.Counter
	cacheHits       *stats.Counter
	cacheMisses     *stats.Counter
	cacheEvictions  *stats.Counter
	shardRouted     *stats.Counter
	shardFanouts    *stats.Counter
	shardBroadcasts *stats.Counter
	shardPartials   *stats.Counter
}

// New assembles the layer.
func New(cfg Config) (*Layer, error) {
	if cfg.LCM == nil {
		return nil, errors.New("nsp: LCM is required")
	}
	if cfg.RecordCacheSize <= 0 {
		cfg.RecordCacheSize = 4096
	}
	failover := failoverPolicy
	failover.Retries = cfg.Stats.Counter(stats.RetryAttempts + ".nsp")
	failover.GiveUps = cfg.Stats.Counter(stats.RetryGiveUps + ".nsp")
	// Compile the name-protocol conversion plans up front: the first real
	// lookup is often on a Send/Call critical path.
	if err := pack.Precompile(Request{}, Response{}, RecordRec{}, EndpointRec{}, DigestRec{}); err != nil {
		return nil, fmt.Errorf("nsp: precompile: %w", err)
	}
	l := &Layer{
		cfg:             cfg,
		failover:        failover,
		numShards:       cfg.WellKnown.NumShards(),
		queries:         cfg.Stats.Counter(stats.NSPQueries),
		rotations:       cfg.Stats.Counter(stats.NSPRotations),
		failures:        cfg.Stats.Counter(stats.NSPFailures),
		cacheHits:       cfg.Stats.Counter(stats.NSPCacheHits),
		cacheMisses:     cfg.Stats.Counter(stats.NSPCacheMisses),
		cacheEvictions:  cfg.Stats.Counter(stats.NSPCacheEvictions),
		shardRouted:     cfg.Stats.Counter(stats.NSShardRouted),
		shardFanouts:    cfg.Stats.Counter(stats.NSShardFanouts),
		shardBroadcasts: cfg.Stats.Counter(stats.NSShardBroadcasts),
		shardPartials:   cfg.Stats.Counter(stats.NSShardPartials),
	}
	l.groups = make([][]addr.UAdd, l.numShards)
	for i := range l.groups {
		l.groups[i] = cfg.WellKnown.ShardServers(i)
	}
	l.preferred = make([]int, l.numShards)
	if cfg.RecordTTL > 0 {
		l.recByName = make(map[string]*recEntry)
		l.recByU = make(map[addr.UAdd]*recEntry)
	}
	return l, nil
}

// call performs one naming service exchange, failing over across the
// configured Name Server replicas.
func (l *Layer) call(req Request) (Response, error) {
	return l.callContext(context.Background(), req)
}

// callContext is call honoring ctx: the deadline/cancellation propagates
// into each underlying LCM call, and replica failover stops once the
// context is done.
func (l *Layer) callContext(ctx context.Context, req Request) (resp Response, err error) {
	l.queries.Inc()
	// The span opens here, at the top of the naming exchange, and rides the
	// LCM call down through IP and ND — the full recursion under one ID.
	span := l.cfg.LCM.NewSpan()
	exit := l.cfg.Tracer.Enter(trace.LayerNSP, req.Op, "naming service request", "below/above")
	l.cfg.Tracer.Span(span, trace.LayerNSP, req.Op, req.Name)
	defer func() { exit(err) }()
	resp, err = l.callServers(ctx, span, req)
	if err != nil {
		l.failures.Inc()
	}
	return resp, err
}

// allShards marks a request no single shard owns: the legacy rotation
// across every configured server.
const allShards = -1

// routeShard picks the shard group that owns a request. The second
// result marks a broadcast write: a well-known module's registration or
// death must land on every shard group, because every group preloads and
// serves the well-known records (prime gateways, the servers themselves).
func (l *Layer) routeShard(req Request) (shard int, broadcast bool) {
	if l.numShards <= 1 {
		return 0, false
	}
	u := addr.UAdd(req.UAdd)
	switch req.Op {
	case OpRegister:
		if u.IsWellKnown() {
			return l.cfg.WellKnown.ShardForName(req.Name), true
		}
		return l.cfg.WellKnown.ShardForName(req.Name), false
	case OpResolve:
		return l.cfg.WellKnown.ShardForName(req.Name), false
	case OpDeregister:
		if u.IsWellKnown() {
			return int(uint64(u) % uint64(l.numShards)), true
		}
		return l.shardForUAdd(u), false
	case OpLookup, OpForward, OpAnnounce:
		return l.shardForUAdd(u), false
	default:
		// OpQuery fans out before reaching here; anything unknown walks
		// every server, the pre-shard behavior.
		return allShards, false
	}
}

// shardForUAdd routes a UAdd-keyed request: dynamically assigned UAdds
// carry their generator's identifier, which the shard map resolves to
// the owning group. Well-known UAdds are broadcast-registered, so any
// deterministic group holds them; unknown generators fall back to the
// full rotation.
func (l *Layer) shardForUAdd(u addr.UAdd) int {
	if u.IsWellKnown() {
		return int(uint64(u) % uint64(l.numShards))
	}
	if shard, ok := l.cfg.WellKnown.ShardForServerID(u.ServerID()); ok {
		return shard
	}
	return allShards
}

func (l *Layer) callServers(ctx context.Context, span uint32, req Request) (Response, error) {
	if l.numShards > 1 && req.Op == OpQuery {
		return l.callFanout(ctx, span, req)
	}
	shard, broadcast := l.routeShard(req)
	if broadcast {
		return l.callBroadcast(ctx, span, req, shard)
	}
	if l.numShards > 1 && shard != allShards {
		l.shardRouted.Inc()
	}
	return l.callGroup(ctx, span, req, shard)
}

// serversFor returns the candidate list and the preferred-slot index for
// one shard (allShards = every configured server, preference order).
func (l *Layer) serversFor(shard int) []addr.UAdd {
	if shard == allShards || shard >= len(l.groups) {
		return l.cfg.WellKnown.NameServerUAdds()
	}
	return l.groups[shard]
}

// callGroup performs one naming exchange against a shard group, rotating
// through its replicas from the sticky preferred one.
func (l *Layer) callGroup(ctx context.Context, span uint32, req Request, shard int) (Response, error) {
	payload, err := pack.Marshal(req)
	if err != nil {
		return Response{}, fmt.Errorf("nsp: marshal request: %w", err)
	}
	return l.callGroupPayload(ctx, span, payload, shard)
}

func (l *Layer) callGroupPayload(ctx context.Context, span uint32, payload []byte, shard int) (Response, error) {
	servers := l.serversFor(shard)
	if len(servers) == 0 {
		return Response{}, fmt.Errorf("%w: no name servers configured", ErrUnavailable)
	}
	slot := 0
	if shard != allShards && shard < len(l.preferred) {
		slot = shard
	}
	var lastErr error
	b := l.failover.Start()
	for b.Next(ctx, nil) {
		l.mu.Lock()
		start := l.preferred[slot]
		l.mu.Unlock()
		if start >= len(servers) {
			start = 0
		}
		for i := 0; i < len(servers); i++ {
			idx := (start + i) % len(servers)
			if ctxErr := ctx.Err(); ctxErr != nil {
				return Response{}, ctxErr
			}
			d, err := l.cfg.LCM.CallSpan(ctx, span, servers[idx], wire.ModePacked, wire.FlagService, payload)
			if err != nil {
				lastErr = err
				if terminalCallError(ctx, err) {
					// A dead caller or the §6.3 recursion bound: rotating
					// replicas cannot help and retrying multiplies the
					// pathology the bound exists to contain.
					return Response{}, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
				}
				continue // rotate to the next replica
			}
			var resp Response
			if err := pack.Unmarshal(d.Payload, &resp); err != nil {
				return Response{}, fmt.Errorf("%w: %v", ErrProtocol, err)
			}
			if idx != start {
				l.rotations.Inc()
				l.mu.Lock()
				l.preferred[slot] = idx
				l.mu.Unlock()
			}
			return resp, nil
		}
	}
	if berr := b.Err(); berr != nil && lastErr == nil {
		lastErr = berr
	}
	return Response{}, fmt.Errorf("%w: %v", ErrUnavailable, lastErr)
}

// callFanout sends an attribute query to every shard group and merges
// the answers: the namespace is partitioned, so only the union is the
// real result. A dead shard degrades the result instead of failing it —
// the chaos contract: losing one shard must not take down resolution
// everywhere else.
func (l *Layer) callFanout(ctx context.Context, span uint32, req Request) (Response, error) {
	l.shardFanouts.Inc()
	payload, err := pack.Marshal(req)
	if err != nil {
		return Response{}, fmt.Errorf("nsp: marshal request: %w", err)
	}
	merged := Response{Code: CodeOK}
	seen := make(map[uint64]bool)
	okCount := 0
	var lastErr error
	var lastResp Response
	for shard := 0; shard < l.numShards; shard++ {
		resp, err := l.callGroupPayload(ctx, span, payload, shard)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.Code != CodeOK {
			lastResp = resp
			continue
		}
		okCount++
		for _, r := range resp.Records {
			if seen[r.UAdd] {
				continue // well-known records live on every shard
			}
			seen[r.UAdd] = true
			merged.Records = append(merged.Records, r)
		}
	}
	if okCount == 0 {
		if lastErr != nil {
			return Response{}, lastErr
		}
		return lastResp, nil
	}
	if okCount < l.numShards {
		l.shardPartials.Inc()
	}
	sort.Slice(merged.Records, func(i, j int) bool { return merged.Records[i].UAdd < merged.Records[j].UAdd })
	return merged, nil
}

// callBroadcast pushes a well-known write to every shard group. The
// primary group's answer is the caller's answer; the other groups are
// best-effort (an unreachable shard converges through anti-entropy and
// the preload when it heals).
func (l *Layer) callBroadcast(ctx context.Context, span uint32, req Request, primary int) (Response, error) {
	l.shardBroadcasts.Inc()
	payload, err := pack.Marshal(req)
	if err != nil {
		return Response{}, fmt.Errorf("nsp: marshal request: %w", err)
	}
	resp, perr := l.callGroupPayload(ctx, span, payload, primary)
	for shard := 0; shard < l.numShards; shard++ {
		if shard == primary {
			continue
		}
		if _, err := l.callGroupPayload(ctx, span, payload, shard); err != nil {
			l.shardPartials.Inc()
		}
	}
	return resp, perr
}

// terminalCallError classifies failures no replica rotation can recover:
// the local layer is closing, the context is done, or the LCM address-fault
// recursion bound tripped (§6.3 — rotating would rerun the recursion per
// replica per round). A plain call timeout is NOT terminal: that is
// exactly the dead-primary case rotation exists for.
func terminalCallError(ctx context.Context, err error) bool {
	if ctx != nil && ctx.Err() != nil {
		return true
	}
	return errors.Is(err, lcm.ErrClosed) ||
		errors.Is(err, lcm.ErrFaultRecursion) ||
		errors.Is(err, context.Canceled)
}

// PreferredServer reports which Name Server replica the layer currently
// favors in the first shard group (test instrumentation for the rotation).
func (l *Layer) PreferredServer() addr.UAdd {
	servers := l.serversFor(0)
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(servers) == 0 {
		return addr.Nil
	}
	if l.preferred[0] >= len(servers) {
		return servers[0]
	}
	return servers[l.preferred[0]]
}

// cachedByName returns the leased record for a name, if the lease is
// still valid.
func (l *Layer) cachedByName(name string) (Record, bool) {
	if l.recByName == nil {
		return Record{}, false
	}
	l.recMu.Lock()
	defer l.recMu.Unlock()
	e, ok := l.recByName[name]
	if !ok || time.Now().After(e.expires) {
		l.cacheMisses.Inc()
		return Record{}, false
	}
	l.cacheHits.Inc()
	return e.rec, true
}

// cachedByUAdd returns the leased record for a UAdd, if still valid.
func (l *Layer) cachedByUAdd(u addr.UAdd) (Record, bool) {
	if l.recByU == nil {
		return Record{}, false
	}
	l.recMu.Lock()
	defer l.recMu.Unlock()
	e, ok := l.recByU[u]
	if !ok || time.Now().After(e.expires) {
		l.cacheMisses.Inc()
		return Record{}, false
	}
	l.cacheHits.Inc()
	return e.rec, true
}

// cacheStore leases a freshly resolved record. Only alive records are
// leased: a dead record's interesting state (its forwarding target)
// changes out from under any lease.
func (l *Layer) cacheStore(rec Record) {
	if l.recByName == nil || !rec.Alive {
		return
	}
	l.recMu.Lock()
	defer l.recMu.Unlock()
	if len(l.recByU) >= l.cfg.RecordCacheSize {
		l.evictOneLocked()
	}
	e := &recEntry{rec: rec, expires: time.Now().Add(l.cfg.RecordTTL)}
	if old, ok := l.recByName[rec.Name]; ok && old.rec.UAdd != rec.UAdd {
		delete(l.recByU, old.rec.UAdd)
	}
	if old, ok := l.recByU[rec.UAdd]; ok && old.rec.Name != rec.Name {
		delete(l.recByName, old.rec.Name)
	}
	l.recByName[rec.Name] = e
	l.recByU[rec.UAdd] = e
}

// evictOneLocked drops one lease to make room: an expired one when any
// exists, otherwise an arbitrary victim (the cache is a lease store, not
// an LRU — correctness never depends on which entry goes).
func (l *Layer) evictOneLocked() {
	now := time.Now()
	var victim *recEntry
	for _, e := range l.recByU {
		if now.After(e.expires) {
			victim = e
			break
		}
		if victim == nil {
			victim = e
		}
	}
	if victim == nil {
		return
	}
	delete(l.recByName, victim.rec.Name)
	delete(l.recByU, victim.rec.UAdd)
	l.cacheEvictions.Inc()
}

// invalidateUAdd drops any lease touching a UAdd: the explicit
// invalidation on relocation and death notices.
func (l *Layer) invalidateUAdd(u addr.UAdd) {
	if l.recByU == nil {
		return
	}
	l.recMu.Lock()
	defer l.recMu.Unlock()
	if e, ok := l.recByU[u]; ok {
		delete(l.recByName, e.rec.Name)
		delete(l.recByU, u)
	}
}

// invalidateName drops any lease for a name (a new registration under the
// name shadows whatever the lease says).
func (l *Layer) invalidateName(name string) {
	if l.recByName == nil {
		return
	}
	l.recMu.Lock()
	defer l.recMu.Unlock()
	if e, ok := l.recByName[name]; ok {
		delete(l.recByU, e.rec.UAdd)
		delete(l.recByName, name)
	}
}

// Register records the module with the naming service and returns its
// assigned UAdd (§3.2). Modules with a preassigned well-known UAdd (§3.4:
// prime gateways, name servers) pass it as requested; everyone else
// passes addr.Nil and receives a fresh one.
func (l *Layer) Register(name string, attrs map[string]string, endpoints []addr.Endpoint, requested addr.UAdd) (addr.UAdd, error) {
	req := Request{Op: OpRegister, Name: name, Attrs: attrs, UAdd: uint64(requested)}
	for _, ep := range endpoints {
		req.Endpoints = append(req.Endpoints, FromEndpoint(ep))
	}
	resp, err := l.call(req)
	if err != nil {
		return addr.Nil, err
	}
	if resp.Code != CodeOK {
		return addr.Nil, fmt.Errorf("nsp: register %q: %s (%s)", name, resp.Code, resp.Detail)
	}
	// A fresh registration shadows whatever lease we hold for the name
	// (relocation: the new module is now the resolution target).
	l.invalidateName(name)
	return addr.UAdd(resp.UAdd), nil
}

// Announce confirms a completed registration from the module's real UAdd.
// Its arrival is the second communication of §3.4, after which no TAdd for
// this module survives in any table.
func (l *Layer) Announce(u addr.UAdd) error {
	resp, err := l.call(Request{Op: OpAnnounce, UAdd: uint64(u)})
	if err != nil {
		return err
	}
	if resp.Code != CodeOK {
		return fmt.Errorf("nsp: announce: %s (%s)", resp.Code, resp.Detail)
	}
	return nil
}

// Deregister marks the module's record dead (clean shutdown).
func (l *Layer) Deregister(u addr.UAdd) error {
	l.invalidateUAdd(u) // death notice: the lease must not outlive the module
	resp, err := l.call(Request{Op: OpDeregister, UAdd: uint64(u)})
	if err != nil {
		return err
	}
	if resp.Code != CodeOK && resp.Code != CodeNotFound {
		return fmt.Errorf("nsp: deregister: %s (%s)", resp.Code, resp.Detail)
	}
	return nil
}

// Resolve maps a logical name to the UAdd of its newest alive module.
func (l *Layer) Resolve(name string) (addr.UAdd, error) {
	rec, err := l.ResolveRecordContext(context.Background(), name)
	return rec.UAdd, err
}

// ResolveRecord is Resolve returning the full record, so the caller can
// prime its endpoint cache in the same exchange.
func (l *Layer) ResolveRecord(name string) (Record, error) {
	return l.ResolveRecordContext(context.Background(), name)
}

// ResolveRecordContext is ResolveRecord honoring ctx: the deadline or
// cancellation bounds the naming exchange, including replica failover.
func (l *Layer) ResolveRecordContext(ctx context.Context, name string) (Record, error) {
	if rec, ok := l.cachedByName(name); ok {
		return rec, nil
	}
	resp, err := l.callContext(ctx, Request{Op: OpResolve, Name: name})
	if err != nil {
		return Record{}, err
	}
	if resp.Code == CodeNotFound || len(resp.Records) == 0 {
		return Record{}, fmt.Errorf("%w: name %q", ErrNotFound, name)
	}
	if resp.Code != CodeOK {
		return Record{}, fmt.Errorf("nsp: resolve %q: %s (%s)", name, resp.Code, resp.Detail)
	}
	rec := fromRec(resp.Records[0])
	l.cacheStore(rec)
	return rec, nil
}

// Lookup returns the full record for a UAdd.
func (l *Layer) Lookup(u addr.UAdd) (Record, error) {
	if rec, ok := l.cachedByUAdd(u); ok {
		return rec, nil
	}
	resp, err := l.call(Request{Op: OpLookup, UAdd: uint64(u)})
	if err != nil {
		return Record{}, err
	}
	if resp.Code == CodeNotFound || len(resp.Records) == 0 {
		return Record{}, fmt.Errorf("%w: %v", ErrNotFound, u)
	}
	rec := fromRec(resp.Records[0])
	l.cacheStore(rec)
	return rec, nil
}

// Query returns every alive record matching all given attributes.
func (l *Layer) Query(attrs map[string]string) ([]Record, error) {
	resp, err := l.call(Request{Op: OpQuery, Attrs: attrs})
	if err != nil {
		return nil, err
	}
	if resp.Code != CodeOK {
		return nil, fmt.Errorf("nsp: query: %s (%s)", resp.Code, resp.Detail)
	}
	out := make([]Record, 0, len(resp.Records))
	for _, r := range resp.Records {
		out = append(out, fromRec(r))
	}
	return out, nil
}

// Forward implements lcm.Resolver: the §3.5 fault path. "This requires
// some intelligence in the naming service, first determining whether the
// old UAdd is really inactive, mapping the old UAdd to its name, and then
// looking for a similar name in a newer module."
func (l *Layer) Forward(old addr.UAdd) (addr.UAdd, error) {
	// The fault path means the lease (if any) is wrong: drop it before
	// asking, so the next resolution refetches whatever the server decides.
	l.invalidateUAdd(old)
	resp, err := l.call(Request{Op: OpForward, UAdd: uint64(old)})
	if err != nil {
		return addr.Nil, err
	}
	switch resp.Code {
	case CodeOK:
		return addr.UAdd(resp.UAdd), nil
	case CodeStillAlive:
		return addr.Nil, lcm.ErrStillAlive
	case CodeNoReplacement, CodeNotFound:
		return addr.Nil, lcm.ErrNoReplacement
	default:
		return addr.Nil, fmt.Errorf("nsp: forward: %s (%s)", resp.Code, resp.Detail)
	}
}

// LookupEndpoint implements ndlayer.Resolver.
func (l *Layer) LookupEndpoint(u addr.UAdd, network string) (addr.Endpoint, error) {
	rec, err := l.Lookup(u)
	if err != nil {
		return addr.Endpoint{}, err
	}
	for _, ep := range rec.Endpoints {
		if ep.Network == network {
			return ep, nil
		}
	}
	return addr.Endpoint{}, fmt.Errorf("%w: %v has no endpoint on %s", ErrNotFound, u, network)
}

// NetworkOf implements iplayer.Directory.
func (l *Layer) NetworkOf(u addr.UAdd) (string, error) {
	rec, err := l.Lookup(u)
	if err != nil {
		return "", err
	}
	if len(rec.Endpoints) == 0 {
		return "", fmt.Errorf("%w: %v has no endpoints", ErrNotFound, u)
	}
	return rec.Endpoints[0].Network, nil
}

// gatewayTTL is how long the gateway topology stays cached (the paper's
// argument: "locally cached values will likely be correct since
// reconfiguration is infrequent").
const gatewayTTL = 2 * time.Second

// Gateways implements iplayer.Directory: the centralized topology of
// §4.2, cached briefly.
func (l *Layer) Gateways() ([]iplayer.GatewayInfo, error) {
	l.mu.Lock()
	if time.Since(l.gwFetched) < gatewayTTL && l.gwCache != nil {
		cached := l.gwCache
		l.mu.Unlock()
		return cached, nil
	}
	l.mu.Unlock()

	recs, err := l.Query(map[string]string{"type": "gateway"})
	if err != nil {
		return nil, err
	}
	gws := make([]iplayer.GatewayInfo, 0, len(recs))
	for _, r := range recs {
		gi := iplayer.GatewayInfo{UAdd: r.UAdd, Name: r.Name}
		for _, ep := range r.Endpoints {
			gi.Networks = append(gi.Networks, ep.Network)
		}
		gws = append(gws, gi)
	}
	l.mu.Lock()
	l.gwCache = gws
	l.gwFetched = time.Now()
	l.mu.Unlock()
	return gws, nil
}

// InvalidateGatewayCache drops the cached topology (tests, topology
// changes).
func (l *Layer) InvalidateGatewayCache() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.gwCache = nil
	l.gwFetched = time.Time{}
}
