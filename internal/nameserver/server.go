package nameserver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/drts/errlog"
	"ntcs/internal/iplayer"
	"ntcs/internal/lcm"
	"ntcs/internal/ndlayer"
	"ntcs/internal/nsp"
	"ntcs/internal/pack"
	"ntcs/internal/stats"
	"ntcs/internal/trace"
	"ntcs/internal/wire"
)

// Config assembles a Server.
type Config struct {
	// DB holds the naming state.
	DB *DB
	// LCM is the server's own Nucleus access (§3.1: the naming service is
	// an application built on the Nucleus it serves).
	LCM *lcm.Layer
	// AntiEntropy, when positive, runs periodic digest reconciliation
	// with one replica peer per interval: a partitioned replica converges
	// after heal instead of diverging forever. Zero disables (writes still
	// propagate through OpReplicate pushes).
	AntiEntropy time.Duration
	// TombstoneTTL, when positive, garbage-collects dead records this long
	// after their death, ending §3.5 forwarding for them. Zero retains
	// tombstones forever (the pre-GC behavior).
	TombstoneTTL time.Duration
	// Tracer and Errors receive diagnostics; both may be nil.
	Tracer *trace.Tracer
	Errors *errlog.Table
	// Stats receives the server's counters; nil disables metering.
	Stats *stats.Registry
}

// replFlushWindow is how long the replication flusher waits for more
// writes to coalesce after the first one arrives. Registration bursts
// (a cluster of modules attaching together) fold into one replica round
// instead of one per record.
const replFlushWindow = 2 * time.Millisecond

// pingTimeout bounds the §3.5 liveness probe of a faulted module.
const pingTimeout = 300 * time.Millisecond

// replMaxBatch bounds one replication round.
const replMaxBatch = 128

// maxHandlers bounds concurrent request handlers. The server must stay
// multi-threaded (the §3.5 probes recurse through the system it serves),
// but a storm must wait in the LCM queue, not grow a goroutine per
// request. 512 sits well above the §6.3 recursion depth, so the bound
// never deadlocks the recursion it exists to protect.
const maxHandlers = 512

// Server is a running Name Server module.
type Server struct {
	cfg  Config
	done chan struct{}

	replMu   sync.Mutex
	replicas []addr.UAdd

	replCh chan nsp.RecordRec
	sem    chan struct{} // maxHandlers slots, one per running handler

	// Instruments, resolved once at construction; nil pointers no-op.
	ops          *stats.Counter
	replRounds   *stats.Counter
	replRecs     *stats.Counter
	replStale    *stats.Counter
	aeRounds     *stats.Counter
	aePulled     *stats.Counter
	aePushed     *stats.Counter
	handlerWaits *stats.Counter
	tombGC       *stats.Counter
	tombstones   *stats.Gauge
}

// NewServer assembles a server; call Run (usually in a goroutine) to
// serve.
func NewServer(cfg Config) (*Server, error) {
	if cfg.DB == nil || cfg.LCM == nil {
		return nil, fmt.Errorf("nameserver: DB and LCM are required")
	}
	// Compile the name-protocol plans before the first request arrives.
	if err := pack.Precompile(nsp.Request{}, nsp.Response{}, nsp.RecordRec{}, nsp.EndpointRec{}, nsp.DigestRec{}); err != nil {
		return nil, fmt.Errorf("nameserver: precompile: %w", err)
	}
	s := &Server{
		cfg:    cfg,
		done:   make(chan struct{}),
		replCh: make(chan nsp.RecordRec, 4*replMaxBatch),
		sem:    make(chan struct{}, maxHandlers),

		ops:          cfg.Stats.Counter(stats.NSOps),
		replRounds:   cfg.Stats.Counter(stats.NSReplRounds),
		replRecs:     cfg.Stats.Counter(stats.NSReplRecs),
		replStale:    cfg.Stats.Counter(stats.NSReplStale),
		aeRounds:     cfg.Stats.Counter(stats.NSAERounds),
		aePulled:     cfg.Stats.Counter(stats.NSAEPulled),
		aePushed:     cfg.Stats.Counter(stats.NSAEPushed),
		handlerWaits: cfg.Stats.Counter(stats.NSHandlerWaits),
		tombGC:       cfg.Stats.Counter(stats.NSTombstonesGC),
		tombstones:   cfg.Stats.Gauge(stats.NSTombstones),
	}
	return s, nil
}

// SetReplicas changes the peer set writes propagate to (the §7
// replicated configuration, assembled after all servers are up; empty
// for a single server).
func (s *Server) SetReplicas(peers []addr.UAdd) {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	s.replicas = append([]addr.UAdd(nil), peers...)
}

// Replicas returns the peer set writes propagate to.
func (s *Server) Replicas() []addr.UAdd {
	s.replMu.Lock()
	defer s.replMu.Unlock()
	return append([]addr.UAdd(nil), s.replicas...)
}

// Run serves naming requests until the LCM layer closes.
//
// Each request is handled on its own goroutine: the forwarding
// intelligence of §3.5 communicates through the very system it serves
// (liveness pings may traverse gateways whose circuit establishment
// consults this Name Server), so a single-threaded server deadlocks on
// its own recursion — the distributed flavour of the §6 problem.
func (s *Server) Run() {
	defer close(s.done)
	stopBG := make(chan struct{})
	var bgWG sync.WaitGroup
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		s.flushLoop(stopBG)
	}()
	if s.cfg.AntiEntropy > 0 {
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			s.antiEntropyLoop(stopBG)
		}()
	}
	if s.cfg.TombstoneTTL > 0 {
		bgWG.Add(1)
		go func() {
			defer bgWG.Done()
			s.gcLoop(stopBG)
		}()
	}
	defer bgWG.Wait()
	defer close(stopBG)
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		d, err := s.cfg.LCM.Recv(time.Hour)
		if err != nil {
			if err == lcm.ErrClosed {
				return
			}
			continue
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.handlerWaits.Inc()
			s.sem <- struct{}{}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-s.sem }()
			s.handle(&d)
		}()
	}
}

// Wait blocks until Run returns.
func (s *Server) Wait() { <-s.done }

// handle dispatches one request and replies.
func (s *Server) handle(d *lcm.Delivery) {
	s.ops.Inc()
	var herr error
	exit := trace.NopExit
	if s.cfg.Tracer.On() {
		exit = s.cfg.Tracer.Enter(trace.LayerNS, "handle", "naming request", d.Src().String())
		s.cfg.Tracer.Span(d.Header.Span, trace.LayerNS, "handle", d.Src().String())
	}
	defer func() { exit(herr) }()
	var req nsp.Request
	if herr = pack.Unmarshal(d.Payload, &req); herr != nil {
		s.reply(d, nsp.Response{Code: nsp.CodeBadRequest, Detail: herr.Error()})
		return
	}
	resp := s.dispatch(req)
	s.reply(d, resp)
}

func (s *Server) dispatch(req nsp.Request) nsp.Response {
	switch req.Op {
	case nsp.OpRegister:
		return s.register(req)
	case nsp.OpAnnounce:
		// The announce itself did the work: its arrival from the module's
		// real UAdd purged the TAdds in every layer (§3.4).
		return nsp.Response{Code: nsp.CodeOK}
	case nsp.OpDeregister:
		if !s.cfg.DB.Deregister(addr.UAdd(req.UAdd)) {
			return nsp.Response{Code: nsp.CodeNotFound}
		}
		s.tombstones.Set(int64(s.cfg.DB.TombstoneCount()))
		s.replicateDead(addr.UAdd(req.UAdd))
		return nsp.Response{Code: nsp.CodeOK}
	case nsp.OpResolve:
		rec, err := s.cfg.DB.Resolve(req.Name)
		if err != nil {
			return nsp.Response{Code: nsp.CodeNotFound, Detail: err.Error()}
		}
		return nsp.Response{Code: nsp.CodeOK, UAdd: uint64(rec.UAdd), Records: []nsp.RecordRec{toRec(rec)}}
	case nsp.OpLookup:
		rec, err := s.cfg.DB.Lookup(addr.UAdd(req.UAdd))
		if err != nil {
			return nsp.Response{Code: nsp.CodeNotFound, Detail: err.Error()}
		}
		return nsp.Response{Code: nsp.CodeOK, UAdd: uint64(rec.UAdd), Records: []nsp.RecordRec{toRec(rec)}}
	case nsp.OpQuery:
		recs := s.cfg.DB.Query(req.Attrs)
		out := make([]nsp.RecordRec, 0, len(recs))
		for _, r := range recs {
			out = append(out, toRec(r))
		}
		return nsp.Response{Code: nsp.CodeOK, Records: out}
	case nsp.OpForward:
		return s.forward(addr.UAdd(req.UAdd))
	case nsp.OpReplicate:
		return s.applyReplica(req)
	case nsp.OpDigest:
		return s.digest(req)
	default:
		return nsp.Response{Code: nsp.CodeBadRequest, Detail: "unknown op " + req.Op}
	}
}

func (s *Server) register(req nsp.Request) nsp.Response {
	if req.Name == "" {
		return nsp.Response{Code: nsp.CodeBadRequest, Detail: "empty name"}
	}
	eps := make([]addr.Endpoint, 0, len(req.Endpoints))
	for _, e := range req.Endpoints {
		eps = append(eps, e.ToEndpoint())
	}
	var rec Record
	if requested := addr.UAdd(req.UAdd); requested.IsWellKnown() {
		// Prime gateways and Name Servers carry preassigned well-known
		// UAdds (§3.4); the naming service records them as presented.
		rec = s.cfg.DB.RegisterFixed(req.Name, req.Attrs, eps, requested)
	} else {
		rec = s.cfg.DB.Register(req.Name, req.Attrs, eps)
	}
	s.replicate(rec)
	return nsp.Response{Code: nsp.CodeOK, UAdd: uint64(rec.UAdd), Records: []nsp.RecordRec{toRec(rec)}}
}

// forward runs the §3.5 intelligence, probing liveness over the server's
// own Nucleus (more recursion: the naming service pings through the very
// layers that consult it).
//
// The probe only declares a module dead on CONCLUSIVE evidence — its own
// endpoint refused (a direct address fault or a final-hop failure behind
// gateways), or it held a circuit open but never answered. A mid-chain or
// no-route failure means the naming service cannot see the module's
// neighborhood at all: declaring death there would poison the database
// whenever a gateway hiccups, so the answer is "still alive" and the
// caller reconnects when the path returns.
func (s *Server) forward(old addr.UAdd) nsp.Response {
	probe := func(rec Record) bool {
		err := s.cfg.LCM.Ping(rec.UAdd, pingTimeout)
		if err == nil {
			return true
		}
		return !conclusivelyDead(err, rec.UAdd)
	}
	newU, err := s.cfg.DB.Forward(old, probe)
	switch {
	case err == nil:
		s.cfg.Errors.Report(errlog.CodeForwarded, "ns", "%v -> %v", old, newU)
		s.tombstones.Set(int64(s.cfg.DB.TombstoneCount()))
		s.replicateDead(old)
		return nsp.Response{Code: nsp.CodeOK, UAdd: uint64(newU)}
	case err == ErrStillAlive:
		s.cfg.Errors.Report(errlog.CodeStillAlive, "ns", "%v alive; link failure", old)
		return nsp.Response{Code: nsp.CodeStillAlive}
	case err == ErrNoReplacement:
		s.cfg.Errors.Report(errlog.CodeNoReplacement, "ns", "%v has no successor", old)
		return nsp.Response{Code: nsp.CodeNoReplacement}
	default:
		return nsp.Response{Code: nsp.CodeNotFound, Detail: err.Error()}
	}
}

// conclusivelyDead classifies a failed liveness probe: true only when the
// module's own endpoint was reached and refused, or it timed out while
// reachable.
func conclusivelyDead(err error, u addr.UAdd) bool {
	if errors.Is(err, iplayer.ErrDestinationDown) {
		return true
	}
	if errors.Is(err, lcm.ErrCallTimeout) {
		return true // circuit up, module mute: really inactive
	}
	var fault *ndlayer.FaultError
	if errors.As(err, &fault) && fault.Peer == u {
		return true
	}
	return false
}

// applyReplica installs the records (or death notices) pushed by a
// peer. A push carries either a single Record (the pre-batching wire
// form, still accepted) or a coalesced Records batch.
func (s *Server) applyReplica(req nsp.Request) nsp.Response {
	recs := req.Records
	if req.Record.UAdd != 0 {
		recs = append([]nsp.RecordRec{req.Record}, recs...)
	}
	if len(recs) == 0 {
		return nsp.Response{Code: nsp.CodeBadRequest, Detail: "replicate without record"}
	}
	for _, rr := range recs {
		if rr.UAdd == 0 {
			continue
		}
		if !s.cfg.DB.Insert(replicaRecord(rr)) {
			s.replStale.Inc()
		}
	}
	s.tombstones.Set(int64(s.cfg.DB.TombstoneCount()))
	return nsp.Response{Code: nsp.CodeOK}
}

// replicaRecord converts a wire record into a database record, carrying
// the origin's registration and death stamps when the peer sent them
// (zero means an old peer: stamp locally, the pre-PR-7 behavior).
func replicaRecord(rr nsp.RecordRec) Record {
	rec := Record{
		Name:        rr.Name,
		Attrs:       rr.Attrs,
		UAdd:        addr.UAdd(rr.UAdd),
		Incarnation: rr.Incarnation,
		Alive:       rr.Alive,
	}
	if rr.Registered != 0 {
		rec.Registered = time.Unix(0, rr.Registered)
	} else {
		rec.Registered = time.Now()
	}
	if rr.Died != 0 {
		rec.DiedAt = time.Unix(0, rr.Died)
	}
	if rec.Attrs == nil {
		rec.Attrs = map[string]string{}
	}
	for _, e := range rr.Endpoints {
		rec.Endpoints = append(rec.Endpoints, e.ToEndpoint())
	}
	return rec
}

// digest answers one anti-entropy page (OpDigest): the requester sent
// its record identities for UAdds in [From, To]; the reply carries the
// records this server holds newer versions of (or the requester lacks
// entirely), plus a Want list of UAdds the requester should push back.
// Death wins incarnation ties, mirroring DB.Insert, so both directions
// converge on the same verdict for every record.
func (s *Server) digest(req nsp.Request) nsp.Response {
	have := make(map[uint64]nsp.DigestRec, len(req.Digest))
	for _, d := range req.Digest {
		have[d.UAdd] = d
	}
	resp := nsp.Response{Code: nsp.CodeOK, To: req.To}
	for _, rec := range s.cfg.DB.SnapshotRange(addr.UAdd(req.From), addr.UAdd(req.To)) {
		d, ok := have[uint64(rec.UAdd)]
		switch {
		case !ok:
			resp.Records = append(resp.Records, toRec(rec))
		case rec.Incarnation > d.Incarnation:
			resp.Records = append(resp.Records, toRec(rec))
		case rec.Incarnation == d.Incarnation && d.Alive && !rec.Alive:
			resp.Records = append(resp.Records, toRec(rec)) // we know the death
		}
	}
	for _, d := range req.Digest {
		rec, err := s.cfg.DB.Lookup(addr.UAdd(d.UAdd))
		if err != nil {
			resp.Want = append(resp.Want, d.UAdd)
			continue
		}
		if rec.Incarnation < d.Incarnation ||
			(rec.Incarnation == d.Incarnation && rec.Alive && !d.Alive) {
			resp.Want = append(resp.Want, d.UAdd)
		}
	}
	return resp
}

// aePageSize bounds one anti-entropy digest page.
const aePageSize = 256

// antiEntropyLoop reconciles with one replica peer per interval, round
// robin, so a replica that missed OpReplicate pushes while partitioned
// converges after heal.
func (s *Server) antiEntropyLoop(stop <-chan struct{}) {
	ticker := time.NewTicker(s.cfg.AntiEntropy)
	defer ticker.Stop()
	next := 0
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		peers := s.Replicas()
		if len(peers) == 0 {
			continue
		}
		s.antiEntropyRound(peers[next%len(peers)], stop)
		next++
	}
}

// antiEntropyRound exchanges paged digests with one peer: for each page
// of the local database, the peer returns records it holds newer (we
// Insert them — "pulled") and lists UAdds it wants (we push them back in
// one replication round — "pushed"). The first page opens at UAdd 0 and
// the last closes at the maximum, so records only one side holds are
// found regardless of which side holds them.
func (s *Server) antiEntropyRound(peer addr.UAdd, stop <-chan struct{}) {
	s.aeRounds.Inc()
	snap := s.cfg.DB.Snapshot()
	for i := 0; ; i += aePageSize {
		select {
		case <-stop:
			return
		default:
		}
		j := i + aePageSize
		if j > len(snap) {
			j = len(snap)
		}
		req := nsp.Request{Op: nsp.OpDigest}
		if i > 0 {
			req.From = uint64(snap[i].UAdd)
		}
		if j >= len(snap) {
			req.To = ^uint64(0)
		} else {
			req.To = uint64(snap[j-1].UAdd)
		}
		for _, rec := range snap[i:j] {
			req.Digest = append(req.Digest, nsp.DigestRec{
				UAdd:        uint64(rec.UAdd),
				Incarnation: rec.Incarnation,
				Alive:       rec.Alive,
			})
		}
		resp, err := s.callPeer(peer, req)
		if err != nil || resp.Code != nsp.CodeOK {
			return // partitioned again; the next interval retries
		}
		for _, rr := range resp.Records {
			if rr.UAdd == 0 {
				continue
			}
			if s.cfg.DB.Insert(replicaRecord(rr)) {
				s.aePulled.Inc()
			} else {
				s.replStale.Inc()
			}
		}
		if len(resp.Want) > 0 {
			push := nsp.Request{Op: nsp.OpReplicate}
			for _, u := range resp.Want {
				if rec, err := s.cfg.DB.Lookup(addr.UAdd(u)); err == nil {
					push.Records = append(push.Records, toRec(rec))
				}
			}
			if len(push.Records) > 0 {
				if _, err := s.callPeer(peer, push); err == nil {
					s.aePushed.Add(uint64(len(push.Records)))
				}
			}
		}
		if j >= len(snap) {
			break
		}
	}
	s.tombstones.Set(int64(s.cfg.DB.TombstoneCount()))
}

// callPeer performs one server-to-server exchange (digest pages and
// anti-entropy pushes want an answer, unlike the fire-and-forget
// OpReplicate fan-out).
func (s *Server) callPeer(peer addr.UAdd, req nsp.Request) (nsp.Response, error) {
	payload, err := pack.Marshal(req)
	if err != nil {
		return nsp.Response{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	d, err := s.cfg.LCM.CallSpan(ctx, s.cfg.LCM.NewSpan(), peer, wire.ModePacked, wire.FlagService, payload)
	if err != nil {
		return nsp.Response{}, err
	}
	var resp nsp.Response
	if err := pack.Unmarshal(d.Payload, &resp); err != nil {
		return nsp.Response{}, err
	}
	return resp, nil
}

// gcLoop expires tombstones past their TTL, keeping the §3.5 forwarding
// chain only for the configured window.
func (s *Server) gcLoop(stop <-chan struct{}) {
	interval := s.cfg.TombstoneTTL / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if n := s.cfg.DB.GCTombstones(s.cfg.TombstoneTTL); n > 0 {
			s.tombGC.Add(uint64(n))
		}
		s.tombstones.Set(int64(s.cfg.DB.TombstoneCount()))
	}
}

// replicate queues a record for propagation to the peer servers. The
// flusher coalesces a burst of writes into one replica round; if the
// queue is saturated (or the flusher is not running yet) the record is
// pushed inline so nothing is lost.
func (s *Server) replicate(rec Record) {
	if len(s.Replicas()) == 0 {
		return
	}
	select {
	case s.replCh <- toRec(rec):
	default:
		s.sendReplicaBatch([]nsp.RecordRec{toRec(rec)})
	}
}

// flushLoop drains the replication queue: it blocks for the first
// queued write, collects everything that arrives within the flush
// window, dedups to the latest version of each UAdd, and propagates the
// batch in one round. On stop it flushes whatever remains.
func (s *Server) flushLoop(stop <-chan struct{}) {
	for {
		var batch []nsp.RecordRec
		select {
		case first := <-s.replCh:
			batch = append(batch, first)
		case <-stop:
			s.sendReplicaBatch(dedupReplicas(s.drainQueued(nil)))
			return
		}
		timer := time.NewTimer(replFlushWindow)
	collect:
		for len(batch) < replMaxBatch {
			select {
			case r := <-s.replCh:
				batch = append(batch, r)
			case <-timer.C:
				break collect
			case <-stop:
				break collect
			}
		}
		timer.Stop()
		s.sendReplicaBatch(dedupReplicas(batch))
	}
}

// drainQueued appends whatever is queued right now without blocking.
func (s *Server) drainQueued(batch []nsp.RecordRec) []nsp.RecordRec {
	for {
		select {
		case r := <-s.replCh:
			batch = append(batch, r)
		default:
			return batch
		}
	}
}

// dedupReplicas keeps only the latest queued version of each UAdd: a
// register-then-die burst for one module collapses to the death notice.
func dedupReplicas(batch []nsp.RecordRec) []nsp.RecordRec {
	if len(batch) < 2 {
		return batch
	}
	latest := make(map[uint64]int, len(batch))
	out := batch[:0]
	for _, r := range batch {
		if i, ok := latest[r.UAdd]; ok {
			out[i] = r
			continue
		}
		latest[r.UAdd] = len(out)
		out = append(out, r)
	}
	return out
}

// sendReplicaBatch pushes one replication round to every peer, best
// effort. A single record travels in the Record field so pre-batching
// peers still understand the push.
func (s *Server) sendReplicaBatch(batch []nsp.RecordRec) {
	if len(batch) == 0 {
		return
	}
	peers := s.Replicas()
	if len(peers) == 0 {
		return
	}
	req := nsp.Request{Op: nsp.OpReplicate}
	if len(batch) == 1 {
		req.Record = batch[0]
	} else {
		req.Records = batch
	}
	payload, err := pack.Marshal(req)
	if err != nil {
		return
	}
	s.replRounds.Inc()
	s.replRecs.Add(uint64(len(batch)))
	for _, peer := range peers {
		if err := s.cfg.LCM.SendContext(context.Background(), peer, wire.ModePacked, wire.FlagService|wire.FlagConnless, payload); err != nil {
			s.cfg.Errors.Report(errlog.CodeDroppedMsg, "ns", "replicate to %v: %v", peer, err)
		}
	}
}

// Retire deregisters a record held by this server on behalf of a locally
// draining module (typically the server's own well-known UAdd during a
// graceful shutdown). Unlike the OpDeregister path this is called from
// outside the dispatch loop, and the death notice is pushed to the
// replica peers inline — the process is about to exit, so the batching
// flushLoop may never get another turn. The tombstone keeps forwarding
// (§3.5) intact until NSTombstoneTTL.
func (s *Server) Retire(u addr.UAdd) bool {
	if !s.cfg.DB.Deregister(u) {
		return false
	}
	s.tombstones.Set(int64(s.cfg.DB.TombstoneCount()))
	if len(s.Replicas()) > 0 {
		// Lookup after Deregister so the pushed record carries the death
		// stamp the peers' tombstone GC keys on.
		if rec, err := s.cfg.DB.Lookup(u); err == nil {
			rec.Alive = false
			s.sendReplicaBatch([]nsp.RecordRec{toRec(rec)})
		}
	}
	return true
}

// replicateDead propagates a death notice.
func (s *Server) replicateDead(u addr.UAdd) {
	if len(s.Replicas()) == 0 {
		return
	}
	rec, err := s.cfg.DB.Lookup(u)
	if err != nil {
		return
	}
	rec.Alive = false
	s.replicate(rec)
}

// reply answers a request; replication pushes (connectionless) carry no
// call flag and are not answered.
func (s *Server) reply(d *lcm.Delivery, resp nsp.Response) {
	if !d.IsCall() {
		return
	}
	payload, err := pack.Marshal(resp)
	if err != nil {
		_ = s.cfg.LCM.ReplyError(d, "nameserver: marshal response: "+err.Error())
		return
	}
	_ = s.cfg.LCM.Reply(d, wire.ModePacked, wire.FlagService, payload)
}

func toRec(r Record) nsp.RecordRec {
	out := nsp.RecordRec{
		Name:        r.Name,
		Attrs:       r.Attrs,
		UAdd:        uint64(r.UAdd),
		Incarnation: r.Incarnation,
		Alive:       r.Alive,
	}
	if !r.Registered.IsZero() {
		out.Registered = r.Registered.UnixNano()
	}
	if !r.DiedAt.IsZero() {
		out.Died = r.DiedAt.UnixNano()
	}
	if out.Attrs == nil {
		out.Attrs = map[string]string{}
	}
	for _, ep := range r.Endpoints {
		out.Endpoints = append(out.Endpoints, nsp.FromEndpoint(ep))
	}
	return out
}

// Naming adapts the server's own database as a nucleus.NamingService: the
// Name Server module resolves against itself directly, closing the §3.4
// bootstrap loop ("it obviously can not provide its own [address], prior
// to connection").
type Naming struct {
	DB *DB
}

// LookupEndpoint implements ndlayer.Resolver against the local database.
func (n Naming) LookupEndpoint(u addr.UAdd, network string) (addr.Endpoint, error) {
	rec, err := n.DB.Lookup(u)
	if err != nil {
		return addr.Endpoint{}, err
	}
	for _, ep := range rec.Endpoints {
		if ep.Network == network {
			return ep, nil
		}
	}
	return addr.Endpoint{}, fmt.Errorf("%w: %v on %s", ErrNotFound, u, network)
}

// NetworkOf implements iplayer.Directory against the local database.
func (n Naming) NetworkOf(u addr.UAdd) (string, error) {
	rec, err := n.DB.Lookup(u)
	if err != nil {
		return "", err
	}
	if len(rec.Endpoints) == 0 {
		return "", fmt.Errorf("%w: %v has no endpoints", ErrNotFound, u)
	}
	return rec.Endpoints[0].Network, nil
}

// Gateways implements iplayer.Directory against the local database.
func (n Naming) Gateways() ([]iplayer.GatewayInfo, error) {
	recs := n.DB.Query(map[string]string{"type": "gateway"})
	out := make([]iplayer.GatewayInfo, 0, len(recs))
	for _, r := range recs {
		gi := iplayer.GatewayInfo{UAdd: r.UAdd, Name: r.Name}
		for _, ep := range r.Endpoints {
			gi.Networks = append(gi.Networks, ep.Network)
		}
		out = append(out, gi)
	}
	return out, nil
}

// Forward implements lcm.Resolver against the local database. The server
// module's own sends (replication pushes, liveness pings) recover through
// the same intelligence clients get, without a network round trip.
func (n Naming) Forward(old addr.UAdd) (addr.UAdd, error) {
	newU, err := n.DB.Forward(old, nil)
	switch err {
	case nil:
		return newU, nil
	case ErrStillAlive:
		return addr.Nil, lcm.ErrStillAlive
	default:
		return addr.Nil, lcm.ErrNoReplacement
	}
}
