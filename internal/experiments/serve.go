package experiments

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/core"
	"ntcs/internal/ipcs"
	"ntcs/internal/machine"
	"ntcs/internal/stats"
	"ntcs/internal/ursa"
	"ntcs/sim"
)

// E-SERVE: the ROADMAP-item-5 artifact. An open-loop driver replays
// Poisson-arrival query traffic from N simulated users against sharded
// URSA index/search/doc backends behind a gateway, over real tcpnet —
// the first number that exercises the compiled codecs, the event-driven
// substrate, the sharded name service, the C1M memory diet and tcpnet's
// per-connection readers in one serving path.
//
// Open loop means arrivals are scheduled by the Poisson clock, not by
// request completion: a slow reply delays nothing behind it, so the
// recorded latencies are free of coordinated omission and the saturation
// point is real. Latency is measured from each request's *scheduled*
// arrival time through the full stack and back.

// ServeConfig shapes one serving topology.
type ServeConfig struct {
	Shards int // URSA backend shard groups (index+docs+search each)
	Users  int // simulated users (independent Poisson streams)
	Conns  int // client modules the users multiplex onto (0: min(Users, 16))
	Docs   int // corpus documents per shard (0: 200)

	Out io.Writer // optional progress log
}

const (
	serveQueries = 200 // distinct query texts
	serveSeed    = 1   // corpus/query/arrival randomness

	// serveWarm is the per-client, per-shard number of unmeasured warm-up
	// queries — opens circuits, fills name and destination caches.
	serveWarm = 2

	// serveMaxInFlight bounds concurrent outstanding requests; an arrival
	// that finds the bound exhausted is shed and counted (an overloaded
	// open system must drop, not queue unboundedly).
	serveMaxInFlight = 4096
)

// ServeResult is one measured window.
type ServeResult struct {
	OfferedQPS  float64 `json:"offered_qps"`
	DurationSec float64 `json:"duration_sec"`
	Sent        uint64  `json:"sent"`
	Completed   uint64  `json:"completed"`
	Errors      uint64  `json:"errors"`
	Shed        uint64  `json:"shed"`
	Corrupted   uint64  `json:"corrupted"`
	AchievedQPS float64 `json:"achieved_qps"`

	P50us  int64 `json:"p50_us"`
	P90us  int64 `json:"p90_us"`
	P99us  int64 `json:"p99_us"`
	P999us int64 `json:"p999_us"`

	Dispatches uint64 `json:"dispatches"` // drains started by queues going busy (ND send queues on tcpnet)
}

// ServeWorld is a built serving topology, reusable across measured
// windows so a saturation sweep pays world construction once.
type ServeWorld struct {
	cfg     ServeConfig
	w       *sim.World
	clients []*core.Module
	search  []addr.UAdd        // per URSA shard, resolved once
	titles  []map[int64]string // per URSA shard: docID → expected title
	queries []string
}

func (c *ServeConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Users <= 0 {
		c.Users = 1
	}
	if c.Conns <= 0 {
		if c.Conns = c.Users; c.Conns > 16 {
			c.Conns = 16
		}
	}
	if c.Docs <= 0 {
		c.Docs = 200
	}
}

func (sw *ServeWorld) logf(format string, args ...any) {
	if sw.cfg.Out != nil {
		fmt.Fprintf(sw.cfg.Out, format, args...)
	}
}

// BuildServeWorld raises the topology: a name server and the URSA shard
// groups on a backbone tcpnet network, user-facing client modules on an
// access tcpnet network, and a gateway bridging the two — every query
// crosses the gateway and two real TCP hops, as the paper's host
// processors did.
func BuildServeWorld(cfg ServeConfig) (_ *ServeWorld, err error) {
	cfg.fill()
	sw := &ServeWorld{cfg: cfg}
	w := sim.NewWorld()
	sw.w = w
	defer closeOnError(w, &err)
	w.AddTCPNetwork("backbone")
	w.AddTCPNetwork("access")

	nsHost := w.MustHost("ns-host", machine.Apollo, "backbone")
	if _, err := w.StartNameServer(nsHost, "ns"); err != nil {
		return nil, fmt.Errorf("serve: name server: %w", err)
	}
	gwHost := w.MustHost("gw-host", machine.Apollo, "backbone", "access")
	if _, err := w.StartGateway(gwHost, "gw"); err != nil {
		return nil, fmt.Errorf("serve: gateway: %w", err)
	}

	// One host per shard group: index, docs and search as separate
	// modules sharing the host, reached by shard-suffixed names.
	for s := 0; s < cfg.Shards; s++ {
		h := w.MustHost(fmt.Sprintf("ursa-%d", s), machine.VAX, "backbone")
		if _, err := ursa.DeployShard(w, h, h, h, s); err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", s, err)
		}
	}

	// Client modules: the attachment points users multiplex onto.
	for i := 0; i < cfg.Conns; i++ {
		h := w.MustHost(fmt.Sprintf("user-host-%d", i), machine.Sun68K, "access")
		m, err := w.Attach(h, fmt.Sprintf("user-client-%d", i), nil)
		if err != nil {
			return nil, fmt.Errorf("serve: client %d: %w", i, err)
		}
		if err := ursa.RegisterGeneratedConverters(m); err != nil {
			return nil, err
		}
		sw.clients = append(sw.clients, m)
	}

	// Ingest a distinct corpus into each shard and remember its titles
	// for reply verification.
	sw.titles = make([]map[int64]string, cfg.Shards)
	ingester := sw.clients[0]
	for s := 0; s < cfg.Shards; s++ {
		docs := ursa.GenerateCorpus(cfg.Docs, serveSeed+int64(s))
		sw.titles[s] = make(map[int64]string, len(docs))
		for _, d := range docs {
			sw.titles[s][d.ID] = d.Title
		}
		for _, base := range []string{ursa.IndexServerName, ursa.DocServerName} {
			u, err := ingester.Locate(ursa.ShardName(base, s))
			if err != nil {
				return nil, fmt.Errorf("serve: locate %s shard %d: %w", base, s, err)
			}
			var ack ursa.IngestReply
			if err := ingester.CallContext(context.Background(), u, ursa.MsgIngest, ursa.IngestRequest{Docs: docs}, &ack); err != nil {
				return nil, fmt.Errorf("serve: ingest shard %d: %w", s, err)
			}
			if ack.Count != int64(len(docs)) {
				return nil, fmt.Errorf("serve: shard %d ingested %d of %d", s, ack.Count, len(docs))
			}
		}
	}
	sw.queries = ursa.Queries(serveQueries, serveSeed+97)

	// Resolve each shard's search server once (clients share the
	// resolution through the call below) and warm every client→shard
	// circuit so the measured window starts with established state.
	sw.search = make([]addr.UAdd, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		u, err := ingester.Locate(ursa.ShardName(ursa.SearchServerName, s))
		if err != nil {
			return nil, fmt.Errorf("serve: locate search shard %d: %w", s, err)
		}
		sw.search[s] = u
	}
	for _, m := range sw.clients {
		for s := 0; s < cfg.Shards; s++ {
			for i := 0; i < serveWarm; i++ {
				var reply ursa.SearchReply
				q := sw.queries[(s+i)%len(sw.queries)]
				if err := m.CallContext(context.Background(), sw.search[s], ursa.MsgSearch, ursa.SearchRequest{Query: q, Limit: 5}, &reply); err != nil {
					return nil, fmt.Errorf("serve: warm-up call shard %d: %w", s, err)
				}
			}
		}
	}
	sw.logf("serve: world up — %d shards, %d clients, %d users\n",
		cfg.Shards, cfg.Conns, cfg.Users)
	return sw, nil
}

// Close tears the world down.
func (sw *ServeWorld) Close() { sw.w.Close() }

// shardOf routes a query to its backend shard by content hash, so one
// query text always lands on the shard whose corpus answers it.
func (sw *ServeWorld) shardOf(q string) int {
	h := fnv.New32a()
	io.WriteString(h, q)
	return int(h.Sum32() % uint32(sw.cfg.Shards))
}

// Run drives one measured window at the given aggregate offered rate.
// Each user is an independent Poisson stream at rate/Users (their
// superposition is Poisson at the aggregate rate); each arrival issues
// the query on its own goroutine, so completions never delay arrivals.
func (sw *ServeWorld) Run(rateQPS float64, duration time.Duration) (ServeResult, error) {
	if rateQPS <= 0 || duration <= 0 {
		return ServeResult{}, fmt.Errorf("serve: rate and duration must be positive")
	}
	cfg := sw.cfg
	reg := stats.New("serve")
	reg.SetHistograms(true)
	hist := reg.Histogram("serve.query_latency")

	var sent, completed, errors, shed, corrupted atomic.Uint64
	inflight := make(chan struct{}, serveMaxInFlight)

	dispatchBefore := ipcs.PollerDispatches()

	perUser := rateQPS / float64(cfg.Users)
	start := time.Now()
	end := start.Add(duration)
	var wg sync.WaitGroup    // user clocks
	var reqWg sync.WaitGroup // outstanding requests
	for u := 0; u < cfg.Users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(serveSeed + int64(u)*2654435761))
			m := sw.clients[u%len(sw.clients)]
			next := start
			for {
				// Poisson interarrival for this user's stream.
				next = next.Add(time.Duration(rng.ExpFloat64() / perUser * float64(time.Second)))
				if next.After(end) {
					return
				}
				if d := time.Until(next); d > 0 {
					time.Sleep(d)
				}
				q := sw.queries[rng.Intn(len(sw.queries))]
				select {
				case inflight <- struct{}{}:
				default:
					shed.Add(1)
					continue
				}
				sent.Add(1)
				reqWg.Add(1)
				go func(scheduled time.Time, q string) {
					defer func() { <-inflight; reqWg.Done() }()
					s := sw.shardOf(q)
					var reply ursa.SearchReply
					err := m.CallContext(context.Background(), sw.search[s], ursa.MsgSearch, ursa.SearchRequest{Query: q, Limit: 5}, &reply)
					lat := time.Since(scheduled)
					if err != nil {
						errors.Add(1)
						return
					}
					for _, h := range reply.Hits {
						if want, ok := sw.titles[s][h.DocID]; !ok || (h.Title != "" && h.Title != want) {
							corrupted.Add(1)
							break
						}
					}
					completed.Add(1)
					hist.Observe(lat)
				}(next, q)
			}
		}(u)
	}
	wg.Wait()
	reqWg.Wait()
	elapsed := time.Since(start)

	res := ServeResult{
		OfferedQPS:  rateQPS,
		DurationSec: elapsed.Seconds(),
		Sent:        sent.Load(),
		Completed:   completed.Load(),
		Errors:      errors.Load(),
		Shed:        shed.Load(),
		Corrupted:   corrupted.Load(),
		Dispatches:  ipcs.PollerDispatches() - dispatchBefore,
	}
	res.AchievedQPS = float64(res.Completed) / elapsed.Seconds()
	if v, ok := reg.Snapshot().Histograms["serve.query_latency"]; ok {
		res.P50us = v.Quantile(0.50).Microseconds()
		res.P90us = v.Quantile(0.90).Microseconds()
		res.P99us = v.Quantile(0.99).Microseconds()
		res.P999us = v.Quantile(0.999).Microseconds()
	}
	sw.logf("serve: offered %.0f qps for %.1fs → achieved %.0f qps (%d ok, %d err, %d shed, %d corrupt) p50=%dµs p99=%dµs p999=%dµs\n",
		rateQPS, elapsed.Seconds(), res.AchievedQPS, res.Completed, res.Errors, res.Shed, res.Corrupted,
		res.P50us, res.P99us, res.P999us)
	return res, nil
}

// Saturate sweeps offered load upward (doubling from startQPS) until the
// system stops keeping up — achieved < keepUp×offered — and returns every
// window measured, the last of which is past the knee. The sweep reuses
// one world: same circuits, same caches, E-MEM style.
func (sw *ServeWorld) Saturate(startQPS, keepUp float64, window time.Duration, maxWindows int) ([]ServeResult, error) {
	var out []ServeResult
	rate := startQPS
	for i := 0; i < maxWindows; i++ {
		r, err := sw.Run(rate, window)
		if err != nil {
			return out, err
		}
		out = append(out, r)
		if r.AchievedQPS < keepUp*r.OfferedQPS {
			break
		}
		rate *= 2
	}
	return out, nil
}

// SaturationQPS picks the best achieved rate among windows that kept up.
func SaturationQPS(results []ServeResult, keepUp float64) float64 {
	best := 0.0
	for _, r := range results {
		if r.AchievedQPS >= keepUp*r.OfferedQPS && r.AchievedQPS > best {
			best = r.AchievedQPS
		}
	}
	if best == 0 && len(results) > 0 {
		// Saturated on the very first window: the achieved rate is the
		// saturation point itself.
		for _, r := range results {
			best = math.Max(best, r.AchievedQPS)
		}
	}
	return best
}
