package ndlayer

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ntcs/internal/addr"
	"ntcs/internal/ipcs/memnet"
	"ntcs/internal/machine"
)

// scaleBinding is the stripped-down fixture for the scale tests: no
// per-binding channels (a buffered chan per binding would itself distort
// the memory numbers), deliveries go to the supplied callback or are
// discarded, and all bindings share one endpoint cache.
func scaleBinding(t testing.TB, net *memnet.Net, cache *addr.EndpointCache, name string, u addr.UAdd, deliver func(Inbound)) *Binding {
	t.Helper()
	if deliver == nil {
		deliver = func(Inbound) {}
	}
	b, err := New(Config{
		Network:       net,
		EndpointHint:  name,
		Identity:      &testIdentity{u: u, m: machine.VAX, name: name},
		Cache:         cache,
		Deliver:       deliver,
		OnCircuitDown: func(addr.UAdd, *LVC, error) {},
		OpenTimeout:   30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// openMesh opens a circuit for every (i, j) pair with i < j, fanning the
// dials out over a bounded worker pool, and fails the test on the first
// open error.
func openMesh(t testing.TB, bindings []*Binding, uadds []addr.UAdd, workers int) {
	t.Helper()
	type pair struct{ i, j int }
	work := make(chan pair, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for p := range work {
				if _, err := bindings[p.i].Open(uadds[p.j]); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("open %d->%d: %w", p.i, p.j, err)
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := range bindings {
		for j := i + 1; j < len(bindings); j++ {
			work <- pair{i, j}
		}
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
}

// TestIdleCircuitGoroutineBudget is the CI scale gate: a fully meshed
// population of bindings holds thousands of established, idle circuits,
// and the process goroutine count must reflect the event-driven substrate
// — one accept loop per binding, NOT a reader or flusher goroutine per
// circuit (a queue's drain goroutine exits once the queue is empty).
// With a reader per LVC, each circuit cost at least one parked goroutine
// and this budget was unreachable.
func TestIdleCircuitGoroutineBudget(t *testing.T) {
	const (
		nBindings = 100
		budget    = 600 // ~1/binding + draining queues + test runner slack
	)
	net := memnet.New("scale", memnet.Options{})
	cache := addr.NewEndpointCache()
	bindings := make([]*Binding, nBindings)
	uadds := make([]addr.UAdd, nBindings)
	for i := range bindings {
		uadds[i] = addr.UAdd(10_000 + i)
		bindings[i] = scaleBinding(t, net, cache, fmt.Sprintf("b-%03d", i), uadds[i], nil)
	}
	for i, b := range bindings {
		cache.Put(uadds[i], b.Endpoint())
	}

	openMesh(t, bindings, uadds, 32)
	circuits := nBindings * (nBindings - 1) / 2
	t.Logf("%d bindings, %d circuits (%d LVC endpoints) established", nBindings, circuits, 2*circuits)

	// Handshake goroutines are transient; give them a moment to drain,
	// polling rather than sleeping a fixed worst case.
	deadline := time.Now().Add(10 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n < budget {
			t.Logf("idle goroutines: %d (budget %d)", n, budget)
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine count %d never settled under budget %d: circuits are not event-driven", n, budget)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestHotSenderDoesNotStarveIdleCircuits extends the FIFO fairness suite
// down to the ND-Layer: one circuit floods a receiver flat out while a
// thousand circuits sit idle, then every idle circuit sends a single
// frame. All thousand must land promptly — each busy pipe and send queue
// drains on a goroutine of its own, so the hot circuit's drains share
// the Go scheduler with the cold ones and cannot starve them.
func TestHotSenderDoesNotStarveIdleCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-binding fairness soak")
	}
	const nIdle = 1000
	net := memnet.New("fair", memnet.Options{})
	cache := addr.NewEndpointCache()

	const (
		recvU = addr.UAdd(500)
		hotU  = addr.UAdd(501)
	)
	var mu sync.Mutex
	seen := make(map[addr.UAdd]bool)
	var idleSeen atomic.Int64
	recv := scaleBinding(t, net, cache, "fair-recv", recvU, func(in Inbound) {
		src := in.Header.Src
		if src == hotU {
			return
		}
		mu.Lock()
		if !seen[src] {
			seen[src] = true
			idleSeen.Add(1)
		}
		mu.Unlock()
	})
	cache.Put(recvU, recv.Endpoint())

	// The hot sender goes through the group-commit writer, so its send
	// queue's drain is on the fairness path too, not just memnet's.
	hot := scaleBinding(t, net, cache, "fair-hot", hotU, nil)

	idle := make([]*LVC, nIdle)
	idleU := make([]addr.UAdd, nIdle)
	for i := range idle {
		idleU[i] = addr.UAdd(1000 + i)
		b := scaleBinding(t, net, cache, fmt.Sprintf("fair-%04d", i), idleU[i], nil)
		v, err := b.Open(recvU)
		if err != nil {
			t.Fatal(err)
		}
		idle[i] = v
	}

	hotLVC, err := hot.Open(recvU)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var flooded atomic.Int64
	go func() {
		h := dataHeader(hotU, recvU, machine.VAX)
		body := []byte("hot")
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := hotLVC.Send(h, body); err == nil {
				flooded.Add(1)
			}
		}
	}()
	defer close(stop)

	// Let the flood saturate the receiver's pools before the idle
	// circuits wake up.
	floodDeadline := time.Now().Add(5 * time.Second)
	for flooded.Load() < 1000 {
		if time.Now().After(floodDeadline) {
			t.Fatalf("hot sender only pushed %d frames", flooded.Load())
		}
		time.Sleep(time.Millisecond)
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, 64)
	for i := range idle {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := idle[i].Send(dataHeader(idleU[i], recvU, machine.VAX), []byte("wake")); err != nil {
				t.Errorf("idle sender %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	deadline := time.Now().Add(30 * time.Second)
	for idleSeen.Load() < nIdle {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d idle circuits delivered under a hot sender (%d hot frames relayed): starvation",
				idleSeen.Load(), nIdle, flooded.Load())
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("all %d idle frames delivered while the hot circuit pushed %d", nIdle, flooded.Load())
}

// TestScale100kCircuits is the C1M-direction headline number, gated
// behind NTCS_SCALE=1 (run via `make bench-scale`): ~320 bindings fully
// meshed hold >100k live LVC endpoints in one process, and the goroutine
// count stays proportional to bindings, not circuits. Results feed
// BENCH_PR6.json.
func TestScale100kCircuits(t *testing.T) {
	if os.Getenv("NTCS_SCALE") == "" {
		t.Skip("set NTCS_SCALE=1 (or run `make bench-scale`) for the 100k-circuit benchmark")
	}
	const nBindings = 320
	net := memnet.New("c100k", memnet.Options{})
	cache := addr.NewEndpointCache()

	var delivered atomic.Int64
	g0 := runtime.NumGoroutine()
	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)

	bindings := make([]*Binding, nBindings)
	uadds := make([]addr.UAdd, nBindings)
	for i := range bindings {
		uadds[i] = addr.UAdd(100_000 + i)
		bindings[i] = scaleBinding(t, net, cache, fmt.Sprintf("c-%03d", i), uadds[i],
			func(Inbound) { delivered.Add(1) })
	}
	for i, b := range bindings {
		cache.Put(uadds[i], b.Endpoint())
	}

	start := time.Now()
	openMesh(t, bindings, uadds, 128)
	establish := time.Since(start)
	circuits := nBindings * (nBindings - 1) / 2
	endpoints := 2 * circuits

	// Every circuit stays up and usable: sweep one data frame across a
	// stride of them and watch the deliveries land.
	const sample = 1000
	sent := 0
	for k := 0; k < sample; k++ {
		i := k % nBindings
		j := (i + 1 + k%(nBindings-1)) % nBindings
		v, err := bindings[i].Open(uadds[j]) // warm path: existing LVC
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Send(dataHeader(uadds[i], uadds[j], machine.VAX), []byte("ping")); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	deadline := time.Now().Add(30 * time.Second)
	for delivered.Load() < int64(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d sample frames delivered", delivered.Load(), sent)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Let handshake transients exit before counting.
	time.Sleep(500 * time.Millisecond)
	gN := runtime.NumGoroutine()
	runtime.GC()
	var mN runtime.MemStats
	runtime.ReadMemStats(&mN)

	t.Logf("circuits=%d lvc_endpoints=%d establish=%v (%.0f/s)",
		circuits, endpoints, establish, float64(circuits)/establish.Seconds())
	t.Logf("goroutines=%d (baseline %d, %.4f per circuit) heap_alloc=%.1f MiB (%.0f B per LVC endpoint)",
		gN, g0, float64(gN-g0)/float64(circuits),
		float64(mN.HeapAlloc)/(1<<20), float64(mN.HeapAlloc-m0.HeapAlloc)/float64(endpoints))

	// NTCS_MEMPROFILE dumps a heap profile here, while the mesh is live:
	// the -memprofile flag writes its profile after test cleanup has torn
	// the mesh down, which captures an empty heap. Used by `make
	// memprofile`.
	if path := os.Getenv("NTCS_MEMPROFILE"); path != "" {
		f, err := os.Create(path)
		if err != nil {
			t.Fatalf("memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			t.Fatalf("memprofile: %v", err)
		}
		f.Close()
		t.Logf("wrote live-mesh heap profile to %s", path)
	}

	if endpoints < 100_000 {
		t.Fatalf("mesh holds %d LVC endpoints, want >= 100k", endpoints)
	}
	// Sublinearity assertion: a goroutine-per-circuit design would sit at
	// ~50k+ goroutines here; the event-driven substrate needs roughly one
	// per binding.
	if gN > 4*nBindings {
		t.Fatalf("%d goroutines for %d bindings / %d circuits: not sublinear in circuits", gN, nBindings, circuits)
	}
}

// settledHeap forces collection until consecutive readings agree, then
// returns HeapAlloc. Two GC cycles let finalizer-freed objects (closed
// conns, drained handshake buffers) actually leave the heap before the
// reading is taken; a single GC systematically over-reports.
func settledHeap() uint64 {
	var m runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// buildMesh constructs a fully meshed binding population on a fresh
// memnet and returns the bindings; endpoints = n*(n-1) live LVCs.
func buildMesh(t testing.TB, id string, n, workers, uaddBase int) []*Binding {
	t.Helper()
	net := memnet.New(id, memnet.Options{})
	cache := addr.NewEndpointCache()
	bindings := make([]*Binding, n)
	uadds := make([]addr.UAdd, n)
	for i := range bindings {
		uadds[i] = addr.UAdd(uaddBase + i)
		bindings[i] = scaleBinding(t, net, cache, fmt.Sprintf("%s-%04d", id, i), uadds[i], nil)
	}
	for i, b := range bindings {
		cache.Put(uadds[i], b.Endpoint())
	}
	openMesh(t, bindings, uadds, workers)
	return bindings
}

// meshEndpointBytes measures per-LVC-endpoint heap for an n-binding mesh:
// heap delta across mesh construction divided by live endpoints, after
// handshake transients drain. When eager is set, every LVC materializes
// its cold block at birth, reconstructing the pay-up-front layout the
// lazy path replaced — the same-run before/after for BENCH_PR9.
func meshEndpointBytes(t *testing.T, id string, n int, eager bool) float64 {
	t.Helper()
	forceEagerCold = eager
	defer func() { forceEagerCold = false }()
	before := settledHeap()
	bindings := buildMesh(t, id, n, 64, 10_000)
	time.Sleep(300 * time.Millisecond) // handshake transients
	endpoints := n * (n - 1)
	perEP := float64(settledHeap()-before) / float64(endpoints)
	for _, b := range bindings {
		b.Close()
	}
	time.Sleep(100 * time.Millisecond) // accept loops exit
	return perEP
}

// TestEndpointHeapBudget is the memory twin of the goroutine budget gate,
// run in CI via `make scale-gate`: a fully meshed population of idle
// circuits must fit a per-endpoint heap ceiling, so a regression that
// fattens the LVC, its conn, or the circuit tables fails CI long before
// anyone re-runs the 1M benchmark. The ceiling is looser than the 1M
// test's 400 B gate because a 100-binding mesh amortizes fixed costs
// (bindings, caches, pool machinery) over only ~10k endpoints.
func TestEndpointHeapBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow memory distorts heap accounting")
	}
	if testing.Short() {
		t.Skip("meshes 100 bindings")
	}
	const (
		nBindings = 100
		budget    = 600.0 // bytes per LVC endpoint, small-mesh calibrated
	)
	perEP := meshEndpointBytes(t, "membudget", nBindings, false)
	endpoints := nBindings * (nBindings - 1)
	t.Logf("%d bindings, %d LVC endpoints: %.0f B per endpoint (budget %.0f)",
		nBindings, endpoints, perEP, budget)
	if perEP > budget {
		t.Fatalf("%.0f B per LVC endpoint exceeds the %.0f B budget: per-circuit state got fatter", perEP, budget)
	}
}

// TestScale1MEndpoints is the C1M headline, gated behind NTCS_SCALE=1
// (run via `make bench-scale`): 1001 bindings fully meshed hold
// 1,001,000 live LVC endpoints in one process, with goroutines bounded
// by bindings and heap bounded at 400 B per endpoint. It first measures
// a small mesh with eager cold blocks, so BENCH_PR9.json records the
// before/after of the lazy-cold diet from the same run and binary.
func TestScale1MEndpoints(t *testing.T) {
	if os.Getenv("NTCS_SCALE") == "" {
		t.Skip("set NTCS_SCALE=1 (or run `make bench-scale`) for the 1M-endpoint benchmark")
	}
	if raceEnabled {
		t.Skip("race detector shadow memory distorts heap accounting")
	}

	// Same-run comparison: identical small meshes, eager vs lazy cold
	// blocks. This isolates the cold-block savings; the historical parent
	// (782 B/endpoint, BENCH_PR6) additionally includes the pre-diet
	// struct widths and sync.Map tables.
	const cmpBindings = 60
	eagerB := meshEndpointBytes(t, "cmp-eager", cmpBindings, true)
	lazyB := meshEndpointBytes(t, "cmp-lazy", cmpBindings, false)
	t.Logf("small-mesh cold-block comparison: eager %.0f B/endpoint, lazy %.0f B/endpoint", eagerB, lazyB)

	const (
		nBindings  = 1001
		workers    = 256
		budgetB    = 400.0 // bytes per LVC endpoint, hard gate
		sampleSize = 1000
	)
	var delivered atomic.Int64
	deliver := func(Inbound) { delivered.Add(1) }

	g0 := runtime.NumGoroutine()
	heap0 := settledHeap()

	net := memnet.New("c1m", memnet.Options{})
	cache := addr.NewEndpointCache()
	bindings := make([]*Binding, nBindings)
	uadds := make([]addr.UAdd, nBindings)
	for i := range bindings {
		uadds[i] = addr.UAdd(100_000 + i)
		bindings[i] = scaleBinding(t, net, cache, fmt.Sprintf("m-%04d", i), uadds[i], deliver)
	}
	for i, b := range bindings {
		cache.Put(uadds[i], b.Endpoint())
	}

	start := time.Now()
	openMesh(t, bindings, uadds, workers)
	establish := time.Since(start)
	circuits := nBindings * (nBindings - 1) / 2
	endpoints := 2 * circuits

	// The mesh must be live, not just allocated: sweep a sample of
	// circuits with one data frame each and watch the deliveries land.
	sent := 0
	for k := 0; k < sampleSize; k++ {
		i := k % nBindings
		j := (i + 1 + k%(nBindings-1)) % nBindings
		v, err := bindings[i].Open(uadds[j]) // warm path: existing LVC
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Send(dataHeader(uadds[i], uadds[j], machine.VAX), []byte("ping")); err != nil {
			t.Fatal(err)
		}
		sent++
	}
	deadline := time.Now().Add(60 * time.Second)
	for delivered.Load() < int64(sent) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d sample frames delivered", delivered.Load(), sent)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Settle: handshake goroutines are transient; poll until the count
	// drops under the gate rather than sleeping a fixed worst case.
	gN := runtime.NumGoroutine()
	settleDeadline := time.Now().Add(120 * time.Second)
	for gN > 4*nBindings && time.Now().Before(settleDeadline) {
		time.Sleep(100 * time.Millisecond)
		gN = runtime.NumGoroutine()
	}
	heapN := settledHeap()
	perEP := float64(heapN-heap0) / float64(endpoints)

	t.Logf("bindings=%d circuits=%d lvc_endpoints=%d establish=%v (%.0f circuits/s)",
		nBindings, circuits, endpoints, establish, float64(circuits)/establish.Seconds())
	t.Logf("goroutines=%d (baseline %d) heap=%.1f MiB (%.0f B per LVC endpoint, budget %.0f, parent 782)",
		gN, g0, float64(heapN-heap0)/(1<<20), perEP, budgetB)

	if endpoints < 1_000_000 {
		t.Fatalf("mesh holds %d LVC endpoints, want >= 1,000,000", endpoints)
	}
	if gN > 4*nBindings {
		t.Fatalf("%d goroutines for %d bindings: not sublinear in circuits", gN, nBindings)
	}
	if perEP > budgetB {
		t.Fatalf("%.0f B per LVC endpoint exceeds the %.0f B budget", perEP, budgetB)
	}

	writeBenchPR9(t, benchPR9{
		Bindings: nBindings, Circuits: circuits, Endpoints: endpoints,
		EstablishSeconds: establish.Seconds(),
		EstablishPerSec:  float64(circuits) / establish.Seconds(),
		Goroutines:       gN, GoroutineBaseline: g0,
		HeapMiB: float64(heapN-heap0) / (1 << 20), BytesPerEndpoint: perEP,
		BudgetBytes: budgetB, ParentBytesPerEndpoint: 782,
		CmpEagerBytes: eagerB, CmpLazyBytes: lazyB, CmpBindings: cmpBindings,
	})
}

type benchPR9 struct {
	Bindings, Circuits, Endpoints     int
	EstablishSeconds, EstablishPerSec float64
	Goroutines, GoroutineBaseline     int
	HeapMiB, BytesPerEndpoint         float64
	BudgetBytes                       float64
	ParentBytesPerEndpoint            float64
	CmpEagerBytes, CmpLazyBytes       float64
	CmpBindings                       int
}

// writeBenchPR9 rewrites BENCH_PR9.json at the repo root with this run's
// numbers, mirroring the BENCH_PR6 format so the series reads as one
// document.
func writeBenchPR9(t *testing.T, r benchPR9) {
	t.Helper()
	doc := map[string]any{
		"description": fmt.Sprintf(
			"PR-9 C1M memory diet: %d ND bindings on one memnet are fully meshed (%d handshaken circuits = %d live LVC endpoints) in one process. "+
				"Run via `make bench-scale` (NTCS_SCALE=1 go test ./internal/ndlayer -run 'TestScale100kCircuits|TestScale1MEndpoints'). "+
				"A %d-frame sweep proves the mesh is usable end to end, then goroutines and heap are read after transients settle.",
			r.Bindings, r.Circuits, r.Endpoints, 1000),
		"benchmarks": map[string]any{
			"TestScale1MEndpoints": map[string]any{
				"bindings":                     r.Bindings,
				"circuits":                     r.Circuits,
				"lvc_endpoints":                r.Endpoints,
				"establish_seconds":            round2(r.EstablishSeconds),
				"establishments_per_sec":       int(r.EstablishPerSec),
				"goroutines_total":             r.Goroutines,
				"goroutines_baseline":          r.GoroutineBaseline,
				"heap_alloc_mib":               round2(r.HeapMiB),
				"heap_bytes_per_lvc_endpoint":  int(r.BytesPerEndpoint),
				"budget_bytes_per_endpoint":    int(r.BudgetBytes),
				"parent_bytes_per_endpoint":    int(r.ParentBytesPerEndpoint),
				"parent_source":                "BENCH_PR6.json TestScale100kCircuits (pre-diet layout)",
				"same_run_eager_cold_bytes":    int(r.CmpEagerBytes),
				"same_run_lazy_cold_bytes":     int(r.CmpLazyBytes),
				"same_run_comparison_bindings": r.CmpBindings,
				"note": "Same-run comparison meshes identical small populations with cold blocks forced eager vs lazy, isolating the lazy-cold-block savings with one binary and one heap. " +
					"The parent figure additionally includes the pre-diet struct widths (mutex+bool pairs, 64-bit ids, per-circuit flow structs) and sync.Map circuit tables replaced by wordmap.",
			},
		},
		"methodology": "Heap deltas are HeapAlloc after repeated runtime.GC() settle passes, divided by live LVC endpoints; goroutines are polled until under the 4x-bindings gate. " +
			"The 1M-endpoint floor, goroutine gate, and 400 B/endpoint ceiling are enforced by the test, not just logged. " +
			"TestEndpointHeapBudget enforces a looser small-mesh ceiling (600 B) in every CI run via make scale-gate.",
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("marshal BENCH_PR9: %v", err)
	}
	if err := os.WriteFile("../../BENCH_PR9.json", append(data, '\n'), 0o644); err != nil {
		t.Fatalf("write BENCH_PR9.json: %v", err)
	}
	t.Logf("wrote BENCH_PR9.json")
}

func round2(f float64) float64 { return float64(int(f*100)) / 100 }
