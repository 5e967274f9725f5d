package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestServeGate is the CI-sized E-SERVE gate: a short open-loop window
// against sharded backends must complete real queries, return zero
// corrupted replies, and show queues starting drains (on tcpnet, the
// ND-Layer's send queues). Runs under
// -race in tier-1.
func TestServeGate(t *testing.T) {
	sw, err := BuildServeWorld(ServeConfig{
		Shards: 2,
		Users:  32,
		Conns:  8,
		Docs:   120,
	})
	if err != nil {
		t.Fatalf("BuildServeWorld: %v", err)
	}
	defer sw.Close()

	res, err := sw.Run(300, 1500*time.Millisecond)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	t.Logf("serve-gate: sent=%d completed=%d errors=%d shed=%d corrupted=%d achieved=%.0f qps p50=%dµs p99=%dµs",
		res.Sent, res.Completed, res.Errors, res.Shed, res.Corrupted, res.AchievedQPS, res.P50us, res.P99us)

	if res.Completed == 0 {
		t.Fatal("serve-gate: no queries completed")
	}
	if res.Corrupted != 0 {
		t.Fatalf("serve-gate: %d corrupted replies", res.Corrupted)
	}
	if res.Errors > res.Sent/10 {
		t.Fatalf("serve-gate: %d errors out of %d sent", res.Errors, res.Sent)
	}
	if res.Dispatches == 0 {
		t.Fatal("serve-gate: no send queue started a drain")
	}
	if res.P50us <= 0 || res.P99us < res.P50us {
		t.Fatalf("serve-gate: implausible quantiles p50=%dµs p99=%dµs", res.P50us, res.P99us)
	}
}

// TestBenchServe is `make bench-serve`: a saturation sweep of the serving
// path plus its tail at a fixed sub-saturation load, printed as JSON.
// Gated behind NTCS_SCALE because a real saturation sweep takes minutes.
// BENCH_PR10.json keeps an earlier same-run comparison of a sharded
// epoll poller against one loop (ratio 1.00 on two cores), from before
// tcpnet read each conn on its own goroutine.
func TestBenchServe(t *testing.T) {
	if os.Getenv("NTCS_SCALE") == "" {
		t.Skip("set NTCS_SCALE=1 to run the serving bench (see `make bench-serve`)")
	}

	cfg := ServeConfig{
		Shards: 4,
		Users:  1000,
		Conns:  16,
		Docs:   400,
		Out:    os.Stdout,
	}
	const (
		startQPS   = 500
		keepUp     = 0.90
		window     = 5 * time.Second
		maxWindows = 8
	)
	sw, err := BuildServeWorld(cfg)
	if err != nil {
		t.Fatalf("BuildServeWorld: %v", err)
	}
	defer sw.Close()

	windows, err := sw.Saturate(startQPS, keepUp, window, maxWindows)
	if err != nil {
		t.Fatalf("Saturate: %v", err)
	}
	saturation := SaturationQPS(windows, keepUp)
	// Tail latency at a fixed sub-saturation load (half the knee), where
	// queueing noise doesn't mask the per-request cost.
	fixed, err := sw.Run(max(saturation/2, startQPS/2), window)
	if err != nil {
		t.Fatalf("fixed-load run: %v", err)
	}
	for _, w := range append(windows, fixed) {
		if w.Corrupted != 0 {
			t.Fatalf("bench-serve: %d corrupted replies", w.Corrupted)
		}
	}
	out, err := json.MarshalIndent(map[string]any{
		"bench":      "E-SERVE open-loop serving",
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"config": map[string]any{
			"ursa_shards": cfg.Shards, "users": cfg.Users, "conns": cfg.Conns,
			"docs_per_shard": cfg.Docs, "start_qps": startQPS, "keep_up": keepUp,
			"window_sec": window.Seconds(),
		},
		"windows":        windows,
		"saturation_qps": saturation,
		"fixed_load":     fixed,
	}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	fmt.Println(string(out))
}
