// ntcsload is the open-loop serving driver: N simulated users replay
// Poisson-arrival query traffic against sharded URSA backends behind a
// gateway, over real tcpnet, and the tool reports achieved throughput
// and coordinated-omission-free p50/p99/p999.
//
// Usage:
//
//	ntcsload -users 1000 -rate 2000 -duration 10s
//	ntcsload -sweep               # double the rate until saturation
//	ntcsload -json                # machine-readable windows on stdout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"ntcs/internal/experiments"
)

func main() {
	var (
		shards   = flag.Int("shards", 2, "URSA backend shard groups")
		users    = flag.Int("users", 200, "simulated users (independent Poisson streams)")
		conns    = flag.Int("conns", 0, "client modules users multiplex onto (0 = min(users, 16))")
		docs     = flag.Int("docs", 200, "corpus documents per shard")
		rate     = flag.Float64("rate", 500, "aggregate offered load, queries/sec")
		duration = flag.Duration("duration", 5*time.Second, "measured window length")
		sweep    = flag.Bool("sweep", false, "double the rate from -rate until saturation")
		keepUp   = flag.Float64("keepup", 0.90, "sweep: achieved/offered ratio that counts as keeping up")
		seed     = flag.Int64("seed", 1, "corpus/query/arrival seed")
		inflight = flag.Int("max-inflight", 4096, "outstanding-request bound; excess arrivals are shed")
		asJSON   = flag.Bool("json", false, "emit measured windows as JSON on stdout")
	)
	flag.Parse()

	if err := run(*shards, *users, *conns, *docs, *rate, *duration, *sweep, *keepUp, *seed, *inflight, *asJSON); err != nil {
		fmt.Fprintln(os.Stderr, "ntcsload:", err)
		os.Exit(1)
	}
}

func run(shards, users, conns, docs int, rate float64, duration time.Duration, sweep bool, keepUp float64, seed int64, inflight int, asJSON bool) error {
	cfg := experiments.ServeConfig{
		Shards:      shards,
		Users:       users,
		Conns:       conns,
		Docs:        docs,
		Seed:        seed,
		MaxInFlight: inflight,
	}
	if !asJSON {
		cfg.Out = os.Stderr
	}
	sw, err := experiments.BuildServeWorld(cfg)
	if err != nil {
		return err
	}
	defer sw.Close()

	var windows []experiments.ServeResult
	if sweep {
		windows, err = sw.Saturate(rate, keepUp, duration, 10)
	} else {
		var r experiments.ServeResult
		r, err = sw.Run(rate, duration)
		windows = append(windows, r)
	}
	if err != nil {
		return err
	}

	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(map[string]any{
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"windows":    windows,
		})
	}
	fmt.Printf("%10s %10s %8s %6s %6s %9s %9s %9s\n",
		"offered", "achieved", "ok", "err", "shed", "p50", "p99", "p999")
	for _, r := range windows {
		fmt.Printf("%10.0f %10.0f %8d %6d %6d %8dµs %8dµs %8dµs\n",
			r.OfferedQPS, r.AchievedQPS, r.Completed, r.Errors, r.Shed, r.P50us, r.P99us, r.P999us)
	}
	if sweep {
		fmt.Printf("saturation: %.0f qps (GOMAXPROCS %d)\n",
			experiments.SaturationQPS(windows, keepUp), runtime.GOMAXPROCS(0))
	}
	return nil
}
