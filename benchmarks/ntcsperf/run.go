package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// One run is one fresh process and one workload:
//
//  1. adaptive pre-roll: load both cores until the host probes stop moving;
//  2. the window: one segment per second of -seconds. A segment first boots
//     and closes the workload's world bootsPerSegment times, timed (set-up is
//     measured between the segments, under the same host weather as the
//     window, not in one burst before it); then it boots the world it
//     measures on, warms it up (the first half beside the spin kernel again),
//     forces a GC and records one second. The median segment and the median
//     boot are reported;
//  3. close-out: forced GC for heap_mb on the last world, host re-probe,
//     every metric printed.
//
// A traced run (-trace 1) records spans in every other segment, sums the
// program's counter deltas over the segments, then runs the ladders on the
// last world, and reports the per-layer metrics instead of the end-to-end
// ones.

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec names one metric the benchmark emits. BENCHMARK.json lists the
// same names; the smoke test holds the two together.
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"allocs_per_op", "count"},
	{"heap_mb", "MB"},
}

var perLayer = []metricSpec{
	{"core.call_us", "us"}, {"core.send_us", "us"}, {"core.self_us", "us"}, {"core.first_boot_ms", "ms"},
	{"pack.encode_ns", "ns"}, {"pack.decode_ns", "ns"}, {"pack.encode_allocs", "count"}, {"pack.decode_allocs", "count"},
	{"pack.msg_bytes", "B"}, {"pack.plan_hit_share", "%"}, {"pack.compiles", "count"},
	{"wire.append_frame_ns", "ns"}, {"wire.unmarshal_ns", "ns"}, {"wire.patch_relay_ns", "ns"},
	{"lcm.call_us", "us"}, {"lcm.send_us", "us"}, {"lcm.self_us", "us"}, {"lcm.calls_per_op", "count"},
	{"lcm.sends_per_op", "count"}, {"lcm.destcache_hit_share", "%"}, {"lcm.retries_per_kop", "count"},
	{"lcm.call_p50_us", "us"}, {"lcm.call_p99_us", "us"},
	{"iplayer.relays_per_op", "count"}, {"iplayer.cutthrough_share", "%"}, {"iplayer.send_us", "us"}, {"iplayer.self_us", "us"},
	{"ndlayer.send_us", "us"}, {"ndlayer.self_us", "us"}, {"ndlayer.frames_out_per_op", "count"},
	{"ndlayer.bytes_out_per_op", "B"}, {"ndlayer.frames_per_batch", "count"},
	{"ndlayer.backpressure_waits_per_kop", "count"}, {"ndlayer.nacks_per_kop", "count"},
	{"ipcs.rtt_us", "us"}, {"ipcs.send_us", "us"}, {"ipcs.poller_wakeups_per_op", "count"},
	{"ipcs.poller_dispatches_per_op", "count"}, {"ipcs.poller_polls_per_op", "count"}, {"ipcs.poller_full_batches", "count"},
	{"nsp.resolve_cold_us", "us"}, {"nsp.resolve_leased_us", "us"}, {"nsp.queries_per_boot", "count"},
	{"nsp.queries_per_op", "count"}, {"nsp.cache_hit_share", "%"}, {"nameserver.ops_per_boot", "count"},
	{"ursa.subcalls_per_query", "count"}, {"ursa.index_lookup_us", "us"}, {"ursa.doc_fetch_us", "us"}, {"ursa.search_self_us", "us"},
	{"runtime.gc_cycles_per_s", "1/s"}, {"runtime.gc_pause_us_per_s", "us/s"}, {"runtime.goroutines", "count"},
	{"host.wake_us_before", "us"}, {"host.wake_us_after", "us"}, {"host.spin_mops_before", "Mops/s"}, {"host.spin_mops_after", "Mops/s"},
	{"harness.window_iqr_pct", "%"}, {"harness.preroll_s", "s"}, {"harness.trace_overhead_pct", "%"},
	// The three end-to-end figures of the issue that ten runs of one commit
	// did not repeat closely enough to be bounded (see the README): reported
	// from the untraced segments, not refereed.
	{"window.lat_p50_us", "us"}, {"window.lat_p99_us", "us"}, {"window.cpu_us_per_op", "us"},
}

// protocol holds the run's durations and counts.
type protocol struct {
	prerollMin, prerollCap time.Duration
	segments               int
	bootsPerSegment        int // timed boot-and-close cycles before each segment's own boot
	warmup, refresh        time.Duration
	segment                time.Duration
	ladder                 ladderCounts
}

const (
	segmentBoots       = 2
	tracedSegmentBoots = 1
	tracedSegments     = 15
)

func protocolFor(seconds int, trace, short bool) protocol {
	p := protocol{
		prerollMin: 4 * time.Second, prerollCap: 6 * time.Second,
		segments: seconds, bootsPerSegment: segmentBoots,
		warmup: segmentWarmup, refresh: segmentRefresh, segment: segmentLength, ladder: fullLadder,
	}
	if trace {
		p.bootsPerSegment = tracedSegmentBoots
		p.segments = min(p.segments, tracedSegments)
	}
	if short {
		// Smoke sizing: the same second of measuring, in four segments, and
		// no spin kernel at all. The smoke test runs beside the rest of the
		// repository's tests, some of which do not like a loaded host.
		p.prerollMin, p.prerollCap, p.refresh = 0, 0, 0
		p.bootsPerSegment, p.ladder = 1, shortLadder
		p.segments, p.segment, p.warmup = 4*seconds, segmentLength/4, segmentWarmup/5
	}
	return p
}

// envStamp says where and how a run was made.
type envStamp struct {
	Commit        string      `json:"commit"`
	GoVersion     string      `json:"go_version"`
	GOMAXPROCS    int         `json:"gomaxprocs"`
	NProc         int         `json:"nproc"`
	Kernel        string      `json:"kernel"`
	Seed          int64       `json:"seed"`
	WindowS       float64     `json:"window_s"`
	Segments      int         `json:"segments"`
	SegmentS      float64     `json:"segment_s"`
	SetupBoots    int         `json:"setup_boots"`
	SetupTotalS   float64     `json:"setup_total_s"`
	PrerollS      float64     `json:"preroll_s"`
	HostBefore    hostProbe   `json:"host_before"`
	HostAfter     hostProbe   `json:"host_after"`
	ProbeTimeline []hostProbe `json:"probe_timeline"`
	Disturbed     bool        `json:"disturbed"`
	Short         bool        `json:"short,omitempty"`
}

// record is everything one run produced.
type record struct {
	Workload  string            `json:"workload"`
	Unit      string            `json:"op_unit"`
	Trace     bool              `json:"trace"`
	Env       envStamp          `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Corrupted int64             `json:"corrupted"`
	Failures  []string          `json:"failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	// WindowP99US and Segments hold what an untraced run measured beyond its
	// metrics: the three demoted figures, and every segment's reading.
	WindowP99US float64              `json:"window_lat_p99_us,omitempty"`
	Segments    map[string][]float64 `json:"segments,omitempty"`
}

type runConfig struct {
	workload     workload
	seed         int64
	seconds      int
	trace        bool
	short        bool // smoke sizing; only the smoke test sets it
	corruptEvery int
	outDir       string // where the span file goes
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func kernel() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// disturbedBy says whether the host moved between the two probes by more
// than disturbedTolerance on either reading.
func disturbedBy(before, after hostProbe) bool {
	return !within(after.WakeUS, before.WakeUS, disturbedTolerance) || !within(after.SpinMops, before.SpinMops, disturbedTolerance)
}

// runSegment drives one freshly booted world through one segment: warm-up
// beside the spin kernel, forced GC, the recorded second. spans says
// whether the callers record spans; totals, when set, receives the
// segment's counter deltas.
func runSegment(ctx context.Context, in *instance, p protocol, spans bool, totals *layerTotals) (*closedLoop, segmentStats, []string) {
	bootCounters := in.w.counters()
	if totals != nil {
		for _, m := range in.clients {
			setHistograms(m, true)
		}
	}
	loop := newClosedLoop(in, spans)
	loop.start(ctx)
	refreshed := make(chan struct{})
	go func() {
		defer close(refreshed)
		if p.refresh > 0 {
			probeSpinMops(p.refresh)
		}
	}()
	time.Sleep(p.warmup)
	<-refreshed
	runtime.GC()
	var snap layerSnapshot
	if totals != nil {
		snap = snapshotLayers(in)
	}
	from, to := loop.record(p.segment)
	if totals != nil {
		totals.add(snap, snapshotLayers(in), bootCounters)
	}
	loop.halt()
	seg, fails := loop.stats(from, to)
	seg.Traced = spans
	return loop, seg, fails
}

func runOnce(ctx context.Context, cfg runConfig) (*record, error) {
	p := protocolFor(cfg.seconds, cfg.trace, cfg.short)
	wl := cfg.workload
	rec := &record{Workload: wl.name, Unit: wl.unit, Trace: cfg.trace, Metrics: map[string]metric{}}
	rec.Env = envStamp{
		Commit: commit(), GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		Kernel: kernel(), Seed: cfg.seed, WindowS: float64(p.segments) * p.segment.Seconds(),
		Segments: p.segments, SegmentS: p.segment.Seconds(), SetupBoots: p.segments * p.bootsPerSegment, Short: cfg.short,
	}

	// 1. Pre-roll.
	before, spent, timeline := preroll(p.prerollMin, p.prerollCap)
	rec.Env.HostBefore, rec.Env.PrerollS, rec.Env.ProbeTimeline = before, spent.Seconds(), timeline

	// 2. The window: timed boots, then one measured world, per segment. The
	// last world stays up for the close-out and the ladders.
	var (
		bootS  = make([]float64, 0, p.segments*p.bootsPerSegment)
		stats  []segmentStats
		layers layerTotals
		digest spanDigest
		last   *instance
	)
	defer func() {
		if last != nil {
			last.close()
		}
	}()
	for k := 0; k < p.segments; k++ {
		if last != nil {
			last.close()
			last = nil
		}
		for b := 0; b < p.bootsPerSegment; b++ {
			t0 := time.Now()
			in, err := wl.boot(ctx, cfg.seed, bootOptions{})
			if err != nil {
				return nil, fmt.Errorf("segment %d timed boot %d: %w", k, b, err)
			}
			in.close()
			bootS = append(bootS, time.Since(t0).Seconds())
		}
		in, err := wl.boot(ctx, cfg.seed, bootOptions{corruptEvery: cfg.corruptEvery})
		if err != nil {
			return nil, fmt.Errorf("segment %d boot: %w", k, err)
		}
		last = in
		var totals *layerTotals
		if cfg.trace {
			totals = &layers
		}
		loop, seg, fails := runSegment(ctx, in, p, cfg.trace && k%2 == 1, totals)
		stats = append(stats, seg)
		rec.Corrupted += loop.corrupt.Load()
		if len(rec.Failures) < 6 {
			rec.Failures = append(rec.Failures, fails...)
		}
		for _, lc := range loop.callers {
			if lc.spans != nil {
				digest.absorb(lc.spans)
			}
		}
	}
	for _, b := range bootS {
		rec.Env.SetupTotalS += b
	}

	// 3. Close-out.
	var ops, failed int64
	for _, seg := range stats {
		ops += seg.Ops
		failed += seg.Failed
	}
	if wl.unit == "msgs" {
		failed *= burstLen // a failed burst fails all its messages
	}
	rec.Attempted, rec.Failed = ops+failed, failed
	if ops == 0 {
		return nil, fmt.Errorf("no operation completed in the window (%d failed: %v)", failed, rec.Failures)
	}
	rec.Correct = rec.Corrupted == 0 && rec.Failed == 0
	// The tail is read from the latencies of all untraced segments together,
	// not per segment, and the samples are dropped before the heap is measured.
	var pooled []int64
	for k := range stats {
		if !stats[k].Traced {
			pooled = append(pooled, stats[k].Lat...)
		}
		stats[k].Lat = nil
	}
	sort.Slice(pooled, func(i, j int) bool { return pooled[i] < pooled[j] })
	windowP99US := quantile(pooled, 0.99) / 1e3
	runtime.GC()
	runtime.GC() // the second cycle empties the sync.Pool victim caches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var after hostProbe
	if p.prerollCap > 0 {
		after = probeHost()
	}
	rec.Env.HostAfter = after
	rec.Env.Disturbed = disturbedBy(before, after)

	if !cfg.trace {
		rec.Segments = map[string][]float64{
			"setup_s":       bootS,
			"ops_per_s":     column(stats, func(s segmentStats) float64 { return s.OpsPerS }),
			"lat_p50_us":    column(stats, func(s segmentStats) float64 { return s.P50US }),
			"lat_p99_us":    column(stats, func(s segmentStats) float64 { return s.P99US }),
			"cpu_us_per_op": column(stats, func(s segmentStats) float64 { return s.CPUUSPerOp }),
			"allocs_per_op": column(stats, func(s segmentStats) float64 { return s.AllocsPerOp }),
		}
		values := map[string]float64{"heap_mb": float64(ms.HeapAlloc) / (1 << 20)}
		for name, col := range rec.Segments {
			values[name] = median(col)
		}
		rec.WindowP99US = windowP99US
		for _, spec := range endToEnd {
			rec.Metrics[spec.name] = metric{Value: values[spec.name], Unit: spec.unit}
		}
		return rec, nil
	}

	// Traced run: ladders on the last world, then the per-layer metrics.
	ladderBuf := newSpanBuf(callers)
	lad, err := runLadders(ctx, last, wl, p.ladder, ladderBuf)
	if err != nil {
		return nil, fmt.Errorf("ladders: %w", err)
	}
	values := layerValues(layerInputs{
		wl: wl, rec: rec, stats: stats, totals: &layers, ladders: lad, ladderSpans: ladderBuf.spans,
		firstBootS: bootS[0], ops: ops, windowP99US: windowP99US,
	})
	for _, spec := range perLayer {
		rec.Metrics[spec.name] = metric{Value: values[spec.name], Unit: spec.unit}
	}
	if cfg.outDir != "" {
		digest.absorb(ladderBuf)
		path := filepath.Join(cfg.outDir, wl.name+".trace.json")
		if err := digest.write(path, wl.name, cfg.seed); err != nil {
			fmt.Fprintln(os.Stderr, "ntcsperf: span file:", err)
		}
	}
	return rec, nil
}
