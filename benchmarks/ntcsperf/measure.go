package main

import (
	"context"
	"errors"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The measured window is cut into segments of one second, and every
// segment runs on a world booted for it. Which connection lands on which
// poller shard, and which thread on which core, is drawn anew at every
// boot and then stays for the life of the world; it moves throughput by
// more than any change a later PR is likely to make. A window on one world
// measures one draw. A window of segments measures the middle of many, and
// the median segment is what the run reports.
const segmentLength = time.Second

// segmentWarmup runs unrecorded at the start of every segment. The boot
// has already completed one verified op on every circuit.
const segmentWarmup = 250 * time.Millisecond

// segmentRefresh is how long the spin kernel runs beside the warm-up. The
// boots of the set-up phase and of the segments load the host less than the
// window does, and the host starts to drift back to the rested regime within
// a second; ten runs spread half as much with the refresh as without.
const segmentRefresh = 125 * time.Millisecond

// loopCaller is the per-caller state of the closed loop. Only its own
// goroutine writes it while the loop runs; the coordinator reads it after
// the callers have stopped.
type loopCaller struct {
	lat    []int64 // per-iteration latency, ns
	ops    int64
	failed int64
	fails  []string // first few failure texts
	spans  *spanBuf
	iters  int
}

// closedLoop drives one instance's callers.
type closedLoop struct {
	in        *instance
	recording atomic.Bool
	stop      atomic.Bool
	corrupt   atomic.Int64
	callers   [callers]*loopCaller
	wg        sync.WaitGroup
}

// newClosedLoop prepares the callers; traced gives each a span buffer.
func newClosedLoop(in *instance, traced bool) *closedLoop {
	l := &closedLoop{in: in}
	for c := range l.callers {
		lc := &loopCaller{iters: 1, lat: make([]int64, 0, 1<<14)} // iteration 0 ran at boot
		if traced {
			lc.spans = newSpanBuf(c)
			lc.spans.setOn(true)
		}
		l.callers[c] = lc
	}
	return l
}

func (l *closedLoop) start(ctx context.Context) {
	for c := range l.callers {
		l.wg.Add(1)
		go func(c int) {
			defer l.wg.Done()
			lc, cl := l.callers[c], l.in.callers[c]
			for !l.stop.Load() {
				rec := l.recording.Load()
				op := noParent
				if rec {
					op = lc.spans.begin(spanOp, noParent, int64(lc.iters))
				}
				t0 := time.Now()
				n, err := cl.iter(ctx, lc.iters, lc.spans.under(op))
				lat := time.Since(t0)
				lc.spans.end(op)
				lc.iters++
				if err != nil {
					if errors.Is(err, errCorrupt) {
						l.corrupt.Add(1)
					}
					if rec {
						lc.failed++
					}
					if len(lc.fails) < 3 {
						lc.fails = append(lc.fails, err.Error())
					}
					continue
				}
				// An iteration counts where it ends.
				if l.recording.Load() {
					lc.lat = append(lc.lat, int64(lat))
					lc.ops += int64(n)
				}
			}
		}(c)
	}
}

func (l *closedLoop) halt() {
	l.stop.Store(true)
	l.wg.Wait()
}

// boundary is what the coordinator reads at a segment's edge.
type boundary struct {
	at      time.Time
	cpuUS   int64
	mallocs uint64
}

// readMallocs is the cumulative count of heap objects allocated; unlike
// runtime.ReadMemStats it does not stop the world.
func readMallocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func readBoundary() boundary {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return boundary{
		at:      time.Now(),
		cpuUS:   (ru.Utime.Sec+ru.Stime.Sec)*1e6 + int64(ru.Utime.Usec+ru.Stime.Usec),
		mallocs: readMallocs(),
	}
}

// record runs the recorded part of a segment and returns its two edges.
func (l *closedLoop) record(d time.Duration) (from, to boundary) {
	from = readBoundary()
	l.recording.Store(true)
	time.Sleep(d)
	l.recording.Store(false)
	return from, readBoundary()
}

// segmentStats are the end-to-end figures of one segment. Lat holds the
// segment's latencies, sorted, until the run has pooled them: a second of
// ursa_query_tcp has six samples beyond its 99th percentile, the window has
// over a hundred.
type segmentStats struct {
	OpsPerS     float64
	P50US       float64
	P99US       float64
	CPUUSPerOp  float64
	AllocsPerOp float64
	Ops         int64
	Failed      int64
	Traced      bool
	Lat         []int64
}

func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

// stats folds the callers' records into the segment's figures.
func (l *closedLoop) stats(from, to boundary) (s segmentStats, fails []string) {
	var lat []int64
	for _, lc := range l.callers {
		lat = append(lat, lc.lat...)
		s.Ops += lc.ops
		s.Failed += lc.failed
		fails = append(fails, lc.fails...)
	}
	if s.Ops == 0 {
		return s, fails
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	s.OpsPerS = float64(s.Ops) / to.at.Sub(from.at).Seconds()
	s.P50US = quantile(lat, 0.50) / 1e3
	s.P99US = quantile(lat, 0.99) / 1e3
	s.Lat = lat
	s.CPUUSPerOp = float64(to.cpuUS-from.cpuUS) / float64(s.Ops)
	s.AllocsPerOp = float64(to.mallocs-from.mallocs) / float64(s.Ops)
	return s, fails
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (exclusive method), so the spread the
// comparator prints is the one the contract's check computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

func column(stats []segmentStats, f func(segmentStats) float64) []float64 {
	out := make([]float64, len(stats))
	for i, s := range stats {
		out[i] = f(s)
	}
	return out
}
