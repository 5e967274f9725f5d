package ipcs

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is one unit of connection work: typically "drain this connection's
// pending messages through its callback". A connection schedules itself at
// most once at a time, so per-connection FIFO holds without any pool-level
// ordering.
type Task interface {
	Run()
}

// Pool is the shared dispatcher behind the simulated substrates' Receiver
// contract (memnet, mbx) and the ND-Layer's group-commit flushers; tcpnet
// reads each conn on its own goroutine instead. Workers are spawned on
// demand, up to a small cap, and exit the moment the queue runs dry — an
// idle substrate holds zero goroutines, which is what lets 100k idle
// circuits coexist with a bounded goroutine count.
//
// The queue is unbounded: a callback is allowed to Send (even back into
// the connection that invoked it), so Schedule must never block on pool
// capacity or it could deadlock a worker against itself.
//
// A steady pool allocates nothing: the queue's backing array is reused
// (queue[head:] is pending; the consumed prefix is reclaimed when the
// queue drains or the array fills), and the worker function is bound
// once, since `go p.work()` would build a method-value closure per spawn.
type Pool struct {
	mu         sync.Mutex
	queue      []Task
	head       int
	workers    int
	maxWorkers int
	workFn     func()
}

// NewPool creates a dispatcher. maxWorkers caps concurrent workers;
// zero or negative selects the default (min(GOMAXPROCS, 8)).
func NewPool(maxWorkers int) *Pool {
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
		if maxWorkers > 8 {
			maxWorkers = 8
		}
	}
	p := &Pool{maxWorkers: maxWorkers}
	p.workFn = p.work
	return p
}

// Schedule enqueues t and ensures a worker will run it. Never blocks.
func (p *Pool) Schedule(t Task) {
	pollerDispatches.Add(1)
	p.mu.Lock()
	if p.head > 0 && len(p.queue) == cap(p.queue) {
		// Full array with a consumed prefix: slide the pending tail down
		// instead of letting append grow past what is actually queued.
		n := copy(p.queue, p.queue[p.head:])
		clear(p.queue[n:])
		p.queue, p.head = p.queue[:n], 0
	}
	p.queue = append(p.queue, t)
	if p.workers < p.maxWorkers {
		p.workers++
		p.mu.Unlock()
		pollerWakeups.Add(1)
		go p.workFn()
		return
	}
	p.mu.Unlock()
}

// work drains the queue and exits when it runs dry.
func (p *Pool) work() {
	for {
		p.mu.Lock()
		if p.head == len(p.queue) {
			p.queue, p.head = p.queue[:0], 0
			p.workers--
			p.mu.Unlock()
			return
		}
		t := p.queue[p.head]
		p.queue[p.head] = nil
		p.head++
		p.mu.Unlock()
		t.Run()
	}
}

// Process-wide poller instrumentation. The pools are per-substrate but the
// counters are global (like the pack plan cache): each module's registry
// surfaces them via stats.CounterFunc, so ntcsstat shows dispatch economics
// without threading a registry into every Network constructor.
var (
	pollerDispatches atomic.Uint64 // tasks scheduled onto a pool
	pollerWakeups    atomic.Uint64 // workers spawned (queue went non-empty)
	pollerPolls      atomic.Uint64 // poll rounds (memnet timer fires)
)

// PollerDispatches returns the process-wide count of scheduled tasks.
func PollerDispatches() uint64 { return pollerDispatches.Load() }

// PollerWakeups returns the process-wide count of worker spawns.
func PollerWakeups() uint64 { return pollerWakeups.Load() }

// PollerPolls returns the process-wide count of poll rounds.
func PollerPolls() uint64 { return pollerPolls.Load() }

// CountPoll records one poll round; memnet's deferred-delivery timers
// call it per wakeup.
func CountPoll() { pollerPolls.Add(1) }

// PollerFullBatches always returns 0: no substrate has an event buffer
// to fill any more. It stays only while the benchmark adapter reads it.
func PollerFullBatches() uint64 { return 0 }
