package ipcs

import "sync/atomic"

// StartDrain runs a queue's drain on a goroutine of its own. memnet's
// pipes (mbx's mailboxes included) and the ND-Layer's send queues call it
// when their busy flag goes up; the drain loops until its queue is empty,
// clears the flag and exits. An idle queue holds no goroutine and a busy
// one exactly one, so each queue stays serial and in order, as tcpnet's
// per-conn reader is. Bind run once per queue (q.run = q.Run): `go
// q.Run()` allocates a closure per start, a bound func value nothing.
func StartDrain(run func()) {
	pollerDispatches.Add(1)
	go run()
}

// Process-wide drain instrumentation. The queues are per-connection and
// per-circuit but the counters are global (like the pack plan cache):
// each module's registry surfaces them via stats.CounterFunc, so ntcsstat
// shows dispatch economics without threading a registry into every
// Network constructor. The names keep the poller vocabulary of the
// dispatcher they replaced.
var (
	pollerDispatches atomic.Uint64 // drains started (a queue went busy)
	pollerPolls      atomic.Uint64 // poll rounds (memnet timer fires)
)

// PollerDispatches returns the process-wide count of drain starts.
func PollerDispatches() uint64 { return pollerDispatches.Load() }

// PollerWakeups equals PollerDispatches: every drain start is one
// goroutine woken.
func PollerWakeups() uint64 { return pollerDispatches.Load() }

// PollerPolls returns the process-wide count of poll rounds.
func PollerPolls() uint64 { return pollerPolls.Load() }

// CountPoll records one poll round; memnet's deferred-delivery timers
// call it per wakeup.
func CountPoll() { pollerPolls.Add(1) }

// PollerFullBatches always returns 0: no substrate has an event buffer
// to fill any more. It stays only while the benchmark adapter reads it.
func PollerFullBatches() uint64 { return 0 }
