package ipcs

import "testing"

// signalTask reports each run on its channel.
type signalTask chan struct{}

func (s signalTask) Run() { s <- struct{}{} }

// TestPoolScheduleZeroAlloc is the dispatch pool's allocation gate: on a
// steady pool, scheduling a task, spawning the worker that runs it and
// that worker's exit on an empty queue allocate nothing — the queue's
// backing array is reused and the worker function is bound once.
func TestPoolScheduleZeroAlloc(t *testing.T) {
	p := NewPool(2)
	done := make(signalTask, 1)
	roundTrip := func() {
		p.Schedule(done)
		<-done
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if allocs := testing.AllocsPerRun(1000, roundTrip); allocs != 0 {
		t.Fatalf("Schedule + worker run = %v allocs/task, want 0", allocs)
	}
}

// TestPoolQueueReuse drives the queue past one worker's reach — tasks
// pile up behind a blocked run — and checks every task runs exactly once
// and in order, across the slide that reclaims the consumed prefix.
func TestPoolQueueReuse(t *testing.T) {
	p := NewPool(1)
	release := make(chan struct{})
	var order []int
	got := make(chan struct{}, 64)
	p.Schedule(blockTask(release))
	for i := 0; i < 40; i++ {
		i := i
		p.Schedule(funcTask(func() {
			order = append(order, i)
			got <- struct{}{}
		}))
	}
	close(release)
	for i := 0; i < 40; i++ {
		<-got
	}
	for round := 0; round < 3; round++ {
		for i := 40 + 10*round; i < 50+10*round; i++ {
			i := i
			p.Schedule(funcTask(func() {
				order = append(order, i)
				got <- struct{}{}
			}))
		}
		for i := 0; i < 10; i++ {
			<-got
		}
	}
	if len(order) != 70 {
		t.Fatalf("ran %d tasks, want 70", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("task %d ran at position %d: order %v", v, i, order)
		}
	}
}

type blockTask chan struct{}

func (b blockTask) Run() { <-b }

type funcTask func()

func (f funcTask) Run() { f() }
