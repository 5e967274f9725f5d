package lcm_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"ntcs/internal/addr"
	"ntcs/internal/lcm"
	"ntcs/internal/machine"
	"ntcs/internal/wire"
)

func TestDestCacheSingleFlight(t *testing.T) {
	c := lcm.NewDestCache()
	var fills atomic.Int32
	const goroutines = 32
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]lcm.DestInfo, goroutines)
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			info, err := c.Do(7, func() (lcm.DestInfo, error) {
				fills.Add(1)
				return lcm.DestInfo{Target: 7, Machine: machine.VAX, Mode: wire.ModeImage}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = info
		}(i)
	}
	close(start)
	wg.Wait()
	if n := fills.Load(); n != 1 {
		t.Errorf("fill ran %d times, want exactly 1", n)
	}
	for i, info := range results {
		if info.Target != 7 || info.Machine != machine.VAX || info.Mode != wire.ModeImage {
			t.Fatalf("goroutine %d saw %+v", i, info)
		}
	}
	if info, ok := c.Get(7); !ok || info.Target != 7 {
		t.Errorf("Get after fill = %+v, %v", info, ok)
	}
}

func TestDestCacheErrorNotCached(t *testing.T) {
	c := lcm.NewDestCache()
	boom := errors.New("boom")
	var fills atomic.Int32
	fail := func() (lcm.DestInfo, error) {
		fills.Add(1)
		return lcm.DestInfo{}, boom
	}
	if _, err := c.Do(9, fail); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v", err)
	}
	if _, ok := c.Get(9); ok {
		t.Error("failed fill left a cached entry")
	}
	// The next Do retries rather than replaying the failure.
	info, err := c.Do(9, func() (lcm.DestInfo, error) {
		fills.Add(1)
		return lcm.DestInfo{Target: 9, Machine: machine.Apollo, Mode: wire.ModePacked}, nil
	})
	if err != nil || info.Target != 9 {
		t.Fatalf("retry Do = %+v, %v", info, err)
	}
	if n := fills.Load(); n != 2 {
		t.Errorf("fills = %d, want 2", n)
	}
}

func TestDestCacheInvalidation(t *testing.T) {
	c := lcm.NewDestCache()
	fill := func(target addr.UAdd) func() (lcm.DestInfo, error) {
		return func() (lcm.DestInfo, error) {
			return lcm.DestInfo{Target: target, Machine: machine.VAX, Mode: wire.ModePacked}, nil
		}
	}
	// 5 resolves directly; 6 forwards to 5 (a forwarding-table hop).
	if _, err := c.Do(5, fill(5)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Do(6, fill(5)); err != nil {
		t.Fatal(err)
	}
	// Relocation of 5 must drop both the direct entry and every entry
	// whose cached target is 5, or stale circuits would be reused.
	c.InvalidateTarget(5)
	if _, ok := c.Get(5); ok {
		t.Error("direct entry survived InvalidateTarget")
	}
	if _, ok := c.Get(6); ok {
		t.Error("forwarded entry survived InvalidateTarget")
	}

	if _, err := c.Do(5, fill(5)); err != nil {
		t.Fatal(err)
	}
	c.Invalidate(5)
	if _, ok := c.Get(5); ok {
		t.Error("entry survived Invalidate")
	}
}

// TestDestCacheConcurrentInvalidate races fills against invalidation:
// run with -race; the invariant is simply that Get never returns a
// half-filled entry.
func TestDestCacheConcurrentInvalidate(t *testing.T) {
	c := lcm.NewDestCache()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_, _ = c.Do(11, func() (lcm.DestInfo, error) {
					return lcm.DestInfo{Target: 12, Machine: machine.VAX, Mode: wire.ModeImage}, nil
				})
				if info, ok := c.Get(11); ok && info.Target != 12 {
					t.Error("Get returned a half-filled entry")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			c.InvalidateTarget(12)
			c.Invalidate(11)
		}
		close(stop)
	}()
	wg.Wait()
}
