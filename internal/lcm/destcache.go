// Per-destination fast-path cache.
//
// The paper's adaptive conversion choice (§5: "Messages between identical
// machines are simply byte-copied") is decided per message in the seed:
// every send re-resolves the destination's forwarding chain, machine type,
// and conversion mode. This cache memoizes that triple per destination
// behind a single-flight guard, so concurrent first sends to one
// destination issue exactly one NSP resolution and warm sends pay a single
// lock-free lookup. The §3.5 relocation handler invalidates entries when a
// forwarding address or TAdd replacement proves them stale.
package lcm

import (
	"sync"
	"sync/atomic"

	"ntcs/internal/addr"
	"ntcs/internal/machine"
	"ntcs/internal/wire"
)

// DestInfo is the memoized result of resolving one destination.
type DestInfo struct {
	Target  addr.UAdd    // forwarding-chain end: where frames actually go
	Machine machine.Type // destination machine type
	Mode    wire.Mode    // conversion mode selected for it
}

// destEntry is one cache slot. The once guard makes the fill single-flight:
// every concurrent caller for the same destination shares one resolution.
// filled flips (after info/err are written) so lock-free readers know the
// slot is safe to read without joining the once.
type destEntry struct {
	once   sync.Once
	filled atomic.Bool
	info   DestInfo
	err    error
}

// DestCache memoizes UAdd → DestInfo.
type DestCache struct {
	m sync.Map // addr.UAdd → *destEntry
}

// NewDestCache creates an empty cache.
func NewDestCache() *DestCache {
	return &DestCache{}
}

// Get returns the cached info for dst, if a successful resolution is
// present. It never blocks on an in-flight fill.
func (c *DestCache) Get(dst addr.UAdd) (DestInfo, bool) {
	v, ok := c.m.Load(dst)
	if !ok {
		return DestInfo{}, false
	}
	e := v.(*destEntry)
	if !e.filled.Load() || e.err != nil {
		return DestInfo{}, false
	}
	return e.info, true
}

// Do returns the cached info for dst, running fill (once, even under
// concurrent callers) to populate a missing entry. A fill error is
// returned to every waiter but not cached: the next Do retries.
func (c *DestCache) Do(dst addr.UAdd, fill func() (DestInfo, error)) (DestInfo, error) {
	v, _ := c.m.LoadOrStore(dst, &destEntry{})
	e := v.(*destEntry)
	e.once.Do(func() {
		e.info, e.err = fill()
		e.filled.Store(true)
	})
	if e.err != nil {
		c.m.CompareAndDelete(dst, e)
		return DestInfo{}, e.err
	}
	return e.info, nil
}

// Invalidate drops the entry for dst.
func (c *DestCache) Invalidate(dst addr.UAdd) {
	c.m.Delete(dst)
}

// InvalidateTarget drops every entry keyed by or resolved to u — the §3.5
// contract: when a relocation or TAdd replacement retires an address, all
// fast paths through it must re-resolve.
func (c *DestCache) InvalidateTarget(u addr.UAdd) {
	c.m.Range(func(k, v any) bool {
		e := v.(*destEntry)
		// An unfilled entry's info is not yet readable; delete it only if
		// keyed by u (its fill, once done, re-resolves anyway on next Do).
		if k.(addr.UAdd) == u || (e.filled.Load() && e.info.Target == u) {
			c.m.Delete(k)
		}
		return true
	})
}

// Len reports the number of cached entries (diagnostics and tests).
func (c *DestCache) Len() int {
	n := 0
	c.m.Range(func(_, _ any) bool { n++; return true })
	return n
}
