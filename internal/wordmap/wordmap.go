// Package wordmap is a compact concurrent map keyed by uint64 words.
//
// It exists because sync.Map costs ~100 B per entry (interface boxing of
// key and value, plus the read/dirty entry machinery) and the C1M memory
// diet (DESIGN.md §14) needs circuit tables whose per-entry cost is close
// to the raw key+value bytes. wordmap stores keys and values in parallel
// open-addressing arrays inside a fixed number of RWMutex-striped shards:
// a full entry costs 8 B (key) + sizeof(V) + 1 B (state), roughly 17 B
// for a pointer value at 3/4 load factor — about 6x denser than sync.Map.
//
// The API mirrors the subset of sync.Map the circuit tables use
// (Load, Store, Swap, LoadOrStore, LoadAndDelete, CompareAndDelete,
// Delete, Range, Len). Range snapshots each shard under its read lock and
// invokes the callback outside any lock, so callbacks may mutate the map.
package wordmap

import "sync"

const (
	shardCount = 16
	shardMask  = shardCount - 1

	stEmpty     = 0
	stFull      = 1
	stDeleted   = 2 // tombstone: probe chains continue through it
	minCapacity = 8
)

// Map is a concurrent uint64→V map. The zero value is empty and ready to
// use; an empty Map holds no backing arrays until the first Store.
type Map[V comparable] struct {
	shards [shardCount]shard[V]
}

type shard[V comparable] struct {
	mu    sync.RWMutex
	state []uint8
	keys  []uint64
	vals  []V
	n     int // live entries
	used  int // live + tombstones (drives rehash)
}

// hash is a splitmix64 finalizer: cheap, and strong enough that
// sequential circuit words spread evenly across shards and slots.
func hash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func (m *Map[V]) shardFor(k uint64) *shard[V] {
	return &m.shards[hash(k)&shardMask]
}

// Load returns the value stored for key, if any.
func (m *Map[V]) Load(key uint64) (V, bool) {
	s := m.shardFor(key)
	s.mu.RLock()
	v, ok := s.find(key)
	s.mu.RUnlock()
	return v, ok
}

// Store sets the value for key, replacing any existing value.
func (m *Map[V]) Store(key uint64, val V) {
	s := m.shardFor(key)
	s.mu.Lock()
	s.put(key, val)
	s.mu.Unlock()
}

// Swap stores val for key and returns the previous value, if any.
func (m *Map[V]) Swap(key uint64, val V) (prev V, loaded bool) {
	s := m.shardFor(key)
	s.mu.Lock()
	prev, loaded = s.find(key)
	s.put(key, val)
	s.mu.Unlock()
	return prev, loaded
}

// LoadOrStore returns the existing value for key if present; otherwise it
// stores and returns val. loaded is true if the value was already present.
func (m *Map[V]) LoadOrStore(key uint64, val V) (actual V, loaded bool) {
	s := m.shardFor(key)
	s.mu.RLock()
	actual, loaded = s.find(key)
	s.mu.RUnlock()
	if loaded {
		return actual, true
	}
	s.mu.Lock()
	if actual, loaded = s.find(key); !loaded {
		s.put(key, val)
		actual = val
	}
	s.mu.Unlock()
	return actual, loaded
}

// LoadAndDelete removes key and returns its previous value, if any.
func (m *Map[V]) LoadAndDelete(key uint64) (V, bool) {
	s := m.shardFor(key)
	s.mu.Lock()
	v, ok := s.find(key)
	if ok {
		s.del(key)
	}
	s.mu.Unlock()
	return v, ok
}

// CompareAndDelete removes key only if its current value equals old.
func (m *Map[V]) CompareAndDelete(key uint64, old V) (deleted bool) {
	s := m.shardFor(key)
	s.mu.Lock()
	if v, ok := s.find(key); ok && v == old {
		s.del(key)
		deleted = true
	}
	s.mu.Unlock()
	return deleted
}

// Delete removes key, if present.
func (m *Map[V]) Delete(key uint64) {
	s := m.shardFor(key)
	s.mu.Lock()
	s.del(key)
	s.mu.Unlock()
}

// Len returns the number of live entries.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += s.n
		s.mu.RUnlock()
	}
	return n
}

// Range calls f for every entry present at the instant its shard was
// snapshotted. f runs outside all locks, so it may call back into the
// Map (including Delete on the entry it was handed). Returning false
// stops the iteration.
func (m *Map[V]) Range(f func(key uint64, val V) bool) {
	var (
		keys []uint64
		vals []V
	)
	for i := range m.shards {
		s := &m.shards[i]
		keys = keys[:0]
		vals = vals[:0]
		s.mu.RLock()
		for j, st := range s.state {
			if st == stFull {
				keys = append(keys, s.keys[j])
				vals = append(vals, s.vals[j])
			}
		}
		s.mu.RUnlock()
		for j := range keys {
			if !f(keys[j], vals[j]) {
				return
			}
		}
	}
}

// find locates key in the shard. Caller holds mu (read or write).
func (s *shard[V]) find(key uint64) (V, bool) {
	var zero V
	if len(s.state) == 0 {
		return zero, false
	}
	mask := uint64(len(s.state) - 1)
	for i := hash(key) >> 4 & mask; ; i = (i + 1) & mask {
		switch s.state[i] {
		case stEmpty:
			return zero, false
		case stFull:
			if s.keys[i] == key {
				return s.vals[i], true
			}
		}
	}
}

// put inserts or replaces key. Caller holds mu for writing.
func (s *shard[V]) put(key uint64, val V) {
	if len(s.state) == 0 || (s.used+1)*4 > len(s.state)*3 {
		s.rehash()
	}
	mask := uint64(len(s.state) - 1)
	firstTomb := -1
	for i := hash(key) >> 4 & mask; ; i = (i + 1) & mask {
		switch s.state[i] {
		case stEmpty:
			if firstTomb >= 0 {
				i = uint64(firstTomb)
			} else {
				s.used++
			}
			s.state[i] = stFull
			s.keys[i] = key
			s.vals[i] = val
			s.n++
			return
		case stDeleted:
			if firstTomb < 0 {
				firstTomb = int(i)
			}
		case stFull:
			if s.keys[i] == key {
				s.vals[i] = val
				return
			}
		}
	}
}

// del removes key if present, leaving a tombstone. Caller holds mu for
// writing.
func (s *shard[V]) del(key uint64) {
	if len(s.state) == 0 {
		return
	}
	var zero V
	mask := uint64(len(s.state) - 1)
	for i := hash(key) >> 4 & mask; ; i = (i + 1) & mask {
		switch s.state[i] {
		case stEmpty:
			return
		case stFull:
			if s.keys[i] == key {
				s.state[i] = stDeleted
				s.vals[i] = zero // release the reference
				s.n--
				return
			}
		}
	}
}

// rehash rebuilds the table: tombstones are dropped, and capacity doubles
// only when live entries genuinely crowd it, so churn-heavy tables shrink
// back toward their live size.
func (s *shard[V]) rehash() {
	capNew := minCapacity
	// Target ≤ 1/2 load after rebuild: tables then oscillate between 50%
	// and the 75% rehash trigger. A looser target (≤ 3/8) probes slightly
	// faster but costs ~2x the steady-state bytes, and table bytes are on
	// the C1M per-endpoint budget (DESIGN.md §14).
	for capNew < (s.n+1)*2 {
		capNew *= 2
	}
	if capNew == len(s.state) && s.n <= inPlaceMax {
		s.rehashInPlace()
		return
	}
	oldState, oldKeys, oldVals := s.state, s.keys, s.vals
	s.state = make([]uint8, capNew)
	s.keys = make([]uint64, capNew)
	s.vals = make([]V, capNew)
	s.n, s.used = 0, 0
	for j, st := range oldState {
		if st == stFull {
			s.place(oldKeys[j], oldVals[j])
		}
	}
}

// inPlaceMax bounds the live entries a same-size rehash sets aside on the
// stack.
const inPlaceMax = 16

// rehashInPlace is a same-size rehash in the shard's own arrays. A table
// that stores and deletes one key per call (the LCM's reply waiters) fills
// with tombstones while holding a few live entries; rebuilding it where it
// is allocates nothing.
func (s *shard[V]) rehashInPlace() {
	var (
		keys [inPlaceMax]uint64
		vals [inPlaceMax]V
	)
	n := 0
	for j, st := range s.state {
		if st == stFull {
			keys[n], vals[n] = s.keys[j], s.vals[j]
			n++
		}
	}
	clear(s.state)
	clear(s.vals) // a live value must not stay behind in a slot it left
	s.n, s.used = 0, 0
	for j := 0; j < n; j++ {
		s.place(keys[j], vals[j])
	}
}

// place inserts a key known to be absent into a table without tombstones.
func (s *shard[V]) place(key uint64, val V) {
	mask := uint64(len(s.state) - 1)
	for i := hash(key) >> 4 & mask; ; i = (i + 1) & mask {
		if s.state[i] == stEmpty {
			s.state[i] = stFull
			s.keys[i] = key
			s.vals[i] = val
			s.n++
			s.used++
			return
		}
	}
}
