// Compiled packed-mode codecs: cached per-type conversion plans for the
// cross-machine hot path.
//
// The reflect walk (MarshalReflect / UnmarshalReflect in pack.go) is the
// reference implementation and nothing else: the oracle the differential
// fuzzer and the machine-pair matrix compare against. It re-derives a
// type's shape on every message: each field pays a reflect.Kind switch, a
// reflect.Type.Field call (which allocates its Index slice), and for maps
// a fresh key sort. Between differing machine types every structured
// Send/Call crosses the codec twice — once to pack, once to unpack — so
// that walk is the §5.1 conversion cost the paper's adaptive selection
// exists to dodge, paid even when it cannot be dodged.
//
// A plan compiles the walk once per type into one encode and one decode
// closure over unsafe.Pointer — the only execution form there is. A
// closure converts the value at p, which points at memory of the plan's
// type: a struct field is a pointer add, a slice or array element a
// stride multiple, a scalar a typed load or store, with no Kind dispatch
// and no reflect.Value per value. Plans live in a process-wide sync.Map
// keyed by reflect.Type; the wire format is byte-identical to the reflect
// walk (FuzzCodecEquivalence proves it).
//
// Four rules keep the pointer form honest with the garbage collector:
//
//  1. A store into memory that may hold pointers is a typed store — a
//     *(*unsafe.Pointer)(p), a typed slice, map or string, a sliceHeader —
//     never one through uintptr, so the write barrier runs. Generic
//     slices are allocated by reflect's Grow on the target itself, so the
//     collector knows the element type; only []int32/int64/uint64 are
//     carved from the decoder's noscan arena.
//  2. A map entry has no address: encode copies each key and value into
//     one reflect.New pair per map and hands the sub-plans its pointers;
//     decode reuses one such pair for every entry unless the entry type
//     reaches a pointer (reuseKV).
//  3. The top of a Marshal gets its pointer from the interface data word,
//     which for most types points at the boxed copy. Pointer-shaped types
//     (plan.direct) live in the word itself, so the plan is handed the
//     address of a copy of the word — declared on that branch only, or
//     the copy escapes on every Marshal.
//  4. A zero-size element has stride 0; every element then shares one
//     address and nothing is read or written through it.
package pack

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// MaxDepth bounds value nesting in both codec paths (compiled and
// reflect walk, encode and decode). It is the companion of the decoder's
// count-bomb guard: a hostile frame of open-parens must not drive
// unbounded recursion and allocation before its first scalar fails to
// parse, and a pathological in-memory value must not blow the stack on
// encode. Real NTCS payloads nest a handful of levels; 64 is generous.
const MaxDepth = 64

// ErrDepth reports a value or stream nested beyond MaxDepth.
var ErrDepth = errors.New("pack: nesting exceeds depth limit")

// plan is one type's compiled conversion: closures specialized at compile
// time, executed with no Kind dispatch thereafter. enc converts the value
// at p onto e; dec converts the next value of d into the memory at p.
type plan struct {
	enc    func(e *Encoder, p unsafe.Pointer) error
	dec    func(d *Decoder, p unsafe.Pointer) error
	hint   int  // typical encoded size, for buffer presizing
	direct bool // pointerShaped type: an interface holds the value, not a pointer to it
}

// efaceData returns the data word of v's interface header: a pointer to
// the boxed copy, or for a pointerShaped type the value itself.
func efaceData(v any) unsafe.Pointer {
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1]
}

// pointerShaped mirrors the runtime's direct-interface rule: a value of
// such a type lives in the interface data word itself, so efaceData
// would be the value, not a pointer to it.
func pointerShaped(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan, reflect.Func:
		return true
	case reflect.Struct:
		return t.NumField() == 1 && pointerShaped(t.Field(0).Type)
	case reflect.Array:
		return t.Len() == 1 && pointerShaped(t.Elem())
	}
	return false
}

// planCache maps reflect.Type → *plan, process-wide: the packed format
// is type-shaped only, so one plan serves every module in the process.
var planCache sync.Map

// Plan-cache telemetry, surfaced as the pack.compiles / pack.plan_hits
// counters in every module's stats registry. Package-level because the
// cache is package-level.
var (
	compiles atomic.Uint64
	planHits atomic.Uint64
)

// Compiles reports how many per-type plans have been compiled and cached
// since process start.
func Compiles() uint64 { return compiles.Load() }

// PlanHits reports how many Marshal/Unmarshal calls were served by an
// already-compiled plan.
func PlanHits() uint64 { return planHits.Load() }

// Precompile builds and caches conversion plans for the types of the
// given values, so the first real message of each type does not pay the
// compile. Layers call it at construction for their wire structs.
func Precompile(vals ...any) error {
	for _, v := range vals {
		if _, err := planOf(v); err != nil {
			return err
		}
	}
	return nil
}

// planOf returns the plan for v's dynamic type.
func planOf(v any) (*plan, error) {
	t := reflect.TypeOf(v)
	if t == nil {
		return nil, fmt.Errorf("%w: untyped nil", ErrUnsupported)
	}
	return planFor(t)
}

// planEntry is one slot of the direct-mapped front cache below.
type planEntry struct {
	t reflect.Type
	p *plan
}

// planSlot is a tiny direct-mapped cache in front of planCache: a
// Marshal/Unmarshal-per-message workload hits the same few types over
// and over, and one atomic load plus an interface compare is cheaper
// than the sync.Map lookup. Misses fall through; collisions just evict.
var planSlot [8]atomic.Pointer[planEntry]

func planSlotFor(t reflect.Type) *atomic.Pointer[planEntry] {
	// A reflect.Type interface's data word is the *rtype, a stable
	// per-type address — exactly the identity planCache keys on.
	ptr := (*[2]uintptr)(unsafe.Pointer(&t))[1]
	return &planSlot[(ptr>>4)%uintptr(len(planSlot))]
}

// planFor returns t's plan, compiling and caching it on first use.
func planFor(t reflect.Type) (*plan, error) {
	slot := planSlotFor(t)
	if e := slot.Load(); e != nil && e.t == t {
		planHits.Add(1)
		return e.p, nil
	}
	if p, ok := planCache.Load(t); ok {
		planHits.Add(1)
		slot.Store(&planEntry{t: t, p: p.(*plan)})
		return p.(*plan), nil
	}
	c := compiler{structs: make(map[reflect.Type]*plan)}
	p, err := c.compile(t)
	if err != nil {
		return nil, err
	}
	for st, sp := range c.structs {
		cachePlan(st, sp)
	}
	p = cachePlan(t, p)
	slot.Store(&planEntry{t: t, p: p})
	return p, nil
}

// cachePlan publishes p for t unless a concurrent compile won the race,
// and counts the compile exactly once per cached type.
func cachePlan(t reflect.Type, p *plan) *plan {
	if prev, loaded := planCache.LoadOrStore(t, p); loaded {
		return prev.(*plan)
	}
	compiles.Add(1)
	return p
}

// compiler builds one plan tree. structs memoizes its struct plans so
// recursive types (a cycle must pass through a named struct) tie the knot
// instead of recursing forever; planFor publishes them to the global
// cache only once the whole tree has compiled, so a failed compile caches
// nothing — not even a finished inner struct, which may point back at an
// unfinished outer one.
type compiler struct {
	structs map[reflect.Type]*plan
}

func (c *compiler) compile(t reflect.Type) (*plan, error) {
	if p, ok := planCache.Load(t); ok {
		return p.(*plan), nil
	}
	switch t.Kind() {
	case reflect.Bool:
		return boolPlan, nil
	case reflect.Int:
		return intPlan[int](t, 8), nil
	case reflect.Int8:
		return intPlan[int8](t, 4), nil
	case reflect.Int16:
		return intPlan[int16](t, 5), nil
	case reflect.Int32:
		return intPlan[int32](t, 6), nil
	case reflect.Int64:
		return intPlan[int64](t, 8), nil
	case reflect.Uint:
		return uintPlan[uint](t, 8), nil
	case reflect.Uint8:
		return uintPlan[uint8](t, 4), nil
	case reflect.Uint16:
		return uintPlan[uint16](t, 5), nil
	case reflect.Uint32:
		return uintPlan[uint32](t, 6), nil
	case reflect.Uint64:
		return uintPlan[uint64](t, 8), nil
	case reflect.Float32:
		return floatPlan[float32](), nil
	case reflect.Float64:
		return floatPlan[float64](), nil
	case reflect.String:
		return stringPlan, nil
	case reflect.Slice:
		return c.slicePlan(t)
	case reflect.Array:
		return c.arrayPlan(t)
	case reflect.Map:
		return c.mapPlan(t)
	case reflect.Struct:
		return c.structPlan(t)
	case reflect.Pointer:
		return c.pointerPlan(t)
	default:
		return nil, fmt.Errorf("%w: kind %s", ErrUnsupported, t.Kind())
	}
}

// --- Scalar plans ---------------------------------------------------------
//
// Loads and stores go through a pointer to the builtin of the type's
// kind: a named type has its underlying type's layout, so one plan shape
// covers both.

var boolPlan = &plan{
	hint: 3,
	enc: func(e *Encoder, p unsafe.Pointer) error {
		e.Bool(*(*bool)(p))
		return nil
	},
	dec: func(d *Decoder, p unsafe.Pointer) error {
		v, err := d.Bool()
		if err != nil {
			return err
		}
		*(*bool)(p) = v
		return nil
	},
}

var stringPlan = &plan{
	hint: 8,
	enc: func(e *Encoder, p unsafe.Pointer) error {
		e.String(*(*string)(p))
		return nil
	},
	dec: func(d *Decoder, p unsafe.Pointer) error {
		v, err := d.String()
		if err != nil {
			return err
		}
		*(*string)(p) = v
		return nil
	},
}

var bytesPlan = &plan{
	hint: 8,
	enc: func(e *Encoder, p unsafe.Pointer) error {
		e.BytesField(*(*[]byte)(p))
		return nil
	},
	dec: func(d *Decoder, p unsafe.Pointer) error {
		v, err := d.BytesField()
		if err != nil {
			return err
		}
		*(*[]byte)(p) = v
		return nil
	},
}

func floatPlan[T float32 | float64]() *plan {
	return &plan{
		hint: 10,
		enc: func(e *Encoder, p unsafe.Pointer) error {
			e.Float(float64(*(*T)(p)))
			return nil
		},
		dec: func(d *Decoder, p unsafe.Pointer) error {
			v, err := d.Float()
			if err != nil {
				return err
			}
			*(*T)(p) = T(v)
			return nil
		},
	}
}

// intPlan converts a signed integer of T's width; the decoder's overflow
// check is specialized to that width at compile time (for 64 bits the
// bounds are the whole range), and its error names t, which may be a
// named type.
func intPlan[T int | int8 | int16 | int32 | int64](t reflect.Type, hint int) *plan {
	bits := 8 * int(unsafe.Sizeof(T(0)))
	lo := int64(-1) << (bits - 1)
	hi := -(lo + 1)
	return &plan{
		hint: hint,
		enc: func(e *Encoder, p unsafe.Pointer) error {
			e.Int(int64(*(*T)(p)))
			return nil
		},
		dec: func(d *Decoder, p unsafe.Pointer) error {
			v, err := d.Int()
			if err != nil {
				return err
			}
			if v < lo || v > hi {
				return fmt.Errorf("%w: %d into %s", ErrOverflow, v, t)
			}
			*(*T)(p) = T(v)
			return nil
		},
	}
}

func uintPlan[T uint | uint8 | uint16 | uint32 | uint64](t reflect.Type, hint int) *plan {
	hi := uint64(math.MaxUint64) >> (64 - 8*int(unsafe.Sizeof(T(0))))
	return &plan{
		hint: hint,
		enc: func(e *Encoder, p unsafe.Pointer) error {
			e.Uint(uint64(*(*T)(p)))
			return nil
		},
		dec: func(d *Decoder, p unsafe.Pointer) error {
			v, err := d.Uint()
			if err != nil {
				return err
			}
			if v > hi {
				return fmt.Errorf("%w: %d into %s", ErrOverflow, v, t)
			}
			*(*T)(p) = T(v)
			return nil
		},
	}
}

// --- Composite plans ------------------------------------------------------

// hintCap bounds a plan's presize hint: one pathological type must not
// make every fresh encode reserve an outsized buffer.
const hintCap = 4096

func addHint(base, more int) int {
	if h := base + more; h < hintCap {
		return h
	}
	return hintCap
}

// Builtin element types worth a fully native slice path.
var (
	int32Type  = reflect.TypeOf(int32(0))
	int64Type  = reflect.TypeOf(int64(0))
	uint64Type = reflect.TypeOf(uint64(0))
	stringType = reflect.TypeOf("")
)

func decInt64s(d *Decoder, s []int64) error {
	for i := range s {
		v, err := d.Int()
		if err != nil {
			return err
		}
		s[i] = v
	}
	return nil
}

func decInt32s(d *Decoder, s []int32) error {
	for i := range s {
		v, err := d.Int()
		if err != nil {
			return err
		}
		if v < math.MinInt32 || v > math.MaxInt32 {
			return fmt.Errorf("%w: %d into %s", ErrOverflow, v, int32Type)
		}
		s[i] = int32(v)
	}
	return nil
}

func decUint64s(d *Decoder, s []uint64) error {
	for i := range s {
		v, err := d.Uint()
		if err != nil {
			return err
		}
		s[i] = v
	}
	return nil
}

func decStrings(d *Decoder, s []string) error {
	for i := range s {
		v, err := d.String()
		if err != nil {
			return err
		}
		s[i] = v
	}
	return nil
}

// mkSlice is the plain allocator for decoded native slices.
func mkSlice[T any](_ *Decoder, n int) []T { return make([]T, n) }

// arenaMakeSlice carves an n-element slice of a pointer-free scalar type
// out of the decode arena when it fits — the slice shares the message's
// string block instead of costing its own allocation. The -8 headroom
// keeps the worst-case alignment pad inside arenaReserve's block clamp.
func arenaMakeSlice[T int32 | int64 | uint64](d *Decoder, n int) []T {
	if n == 0 {
		return []T{}
	}
	var zero T
	size := n * int(unsafe.Sizeof(zero))
	if size <= arenaMax-8 {
		p := d.arenaReserve(size, int(unsafe.Alignof(zero)))
		return unsafe.Slice((*T)(p), n)
	}
	return make([]T, n)
}

// nativeSlicePlan is the fully specialized plan for the common scalar
// slice shapes: the slice header is loaded and stored through a typed
// pointer and the elements convert in a native loop, with no sub-plan
// dispatch per element. Safe for named slice types with the same builtin
// element type — the layout is identical. Wire bytes and error behavior
// match the generic slice plan.
func nativeSlicePlan[T any](hint int, mk func(*Decoder, int) []T, encElem func(*Encoder, T), decElems func(*Decoder, []T) error) *plan {
	return &plan{
		hint: hint,
		enc: func(e *Encoder, p unsafe.Pointer) error {
			s := *(*[]T)(p)
			if s == nil {
				e.Nil()
				return nil
			}
			if err := e.push(); err != nil {
				return err
			}
			e.List(len(s))
			for _, v := range s {
				encElem(e, v)
			}
			e.pop()
			return nil
		},
		dec: func(d *Decoder, p unsafe.Pointer) error {
			if d.IsNil() {
				*(*[]T)(p) = nil
				return nil
			}
			if err := d.push(); err != nil {
				return err
			}
			n, err := d.List()
			if err != nil {
				d.pop()
				return err
			}
			s := mk(d, n)
			if err := decElems(d, s); err != nil {
				d.pop()
				return err
			}
			*(*[]T)(p) = s
			d.pop()
			return nil
		},
	}
}

// sliceHeader is the runtime's slice layout with the data word typed as
// a pointer, so loading it keeps the backing array alive and storing it
// runs the write barrier.
type sliceHeader struct {
	data     unsafe.Pointer
	len, cap int
}

// zeroArray is where a decoded empty list's slice points: non-nil, as
// make([]T, 0) is, so that it stays distinct from a decoded nil.
var zeroArray [0]byte

// encList writes a list of n elements laid out stride bytes apart from
// base; decListElems fills them once the caller has read the header.
// Slices and arrays share both.
func encList(e *Encoder, elem *plan, base unsafe.Pointer, n int, stride uintptr) error {
	if err := e.push(); err != nil {
		return err
	}
	e.List(n)
	var err error
	for i := 0; i < n && err == nil; i++ {
		err = elem.enc(e, unsafe.Add(base, uintptr(i)*stride))
	}
	e.pop()
	return err
}

func decListElems(d *Decoder, elem *plan, base unsafe.Pointer, n int, stride uintptr) error {
	for i := 0; i < n; i++ {
		if err := elem.dec(d, unsafe.Add(base, uintptr(i)*stride)); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) slicePlan(t reflect.Type) (*plan, error) {
	if t.Elem().Kind() == reflect.Uint8 {
		return bytesPlan, nil
	}
	switch t.Elem() {
	case int64Type:
		return nativeSlicePlan(addHint(4, 4*8), arenaMakeSlice[int64], (*Encoder).Int, decInt64s), nil
	case int32Type:
		return nativeSlicePlan(addHint(4, 4*6), arenaMakeSlice[int32], func(e *Encoder, v int32) { e.Int(int64(v)) }, decInt32s), nil
	case uint64Type:
		return nativeSlicePlan(addHint(4, 4*8), arenaMakeSlice[uint64], (*Encoder).Uint, decUint64s), nil
	case stringType:
		return nativeSlicePlan(addHint(4, 4*8), mkSlice[string], (*Encoder).String, decStrings), nil
	}
	elem, err := c.compile(t.Elem())
	if err != nil {
		return nil, err
	}
	stride := t.Elem().Size()
	return &plan{
		hint: addHint(4, 4*elem.hint),
		enc: func(e *Encoder, p unsafe.Pointer) error {
			h := (*sliceHeader)(p)
			if h.data == nil {
				e.Nil()
				return nil
			}
			return encList(e, elem, h.data, h.len, stride)
		},
		dec: func(d *Decoder, p unsafe.Pointer) error {
			if d.IsNil() {
				*(*sliceHeader)(p) = sliceHeader{}
				return nil
			}
			if err := d.push(); err != nil {
				return err
			}
			n, err := d.List()
			if err != nil {
				d.pop()
				return err
			}
			// Typed memory, not the arena: the collector must know the
			// element type of memory that may come to hold pointers. Grow
			// through *p itself allocates the array alone, where MakeSlice
			// would allocate its Value's header beside it; *p is emptied
			// first so the array is always a fresh one, and is put back if
			// an element fails to decode.
			old := *(*sliceHeader)(p)
			data := unsafe.Pointer(&zeroArray)
			if n > 0 {
				*(*sliceHeader)(p) = sliceHeader{}
				reflect.NewAt(t, p).Elem().Grow(n)
				data = (*sliceHeader)(p).data
			}
			if err := decListElems(d, elem, data, n, stride); err != nil {
				*(*sliceHeader)(p) = old
				d.pop()
				return err
			}
			*(*sliceHeader)(p) = sliceHeader{data, n, n}
			d.pop()
			return nil
		},
	}, nil
}

func (c *compiler) arrayPlan(t reflect.Type) (*plan, error) {
	// No byte-array fast path: the reflect walk encodes [N]uint8 element
	// by element, and the wire format must stay byte-identical.
	elem, err := c.compile(t.Elem())
	if err != nil {
		return nil, err
	}
	n, stride := t.Len(), t.Elem().Size()
	return &plan{
		hint:   addHint(4, n*elem.hint),
		direct: pointerShaped(t),
		enc: func(e *Encoder, p unsafe.Pointer) error {
			return encList(e, elem, p, n, stride)
		},
		dec: func(d *Decoder, p unsafe.Pointer) error {
			if err := d.push(); err != nil {
				return err
			}
			got, err := d.List()
			if err == nil && got != n {
				err = fmt.Errorf("%w: array length %d != %d", ErrSyntax, got, n)
			}
			if err == nil {
				err = decListElems(d, elem, p, n, stride)
			}
			d.pop()
			return err
		},
	}, nil
}

// mapScratch is the pooled plan-execution scratch for map encodes: the
// key slice and its sorter live across messages instead of being
// reallocated per map.
type mapScratch struct {
	keys []reflect.Value
	less func(a, b reflect.Value) bool
}

func (s *mapScratch) Len() int           { return len(s.keys) }
func (s *mapScratch) Swap(i, j int)      { s.keys[i], s.keys[j] = s.keys[j], s.keys[i] }
func (s *mapScratch) Less(i, j int) bool { return s.less(s.keys[i], s.keys[j]) }

var mapScratchPool = sync.Pool{
	New: func() any { return &mapScratch{keys: make([]reflect.Value, 0, 16)} },
}

// mapSSType is the dominant map shape on the wire (NSP record and
// endpoint attributes are map[string]string), worth a native fast path.
var mapSSType = reflect.TypeOf(map[string]string(nil))

// stringKeysPool is the pooled sort scratch for the native string-map
// encoder.
var stringKeysPool = sync.Pool{
	New: func() any { s := make([]string, 0, 16); return &s },
}

// encodeStringMapEntries writes a map header and the sorted key/value
// pairs; the caller owns the nil check and the depth push/pop. Typical
// attribute maps hold a handful of keys: a stack array plus insertion
// sort skips the pool round trip, the sort.Strings dispatch, and the
// write barriers both incur. The two paths stay disjoint so the array
// never flows into the pool and escapes.
func encodeStringMapEntries(e *Encoder, m map[string]string) {
	// Zero-, one- and two-entry maps — the bulk of NTCS attribute maps —
	// sort in plain locals: stack writes take no write barrier at all.
	switch len(m) {
	case 0:
		e.Map(0)
		return
	case 1:
		e.Map(1)
		for k, v := range m {
			e.String(k)
			e.String(v)
		}
		return
	case 2:
		var k1, k2 string
		first := true
		for k := range m {
			if first {
				k1, first = k, false
			} else {
				k2 = k
			}
		}
		if k2 < k1 {
			k1, k2 = k2, k1
		}
		e.Map(2)
		e.String(k1)
		e.String(m[k1])
		e.String(k2)
		e.String(m[k2])
		return
	}
	if len(m) <= 8 {
		var arr [8]string
		keys := arr[:0]
		for k := range m {
			keys = append(keys, k)
		}
		sortStringsSmall(keys)
		e.Map(len(keys))
		for _, k := range keys {
			e.String(k)
			e.String(m[k])
		}
	} else {
		kp := stringKeysPool.Get().(*[]string)
		keys := (*kp)[:0]
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		e.Map(len(keys))
		for _, k := range keys {
			e.String(k)
			e.String(m[k])
		}
		putStringKeys(kp, keys)
	}
}

// decodeStringMapEntries reads a map header and its key/value pairs into
// a native map; the caller owns the nil check and the depth push/pop.
func decodeStringMapEntries(d *Decoder) (map[string]string, error) {
	n, err := d.Map()
	if err != nil {
		return nil, err
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k, err := d.String()
		if err != nil {
			return nil, err
		}
		v, err := d.String()
		if err != nil {
			return nil, err
		}
		m[k] = v
	}
	return m, nil
}

// sortStringsSmall is insertion sort: for the handful of keys a typical
// attribute map holds it beats the generic sort and, run on a stack
// array, allocates nothing. Same ascending order as sort.Strings, so the
// wire bytes are identical whichever path a map takes.
func sortStringsSmall(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func putStringKeys(kp *[]string, keys []string) {
	if cap(keys) > 1024 {
		keys = make([]string, 0, 16)
	} else {
		clear(keys) // do not pin key strings across messages
		keys = keys[:0]
	}
	*kp = keys
	stringKeysPool.Put(kp)
}

// stringMapPlan converts map[string]string (and named types with that
// underlying shape, whose layout is the same) without a reflect.Value per
// entry: native iteration, sort on stack or pooled scratch, native map
// build on decode. Wire bytes and error behavior match the generic map
// plan exactly — keys sort the same way and the element codecs are the
// same d.String/e.String calls.
var stringMapPlan = &plan{
	hint:   16,
	direct: true,
	enc: func(e *Encoder, p unsafe.Pointer) error {
		m := *(*map[string]string)(p)
		if m == nil {
			e.Nil()
			return nil
		}
		if err := e.push(); err != nil {
			return err
		}
		encodeStringMapEntries(e, m)
		e.pop()
		return nil
	},
	dec: func(d *Decoder, p unsafe.Pointer) error {
		if d.IsNil() {
			*(*map[string]string)(p) = nil
			return nil
		}
		if err := d.push(); err != nil {
			return err
		}
		m, err := decodeStringMapEntries(d)
		if err != nil {
			d.pop()
			return err
		}
		*(*map[string]string)(p) = m
		d.pop()
		return nil
	},
}

func (c *compiler) mapPlan(t reflect.Type) (*plan, error) {
	if t.ConvertibleTo(mapSSType) {
		return stringMapPlan, nil
	}
	var less func(a, b reflect.Value) bool
	switch t.Key().Kind() {
	case reflect.String:
		less = func(a, b reflect.Value) bool { return a.String() < b.String() }
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		less = func(a, b reflect.Value) bool { return a.Int() < b.Int() }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		less = func(a, b reflect.Value) bool { return a.Uint() < b.Uint() }
	default:
		return nil, fmt.Errorf("%w: map key kind %s", ErrUnsupported, t.Key().Kind())
	}
	key, err := c.compile(t.Key())
	if err != nil {
		return nil, err
	}
	val, err := c.compile(t.Elem())
	if err != nil {
		return nil, err
	}
	// SetMapIndex copies key and value into the map, so one scratch pair
	// can be reused across iterations — unless the value type reaches a
	// pointer, where reuse would alias every entry to one allocation.
	reuseKV := !typeHasPointer(t.Key()) && !typeHasPointer(t.Elem())
	keyT, valT := t.Key(), t.Elem()
	return &plan{
		hint:   16,
		direct: true,
		enc: func(e *Encoder, p unsafe.Pointer) error {
			if *(*unsafe.Pointer)(p) == nil {
				e.Nil()
				return nil
			}
			if err := e.push(); err != nil {
				return err
			}
			m := reflect.NewAt(t, p).Elem()
			s := mapScratchPool.Get().(*mapScratch)
			s.less = less
			iter := m.MapRange()
			for iter.Next() {
				s.keys = append(s.keys, iter.Key())
			}
			sort.Sort(s)
			e.Map(len(s.keys))
			// A map entry has no address: each is copied into this pair.
			k, v := reflect.New(keyT), reflect.New(valT)
			var err error
			for _, mk := range s.keys {
				k.Elem().Set(mk)
				v.Elem().Set(m.MapIndex(mk))
				if err = key.enc(e, k.UnsafePointer()); err != nil {
					break
				}
				if err = val.enc(e, v.UnsafePointer()); err != nil {
					break
				}
			}
			putMapScratch(s)
			e.pop()
			return err
		},
		dec: func(d *Decoder, p unsafe.Pointer) error {
			if d.IsNil() {
				*(*unsafe.Pointer)(p) = nil
				return nil
			}
			if err := d.push(); err != nil {
				return err
			}
			n, err := d.Map()
			if err != nil {
				d.pop()
				return err
			}
			m := reflect.MakeMapWithSize(t, n)
			var k, v reflect.Value
			for i := 0; i < n; i++ {
				if !reuseKV || i == 0 {
					k, v = reflect.New(keyT), reflect.New(valT)
				}
				if err := key.dec(d, k.UnsafePointer()); err != nil {
					d.pop()
					return err
				}
				if err := val.dec(d, v.UnsafePointer()); err != nil {
					d.pop()
					return err
				}
				m.SetMapIndex(k.Elem(), v.Elem())
			}
			*(*unsafe.Pointer)(p) = m.UnsafePointer()
			d.pop()
			return nil
		},
	}, nil
}

func putMapScratch(s *mapScratch) {
	// Drop slices grown by one huge map, and the key Values they pin.
	if cap(s.keys) > 1024 {
		s.keys = make([]reflect.Value, 0, 16)
	} else {
		clear(s.keys)
		s.keys = s.keys[:0]
	}
	s.less = nil
	mapScratchPool.Put(s)
}

// typeHasPointer reports whether t's value graph can contain a pointer.
// Visited types guard against recursive shapes (which necessarily do).
func typeHasPointer(t reflect.Type) bool {
	return typeHasPointerRec(t, make(map[reflect.Type]bool))
}

func typeHasPointerRec(t reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[t] {
		return true // a type cycle is only expressible through a pointer
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer:
		return true
	case reflect.Slice, reflect.Array:
		return typeHasPointerRec(t.Elem(), seen)
	case reflect.Map:
		return typeHasPointerRec(t.Key(), seen) || typeHasPointerRec(t.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if typeHasPointerRec(t.Field(i).Type, seen) {
				return true
			}
		}
	}
	return false
}

// fieldOp is one struct field's slot in a flat plan: its byte offset, its
// name for error wrapping, and the plan of its type.
type fieldOp struct {
	off  uintptr
	name string
	sub  *plan
}

func (c *compiler) structPlan(t reflect.Type) (*plan, error) {
	if p, ok := c.structs[t]; ok {
		return p, nil // recursive reference: filled in before any execution
	}
	p := &plan{direct: pointerShaped(t)}
	c.structs[t] = p
	ops := make([]fieldOp, 0, t.NumField())
	hint := 2
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			return nil, fmt.Errorf("%w: unexported field %s.%s", ErrUnsupported, t.Name(), f.Name)
		}
		sub, err := c.compile(f.Type)
		if err != nil {
			return nil, fmt.Errorf("field %s: %w", f.Name, err)
		}
		ops = append(ops, fieldOp{off: f.Offset, name: f.Name, sub: sub})
		hint = addHint(hint, sub.hint)
	}
	p.hint = hint
	p.enc = func(e *Encoder, base unsafe.Pointer) error {
		if err := e.push(); err != nil {
			return err
		}
		e.Begin()
		for k := range ops {
			op := &ops[k]
			if err := op.sub.enc(e, unsafe.Add(base, op.off)); err != nil {
				e.pop()
				return fmt.Errorf("field %s: %w", op.name, err)
			}
		}
		e.End()
		e.pop()
		return nil
	}
	p.dec = func(d *Decoder, base unsafe.Pointer) error {
		if err := d.push(); err != nil {
			return err
		}
		if err := d.Begin(); err != nil {
			d.pop()
			return err
		}
		for k := range ops {
			op := &ops[k]
			if err := op.sub.dec(d, unsafe.Add(base, op.off)); err != nil {
				d.pop()
				return fmt.Errorf("field %s: %w", op.name, err)
			}
		}
		err := d.End()
		d.pop()
		return err
	}
	return p, nil
}

func (c *compiler) pointerPlan(t reflect.Type) (*plan, error) {
	elem, err := c.compile(t.Elem())
	if err != nil {
		return nil, err
	}
	elemT := t.Elem()
	return &plan{
		hint:   addHint(0, elem.hint),
		direct: true,
		enc: func(e *Encoder, p unsafe.Pointer) error {
			q := *(*unsafe.Pointer)(p)
			if q == nil {
				return fmt.Errorf("%w: nil pointer", ErrUnsupported)
			}
			if err := e.push(); err != nil {
				return err
			}
			err := elem.enc(e, q)
			e.pop()
			return err
		},
		dec: func(d *Decoder, p unsafe.Pointer) error {
			if err := d.push(); err != nil {
				return err
			}
			q := *(*unsafe.Pointer)(p)
			if q == nil {
				q = reflect.New(elemT).UnsafePointer()
				*(*unsafe.Pointer)(p) = q
			}
			err := elem.dec(d, q)
			d.pop()
			return err
		},
	}, nil
}
