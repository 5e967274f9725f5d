package pack

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// depthNode is a recursive shape: unmarshalable in practice (the chain
// cannot terminate, nil pointers are rejected) but exactly what a
// hostile stream of open-parens drives the decoder into.
type depthNode struct {
	Next *depthNode
	V    int64
}

// deepSliceValue builds a value of type [][]...[]int64 nested depth
// levels, each level one element wide.
func deepSliceValue(depth int) reflect.Value {
	v := reflect.ValueOf(int64(7))
	for i := 0; i < depth; i++ {
		s := reflect.MakeSlice(reflect.SliceOf(v.Type()), 1, 1)
		s.Index(0).Set(v)
		v = s
	}
	return v
}

// TestDepthBombRejected is the companion of TestCountBombRejected: both
// codec paths — compiled plan and legacy reflect walk, encode and decode
// — must refuse values and streams nested beyond MaxDepth instead of
// recursing without bound.
func TestDepthBombRejected(t *testing.T) {
	// Encode side: an in-memory value nested past the cap.
	deep := deepSliceValue(MaxDepth + 10).Interface()
	if _, err := Marshal(deep); !errors.Is(err, ErrDepth) {
		t.Errorf("compiled Marshal of %d-deep value: got %v, want ErrDepth", MaxDepth+10, err)
	}
	if _, err := MarshalReflect(deep); !errors.Is(err, ErrDepth) {
		t.Errorf("reflect Marshal of %d-deep value: got %v, want ErrDepth", MaxDepth+10, err)
	}

	// Decode side: a hostile stream of list headers against a deep type.
	data := []byte(strings.Repeat("l1;", MaxDepth+10) + "i7;")
	out := reflect.New(deepSliceValue(MaxDepth + 10).Type())
	if err := Unmarshal(data, out.Interface()); !errors.Is(err, ErrDepth) {
		t.Errorf("compiled Unmarshal of deep stream: got %v, want ErrDepth", err)
	}
	if err := UnmarshalReflect(data, out.Interface()); !errors.Is(err, ErrDepth) {
		t.Errorf("reflect Unmarshal of deep stream: got %v, want ErrDepth", err)
	}

	// Decode side, recursive pointer shape: open-parens drive
	// struct+pointer recursion two levels per byte.
	bomb := []byte(strings.Repeat("(", MaxDepth))
	var n depthNode
	if err := Unmarshal(bomb, &n); !errors.Is(err, ErrDepth) {
		t.Errorf("compiled Unmarshal of paren bomb: got %v, want ErrDepth", err)
	}
	var n2 depthNode
	if err := UnmarshalReflect(bomb, &n2); !errors.Is(err, ErrDepth) {
		t.Errorf("reflect Unmarshal of paren bomb: got %v, want ErrDepth", err)
	}

	// Positive control: values comfortably under the cap still round-trip
	// through both paths, byte-identically.
	okVal := deepSliceValue(MaxDepth - 4).Interface()
	compiled, err := Marshal(okVal)
	if err != nil {
		t.Fatalf("compiled Marshal of legal depth: %v", err)
	}
	legacy, err := MarshalReflect(okVal)
	if err != nil {
		t.Fatalf("reflect Marshal of legal depth: %v", err)
	}
	if !bytes.Equal(compiled, legacy) {
		t.Error("compiled and reflect outputs differ at legal depth")
	}
	back := reflect.New(deepSliceValue(MaxDepth - 4).Type())
	if err := Unmarshal(legacy, back.Interface()); err != nil {
		t.Errorf("compiled Unmarshal of legal depth: %v", err)
	}
}

type (
	ptrHolder struct {
		P *int32
		N int8
	}
	onePointer     struct{ P *inner }
	namedInt16     int16
	namedStringMap map[string]string
	namedInt64s    []int64
)

// TestCompiledMatchesReflect pins byte-identity and cross round trips on
// the package's own representative shapes (the fuzzer extends this to
// arbitrary values).
func TestCompiledMatchesReflect(t *testing.T) {
	p1, p2, i64 := int32(11), int32(-22), int64(1<<50)
	pp := &i64
	cases := []any{
		sampleOuter(),
		int64(-5), uint8(255), 3.25, true, "str", []byte{1, 2, 3},
		[]int32{1, -2, 3},
		map[string]int64{"a": 1, "b": 2},
		map[uint16]string{9: "x", 1: "y"},
		[4]int8{1, -2, 3, -4},
		&inner{Tag: "p", Vals: []int32{5}},
		// Shapes the plan executor reaches by element stride or through the
		// interface data word itself.
		[]struct{}{{}, {}, {}},
		[]ptrHolder{{P: &p1, N: 1}, {P: &p2, N: -2}},
		[2]ptrHolder{{P: &p2, N: 3}, {P: &p1, N: 4}},
		namedInt16(-300),
		namedStringMap{"k": "v", "a": "b", "z": ""},
		namedInt64s{1, -2, 1 << 40},
		&pp,
		onePointer{P: &inner{Tag: "top", Vals: []int32{7}}},
		[1]*inner{{Tag: "arr"}},
		map[int8]inner{-3: {Tag: "neg"}, 5: {Tag: "pos", Vals: []int32{1, 2}}},
		map[string]*inner{"x": {Tag: "px"}, "y": {Tag: "py", Vals: []int32{9}}},
		map[string]map[uint16][]string{"m": {2: {"a", "b"}, 1: nil}, "e": {}},
	}
	for _, v := range cases {
		compiled, cerr := Marshal(v)
		legacy, lerr := MarshalReflect(v)
		if (cerr == nil) != (lerr == nil) {
			t.Errorf("%T: error divergence: compiled %v, reflect %v", v, cerr, lerr)
			continue
		}
		if cerr != nil {
			continue
		}
		if !bytes.Equal(compiled, legacy) {
			t.Errorf("%T: wire divergence:\n compiled %s\n reflect  %s", v, Dump(compiled), Dump(legacy))
		}
		// Cross round trips: compiled decode of the reflect stream and
		// reflect decode of the compiled stream both restore the value.
		out1 := reflect.New(reflect.TypeOf(v))
		if err := Unmarshal(legacy, out1.Interface()); err != nil {
			t.Errorf("%T: compiled decode of reflect stream: %v", v, err)
		} else if !reflect.DeepEqual(out1.Elem().Interface(), v) {
			t.Errorf("%T: compiled decode drifted: %+v", v, out1.Elem().Interface())
		}
		out2 := reflect.New(reflect.TypeOf(v))
		if err := UnmarshalReflect(compiled, out2.Interface()); err != nil {
			t.Errorf("%T: reflect decode of compiled stream: %v", v, err)
		} else if !reflect.DeepEqual(out2.Elem().Interface(), v) {
			t.Errorf("%T: reflect decode drifted: %+v", v, out2.Elem().Interface())
		}
	}
}

// TestCompiledUnsupportedMatchesReflect asserts the compiler rejects
// exactly what the reflect walk rejects.
func TestCompiledUnsupportedMatchesReflect(t *testing.T) {
	cases := []any{
		make(chan int),
		func() {},
		complex(1, 2),
		struct{ hidden int }{1},
		map[float64]int{1.5: 1},
		nil,
		(*inner)(nil),
		struct{ C chan int }{},
	}
	for _, c := range cases {
		_, cerr := Marshal(c)
		_, lerr := MarshalReflect(c)
		if (cerr == nil) != (lerr == nil) {
			t.Errorf("%T: compiled err %v, reflect err %v", c, cerr, lerr)
		}
		if cerr == nil {
			t.Errorf("Marshal(%T) should fail", c)
		}
	}
}

// TestRecursiveTypeCompiles proves the compiler ties the knot on
// self-referential types instead of recursing forever, and that the
// resulting plan behaves like the reflect walk (nil pointers reject).
func TestRecursiveTypeCompiles(t *testing.T) {
	n := &depthNode{V: 1, Next: &depthNode{V: 2}} // terminates in nil → reject
	_, cerr := Marshal(n)
	_, lerr := MarshalReflect(n)
	if cerr == nil || lerr == nil {
		t.Fatalf("nil-terminated chain must fail both paths: compiled %v, reflect %v", cerr, lerr)
	}
	if !errors.Is(cerr, ErrUnsupported) {
		t.Errorf("compiled error = %v, want ErrUnsupported", cerr)
	}
}

// poisonOuter and poisonInner refer to each other, and the outer one has
// a field no codec supports.
type (
	poisonOuter struct {
		In *poisonInner
		C  chan int
	}
	poisonInner struct {
		Out *poisonOuter
		N   int64
	}
)

// TestFailedCompileCachesNothing: the inner struct's plan is finished
// before the outer compile fails on its channel, and it points back at
// the outer plan, which never got its closures. Caching it made the next
// Marshal of the inner type call a nil func.
func TestFailedCompileCachesNothing(t *testing.T) {
	if _, err := Marshal(poisonOuter{}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("outer: got %v, want ErrUnsupported", err)
	}
	v := poisonInner{Out: &poisonOuter{}, N: 1}
	_, cerr := Marshal(v)
	_, lerr := MarshalReflect(v)
	if !errors.Is(cerr, ErrUnsupported) || !errors.Is(lerr, ErrUnsupported) {
		t.Errorf("inner: compiled %v, reflect %v, want ErrUnsupported from both", cerr, lerr)
	}
}

// TestPlanCacheCounters exercises the pack.compiles / pack.plan_hits
// telemetry: a fresh type costs one compile, each later use is a hit.
func TestPlanCacheCounters(t *testing.T) {
	type counterProbe struct {
		X uint32
		Y string
	}
	c0, h0 := Compiles(), PlanHits()
	if _, err := Marshal(counterProbe{X: 1, Y: "a"}); err != nil {
		t.Fatal(err)
	}
	if Compiles() <= c0 {
		t.Errorf("first Marshal of a new type should compile: %d -> %d", c0, Compiles())
	}
	h1 := PlanHits()
	for i := 0; i < 3; i++ {
		if _, err := Marshal(counterProbe{X: 2, Y: "b"}); err != nil {
			t.Fatal(err)
		}
	}
	if PlanHits() < h1+3 {
		t.Errorf("warm Marshals should hit the plan cache: %d -> %d (h0=%d)", h1, PlanHits(), h0)
	}
}

// TestEncoderMarshalAppends pins the pooled-encoder entry point: it
// appends to the stream in place and matches the package-level Marshal.
func TestEncoderMarshalAppends(t *testing.T) {
	var e Encoder
	e.String("envelope")
	if err := e.Marshal(sampleOuter()); err != nil {
		t.Fatal(err)
	}
	want, err := Marshal(sampleOuter())
	if err != nil {
		t.Fatal(err)
	}
	var prefix Encoder
	prefix.String("envelope")
	if !bytes.Equal(e.Bytes(), append(prefix.Bytes(), want...)) {
		t.Error("Encoder.Marshal must append exactly the Marshal stream")
	}
}
