package pack

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncoderDecoderScalars(t *testing.T) {
	var e Encoder
	e.Int(-42)
	e.Uint(math.MaxUint64)
	e.Float(math.Pi)
	e.Bool(true)
	e.Bool(false)
	e.String("héllo;:(")
	e.BytesField([]byte{0, 1, 2, 0xFF})

	d := NewDecoder(e.Bytes())
	if v, err := d.Int(); err != nil || v != -42 {
		t.Errorf("Int = %d, %v", v, err)
	}
	if v, err := d.Uint(); err != nil || v != math.MaxUint64 {
		t.Errorf("Uint = %d, %v", v, err)
	}
	if v, err := d.Float(); err != nil || v != math.Pi {
		t.Errorf("Float = %v, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || !v {
		t.Errorf("Bool = %v, %v", v, err)
	}
	if v, err := d.Bool(); err != nil || v {
		t.Errorf("Bool = %v, %v", v, err)
	}
	if v, err := d.String(); err != nil || v != "héllo;:(" {
		t.Errorf("String = %q, %v", v, err)
	}
	if v, err := d.BytesField(); err != nil || !bytes.Equal(v, []byte{0, 1, 2, 0xFF}) {
		t.Errorf("Bytes = % x, %v", v, err)
	}
	if d.Remaining() != 0 {
		t.Errorf("Remaining = %d", d.Remaining())
	}
}

func TestDecoderTypeTagMismatch(t *testing.T) {
	var e Encoder
	e.Int(5)
	d := NewDecoder(e.Bytes())
	if _, err := d.Uint(); !errors.Is(err, ErrTypeTag) {
		t.Errorf("got %v, want ErrTypeTag", err)
	}
	// After the failed read, the correct read still succeeds.
	if v, err := d.Int(); err != nil || v != 5 {
		t.Errorf("Int after mismatch = %d, %v", v, err)
	}
}

func TestDecoderSyntaxErrors(t *testing.T) {
	cases := []string{
		"",       // empty
		"i42",    // missing delimiter
		"i;",     // empty number
		"iabc;",  // not a number
		"u-1;",   // negative unsigned
		"fxyz;",  // bad float
		"b7;",    // bad bool
		"s5:ab",  // short string
		"s-1:",   // negative length
		"l-3;",   // negative count
		"sXX:ab", // unparsable length
	}
	for _, c := range cases {
		d := NewDecoder([]byte(c))
		var err error
		switch {
		case strings.HasPrefix(c, "i") || c == "":
			_, err = d.Int()
		case strings.HasPrefix(c, "u"):
			_, err = d.Uint()
		case strings.HasPrefix(c, "f"):
			_, err = d.Float()
		case strings.HasPrefix(c, "b"):
			_, err = d.Bool()
		case strings.HasPrefix(c, "s"):
			_, err = d.String()
		case strings.HasPrefix(c, "l"):
			_, err = d.List()
		}
		if err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
}

func TestBytesFieldIsCopied(t *testing.T) {
	var e Encoder
	e.BytesField([]byte{1, 2, 3})
	data := e.Bytes()
	d := NewDecoder(data)
	got, err := d.BytesField()
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 99
	d2 := NewDecoder(data)
	again, err := d2.BytesField()
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != 1 {
		t.Error("BytesField must return a copy, not alias the stream")
	}
}

// TestFieldMatchesBytesField: a field opened with BeginField, filled in
// place and closed with EndField is byte-identical to BytesField of the
// same contents, on both sides of every change in the length's digit
// count, so the contents move left, stay, or move right.
func TestFieldMatchesBytesField(t *testing.T) {
	for _, n := range []int{0, 9, 10, 99, 100, 999, 1000, 3 << 10, 9999, 10000, 123456} {
		contents := bytes.Repeat([]byte("0123456789abcdef"), n/16+1)[:n]
		var want Encoder
		want.String("type")
		want.BytesField(contents)
		want.Int(7)

		var got Encoder
		got.String("type")
		mark := got.BeginField()
		got.SetBytes(append(got.Bytes(), contents...))
		got.EndField(mark)
		got.Int(7)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d-byte field: %.40q..., want %.40q...", n, got.Bytes(), want.Bytes())
		}

		// NestedBytesField is BytesField(Marshal(v)) written in place.
		inner, err := Marshal(contents)
		if err != nil {
			t.Fatal(err)
		}
		want.Reset()
		want.BytesField(inner)
		got.Reset()
		got.NestedBytesField(contents)
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%d-byte nested field: %.40q..., want %.40q...", n, got.Bytes(), want.Bytes())
		}
	}
}

func TestEncoderReset(t *testing.T) {
	var e Encoder
	e.Int(1)
	if e.Len() == 0 {
		t.Fatal("Len should be nonzero")
	}
	e.Reset()
	if e.Len() != 0 {
		t.Error("Reset should empty the encoder")
	}
}

type inner struct {
	Tag  string
	Vals []int32
}

type outer struct {
	Name    string
	Count   uint16
	Ratio   float64
	OK      bool
	Raw     []byte
	Nested  inner
	Many    []inner
	ByName  map[string]int64
	Fixed   [3]uint8
	Pointer *inner
}

func sampleOuter() outer {
	return outer{
		Name:   "search-backend",
		Count:  7,
		Ratio:  0.125,
		OK:     true,
		Raw:    []byte{9, 8, 7},
		Nested: inner{Tag: "idx", Vals: []int32{-1, 0, 1}},
		Many: []inner{
			{Tag: "a"},
			{Tag: "b", Vals: []int32{5}},
		},
		ByName:  map[string]int64{"z": 26, "a": 1, "m": 13},
		Fixed:   [3]uint8{1, 2, 3},
		Pointer: &inner{Tag: "p", Vals: []int32{42}},
	}
}

func TestMarshalUnmarshalStruct(t *testing.T) {
	in := sampleOuter()
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out outer
	if err := Unmarshal(data, &out); err != nil {
		t.Fatalf("Unmarshal: %v\ndata: %s", err, Dump(data))
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n in  %+v\n out %+v", in, out)
	}
}

func TestMarshalDeterministicMapOrder(t *testing.T) {
	in := map[string]int{"b": 2, "a": 1, "c": 3}
	d1, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d2, err := Marshal(map[string]int{"c": 3, "a": 1, "b": 2})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d1, d2) {
			t.Fatal("map encoding must be deterministic")
		}
	}
}

func TestMarshalIntKeyMaps(t *testing.T) {
	in := map[int32]string{3: "c", 1: "a"}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out map[int32]string
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("got %v", out)
	}
	inU := map[uint8]bool{200: true, 4: false}
	data, err = Marshal(inU)
	if err != nil {
		t.Fatal(err)
	}
	var outU map[uint8]bool
	if err := Unmarshal(data, &outU); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inU, outU) {
		t.Errorf("got %v", outU)
	}
}

func TestMarshalNilSliceAndMapPreserved(t *testing.T) {
	type s struct {
		L []int
		M map[string]int
	}
	data, err := Marshal(s{})
	if err != nil {
		t.Fatal(err)
	}
	var out s
	out.L = []int{1}
	out.M = map[string]int{"x": 1}
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.L != nil || out.M != nil {
		t.Errorf("nil-ness not preserved: %+v", out)
	}
	// And empty-but-non-nil stays non-nil.
	data, err = Marshal(s{L: []int{}, M: map[string]int{}})
	if err != nil {
		t.Fatal(err)
	}
	var out2 s
	if err := Unmarshal(data, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.L == nil || out2.M == nil {
		t.Errorf("empty slice/map decoded as nil: %+v", out2)
	}
}

func TestMarshalUnsupported(t *testing.T) {
	cases := []any{
		make(chan int),
		func() {},
		complex(1, 2),
		struct{ hidden int }{1},
		map[float64]int{1.5: 1},
		nil,
		(*inner)(nil),
	}
	for _, c := range cases {
		if _, err := Marshal(c); err == nil {
			t.Errorf("Marshal(%T) should fail", c)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	data, err := Marshal(int64(300))
	if err != nil {
		t.Fatal(err)
	}
	var small int8
	if err := Unmarshal(data, &small); !errors.Is(err, ErrOverflow) {
		t.Errorf("overflow: got %v", err)
	}
	var x int64
	if err := Unmarshal(data, x); !errors.Is(err, ErrBadTarget) {
		t.Errorf("non-pointer: got %v", err)
	}
	if err := Unmarshal(data, (*int64)(nil)); !errors.Is(err, ErrBadTarget) {
		t.Errorf("nil pointer: got %v", err)
	}
	if err := Unmarshal(append(bytes.Clone(data), 'i'), &x); !errors.Is(err, ErrTrailing) {
		t.Errorf("trailing: got %v", err)
	}
	// Array length mismatch.
	arrData, err := Marshal([2]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var wrong [3]int
	if err := Unmarshal(arrData, &wrong); err == nil {
		t.Error("array length mismatch should fail")
	}
	// Negative unsigned → error.
	var u uint32
	if err := Unmarshal([]byte("u99999999999;"), &u); !errors.Is(err, ErrOverflow) {
		t.Errorf("uint overflow: got %v", err)
	}
}

func TestUnmarshalIntoPointerField(t *testing.T) {
	data, err := Marshal(inner{Tag: "x", Vals: []int32{1}})
	if err != nil {
		t.Fatal(err)
	}
	var p *inner
	if err := Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if p == nil || p.Tag != "x" {
		t.Errorf("got %+v", p)
	}
}

func TestDumpPrintable(t *testing.T) {
	var e Encoder
	e.String("ab\x00c")
	got := Dump(e.Bytes())
	if !strings.Contains(got, `\x00`) {
		t.Errorf("Dump = %q", got)
	}
	long := make([]byte, 1000)
	if !strings.HasSuffix(Dump(long), "…") {
		t.Error("long dumps should be truncated")
	}
}

// Property: Marshal∘Unmarshal is the identity on a representative message
// struct, for arbitrary field values.
func TestQuickMarshalRoundTrip(t *testing.T) {
	type msg struct {
		A int64
		B uint32
		C string
		D []byte
		E bool
		F float64
		G []int16
		H map[string]uint8
	}
	f := func(in msg) bool {
		data, err := Marshal(in)
		if err != nil {
			return false
		}
		var out msg
		if err := Unmarshal(data, &out); err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: float round trip is exact for every finite float64, including
// extremes (the character format must be lossless — the 1986 implementation
// got this wrong for a while, per project lore; strconv 'g/-1' guarantees it).
func TestQuickFloatRoundTrip(t *testing.T) {
	f := func(v float64) bool {
		if math.IsNaN(v) {
			return true // NaN never compares equal; packed format carries it as "NaN"
		}
		var e Encoder
		e.Float(v)
		got, err := NewDecoder(e.Bytes()).Float()
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1)} {
		var e Encoder
		e.Float(v)
		got, err := NewDecoder(e.Bytes()).Float()
		if err != nil || got != v {
			t.Errorf("extreme %v: got %v, %v", v, got, err)
		}
	}
}

// Property: the packed stream is pure ASCII except inside counted string /
// byte fields — it is a character representation.
func TestQuickCharacterRepresentation(t *testing.T) {
	f := func(a int64, b uint64, c float64, d bool) bool {
		var e Encoder
		e.Int(a)
		e.Uint(b)
		e.Float(c)
		e.Bool(d)
		for _, ch := range e.Bytes() {
			if ch < 0x20 || ch > 0x7E {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarshalStruct(b *testing.B) {
	in := sampleOuter()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalStruct(b *testing.B) {
	data, err := Marshal(sampleOuter())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out outer
		if err := Unmarshal(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}
