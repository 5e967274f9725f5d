package machine

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

type record struct {
	A int32
	B uint16
	C float64
	D bool
	E [4]byte
	F int8
}

type nested struct {
	Head record
	Tag  uint32
	Tail [2]record
}

func TestTypeNamesRoundTrip(t *testing.T) {
	for _, m := range []Type{VAX, Sun68K, Apollo, Pyramid} {
		got, err := ParseType(m.String())
		if err != nil {
			t.Fatalf("ParseType(%q): %v", m.String(), err)
		}
		if got != m {
			t.Errorf("ParseType(%q) = %v, want %v", m.String(), got, m)
		}
	}
	if _, err := ParseType("pdp11"); err == nil {
		t.Error("ParseType(pdp11) should fail")
	}
	if Unknown.Valid() {
		t.Error("Unknown must not be Valid")
	}
	if Type(200).String() == "" {
		t.Error("out-of-range type should still format")
	}
}

func TestCompatibility(t *testing.T) {
	tests := []struct {
		a, b Type
		want bool
	}{
		{VAX, VAX, true},
		{Sun68K, Sun68K, true},
		{Apollo, Apollo, true},
		{VAX, Sun68K, false},    // byte order differs
		{VAX, Apollo, false},    // byte order differs
		{Sun68K, Apollo, false}, // alignment differs
		{Apollo, Pyramid, true}, // same layout, different machine
		{Unknown, VAX, false},
		{VAX, Unknown, false},
	}
	for _, tt := range tests {
		if got := Compatible(tt.a, tt.b); got != tt.want {
			t.Errorf("Compatible(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if got := Compatible(tt.b, tt.a); got != tt.want {
			t.Errorf("Compatible(%v, %v) = %v, want %v (symmetry)", tt.b, tt.a, got, tt.want)
		}
	}
}

func TestImageRoundTripSameMachine(t *testing.T) {
	in := record{A: -123456, B: 5150, C: math.Pi, D: true, E: [4]byte{1, 2, 3, 4}, F: -7}
	for _, m := range []Type{VAX, Sun68K, Apollo, Pyramid} {
		img, err := Image(in, m)
		if err != nil {
			t.Fatalf("Image(%v): %v", m, err)
		}
		var out record
		if err := ImageDecode(img, m, &out); err != nil {
			t.Fatalf("ImageDecode(%v): %v", m, err)
		}
		if out != in {
			t.Errorf("%v round trip: got %+v, want %+v", m, out, in)
		}
	}
}

func TestImageRoundTripCompatibleMachines(t *testing.T) {
	in := nested{
		Head: record{A: 1, B: 2, C: 3.5, D: true, E: [4]byte{9, 8, 7, 6}, F: 4},
		Tag:  0xDEADBEEF,
		Tail: [2]record{{A: -1}, {B: 65535, C: -0.25}},
	}
	img, err := Image(&in, Apollo)
	if err != nil {
		t.Fatal(err)
	}
	var out nested
	if err := ImageDecode(img, Pyramid, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("Apollo image decoded on Pyramid: got %+v, want %+v", out, in)
	}
}

func TestImageCrossMachineCorruption(t *testing.T) {
	// A VAX image decoded as if it were a Sun image must byte-swap integer
	// fields: this is the failure mode the paper's packed mode prevents.
	in := struct{ A uint32 }{A: 0x11223344}
	img, err := Image(in, VAX)
	if err != nil {
		t.Fatal(err)
	}
	var out struct{ A uint32 }
	if err := ImageDecode(img, Sun68K, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != 0x44332211 {
		t.Errorf("cross-machine decode: got %#x, want byte-swapped %#x", out.A, uint32(0x44332211))
	}
}

func TestImageLayoutDiffersAcrossAlignment(t *testing.T) {
	// Sun68K caps alignment at 2, so a struct with an int8 followed by an
	// int32 is physically smaller there than on the VAX or Apollo.
	v := struct {
		A int8
		B int32
	}{A: 1, B: 2}
	sun, err := ImageSize(v, Sun68K)
	if err != nil {
		t.Fatal(err)
	}
	vax, err := ImageSize(v, VAX)
	if err != nil {
		t.Fatal(err)
	}
	if sun != 6 {
		t.Errorf("Sun68K size = %d, want 6 (align 2)", sun)
	}
	if vax != 8 {
		t.Errorf("VAX size = %d, want 8 (align 4)", vax)
	}
}

func TestImageAlignmentPadding(t *testing.T) {
	v := struct {
		A int8
		B int32
		C int16
	}{A: 0x7F, B: -1, C: 0x1234}
	img, err := Image(v, Apollo)
	if err != nil {
		t.Fatal(err)
	}
	// Apollo layout: A at 0, pad 1..3, B at 4..7, C at 8..9, pad to 12.
	if len(img) != 12 {
		t.Fatalf("Apollo image size = %d, want 12", len(img))
	}
	if img[0] != 0x7F {
		t.Errorf("A at offset 0 = %#x", img[0])
	}
	if !bytes.Equal(img[4:8], []byte{0xFF, 0xFF, 0xFF, 0xFF}) {
		t.Errorf("B at offset 4 = % x", img[4:8])
	}
	if !bytes.Equal(img[8:10], []byte{0x12, 0x34}) {
		t.Errorf("C at offset 8 = % x", img[8:10])
	}
}

func TestNotImageable(t *testing.T) {
	cases := []any{
		struct{ S string }{"hi"},
		struct{ P *int }{},
		struct{ L []int }{},
		struct{ M map[string]int }{},
		struct{ c int32 }{}, // unexported field
		"just a string",
		42, // bare scalar: valid? Image requires struct-ish; scalars are allowed by imageableType
	}
	for i, c := range cases[:6] {
		if Imageable(c) {
			t.Errorf("case %d (%T) should not be imageable", i, c)
		}
	}
	// Bare fixed-size scalars are contiguous blocks and thus allowed.
	if !Imageable(42) {
		t.Error("bare int should be imageable")
	}
	if _, err := Image(struct{ S string }{"x"}, VAX); err == nil {
		t.Error("Image of string field should fail")
	}
	var out struct{ S string }
	if err := ImageDecode(nil, VAX, &out); err == nil {
		t.Error("ImageDecode into string field should fail")
	}
}

func TestImageDecodeErrors(t *testing.T) {
	var r record
	if err := ImageDecode([]byte{1, 2}, VAX, &r); err == nil {
		t.Error("short image should fail")
	}
	if err := ImageDecode(nil, VAX, r); err == nil {
		t.Error("non-pointer target should fail")
	}
	var nilPtr *record
	if err := ImageDecode(nil, VAX, nilPtr); err == nil {
		t.Error("nil pointer target should fail")
	}
	if _, err := Image(record{}, Unknown); err == nil {
		t.Error("Image with Unknown machine should fail")
	}
	if err := ImageDecode(make([]byte, 64), Unknown, &r); err == nil {
		t.Error("ImageDecode with Unknown machine should fail")
	}
	if _, err := Image(nilPtr, VAX); err == nil {
		t.Error("Image of nil pointer should fail")
	}
}

func TestImageSizeMatchesEncoding(t *testing.T) {
	vals := []any{
		record{},
		nested{},
		struct{ A, B, C int64 }{},
		struct {
			A bool
			B float32
			C [3]int16
		}{},
	}
	for _, v := range vals {
		for _, m := range []Type{VAX, Sun68K, Apollo} {
			want, err := ImageSize(v, m)
			if err != nil {
				t.Fatal(err)
			}
			img, err := Image(v, m)
			if err != nil {
				t.Fatal(err)
			}
			if len(img) != want {
				t.Errorf("%T on %v: ImageSize=%d, len(Image)=%d", v, m, want, len(img))
			}
		}
	}
}

// Property: for every machine type, Image followed by ImageDecode with the
// same machine type is the identity on imageable structs.
func TestQuickImageRoundTrip(t *testing.T) {
	type q struct {
		A int64
		B uint32
		C int16
		D float64
		E bool
		F [8]byte
		G uint8
	}
	for _, m := range []Type{VAX, Sun68K, Apollo, Pyramid} {
		m := m
		f := func(in q) bool {
			img, err := Image(in, m)
			if err != nil {
				return false
			}
			var out q
			if err := ImageDecode(img, m, &out); err != nil {
				return false
			}
			return in == out
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("machine %v: %v", m, err)
		}
	}
}

// Property: images of the same value on layout-compatible machines are
// byte-identical (that is what makes the byte copy legal).
func TestQuickCompatibleImagesIdentical(t *testing.T) {
	type q struct {
		A int32
		B float64
		C [3]uint16
	}
	f := func(in q) bool {
		a, err1 := Image(in, Apollo)
		b, err2 := Image(in, Pyramid)
		return err1 == nil && err2 == nil && bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNegativeValueSignExtension(t *testing.T) {
	type s struct {
		A int8
		B int16
		C int32
	}
	in := s{A: -1, B: -300, C: -70000}
	for _, m := range []Type{VAX, Apollo} {
		img, err := Image(in, m)
		if err != nil {
			t.Fatal(err)
		}
		var out s
		if err := ImageDecode(img, m, &out); err != nil {
			t.Fatal(err)
		}
		if out != in {
			t.Errorf("%v: got %+v, want %+v", m, out, in)
		}
	}
}

// AppendImage onto a buffer that already holds a prefix, with stale bytes
// past its length, writes exactly Image's bytes after the prefix: padding
// comes out zero, not stale. A pointer and a value of the same struct give
// the same image (a byte array in a pointed-to struct is copied whole, one
// in a struct value byte by byte).
func TestAppendImageMatchesImage(t *testing.T) {
	rec := record{A: -7, B: 0xbeef, C: math.Pi, D: true, E: [4]byte{1, 2, 3, 4}, F: -1}
	vals := []any{
		rec,
		&rec,
		nested{Head: rec, Tag: 9, Tail: [2]record{rec, {A: 1}}},
		struct {
			A bool
			B float32
			C [3]int16
		}{true, 2.5, [3]int16{-1, 0, 1}},
	}
	prefix := []byte("envelope:")
	for _, m := range []Type{VAX, Sun68K, Apollo, Pyramid} {
		for _, v := range vals {
			want, err := Image(v, m)
			if err != nil {
				t.Fatal(err)
			}
			dirty := bytes.Repeat([]byte{0xff}, len(prefix)+len(want)+8)
			dst := append(dirty[:0], prefix...)
			got, err := AppendImage(dst, v, m)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Errorf("%T on %v: AppendImage wrote %x after the prefix, Image %x", v, m, got[len(prefix):], want)
			}
		}
		byValue, _ := Image(rec, m)
		byPointer, _ := Image(&rec, m)
		if !bytes.Equal(byValue, byPointer) {
			t.Errorf("on %v: image of a value %x, of a pointer %x", m, byValue, byPointer)
		}
	}
	if _, err := AppendImage(nil, struct{ S string }{"x"}, VAX); err != ErrNotImageable {
		t.Errorf("AppendImage of a string field = %v, want ErrNotImageable", err)
	}
}
