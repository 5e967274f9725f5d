// Package machine simulates the heterogeneous machine environment of the
// URSA testbed (Apollo, VAX, Sun). The 1986 NTCS had to move data among
// machines with different byte orders and structure layouts; this package
// reproduces that constraint in software by defining machine types with a
// byte order, an alignment rule, and a word size, and by rendering Go
// structs as the "memory image" a C compiler on such a machine would
// produce.
//
// Image mode (paper §5.1) is a byte copy of that memory image: it round
// trips only between layout-compatible machines. Decoding an image with the
// wrong machine type yields the same corruption (swapped bytes, shifted
// fields) the paper's packed mode exists to avoid.
package machine

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
)

// Type identifies a simulated machine architecture.
type Type uint8

// The machine types of the URSA testbed, plus Pyramid to exercise the
// "layout compatible but not identical" case.
const (
	Unknown Type = iota
	VAX          // little-endian, natural alignment capped at 4
	Sun68K       // big-endian, alignment capped at 2
	Apollo       // big-endian, natural alignment capped at 4
	Pyramid      // big-endian, natural alignment capped at 4 (Apollo-compatible)

	numTypes
)

// ByteOrder reports whether the machine is big-endian.
func (t Type) BigEndian() bool {
	return t != VAX
}

// MaxAlign returns the maximum alignment, in bytes, the machine's compiler
// applies to structure members.
func (t Type) MaxAlign() int {
	if t == Sun68K {
		return 2
	}
	return 4
}

// Valid reports whether t names a known machine type.
func (t Type) Valid() bool { return t > Unknown && t < numTypes }

func (t Type) String() string {
	switch t {
	case VAX:
		return "vax"
	case Sun68K:
		return "sun68k"
	case Apollo:
		return "apollo"
	case Pyramid:
		return "pyramid"
	default:
		return fmt.Sprintf("machine(%d)", uint8(t))
	}
}

// ParseType converts a machine-type name back to a Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "vax":
		return VAX, nil
	case "sun68k":
		return Sun68K, nil
	case "apollo":
		return Apollo, nil
	case "pyramid":
		return Pyramid, nil
	}
	return Unknown, fmt.Errorf("machine: unknown type %q", s)
}

// Compatible reports whether two machine types share a memory representation
// so that a byte copy (image mode) is valid between them. The paper selects
// image mode for "identical machines"; we generalize slightly to
// layout-identical machines (same byte order and alignment), which is the
// property the byte copy actually depends on.
func Compatible(a, b Type) bool {
	if !a.Valid() || !b.Valid() {
		return false
	}
	return a.BigEndian() == b.BigEndian() && a.MaxAlign() == b.MaxAlign()
}

// Errors returned by the image codec.
var (
	ErrNotImageable = errors.New("machine: value is not a contiguous block (image mode requires fixed-size fields)")
	ErrShortImage   = errors.New("machine: image truncated")
	ErrBadTarget    = errors.New("machine: decode target must be a non-nil pointer to struct")
)

// Imageable reports whether v can be transferred in image mode: the paper
// requires "a contiguous block of memory (e.g., linked lists are not
// allowed)". Strings, slices, maps and pointers are therefore excluded.
func Imageable(v any) bool {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return false
		}
		rv = rv.Elem()
	}
	return imageableType(rv.Type())
}

func imageableType(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool,
		reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
		reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint,
		reflect.Float32, reflect.Float64:
		return true
	case reflect.Array:
		return imageableType(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return false
			}
			if !imageableType(f.Type) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// fieldSize returns the size, in bytes, a field of kind k occupies on a
// simulated machine. Go's int/uint map to the 1986 "long long" (8 bytes) so
// values never truncate.
func fieldSize(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Bool, reflect.Int8, reflect.Uint8:
		return 1
	case reflect.Int16, reflect.Uint16:
		return 2
	case reflect.Int32, reflect.Uint32, reflect.Float32:
		return 4
	case reflect.Int64, reflect.Uint64, reflect.Int, reflect.Uint, reflect.Float64:
		return 8
	default:
		return 0
	}
}

// align returns the alignment of a type on machine m.
func alignOf(t reflect.Type, m Type) int {
	switch t.Kind() {
	case reflect.Array:
		return alignOf(t.Elem(), m)
	case reflect.Struct:
		a := 1
		for i := 0; i < t.NumField(); i++ {
			if fa := alignOf(t.Field(i).Type, m); fa > a {
				a = fa
			}
		}
		return a
	default:
		a := fieldSize(t)
		if a > m.MaxAlign() {
			a = m.MaxAlign()
		}
		if a == 0 {
			a = 1
		}
		return a
	}
}

func alignUp(off, a int) int {
	if a <= 1 {
		return off
	}
	return (off + a - 1) / a * a
}

// ImageSize returns the size of the memory image of v on machine m.
func ImageSize(v any, m Type) (int, error) {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return 0, ErrNotImageable
		}
		rv = rv.Elem()
	}
	if !imageableType(rv.Type()) {
		return 0, ErrNotImageable
	}
	return sizeOfType(rv.Type(), m), nil
}

func sizeOfType(t reflect.Type, m Type) int {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() * sizeOfType(t.Elem(), m)
	case reflect.Struct:
		off := 0
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			off = alignUp(off, alignOf(f.Type, m))
			off += sizeOfType(f.Type, m)
		}
		return alignUp(off, alignOf(t, m))
	default:
		return fieldSize(t)
	}
}

// Image renders v (a struct, or pointer to struct, of fixed-size fields) as
// the contiguous memory image a compiler on machine m would produce.
func Image(v any, m Type) ([]byte, error) {
	return AppendImage(nil, v, m)
}

// AppendImage appends v's memory image on machine m to dst and returns the
// extended buffer, as Image renders it. Padding bytes are written as zeros
// whatever dst held beyond its length.
func AppendImage(dst []byte, v any, m Type) ([]byte, error) {
	if !m.Valid() {
		return nil, fmt.Errorf("machine: invalid machine type %d", m)
	}
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		if rv.IsNil() {
			return nil, ErrNotImageable
		}
		rv = rv.Elem()
	}
	if !imageableType(rv.Type()) {
		return nil, ErrNotImageable
	}
	size := sizeOfType(rv.Type(), m)
	start := len(dst)
	dst = slices.Grow(dst, size)[:start+size]
	img := dst[start:]
	clear(img)
	if n := encodeValue(img, 0, rv, m); n != size {
		return nil, fmt.Errorf("machine: internal size mismatch (%d != %d)", n, size)
	}
	return dst, nil
}

func encodeValue(buf []byte, off int, rv reflect.Value, m Type) int {
	t := rv.Type()
	switch t.Kind() {
	case reflect.Array:
		if t.Elem().Kind() == reflect.Uint8 && rv.CanAddr() {
			// Byte arrays are a straight memcpy, as on the real machines.
			return off + copy(buf[off:], rv.Bytes())
		}
		for i := 0; i < rv.Len(); i++ {
			off = encodeValue(buf, off, rv.Index(i), m)
		}
		return off
	case reflect.Struct:
		start := off
		for i := 0; i < rv.NumField(); i++ {
			f := t.Field(i)
			off = start + alignUp(off-start, alignOf(f.Type, m))
			off = encodeValue(buf, off, rv.Field(i), m)
		}
		return start + alignUp(off-start, alignOf(t, m))
	default:
		size := fieldSize(t)
		var bits uint64
		switch t.Kind() {
		case reflect.Bool:
			if rv.Bool() {
				bits = 1
			}
		case reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int:
			bits = uint64(rv.Int())
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
			bits = rv.Uint()
		case reflect.Float32:
			bits = uint64(math.Float32bits(float32(rv.Float())))
		case reflect.Float64:
			bits = math.Float64bits(rv.Float())
		}
		putBits(buf[off:off+size], bits, m)
		return off + size
	}
}

// ImageDecode reads a memory image produced on machine m back into out,
// which must be a non-nil pointer to a struct of the same shape. Decoding
// with a machine type whose layout differs from the producer's yields
// corrupt values, exactly as a raw byte copy did on the 1986 testbed; this
// is deliberate and exercised by tests.
func ImageDecode(data []byte, m Type, out any) error {
	if !m.Valid() {
		return fmt.Errorf("machine: invalid machine type %d", m)
	}
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return ErrBadTarget
	}
	rv = rv.Elem()
	if !imageableType(rv.Type()) {
		return ErrNotImageable
	}
	if need := sizeOfType(rv.Type(), m); len(data) < need {
		return fmt.Errorf("%w: have %d bytes, need %d", ErrShortImage, len(data), need)
	}
	decodeValue(data, 0, rv, m)
	return nil
}

func decodeValue(buf []byte, off int, rv reflect.Value, m Type) int {
	t := rv.Type()
	switch t.Kind() {
	case reflect.Array:
		if t.Elem().Kind() == reflect.Uint8 {
			off += reflect.Copy(rv, reflect.ValueOf(buf[off:off+rv.Len()]))
			return off
		}
		for i := 0; i < rv.Len(); i++ {
			off = decodeValue(buf, off, rv.Index(i), m)
		}
		return off
	case reflect.Struct:
		start := off
		for i := 0; i < rv.NumField(); i++ {
			f := t.Field(i)
			off = start + alignUp(off-start, alignOf(f.Type, m))
			off = decodeValue(buf, off, rv.Field(i), m)
		}
		return start + alignUp(off-start, alignOf(t, m))
	default:
		size := fieldSize(t)
		bits := getBits(buf[off:off+size], m)
		switch t.Kind() {
		case reflect.Bool:
			rv.SetBool(bits&1 != 0)
		case reflect.Int8:
			rv.SetInt(int64(int8(bits)))
		case reflect.Int16:
			rv.SetInt(int64(int16(bits)))
		case reflect.Int32:
			rv.SetInt(int64(int32(bits)))
		case reflect.Int64, reflect.Int:
			rv.SetInt(int64(bits))
		case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
			rv.SetUint(bits)
		case reflect.Float32:
			rv.SetFloat(float64(math.Float32frombits(uint32(bits))))
		case reflect.Float64:
			rv.SetFloat(math.Float64frombits(bits))
		}
		return off + size
	}
}

func putBits(dst []byte, bits uint64, m Type) {
	n := len(dst)
	if m.BigEndian() {
		for i := 0; i < n; i++ {
			dst[i] = byte(bits >> (8 * (n - 1 - i)))
		}
		return
	}
	for i := 0; i < n; i++ {
		dst[i] = byte(bits >> (8 * i))
	}
}

func getBits(src []byte, m Type) uint64 {
	n := len(src)
	var bits uint64
	if m.BigEndian() {
		for i := 0; i < n; i++ {
			bits = bits<<8 | uint64(src[i])
		}
	} else {
		for i := n - 1; i >= 0; i-- {
			bits = bits<<8 | uint64(src[i])
		}
	}
	// Sign-extension is handled by the caller's typed narrowing.
	return bits
}
