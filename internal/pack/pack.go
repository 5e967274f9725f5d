// Package pack implements the NTCS packed conversion mode of paper §5.1.
//
// "In packed mode, the NTCS applies conversion functions at each end,
// while transporting the message as a simple byte stream. ... A character
// representation transport format was chosen for the current
// implementation, purely for simplicity." The Encoder/Decoder pair below
// is that format: every value is rendered as characters (built with
// machine-representation-independent constructs, the Go equivalent of
// sprintf/sscanf), so byte ordering problems cannot arise.
//
// Marshal and Unmarshal reproduce the URSA project's automatic pack/unpack
// generation "directly from the message structure definitions"
// (Schlegel [22]): they derive the conversion functions from a struct's
// shape rather than requiring hand-written ones.
package pack

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Errors returned by the codec.
var (
	ErrSyntax      = errors.New("pack: malformed packed data")
	ErrTypeTag     = errors.New("pack: packed value has a different type tag")
	ErrUnsupported = errors.New("pack: unsupported type")
	ErrBadTarget   = errors.New("pack: decode target must be a non-nil pointer")
	ErrTrailing    = errors.New("pack: trailing bytes after value")
	ErrOverflow    = errors.New("pack: value overflows target field")
)

// Encoder builds a packed byte stream. The zero value is ready to use.
//
// Token syntax (all ASCII):
//
//	i<decimal>;        signed integer
//	u<decimal>;        unsigned integer
//	f<strconv %g>;     floating point (shortest round-trip form)
//	b0; | b1;          boolean
//	s<len>:<bytes>     string (length-prefixed raw bytes)
//	x<len>:<bytes>     byte slice
//	l<len>;            list header, followed by <len> values
//	m<len>;            map header, followed by sorted key/value pairs
//	( ... )            struct grouping
//	n;                 nil (empty slice/map)
type Encoder struct {
	buf   []byte
	depth int // current value-nesting depth, bounded by MaxDepth
}

// Bytes returns the encoded stream.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards the encoded stream, retaining the buffer.
func (e *Encoder) Reset() { e.buf, e.depth = e.buf[:0], 0 }

// push enters one nesting level (struct, list, map, or pointer deref),
// enforcing the shared MaxDepth cap.
func (e *Encoder) push() error {
	e.depth++
	if e.depth > MaxDepth {
		e.depth--
		return ErrDepth
	}
	return nil
}

// pop leaves one nesting level.
func (e *Encoder) pop() { e.depth-- }

// ensure grows the buffer so at least n more bytes fit without
// reallocation (plan-size presizing; a no-op when capacity suffices).
func (e *Encoder) ensure(n int) {
	if n <= 0 || cap(e.buf)-len(e.buf) >= n {
		return
	}
	nb := make([]byte, len(e.buf), len(e.buf)+n)
	copy(nb, e.buf)
	e.buf = nb
}

// num appends v in decimal. One- and two-digit values — field counts,
// list lengths, string lengths, small scalars, i.e. most of a control
// message — skip the strconv call entirely. Output is byte-identical to
// strconv for every value.
func (e *Encoder) num(v uint64) {
	switch {
	case v < 10:
		e.buf = append(e.buf, byte('0'+v))
	case v < 100:
		e.buf = append(e.buf, byte('0'+v/10), byte('0'+v%10))
	default:
		e.buf = strconv.AppendUint(e.buf, v, 10)
	}
}

// Int encodes a signed integer.
func (e *Encoder) Int(v int64) {
	e.buf = append(e.buf, 'i')
	if v >= 0 {
		e.num(uint64(v))
	} else {
		e.buf = strconv.AppendInt(e.buf, v, 10)
	}
	e.buf = append(e.buf, ';')
}

// Uint encodes an unsigned integer.
func (e *Encoder) Uint(v uint64) {
	e.buf = append(e.buf, 'u')
	e.num(v)
	e.buf = append(e.buf, ';')
}

// Float encodes a floating-point value in shortest round-trip form.
func (e *Encoder) Float(v float64) {
	e.buf = append(e.buf, 'f')
	e.buf = strconv.AppendFloat(e.buf, v, 'g', -1, 64)
	e.buf = append(e.buf, ';')
}

// Bool encodes a boolean.
func (e *Encoder) Bool(v bool) {
	if v {
		e.buf = append(e.buf, 'b', '1', ';')
	} else {
		e.buf = append(e.buf, 'b', '0', ';')
	}
}

// String encodes a string as length-prefixed raw bytes.
func (e *Encoder) String(v string) {
	e.buf = append(e.buf, 's')
	e.num(uint64(len(v)))
	e.buf = append(e.buf, ':')
	e.buf = append(e.buf, v...)
}

// Bytes appends a byte slice as length-prefixed raw bytes.
func (e *Encoder) BytesField(v []byte) {
	e.buf = append(e.buf, 'x')
	e.num(uint64(len(v)))
	e.buf = append(e.buf, ':')
	e.buf = append(e.buf, v...)
}

// NestedBytesField writes BytesField(m) where m is the Marshal encoding
// of the byte slice v — i.e. the same bytes as BytesField(Marshal(v)) —
// without materializing the intermediate encoding. This is the hot-path
// framing of an opaque message body.
func (e *Encoder) NestedBytesField(v []byte) {
	inner := int64(2 + digits(int64(len(v))) + len(v)) // 'x' + count + ':' + v
	e.buf = append(e.buf, 'x')
	e.buf = strconv.AppendInt(e.buf, inner, 10)
	e.buf = append(e.buf, ':')
	e.BytesField(v)
}

// digits counts the base-10 digits of a non-negative count.
func digits(n int64) int {
	d := 1
	for n >= 10 {
		n /= 10
		d++
	}
	return d
}

// List writes a list header for n following values.
func (e *Encoder) List(n int) {
	e.buf = append(e.buf, 'l')
	e.num(uint64(n))
	e.buf = append(e.buf, ';')
}

// Map writes a map header for n following key/value pairs.
func (e *Encoder) Map(n int) {
	e.buf = append(e.buf, 'm')
	e.num(uint64(n))
	e.buf = append(e.buf, ';')
}

// Begin opens a struct group.
func (e *Encoder) Begin() { e.buf = append(e.buf, '(') }

// End closes a struct group.
func (e *Encoder) End() { e.buf = append(e.buf, ')') }

// Nil encodes an absent slice or map.
func (e *Encoder) Nil() { e.buf = append(e.buf, 'n', ';') }

// Decoder consumes a packed byte stream.
type Decoder struct {
	data  []byte
	pos   int
	depth int // current value-nesting depth, bounded by MaxDepth

	// arena is an append-only backing store for decoded strings and byte
	// fields: one allocation amortized over every counted field of a
	// message instead of one per field. Safety rests on two rules —
	// the arena is never truncated (issued strings view a prefix that no
	// append can touch), and issued byte slices get len==cap so an append
	// by the caller reallocates instead of growing into a neighbor.
	arena []byte
}

// push enters one nesting level, enforcing the shared MaxDepth cap: the
// decode-side twin of the count-bomb guard, so a hostile stream of open
// parens cannot drive unbounded recursion.
func (d *Decoder) push() error {
	d.depth++
	if d.depth > MaxDepth {
		d.depth--
		return fmt.Errorf("%w (%d levels) at %d", ErrDepth, MaxDepth, d.pos)
	}
	return nil
}

// pop leaves one nesting level.
func (d *Decoder) pop() { d.depth-- }

// NewDecoder returns a decoder over data.
func NewDecoder(data []byte) *Decoder {
	return &Decoder{data: data}
}

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.data) - d.pos }

func (d *Decoder) peek() (byte, error) {
	if d.pos >= len(d.data) {
		return 0, fmt.Errorf("%w: unexpected end of data at %d", ErrSyntax, d.pos)
	}
	return d.data[d.pos], nil
}

// tag consumes the expected tag byte. The success path is small enough
// to inline into every scalar reader; diagnostics live in tagErr.
func (d *Decoder) tag(want byte) error {
	if d.pos < len(d.data) && d.data[d.pos] == want {
		d.pos++
		return nil
	}
	return d.tagErr(want)
}

func (d *Decoder) tagErr(want byte) error {
	c, err := d.peek()
	if err != nil {
		return err
	}
	return fmt.Errorf("%w: want %q, got %q at %d", ErrTypeTag, want, c, d.pos)
}

// numTok returns the characters up to the delimiter as a view of the
// stream — no copy, so the per-token string allocation the decoder used
// to pay is gone from the conversion hot path.
func (d *Decoder) numTok(delim byte) ([]byte, error) {
	start := d.pos
	for d.pos < len(d.data) && d.data[d.pos] != delim {
		d.pos++
	}
	if d.pos >= len(d.data) {
		return nil, fmt.Errorf("%w: missing %q delimiter after %d", ErrSyntax, delim, start)
	}
	b := d.data[start:d.pos]
	d.pos++ // consume delimiter
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty number at %d", ErrSyntax, start)
	}
	return b, nil
}

// numErr is the cold path shared by the fused readers below: it rescans
// the token (d.pos still points at its first character) purely to build
// the same diagnostics the unfused decoder produced.
func (d *Decoder) numErr(delim byte) error {
	b, err := d.numTok(delim)
	if err != nil {
		return err
	}
	return fmt.Errorf("%w: %q", ErrSyntax, b)
}

// readUint scans and parses decimal digits up to delim in one pass — no
// intermediate token, no per-digit division (the overflow check is one
// compare plus a wraparound test, as in strconv).
func (d *Decoder) readUint(delim byte) (uint64, error) {
	data := d.data
	i := d.pos
	start := i
	var n uint64
	for i < len(data) && data[i] != delim {
		c := data[i] - '0'
		if c > 9 || n > math.MaxUint64/10 {
			return 0, d.numErr(delim)
		}
		n2 := n*10 + uint64(c)
		if n2 < n {
			return 0, d.numErr(delim)
		}
		n = n2
		i++
	}
	if i >= len(data) {
		return 0, fmt.Errorf("%w: missing %q delimiter after %d", ErrSyntax, delim, start)
	}
	if i == start {
		return 0, fmt.Errorf("%w: empty number at %d", ErrSyntax, start)
	}
	d.pos = i + 1
	return n, nil
}

// Int decodes a signed integer.
func (d *Decoder) Int() (int64, error) {
	if err := d.tag('i'); err != nil {
		return 0, err
	}
	neg := false
	if c := d.peekByte(); c == '+' || c == '-' {
		neg = c == '-'
		d.pos++
	}
	n, err := d.readUint(';')
	if err != nil {
		return 0, err
	}
	if neg {
		if n > 1<<63 {
			return 0, fmt.Errorf("%w: %q", ErrSyntax, "-"+strconv.FormatUint(n, 10))
		}
		return -int64(n), nil
	}
	if n > math.MaxInt64 {
		return 0, fmt.Errorf("%w: %q", ErrSyntax, strconv.FormatUint(n, 10))
	}
	return int64(n), nil
}

// Uint decodes an unsigned integer.
func (d *Decoder) Uint() (uint64, error) {
	if err := d.tag('u'); err != nil {
		return 0, err
	}
	return d.readUint(';')
}

func (d *Decoder) peekByte() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// Float decodes a floating-point value.
func (d *Decoder) Float() (float64, error) {
	if err := d.tag('f'); err != nil {
		return 0, err
	}
	b, err := d.numTok(';')
	if err != nil {
		return 0, err
	}
	// numTok guarantees b is non-empty; the unsafe.String view is safe
	// because ParseFloat does not retain its argument.
	v, err := strconv.ParseFloat(unsafe.String(&b[0], len(b)), 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %q", ErrSyntax, b)
	}
	return v, nil
}

// Bool decodes a boolean.
func (d *Decoder) Bool() (bool, error) {
	if err := d.tag('b'); err != nil {
		return false, err
	}
	if d.pos+1 < len(d.data) && d.data[d.pos+1] == ';' {
		switch d.data[d.pos] {
		case '0':
			d.pos += 2
			return false, nil
		case '1':
			d.pos += 2
			return true, nil
		}
	}
	b, err := d.numTok(';')
	if err != nil {
		return false, err
	}
	return false, fmt.Errorf("%w: bool %q", ErrSyntax, b)
}

func (d *Decoder) counted(tagByte byte) ([]byte, error) {
	if err := d.tag(tagByte); err != nil {
		return nil, err
	}
	u, err := d.readUint(':')
	if err != nil {
		return nil, err
	}
	if u > math.MaxInt32 {
		return nil, fmt.Errorf("%w: length %d", ErrSyntax, u)
	}
	n := int(u)
	if d.pos+n > len(d.data) {
		return nil, fmt.Errorf("%w: counted field of %d bytes exceeds data", ErrSyntax, n)
	}
	v := d.data[d.pos : d.pos+n]
	d.pos += n
	return v, nil
}

// String decodes a string.
func (d *Decoder) String() (string, error) {
	v, err := d.counted('s')
	if err != nil {
		return "", err
	}
	if len(v) == 0 {
		return "", nil
	}
	// Fast path: spare arena already fits v — the common case once the
	// first field of a message has sized the block.
	if a := d.arena; cap(a)-len(a) >= len(v) {
		off := len(a)
		a = a[:off+len(v)]
		copy(a[off:], v)
		d.arena = a
		return unsafe.String(&a[off], len(v)), nil
	}
	b := d.arenaCopy(v)
	return unsafe.String(&b[0], len(b)), nil
}

// BytesField decodes a byte slice (copied out of the stream; the caller
// owns the result).
func (d *Decoder) BytesField() ([]byte, error) {
	v, err := d.counted('x')
	if err != nil {
		return nil, err
	}
	return d.arenaCopy(v), nil
}

// arenaCopy copies v into the decoder's arena and returns the copy with
// len==cap, so caller appends reallocate rather than grow into the next
// field's bytes.
func (d *Decoder) arenaCopy(v []byte) []byte {
	if len(v) == 0 {
		return []byte{} // non-nil: x0: decodes to an empty slice, not a nil one
	}
	if len(v) > arenaMax {
		// Huge fields get their own allocation; the arena stays small
		// enough to recycle through the decoder pool.
		out := make([]byte, len(v))
		copy(out, v)
		return out
	}
	if cap(d.arena)-len(d.arena) < len(v) {
		// Size the block by what this message can still need: every future
		// counted field's bytes are part of the undecoded remainder. The
		// floor is generous because pooled decoders carry spare arena
		// across messages — a bigger block amortizes over many of them.
		block := len(v) + d.Remaining()
		if block < 1024 {
			block = 1024
		}
		if block > arenaMax {
			block = arenaMax
		}
		d.arena = make([]byte, 0, block) // old arena stays alive via issued views
	}
	off := len(d.arena)
	d.arena = append(d.arena, v...)
	return d.arena[off:len(d.arena):len(d.arena)]
}

// arenaReserve claims size bytes of arena aligned to align, growing the
// arena exactly like arenaCopy, and returns a pointer to the region. The
// caller must guarantee size ≤ arenaMax and size > 0. Used to carve
// pointer-free decoded slices ([]int32 and friends) out of the same
// block the message's strings land in — the arena is byte-backed and
// never scanned, so it must never hold pointers.
func (d *Decoder) arenaReserve(size, align int) unsafe.Pointer {
	off := len(d.arena)
	pad := (align - off&(align-1)) & (align - 1)
	if cap(d.arena)-off < pad+size {
		block := size + align + d.Remaining()
		if block < 1024 {
			block = 1024
		}
		if block > arenaMax {
			block = arenaMax
		}
		d.arena = make([]byte, 0, block) // old arena stays alive via issued views
		off = 0
		pad = 0 // fresh blocks are at least word-aligned
	}
	d.arena = d.arena[:off+pad+size]
	return unsafe.Pointer(&d.arena[off+pad])
}

// arenaMax bounds both the arena block size and the largest field stored
// in one: 4KiB covers every string a control-plane message carries.
const arenaMax = 4096

// BytesView decodes a byte slice as a view aliasing the stream — no
// copy. Only safe when the caller owns the underlying buffer for at
// least as long as the view.
func (d *Decoder) BytesView() ([]byte, error) { return d.counted('x') }

// List decodes a list header and returns the element count.
func (d *Decoder) List() (int, error) { return d.header('l') }

// Map decodes a map header and returns the pair count.
func (d *Decoder) Map() (int, error) { return d.header('m') }

func (d *Decoder) header(tagByte byte) (int, error) {
	if err := d.tag(tagByte); err != nil {
		return 0, err
	}
	u, err := d.readUint(';')
	if err != nil {
		return 0, err
	}
	if u > math.MaxInt32 {
		return 0, fmt.Errorf("%w: count %d", ErrSyntax, u)
	}
	n := int(u)
	// Every element occupies at least one byte of input, so a count beyond
	// the remaining data can never decode. Rejecting it here bounds the
	// slice/map preallocations above — a hostile 12-byte frame must not
	// reserve a gigabyte before its first element fails to parse.
	if n > d.Remaining() {
		return 0, fmt.Errorf("%w: count %d exceeds %d remaining bytes", ErrSyntax, n, d.Remaining())
	}
	return n, nil
}

// Begin consumes a struct-group opener.
func (d *Decoder) Begin() error { return d.tag('(') }

// End consumes a struct-group closer.
func (d *Decoder) End() error { return d.tag(')') }

// IsNil reports (and consumes) a nil marker if one is next.
func (d *Decoder) IsNil() bool {
	if d.pos+1 < len(d.data) && d.data[d.pos] == 'n' && d.data[d.pos+1] == ';' {
		d.pos += 2
		return true
	}
	return false
}

// Marshal derives pack functions from v's structure and returns the packed
// byte stream. Supported shapes: fixed and variable integers, floats,
// bools, strings, []byte, slices, arrays, maps with string or integer
// keys, and nested structs of the same (exported fields only; unexported
// fields are rejected, as they could not be reconstructed at the far end).
//
// The first Marshal of a type compiles its conversion plan (see codec.go);
// every later Marshal executes the cached plan. The stream is
// byte-identical to MarshalReflect, the retained reference walk.
func Marshal(v any) ([]byte, error) {
	e := GetEncoder()
	if err := e.Marshal(v); err != nil {
		PutEncoder(e)
		return nil, err
	}
	out := append([]byte(nil), e.buf...) // exact-size copy; encoder returns to pool
	PutEncoder(e)
	return out, nil
}

// Marshal encodes v onto the encoder's stream via its compiled plan: the
// pooled-encoder form of the package-level Marshal, used by the ComMod to
// pack structured bodies without an intermediate allocation.
func (e *Encoder) Marshal(v any) error {
	p, err := planOf(v)
	if err != nil {
		return err
	}
	e.ensure(p.hint)
	// The interface data word points at the value, except for a
	// pointer-shaped type, where it is the value (codec.go, rule 3): the
	// copy is declared on that branch so that only it pays for the escape.
	if p.direct {
		word := efaceData(v)
		return p.enc(e, unsafe.Pointer(&word))
	}
	return p.enc(e, efaceData(v))
}

// MarshalReflect is the original reflection walk, kept as the reference
// implementation: the differential fuzzer and the machine-pair matrix
// assert that compiled plans produce byte-identical streams. It shares
// the MaxDepth cap with the compiled path.
func MarshalReflect(v any) ([]byte, error) {
	var e Encoder
	rv := reflect.ValueOf(v)
	if err := marshalValue(&e, rv); err != nil {
		return nil, err
	}
	return e.Bytes(), nil
}

func marshalValue(e *Encoder, rv reflect.Value) error {
	if !rv.IsValid() {
		return fmt.Errorf("%w: untyped nil", ErrUnsupported)
	}
	t := rv.Type()
	switch t.Kind() {
	case reflect.Pointer:
		if rv.IsNil() {
			return fmt.Errorf("%w: nil pointer", ErrUnsupported)
		}
		if err := e.push(); err != nil {
			return err
		}
		err := marshalValue(e, rv.Elem())
		e.pop()
		return err
	case reflect.Bool:
		e.Bool(rv.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		e.Int(rv.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		e.Uint(rv.Uint())
	case reflect.Float32, reflect.Float64:
		e.Float(rv.Float())
	case reflect.String:
		e.String(rv.String())
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			e.BytesField(rv.Bytes())
			return nil
		}
		if rv.IsNil() {
			e.Nil()
			return nil
		}
		if err := e.push(); err != nil {
			return err
		}
		defer e.pop()
		e.List(rv.Len())
		for i := 0; i < rv.Len(); i++ {
			if err := marshalValue(e, rv.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Array:
		if err := e.push(); err != nil {
			return err
		}
		defer e.pop()
		e.List(rv.Len())
		for i := 0; i < rv.Len(); i++ {
			if err := marshalValue(e, rv.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		if rv.IsNil() {
			e.Nil()
			return nil
		}
		if err := e.push(); err != nil {
			return err
		}
		defer e.pop()
		keys := rv.MapKeys()
		switch t.Key().Kind() {
		case reflect.String:
			sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			sort.Slice(keys, func(i, j int) bool { return keys[i].Int() < keys[j].Int() })
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			sort.Slice(keys, func(i, j int) bool { return keys[i].Uint() < keys[j].Uint() })
		default:
			return fmt.Errorf("%w: map key kind %s", ErrUnsupported, t.Key().Kind())
		}
		e.Map(len(keys))
		for _, k := range keys {
			if err := marshalValue(e, k); err != nil {
				return err
			}
			if err := marshalValue(e, rv.MapIndex(k)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		if err := e.push(); err != nil {
			return err
		}
		defer e.pop()
		e.Begin()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("%w: unexported field %s.%s", ErrUnsupported, t.Name(), f.Name)
			}
			if err := marshalValue(e, rv.Field(i)); err != nil {
				return fmt.Errorf("field %s: %w", f.Name, err)
			}
		}
		e.End()
	default:
		return fmt.Errorf("%w: kind %s", ErrUnsupported, t.Kind())
	}
	return nil
}

// Unmarshal reverses Marshal into out, which must be a non-nil pointer.
// Like Marshal it executes the target type's compiled plan, decoding a
// stream byte-for-byte compatible with UnmarshalReflect.
func Unmarshal(data []byte, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return ErrBadTarget
	}
	p, err := planFor(rv.Type().Elem())
	if err != nil {
		return err
	}
	d := GetDecoder(data)
	err = p.dec(d, rv.UnsafePointer())
	rem := d.Remaining()
	PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, rem)
	}
	return nil
}

// UnmarshalReflect is the original reflection walk, kept as the
// reference implementation the differential fuzzer checks the compiled
// decoder against. It shares the MaxDepth cap with the compiled path.
func UnmarshalReflect(data []byte, out any) error {
	rv := reflect.ValueOf(out)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return ErrBadTarget
	}
	d := NewDecoder(data)
	if err := unmarshalValue(d, rv.Elem()); err != nil {
		return err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, d.Remaining())
	}
	return nil
}

func unmarshalValue(d *Decoder, rv reflect.Value) error {
	t := rv.Type()
	switch t.Kind() {
	case reflect.Bool:
		v, err := d.Bool()
		if err != nil {
			return err
		}
		rv.SetBool(v)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v, err := d.Int()
		if err != nil {
			return err
		}
		if rv.OverflowInt(v) {
			return fmt.Errorf("%w: %d into %s", ErrOverflow, v, t)
		}
		rv.SetInt(v)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v, err := d.Uint()
		if err != nil {
			return err
		}
		if rv.OverflowUint(v) {
			return fmt.Errorf("%w: %d into %s", ErrOverflow, v, t)
		}
		rv.SetUint(v)
	case reflect.Float32, reflect.Float64:
		v, err := d.Float()
		if err != nil {
			return err
		}
		rv.SetFloat(v)
	case reflect.String:
		v, err := d.String()
		if err != nil {
			return err
		}
		rv.SetString(v)
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Uint8 {
			v, err := d.BytesField()
			if err != nil {
				return err
			}
			rv.SetBytes(v)
			return nil
		}
		if d.IsNil() {
			rv.Set(reflect.Zero(t))
			return nil
		}
		if err := d.push(); err != nil {
			return err
		}
		defer d.pop()
		n, err := d.List()
		if err != nil {
			return err
		}
		s := reflect.MakeSlice(t, n, n)
		for i := 0; i < n; i++ {
			if err := unmarshalValue(d, s.Index(i)); err != nil {
				return err
			}
		}
		rv.Set(s)
	case reflect.Array:
		if err := d.push(); err != nil {
			return err
		}
		defer d.pop()
		n, err := d.List()
		if err != nil {
			return err
		}
		if n != rv.Len() {
			return fmt.Errorf("%w: array length %d != %d", ErrSyntax, n, rv.Len())
		}
		for i := 0; i < n; i++ {
			if err := unmarshalValue(d, rv.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		if d.IsNil() {
			rv.Set(reflect.Zero(t))
			return nil
		}
		if err := d.push(); err != nil {
			return err
		}
		defer d.pop()
		n, err := d.Map()
		if err != nil {
			return err
		}
		m := reflect.MakeMapWithSize(t, n)
		for i := 0; i < n; i++ {
			k := reflect.New(t.Key()).Elem()
			if err := unmarshalValue(d, k); err != nil {
				return err
			}
			v := reflect.New(t.Elem()).Elem()
			if err := unmarshalValue(d, v); err != nil {
				return err
			}
			m.SetMapIndex(k, v)
		}
		rv.Set(m)
	case reflect.Struct:
		if err := d.push(); err != nil {
			return err
		}
		defer d.pop()
		if err := d.Begin(); err != nil {
			return err
		}
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				return fmt.Errorf("%w: unexported field %s.%s", ErrUnsupported, t.Name(), f.Name)
			}
			if err := unmarshalValue(d, rv.Field(i)); err != nil {
				return fmt.Errorf("field %s: %w", f.Name, err)
			}
		}
		return d.End()
	case reflect.Pointer:
		if err := d.push(); err != nil {
			return err
		}
		defer d.pop()
		if rv.IsNil() {
			rv.Set(reflect.New(t.Elem()))
		}
		return unmarshalValue(d, rv.Elem())
	default:
		return fmt.Errorf("%w: kind %s", ErrUnsupported, t.Kind())
	}
	return nil
}

// Dump renders packed data in human-readable form for diagnostics.
func Dump(data []byte) string {
	var b strings.Builder
	for i, c := range data {
		if c >= 0x20 && c < 0x7F {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "\\x%02x", c)
		}
		if i > 512 {
			b.WriteString("…")
			break
		}
	}
	return b.String()
}
