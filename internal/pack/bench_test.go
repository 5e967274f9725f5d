package pack

import "testing"

// convertMsg is the E-PACK benchmark body: the shape of a typical
// structured NTCS message (an NSP record / application request) — scalar
// fields, a couple of strings, raw bytes, a short list, a small
// attribute map, and one nested struct.
type convertMsg struct {
	Seq     int64
	Flags   uint32
	Load    float64
	OK      bool
	Name    string
	Detail  string
	Raw     []byte
	Samples []int32
	Attrs   map[string]string
	Sub     struct {
		Incarnation uint64
		Alive       bool
	}
}

func convertSample() convertMsg {
	m := convertMsg{
		Seq:     987654321,
		Flags:   0xBEEF,
		Load:    0.8125,
		OK:      true,
		Name:    "search-backend",
		Detail:  "replica 3 of 5, rack c-12",
		Raw:     []byte{0, 1, 2, 3, 4, 5, 6, 7},
		Samples: []int32{-1, 0, 1, 1 << 30, 42},
		Attrs:   map[string]string{"role": "server", "machine": "vax"},
	}
	m.Sub.Incarnation = 7
	m.Sub.Alive = true
	return m
}

// BenchmarkPackedConvert is the PR-5 series (its recorded numbers are
// BENCH_PR5.json in git history at 62fe75a):
// compiled-plan conversion throughput vs the reflect walk (the parent
// commit's only path) on the same representative message, same wire
// bytes. encode, decode, and the full cross-machine round trip.
func BenchmarkPackedConvert(b *testing.B) {
	// The body arrives pre-boxed (ALI's Send/Call take `body any`, so the
	// interface conversion happened at the application call site), and a
	// receiver decodes into a reused delivery struct.
	in := any(convertSample())
	data, err := Marshal(in)
	if err != nil {
		b.Fatal(err)
	}
	var out convertMsg

	b.Run("encode/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Marshal(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encode/reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MarshalReflect(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Unmarshal(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode/reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := UnmarshalReflect(data, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("roundtrip/compiled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := Marshal(in)
			if err != nil {
				b.Fatal(err)
			}
			if err := Unmarshal(d, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("roundtrip/reflect", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d, err := MarshalReflect(in)
			if err != nil {
				b.Fatal(err)
			}
			if err := UnmarshalReflect(d, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
