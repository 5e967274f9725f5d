// Encoder pooling for the warm send path: envelope and header assembly
// reuse encoder buffers instead of growing a fresh one per message.
package pack

import "sync"

var encoderPool = sync.Pool{
	New: func() any { return new(Encoder) },
}

// GetEncoder borrows a reset Encoder from the pool.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns an Encoder to the pool. The caller must not touch the
// encoder — or any slice obtained from its Bytes — afterwards; copy the
// encoded stream out first if it needs to outlive the encoder.
func PutEncoder(e *Encoder) {
	if e == nil {
		return
	}
	// One huge message must not pin its buffer in the pool forever.
	if cap(e.buf) > 64<<10 {
		e.buf = nil
	}
	encoderPool.Put(e)
}

// Decoder pooling for every decode on the receive path: pack.Unmarshal,
// the ComMod's envelope and the generated UnmarshalX routines all borrow
// a decoder here instead of allocating one (and a fresh arena block) per
// message.
var decoderPool = sync.Pool{
	New: func() any { return new(Decoder) },
}

// GetDecoder borrows a decoder over data from the pool.
func GetDecoder(data []byte) *Decoder {
	d := decoderPool.Get().(*Decoder)
	d.data, d.pos, d.depth = data, 0, 0
	return d
}

// PutDecoder returns a decoder to the pool. What it decoded stays valid:
// the arena is never rewound, so strings and BytesField copies keep their
// block alive after the decoder is reused. A BytesView aliases data
// itself and lives exactly as long as the caller keeps that buffer.
func PutDecoder(d *Decoder) {
	d.data = nil // do not pin the caller's frame in the pool
	// The arena is append-only, so its spare capacity can serve the next
	// message; once nearly full, drop it (issued views keep it alive).
	if cap(d.arena)-len(d.arena) < 256 {
		d.arena = nil
	}
	decoderPool.Put(d)
}
