// Code generated by ntcsgen; DO NOT EDIT.
//
// Pack/unpack routines built directly from the message structure
// definitions (paper §5.1, Schlegel [22]).

package ursa

import (
	"fmt"

	"ntcs/internal/pack"
)

var _ = fmt.Errorf // used by length checks in some shapes

// MarshalDocument packs v in the NTCS character representation.
func MarshalDocument(v *Document) []byte {
	e := pack.GetEncoder()
	encodeDocument(e, v)
	out := append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	return out
}

// UnmarshalDocument reverses MarshalDocument.
func UnmarshalDocument(data []byte, v *Document) error {
	d := pack.GetDecoder(data)
	err := decodeDocument(d, v)
	rem := d.Remaining()
	pack.PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("unmarshal Document: %d trailing bytes", rem)
	}
	return nil
}

func encodeDocument(e *pack.Encoder, v *Document) {
	e.Begin()
	e.Int(int64(v.ID))
	e.String(v.Title)
	e.String(v.Text)
	e.End()
}

func decodeDocument(d *pack.Decoder, v *Document) error {
	if err := d.Begin(); err != nil {
		return err
	}
	x1, err := d.Int()
	if err != nil {
		return err
	}
	v.ID = int64(x1)
	x2, err := d.String()
	if err != nil {
		return err
	}
	v.Title = x2
	x3, err := d.String()
	if err != nil {
		return err
	}
	v.Text = x3
	return d.End()
}

// MarshalFetchRequest packs v in the NTCS character representation.
func MarshalFetchRequest(v *FetchRequest) []byte {
	e := pack.GetEncoder()
	encodeFetchRequest(e, v)
	out := append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	return out
}

// UnmarshalFetchRequest reverses MarshalFetchRequest.
func UnmarshalFetchRequest(data []byte, v *FetchRequest) error {
	d := pack.GetDecoder(data)
	err := decodeFetchRequest(d, v)
	rem := d.Remaining()
	pack.PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("unmarshal FetchRequest: %d trailing bytes", rem)
	}
	return nil
}

func encodeFetchRequest(e *pack.Encoder, v *FetchRequest) {
	e.Begin()
	e.Int(int64(v.DocID))
	e.End()
}

func decodeFetchRequest(d *pack.Decoder, v *FetchRequest) error {
	if err := d.Begin(); err != nil {
		return err
	}
	x1, err := d.Int()
	if err != nil {
		return err
	}
	v.DocID = int64(x1)
	return d.End()
}

// MarshalHit packs v in the NTCS character representation.
func MarshalHit(v *Hit) []byte {
	e := pack.GetEncoder()
	encodeHit(e, v)
	out := append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	return out
}

// UnmarshalHit reverses MarshalHit.
func UnmarshalHit(data []byte, v *Hit) error {
	d := pack.GetDecoder(data)
	err := decodeHit(d, v)
	rem := d.Remaining()
	pack.PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("unmarshal Hit: %d trailing bytes", rem)
	}
	return nil
}

func encodeHit(e *pack.Encoder, v *Hit) {
	e.Begin()
	e.Int(int64(v.DocID))
	e.Int(int64(v.Score))
	e.String(v.Title)
	e.End()
}

func decodeHit(d *pack.Decoder, v *Hit) error {
	if err := d.Begin(); err != nil {
		return err
	}
	x1, err := d.Int()
	if err != nil {
		return err
	}
	v.DocID = int64(x1)
	x2, err := d.Int()
	if err != nil {
		return err
	}
	v.Score = int64(x2)
	x3, err := d.String()
	if err != nil {
		return err
	}
	v.Title = x3
	return d.End()
}

// MarshalPosting packs v in the NTCS character representation.
func MarshalPosting(v *Posting) []byte {
	e := pack.GetEncoder()
	encodePosting(e, v)
	out := append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	return out
}

// UnmarshalPosting reverses MarshalPosting.
func UnmarshalPosting(data []byte, v *Posting) error {
	d := pack.GetDecoder(data)
	err := decodePosting(d, v)
	rem := d.Remaining()
	pack.PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("unmarshal Posting: %d trailing bytes", rem)
	}
	return nil
}

func encodePosting(e *pack.Encoder, v *Posting) {
	e.Begin()
	e.Int(int64(v.DocID))
	e.Int(int64(v.Freq))
	e.End()
}

func decodePosting(d *pack.Decoder, v *Posting) error {
	if err := d.Begin(); err != nil {
		return err
	}
	x1, err := d.Int()
	if err != nil {
		return err
	}
	v.DocID = int64(x1)
	x2, err := d.Int()
	if err != nil {
		return err
	}
	v.Freq = int64(x2)
	return d.End()
}

// MarshalIndexLookupReply packs v in the NTCS character representation.
func MarshalIndexLookupReply(v *IndexLookupReply) []byte {
	e := pack.GetEncoder()
	encodeIndexLookupReply(e, v)
	out := append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	return out
}

// UnmarshalIndexLookupReply reverses MarshalIndexLookupReply.
func UnmarshalIndexLookupReply(data []byte, v *IndexLookupReply) error {
	d := pack.GetDecoder(data)
	err := decodeIndexLookupReply(d, v)
	rem := d.Remaining()
	pack.PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("unmarshal IndexLookupReply: %d trailing bytes", rem)
	}
	return nil
}

func encodeIndexLookupReply(e *pack.Encoder, v *IndexLookupReply) {
	e.Begin()
	e.String(v.Term)
	if v.Postings == nil {
		e.Nil()
	} else {
		e.List(len(v.Postings))
		for i3 := range v.Postings {
			encodePosting(e, &v.Postings[i3])
		}
	}
	e.End()
}

func decodeIndexLookupReply(d *pack.Decoder, v *IndexLookupReply) error {
	if err := d.Begin(); err != nil {
		return err
	}
	x1, err := d.String()
	if err != nil {
		return err
	}
	v.Term = x1
	if d.IsNil() {
		v.Postings = nil
	} else {
		n2, err := d.List()
		if err != nil {
			return err
		}
		v.Postings = make([]Posting, n2)
		for i3 := 0; i3 < n2; i3++ {
			if err := decodePosting(d, &v.Postings[i3]); err != nil {
				return err
			}
		}
	}
	return d.End()
}

// MarshalIndexLookupRequest packs v in the NTCS character representation.
func MarshalIndexLookupRequest(v *IndexLookupRequest) []byte {
	e := pack.GetEncoder()
	encodeIndexLookupRequest(e, v)
	out := append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	return out
}

// UnmarshalIndexLookupRequest reverses MarshalIndexLookupRequest.
func UnmarshalIndexLookupRequest(data []byte, v *IndexLookupRequest) error {
	d := pack.GetDecoder(data)
	err := decodeIndexLookupRequest(d, v)
	rem := d.Remaining()
	pack.PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("unmarshal IndexLookupRequest: %d trailing bytes", rem)
	}
	return nil
}

func encodeIndexLookupRequest(e *pack.Encoder, v *IndexLookupRequest) {
	e.Begin()
	e.String(v.Term)
	e.End()
}

func decodeIndexLookupRequest(d *pack.Decoder, v *IndexLookupRequest) error {
	if err := d.Begin(); err != nil {
		return err
	}
	x1, err := d.String()
	if err != nil {
		return err
	}
	v.Term = x1
	return d.End()
}

// MarshalIngestReply packs v in the NTCS character representation.
func MarshalIngestReply(v *IngestReply) []byte {
	e := pack.GetEncoder()
	encodeIngestReply(e, v)
	out := append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	return out
}

// UnmarshalIngestReply reverses MarshalIngestReply.
func UnmarshalIngestReply(data []byte, v *IngestReply) error {
	d := pack.GetDecoder(data)
	err := decodeIngestReply(d, v)
	rem := d.Remaining()
	pack.PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("unmarshal IngestReply: %d trailing bytes", rem)
	}
	return nil
}

func encodeIngestReply(e *pack.Encoder, v *IngestReply) {
	e.Begin()
	e.Int(int64(v.Count))
	e.End()
}

func decodeIngestReply(d *pack.Decoder, v *IngestReply) error {
	if err := d.Begin(); err != nil {
		return err
	}
	x1, err := d.Int()
	if err != nil {
		return err
	}
	v.Count = int64(x1)
	return d.End()
}

// MarshalIngestRequest packs v in the NTCS character representation.
func MarshalIngestRequest(v *IngestRequest) []byte {
	e := pack.GetEncoder()
	encodeIngestRequest(e, v)
	out := append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	return out
}

// UnmarshalIngestRequest reverses MarshalIngestRequest.
func UnmarshalIngestRequest(data []byte, v *IngestRequest) error {
	d := pack.GetDecoder(data)
	err := decodeIngestRequest(d, v)
	rem := d.Remaining()
	pack.PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("unmarshal IngestRequest: %d trailing bytes", rem)
	}
	return nil
}

func encodeIngestRequest(e *pack.Encoder, v *IngestRequest) {
	e.Begin()
	if v.Docs == nil {
		e.Nil()
	} else {
		e.List(len(v.Docs))
		for i2 := range v.Docs {
			encodeDocument(e, &v.Docs[i2])
		}
	}
	e.End()
}

func decodeIngestRequest(d *pack.Decoder, v *IngestRequest) error {
	if err := d.Begin(); err != nil {
		return err
	}
	if d.IsNil() {
		v.Docs = nil
	} else {
		n1, err := d.List()
		if err != nil {
			return err
		}
		v.Docs = make([]Document, n1)
		for i2 := 0; i2 < n1; i2++ {
			if err := decodeDocument(d, &v.Docs[i2]); err != nil {
				return err
			}
		}
	}
	return d.End()
}

// MarshalSearchReply packs v in the NTCS character representation.
func MarshalSearchReply(v *SearchReply) []byte {
	e := pack.GetEncoder()
	encodeSearchReply(e, v)
	out := append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	return out
}

// UnmarshalSearchReply reverses MarshalSearchReply.
func UnmarshalSearchReply(data []byte, v *SearchReply) error {
	d := pack.GetDecoder(data)
	err := decodeSearchReply(d, v)
	rem := d.Remaining()
	pack.PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("unmarshal SearchReply: %d trailing bytes", rem)
	}
	return nil
}

func encodeSearchReply(e *pack.Encoder, v *SearchReply) {
	e.Begin()
	if v.Hits == nil {
		e.Nil()
	} else {
		e.List(len(v.Hits))
		for i4 := range v.Hits {
			encodeHit(e, &v.Hits[i4])
		}
	}
	e.End()
}

func decodeSearchReply(d *pack.Decoder, v *SearchReply) error {
	if err := d.Begin(); err != nil {
		return err
	}
	if d.IsNil() {
		v.Hits = nil
	} else {
		n1, err := d.List()
		if err != nil {
			return err
		}
		v.Hits = make([]Hit, n1)
		for i2 := 0; i2 < n1; i2++ {
			if err := decodeHit(d, &v.Hits[i2]); err != nil {
				return err
			}
		}
	}
	return d.End()
}

// MarshalSearchRequest packs v in the NTCS character representation.
func MarshalSearchRequest(v *SearchRequest) []byte {
	e := pack.GetEncoder()
	encodeSearchRequest(e, v)
	out := append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	return out
}

// UnmarshalSearchRequest reverses MarshalSearchRequest.
func UnmarshalSearchRequest(data []byte, v *SearchRequest) error {
	d := pack.GetDecoder(data)
	err := decodeSearchRequest(d, v)
	rem := d.Remaining()
	pack.PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("unmarshal SearchRequest: %d trailing bytes", rem)
	}
	return nil
}

func encodeSearchRequest(e *pack.Encoder, v *SearchRequest) {
	e.Begin()
	e.String(v.Query)
	e.Int(int64(v.Limit))
	e.End()
}

func decodeSearchRequest(d *pack.Decoder, v *SearchRequest) error {
	if err := d.Begin(); err != nil {
		return err
	}
	x1, err := d.String()
	if err != nil {
		return err
	}
	v.Query = x1
	x2, err := d.Int()
	if err != nil {
		return err
	}
	v.Limit = int64(x2)
	return d.End()
}

// MarshalStatsReply packs v in the NTCS character representation.
func MarshalStatsReply(v *StatsReply) []byte {
	e := pack.GetEncoder()
	encodeStatsReply(e, v)
	out := append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	return out
}

// UnmarshalStatsReply reverses MarshalStatsReply.
func UnmarshalStatsReply(data []byte, v *StatsReply) error {
	d := pack.GetDecoder(data)
	err := decodeStatsReply(d, v)
	rem := d.Remaining()
	pack.PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("unmarshal StatsReply: %d trailing bytes", rem)
	}
	return nil
}

func encodeStatsReply(e *pack.Encoder, v *StatsReply) {
	e.Begin()
	e.Int(int64(v.Requests))
	e.Int(int64(v.Items))
	e.End()
}

func decodeStatsReply(d *pack.Decoder, v *StatsReply) error {
	if err := d.Begin(); err != nil {
		return err
	}
	x1, err := d.Int()
	if err != nil {
		return err
	}
	v.Requests = int64(x1)
	x2, err := d.Int()
	if err != nil {
		return err
	}
	v.Items = int64(x2)
	return d.End()
}

// MarshalStatsRequest packs v in the NTCS character representation.
func MarshalStatsRequest(v *StatsRequest) []byte {
	e := pack.GetEncoder()
	encodeStatsRequest(e, v)
	out := append([]byte(nil), e.Bytes()...)
	pack.PutEncoder(e)
	return out
}

// UnmarshalStatsRequest reverses MarshalStatsRequest.
func UnmarshalStatsRequest(data []byte, v *StatsRequest) error {
	d := pack.GetDecoder(data)
	err := decodeStatsRequest(d, v)
	rem := d.Remaining()
	pack.PutDecoder(d)
	if err != nil {
		return err
	}
	if rem != 0 {
		return fmt.Errorf("unmarshal StatsRequest: %d trailing bytes", rem)
	}
	return nil
}

func encodeStatsRequest(e *pack.Encoder, v *StatsRequest) {
	e.Begin()
	e.End()
}

func decodeStatsRequest(d *pack.Decoder, v *StatsRequest) error {
	if err := d.Begin(); err != nil {
		return err
	}
	return d.End()
}
