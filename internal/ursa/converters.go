package ursa

import (
	"fmt"

	"ntcs/internal/core"
)

// RegisterGeneratedConverters installs the ntcsgen-generated pack/unpack
// routines (packgen.go) for every URSA message type on a module: the
// application-supplied conversion functions of §5.1, built "directly from
// the message structure definitions" rather than derived by reflection at
// run time.
func RegisterGeneratedConverters(m *core.Module) error {
	type conv struct {
		msgType string
		c       core.Converter
	}
	convs := []conv{
		{MsgIngest, converterFor(
			AppendIngestRequest,
			UnmarshalIngestRequest,
			AppendIngestReply,
			UnmarshalIngestReply,
		)},
		{MsgIndexLookup, converterFor(
			AppendIndexLookupRequest,
			UnmarshalIndexLookupRequest,
			AppendIndexLookupReply,
			UnmarshalIndexLookupReply,
		)},
		{MsgSearch, converterFor(
			AppendSearchRequest,
			UnmarshalSearchRequest,
			AppendSearchReply,
			UnmarshalSearchReply,
		)},
		{MsgFetch, converterFor(
			AppendFetchRequest,
			UnmarshalFetchRequest,
			AppendDocument,
			UnmarshalDocument,
		)},
		{MsgStats, converterFor(
			AppendStatsRequest,
			UnmarshalStatsRequest,
			AppendStatsReply,
			UnmarshalStatsReply,
		)},
	}
	for _, cv := range convs {
		if err := m.RegisterConverter(cv.msgType, cv.c); err != nil {
			return err
		}
	}
	return nil
}

// converterFor builds a bidirectional converter: each URSA message type
// carries either the request or the reply shape, so the converter
// dispatches on the concrete Go type and appends straight onto dst.
func converterFor[Req, Rep any](
	appendReq func([]byte, *Req) []byte, unpackReq func([]byte, *Req) error,
	appendRep func([]byte, *Rep) []byte, unpackRep func([]byte, *Rep) error,
) core.Converter {
	return core.Converter{
		Pack: func(dst []byte, body any) ([]byte, error) {
			switch v := body.(type) {
			case Req:
				return appendReq(dst, &v), nil
			case *Req:
				return appendReq(dst, v), nil
			case Rep:
				return appendRep(dst, &v), nil
			case *Rep:
				return appendRep(dst, v), nil
			default:
				return nil, fmt.Errorf("ursa: converter cannot pack %T", body)
			}
		},
		Unpack: func(data []byte, out any) error {
			switch v := out.(type) {
			case *Req:
				return unpackReq(data, v)
			case *Rep:
				return unpackRep(data, v)
			default:
				return fmt.Errorf("ursa: converter cannot unpack into %T", out)
			}
		},
	}
}

// MarshalSearchRequest and MarshalSearchReply return a search message's
// packed form in a buffer of its own, for callers outside a module (the
// benchmark's codec rungs).
func MarshalSearchRequest(v *SearchRequest) []byte { return AppendSearchRequest(nil, v) }
func MarshalSearchReply(v *SearchReply) []byte     { return AppendSearchReply(nil, v) }
