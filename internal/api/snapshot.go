package api

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"

	"divmax"
)

// A /v1/snapshot reply carries a worker's core-set to the coordinator:
// the round-1 output of the paper's MapReduce algorithm, shipped to the
// round-2 merge. Workers write it with AppendSnapshot, the bytes
// json.NewEncoder(w).Encode writes, and the coordinator reads it with
// ReadSnapshot, whose fast path, DecodeSnapshot, takes exactly that
// shape and leaves every other one to encoding/json. So the wire is one
// canonical JSON shape, and a worker that writes it some other way
// still decodes as it always has.

// AppendSnapshot appends the bytes json.NewEncoder(w).Encode(*r) writes,
// trailing newline included: fields in declaration order, null for a
// nil slice, coordinates as AppendPoints writes them. A NaN or infinite
// coordinate is the *json.UnsupportedValueError encoding/json returns,
// with dst returned as given.
func AppendSnapshot(dst []byte, r *SnapshotResponse) ([]byte, error) {
	out := append(dst, `{"partial":`...)
	out = strconv.AppendBool(out, r.Partial)
	out, err := appendVectors(append(out, `,"points":`...), r.Points)
	if err != nil {
		return dst, err
	}
	out = strconv.AppendInt(append(out, `,"processed":`...), r.Processed, 10)
	out = appendInts(append(out, `,"cursor":{"gens":`...), r.Cursor.Gens)
	out = appendInts(append(out, `,"poss":`...), r.Cursor.Poss)
	out = strconv.AppendInt(append(out, `},"shards":`...), int64(r.Shards), 10)
	return append(out, "}\n"...), nil
}

// appendInts appends xs as encoding/json writes it.
func appendInts[T int | uint64](b []byte, xs []T) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		if x < 0 {
			b = strconv.AppendInt(b, int64(x), 10)
		} else {
			b = strconv.AppendUint(b, uint64(x), 10)
		}
	}
	return append(b, ']')
}

// WriteSnapshot writes r as WriteJSON would, byte for byte, appending it
// to a pooled buffer's storage; an encode error goes to onErr. The
// storage goes back to the pool as append left it, grown for a reply
// that outgrew it, and putBody drops it past maxPooledBody.
func WriteSnapshot(w http.ResponseWriter, r *SnapshotResponse, onErr func(error)) {
	w.Header().Set("Content-Type", "application/json")
	b, err := AppendSnapshot(getBody().AvailableBuffer(), r)
	defer putBody(bytes.NewBuffer(b[:0]))
	if err != nil {
		onErr(err)
		return
	}
	if _, err := w.Write(b); err != nil {
		onErr(err)
	}
}

// ReadSnapshot reads a /v1/snapshot reply from r to EOF into a pooled
// buffer and decodes it into *resp, a zero value: through
// DecodeSnapshot when it takes the bytes, otherwise through a
// json.Decoder over the same bytes and then the read error, which
// decodes the first JSON value just as one reading r itself would. A
// read error after a complete value fails neither path: json.Decoder
// stops at the end of the value.
func ReadSnapshot(r io.Reader, resp *SnapshotResponse) error {
	buf := getBody()
	defer putBody(buf)
	_, rerr := buf.ReadFrom(r)
	body := buf.Bytes()
	if DecodeSnapshot(body, resp) {
		return nil
	}
	src := io.Reader(bytes.NewReader(body))
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	return json.NewDecoder(src).Decode(resp)
}

// DecodeSnapshot is ReadSnapshot's fast path. It decodes body into *r
// when body is exactly the shape AppendSnapshot writes —
// {"partial":b,"points":[[x,...],...],"processed":n,"cursor":{"gens":[n,...],"poss":[n,...]},"shards":n}
// with JSON whitespace allowed between tokens and after the value —
// and reports whether it did. Points decode as DecodePoints decodes
// them, each a Vector of its own, and each integer must be 0 or start
// with a nonzero digit and have at most 18 digits, so it fits its field.
// Anything else it declines, leaving *r as given: keys in another order,
// cased or escaped differently, missing, repeated or unknown; null in
// place of a value; a negative, fractional, exponent-form or longer
// integer; a number DecodePoints declines; and anything after the value
// but whitespace.
func DecodeSnapshot(body []byte, r *SnapshotResponse) bool {
	var out SnapshotResponse
	i, ok := field(body, skipSpace(body, 0), '{', `"partial"`)
	if !ok {
		return false
	}
	switch {
	case bytes.HasPrefix(body[i:], []byte("true")):
		out.Partial = true
		i += len("true")
	case bytes.HasPrefix(body[i:], []byte("false")):
		i += len("false")
	default:
		return false
	}
	if i, ok = field(body, skipSpace(body, i), ',', `"points"`); !ok {
		return false
	}
	if out.Points, i, ok = decodeVectors(body, i, []divmax.Vector{}); !ok {
		return false
	}
	if i, ok = field(body, i, ',', `"processed"`); !ok {
		return false
	}
	if out.Processed, i, ok = decodeInt[int64](body, i); !ok {
		return false
	}
	if i, ok = field(body, i, ',', `"cursor"`); !ok {
		return false
	}
	if i, ok = field(body, i, '{', `"gens"`); !ok {
		return false
	}
	if out.Cursor.Gens, i, ok = decodeInts[uint64](body, i); !ok {
		return false
	}
	if i, ok = field(body, i, ',', `"poss"`); !ok {
		return false
	}
	if out.Cursor.Poss, i, ok = decodeInts[int](body, i); !ok || !at(body, i, '}') {
		return false
	}
	if i, ok = field(body, skipSpace(body, i+1), ',', `"shards"`); !ok {
		return false
	}
	if out.Shards, i, ok = decodeInt[int](body, i); !ok || !at(body, i, '}') || skipSpace(body, i+1) != len(body) {
		return false
	}
	*r = out
	return true
}

// decodeInts decodes the array of integers [n,...] starting at b[i], as
// decodeInt decodes each, and returns it, never nil, with the index of
// the first byte after the array and any whitespace.
func decodeInts[T int | uint64](b []byte, i int) ([]T, int, bool) {
	if !at(b, i, '[') {
		return nil, 0, false
	}
	i = skipSpace(b, i+1)
	out := []T{}
	for !at(b, i, ']') {
		if len(out) > 0 {
			if !at(b, i, ',') {
				return nil, 0, false
			}
			i = skipSpace(b, i+1)
		}
		x, end, ok := decodeInt[T](b, i)
		if !ok {
			return nil, 0, false
		}
		out = append(out, x)
		i = end
	}
	return out, skipSpace(b, i+1), true
}

// decodeInt decodes the integer 0|[1-9][0-9]* of at most 18 digits
// starting at b[i], declining one that T cannot hold, and returns it
// with the index of the first byte after it and any whitespace.
func decodeInt[T int | int64 | uint64](b []byte, i int) (T, int, bool) {
	end, m := digits(b, i, 0)
	if n := end - i; n == 0 || n > 18 || (n > 1 && b[i] == '0') || uint64(T(m)) != m {
		return 0, 0, false
	}
	return T(m), skipSpace(b, end), true
}
