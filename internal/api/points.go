package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"reflect"
	"strconv"
	"sync"

	"divmax"
)

// Batch bodies — {"points": [[x, y, ...], ...]}, the shape of every
// /v1/ingest and /v1/delete request — are read by ReadBatch in both
// tiers. It tries DecodePoints, a fast path that accepts only the
// canonical shape and gives each coordinate the float64
// strconv.ParseFloat gives it, the call encoding/json ends in: short
// decimals, such as the 1e-4-grid coordinates of divmaxbench, through
// strconv's own exact path computed in place, every other number
// through ParseFloat itself (parseNumber). Anything else it declines,
// and encoding/json parses the same bytes exactly as it always has. So
// the fast path can only return what encoding/json would have
// returned, and every rejected body keeps its error message.

// ErrTrailingData rejects a batch body that holds more than whitespace
// after its JSON value.
var ErrTrailingData = errors.New("trailing data after the points object")

// ReadBatch reads one batch body from r — in the servers, the request
// body behind an http.MaxBytesReader — into req, an *IngestRequest or a
// *DeleteRequest. Points decoded by the fast path are appended to
// req.Points[:0], so a caller can hand in a recycled outer slice; each
// point is a Vector of its own, never a view into a shared buffer,
// because shards keep accepted points indefinitely and one kept point
// would pin the whole buffer.
//
// The body must be one JSON value followed by nothing but whitespace up
// to EOF; a read error in that tail, such as the body limit's
// *http.MaxBytesError, fails the request. BatchError maps every error
// onto its response.
func ReadBatch[R *IngestRequest | *DeleteRequest](r io.Reader, req R) error {
	var pts *[]divmax.Vector
	switch req := any(req).(type) {
	case *IngestRequest:
		pts = &req.Points
	case *DeleteRequest:
		pts = &req.Points
	}
	buf := getBody()
	defer putBody(buf)
	_, rerr := buf.ReadFrom(r)
	body := buf.Bytes()
	if rerr == nil {
		if out, ok := DecodePoints(body, (*pts)[:0]); ok {
			*pts = out
			return nil
		}
	}
	// The fallback replays the bytes already read, then the read error,
	// so encoding/json sees exactly the stream it would have read from
	// r itself.
	src := io.Reader(bytes.NewReader(body))
	if rerr != nil {
		src = io.MultiReader(src, errReader{rerr})
	}
	dec := json.NewDecoder(src)
	if err := dec.Decode(req); err != nil {
		return err
	}
	if skipSpace(body, int(dec.InputOffset())) < len(body) {
		return ErrTrailingData
	}
	return rerr
}

// BatchError maps a ReadBatch error onto the status and the error
// envelope message both tiers answer with: 413 when the body passed the
// limit of the http.MaxBytesReader it was read through, 400 otherwise.
func BatchError(err error) (status int, message string) {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("body exceeds %d bytes; split the batch", tooBig.Limit)
	case errors.Is(err, ErrTrailingData):
		return http.StatusBadRequest, err.Error()
	default:
		return http.StatusBadRequest, "bad JSON: " + err.Error()
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// maxPooledBody caps the body buffers ReadBatch keeps for reuse, well
// above common batches (2000 points of d=8, or 50 of d=128, are
// 50–140 KB). A buffer grown past it by a rare large batch, up to the
// 32 MiB request limit, is dropped after its request instead of
// staying resident in the pool.
const maxPooledBody = 1 << 20

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBody() *bytes.Buffer { return bodyPool.Get().(*bytes.Buffer) }

// putBody returns b to the pool unless it grew past maxPooledBody, and
// reports whether it did.
func putBody(b *bytes.Buffer) bool {
	if b.Cap() > maxPooledBody {
		return false
	}
	b.Reset()
	bodyPool.Put(b)
	return true
}

// DecodePoints is ReadBatch's fast path. It decodes body when it is
// exactly {"points":[[x,...],...]} — JSON whitespace allowed between
// tokens, every coordinate a JSON number that strconv.ParseFloat takes
// without error — appending each point to dst as a Vector of its own,
// and returns the extended slice with ok. Each coordinate is scanned
// once and is bit-identical to ParseFloat's result (see parseNumber).
// Anything else it declines (ok false, dst returned as given, nothing
// past its length left set): null in place of an array, a key other
// than exactly "points" (differently cased, escaped, unknown, repeated,
// or want_outcomes), a number outside JSON's grammar (+1, 01, .5, 1.,
// inf, 0x1p3, 1_0) or out of range (1e400), and anything but whitespace
// after the closing brace.
func DecodePoints(body []byte, dst []divmax.Vector) ([]divmax.Vector, bool) {
	out, ok := decodePoints(body, dst)
	if !ok {
		clear(out[len(dst):])
		return dst, false
	}
	return out, true
}

func decodePoints(b []byte, out []divmax.Vector) ([]divmax.Vector, bool) {
	const key = `"points"`
	i := skipSpace(b, 0)
	if !at(b, i, '{') {
		return out, false
	}
	i = skipSpace(b, i+1)
	if !bytes.HasPrefix(b[i:], []byte(key)) {
		return out, false
	}
	i = skipSpace(b, i+len(key))
	if !at(b, i, ':') {
		return out, false
	}
	i = skipSpace(b, i+1)
	if !at(b, i, '[') {
		return out, false
	}
	i = skipSpace(b, i+1)
	var scratch [128]float64
	coords := scratch[:0]
	for n := 0; !at(b, i, ']'); n++ {
		if n > 0 {
			if !at(b, i, ',') {
				return out, false
			}
			i = skipSpace(b, i+1)
		}
		if !at(b, i, '[') {
			return out, false
		}
		i = skipSpace(b, i+1)
		coords = coords[:0]
		for !at(b, i, ']') {
			if len(coords) > 0 {
				if !at(b, i, ',') {
					return out, false
				}
				i = skipSpace(b, i+1)
			}
			x, end, ok := parseNumber(b, i)
			if !ok {
				return out, false
			}
			coords = append(coords, x)
			i = skipSpace(b, end)
		}
		p := make(divmax.Vector, len(coords))
		copy(p, coords)
		out = append(out, p)
		i = skipSpace(b, i+1)
	}
	i = skipSpace(b, i+1)
	if !at(b, i, '}') || skipSpace(b, i+1) != len(b) {
		return out, false
	}
	return out, true
}

// at reports whether b[i] is c.
func at(b []byte, i int, c byte) bool { return i < len(b) && b[i] == c }

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// parseNumber parses the JSON number starting at b[i] —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — and returns its value
// and end, with ok false when no number starts there or
// strconv.ParseFloat rejects it (1e400). It scans the number once,
// accumulating its decimal mantissa m, integer and fraction digits
// alike. Where strconv's own exact path applies, it returns that path's
// one correctly rounded operation, float64(m), negated for a leading
// '-', divided by 10^k: both operands are exact, so the quotient is the
// nearest float64 to the number, as ParseFloat returns. That takes at
// most 19 digits (a lone integer 0 aside, leading zeros of the fraction
// included), so m cannot wrap and is the mantissa strconv reads, and
// k ≤ 19 decimals, within the 22 whose powers of ten float64 holds
// exactly; m below 2^52; and no exponent part. Every other number goes
// to strconv.ParseFloat.
func parseNumber(b []byte, i int) (x float64, end int, ok bool) {
	start := i
	neg := at(b, i, '-')
	if neg {
		i++
	}
	var m uint64
	nd := 0 // digits in m, but for a lone integer 0
	switch {
	case at(b, i, '0'):
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		j := i
		i, m = digits(b, i, m)
		nd = i - j
	default:
		return 0, 0, false
	}
	k := 0
	if at(b, i, '.') {
		j := i + 1
		i, m = digits(b, j, m)
		if k = i - j; k == 0 {
			return 0, 0, false
		}
	}
	if !at(b, i, 'e') && !at(b, i, 'E') {
		if nd+k <= 19 && m < 1<<52 {
			x = float64(m)
			if neg {
				x = -x
			}
			return x / pow10[k], i, true
		}
	} else {
		i++
		if at(b, i, '+') || at(b, i, '-') {
			i++
		}
		j := i
		i, _ = digits(b, i, 0)
		if i == j {
			return 0, 0, false
		}
	}
	x, err := strconv.ParseFloat(string(b[start:i]), 64)
	return x, i, err == nil
}

// digits accumulates the decimal digits from b[i] on into m and returns
// the index past them with the new m, which wraps past 19 digits.
func digits(b []byte, i int, m uint64) (int, uint64) {
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		m = m*10 + uint64(d)
	}
	return i, m
}

// pow10 holds the divisors of strconv's exact path that a number of at
// most 19 digits can need, all exact in float64.
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// AppendPoints appends the body json.Marshal writes for
// IngestRequest{Points: pts}, byte for byte: coordinates in the
// shortest form that reads back to the same float64, in 'f' format
// except below 1e-6 and from 1e21 on, where it switches to 'e' with
// the exponent unpadded (1e-7, not 1e-07). A NaN or infinite
// coordinate is the *json.UnsupportedValueError json.Marshal returns,
// with dst returned as given.
func AppendPoints(dst []byte, pts []divmax.Vector) ([]byte, error) {
	if pts == nil {
		return append(dst, `{"points":null}`...), nil
	}
	out := append(dst, `{"points":[`...)
	for i, p := range pts {
		if i > 0 {
			out = append(out, ',')
		}
		if p == nil {
			out = append(out, "null"...)
			continue
		}
		out = append(out, '[')
		for j, x := range p {
			if j > 0 {
				out = append(out, ',')
			}
			if math.IsInf(x, 0) || math.IsNaN(x) {
				return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(x), Str: strconv.FormatFloat(x, 'g', -1, 64)}
			}
			out = appendFloat(out, x)
		}
		out = append(out, ']')
	}
	return append(out, "]}"...), nil
}

// appendFloat formats a finite x as encoding/json does (ES6 number to
// string).
func appendFloat(b []byte, x float64) []byte {
	format := byte('f')
	if abs := math.Abs(x); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, x, format, -1, 64)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
