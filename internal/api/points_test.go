package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"divmax"
)

// The batch decoder's contract: DecodePoints either declines a body or
// returns exactly what encoding/json decodes from it; ReadBatch answers
// every body as the json.Decoder path of earlier versions did, except
// that it requires EOF after the value; AppendPoints writes
// json.Marshal's bytes.

// sameBits reports whether two point lists hold the same number of
// points, of the same lengths, with bit-identical coordinates.
func sameBits(a, b []divmax.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// pointsCorpus seeds FuzzPointsDecode, whose seed run is part of every
// go test: canonical bodies, every number form JSON forbids but
// strconv.ParseFloat takes, range edges, and every non-canonical shape
// the fast path must leave to encoding/json.
var pointsCorpus = []string{
	`{"points":[[1,2],[3.5,-4]]}`,
	`{"points":[]}`,
	`{"points":[[]]}`,
	` {"points" : [ [ 1 , 2 ] ,[3,4]] } ` + "\n\t\r",
	`{"points":[[-0]]}`,
	`{"points":[[01]]}`,
	`{"points":[[1.]]}`,
	`{"points":[[.5]]}`,
	`{"points":[[+1]]}`,
	`{"points":[[inf]]}`,
	`{"points":[[0x1p3]]}`,
	`{"points":[[1_0]]}`,
	`{"points":[[1e400]]}`,
	`{"points":[[-1e400]]}`,
	`{"points":[[1e-400]]}`,
	`{"points":[[5e-324]]}`,
	`{"points":[[1e21]]}`,
	`{"points":[[1e-7]]}`,
	`{"points":[[1E+2,2e-2,0.5e1]]}`,
	"\xef\xbb\xbf" + `{"points":[[1,2]]}`,
	`{"Points":[[1,2]]}`,
	`{"POINTS":[[1,2]]}`,
	`{"p\u006fints":[[1,2]]}`,
	`{"points":[[1,2]],"points":[[3]]}`,
	`{"points":[[1,2]],"want_outcomes":true}`,
	`{"want_outcomes":true,"points":[[1,2]]}`,
	`{"pts":[[1,2]]}`,
	`{"points":null}`,
	`{"points":[null]}`,
	`{"points":[[1,null]]}`,
	`{"points":[[1,"2"]]}`,
	`{"points":[[1,2],]}`,
	`{"points":[[1,],[2]]}`,
	`{"points":[[1 2]]}`,
	`{"points":[1,2]}`,
	`{}`,
	`null`,
	``,
	`   `,
	`[[1,2]]`,
	`{"points":[[1,2]]} }`,
	`{"points":[[1,2]]}]`,
	`{"points":[[1,2]]}{"points":[[3,4]]}`,
	`{"points":[[1,2]]} x`,
	`{"points":[[1,2]]`,
	`{"points":[[1,2]`,
}

// exactPathEdges are numbers at the edges of strconv's exact path:
// mantissas around 2^52 and 2^53, 19 and 20 significant digits, 19, 22
// and 23 decimals, leading and trailing zeros, signed zeros, e-notation,
// and 1e400, which ParseFloat rejects. FuzzPointsDecode takes each as a
// one-coordinate body too.
var exactPathEdges = []string{
	"4503599627370495", "4503599627370496", "9007199254740993", "-4503599627370495",
	"0.4503599627370495", "450359962737049.5", "4503599627370.495", "0.0000004503599627370495",
	"1234567890123456789", "0.1234567890123456789", "123456789.0123456789", "-1234567890123456789",
	"12345678901234567890", "0.12345678901234567890", "1.0000000000000000000", "99999999999999999999",
	"0.0000000000000000000001", "0.0000000000000123456789", "0.1234567890123456789012",
	"0.00000000000000000000001", "0.00000000000001234567891", "1.00000000000000000000001",
	"0.0005", "-0.0005", "0.000000000000000000005", "0.00000000000000000000000000000001",
	"4503599627370496.0", "4503599627370495.0", "1.50", "100.000", "123.4560000000000000000",
	"-0", "-0.0", "0", "0.0", "-0.000", "0.1", "0.3", "123.4567", "99.9999", "-12.5",
	"1e5", "1E5", "1.5e-3", "4503599627370495e0", "0e0", "-0e-0", "1e22", "1e23", "1e-22",
	"1e400", "-1e400", "1e-400",
	"0.0000000000000000001", "-0.0004503599627370495", "0.0004503599627370496",
}

// TestParseNumberExactPath holds parseNumber to strconv.ParseFloat, bit
// for bit, at the edges of the exact path, alone and inside a body.
func TestParseNumberExactPath(t *testing.T) {
	for _, num := range exactPathEdges {
		want, werr := strconv.ParseFloat(num, 64)
		x, end, ok := parseNumber([]byte(num+","), 0)
		if ok != (werr == nil) || end != len(num) {
			t.Errorf("%s: ok %v, end %d; ParseFloat error %v, length %d", num, ok, end, werr, len(num))
			continue
		}
		if ok && math.Float64bits(x) != math.Float64bits(want) {
			t.Errorf("%s: parsed %v (%#x), ParseFloat %v (%#x)", num, x, math.Float64bits(x), want, math.Float64bits(want))
		}
		body := `{"points":[[` + num + `]]}`
		got, ok := DecodePoints([]byte(body), nil)
		if ok != (werr == nil) || (ok && !sameBits(got, []divmax.Vector{{want}})) {
			t.Errorf("%s: DecodePoints gave %v (ok %v)", body, got, ok)
		}
	}
}

// TestDecodePoints pins what the fast path declines — leaving dst as
// given — and the bits of a few accepted edge cases.
func TestDecodePoints(t *testing.T) {
	for _, body := range []string{
		`{"points":[[01]]}`, `{"points":[[1.]]}`, `{"points":[[.5]]}`, `{"points":[[+1]]}`,
		`{"points":[[inf]]}`, `{"points":[[0x1p3]]}`, `{"points":[[1_0]]}`,
		`{"points":[[1e400]]}`, "\xef\xbb\xbf" + `{"points":[[1,2]]}`,
		`{"Points":[[1,2]]}`, `{"p\u006fints":[[1,2]]}`, `{"points":[[1,2]],"points":[[3]]}`,
		`{"points":[[1,2]],"want_outcomes":true}`, `{"pts":[[1,2]]}`,
		`{"points":null}`, `{"points":[null]}`, `{"points":[[1,null]]}`, `{}`, `null`, ``,
		`{"points":[[1,2]]} }`, `{"points":[[1,2]]}]`, `{"points":[[1,2],]}`,
	} {
		// A declined body leaves dst as given: same length, and no
		// point half-decoded into its spare capacity.
		dst := make([]divmax.Vector, 1, 4)
		got, ok := DecodePoints([]byte(body), dst)
		if ok {
			t.Errorf("%q: fast path accepted it, want declined", body)
			continue
		}
		if len(got) != 1 || got[:4][1] != nil {
			t.Errorf("%q: declined but left %d points / spare %v", body, len(got), got[:4][1:])
		}
	}
	for _, c := range []struct {
		body string
		want []divmax.Vector
	}{
		{`{"points":[[-0]]}`, []divmax.Vector{{math.Copysign(0, -1)}}},
		{`{"points":[[1e-400, 5e-324]]}`, []divmax.Vector{{0, 5e-324}}},
		{` {"points" : [ [ 1 , 2 ] ,[]] } ` + "\n", []divmax.Vector{{1, 2}, {}}},
	} {
		got, ok := DecodePoints([]byte(c.body), nil)
		if !ok || !sameBits(got, c.want) {
			t.Errorf("%q: got %v (ok %v), want %v", c.body, got, ok, c.want)
		}
	}
}

// legacyDecode is the decoding every handler did before ReadBatch:
// json.Decoder, then More as the trailing-data check.
func legacyDecode[R *IngestRequest | *DeleteRequest](r io.Reader, req R) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(req); err != nil {
		return err
	}
	if dec.More() {
		return ErrTrailingData
	}
	return nil
}

// respond is the status and envelope message a handler answers err
// with (200 and "" for success).
func respond(err error) (int, string) {
	if err == nil {
		return http.StatusOK, ""
	}
	return BatchError(err)
}

// checkReadBatch holds ReadBatch to legacyDecode on body, both reading
// it through an http.MaxBytesReader of the given limit: the same status
// and message, and the same points on success. The two exceptions are
// the bodies legacyDecode accepted with more than whitespace after the
// value: a '}' or ']' there is now trailing data (400), and whitespace
// running past the limit is now 413.
func checkReadBatch[R *IngestRequest | *DeleteRequest](t *testing.T, body []byte, limit int64, got, want R, points func(R) []divmax.Vector) {
	t.Helper()
	limited := func() io.Reader {
		return http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)), limit)
	}
	gs, gm := respond(ReadBatch(limited(), got))
	ws, wm := respond(legacyDecode(limited(), want))
	if ws == http.StatusOK && gs != ws {
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.Decode(new(json.RawMessage))
		read := body[:min(int64(len(body)), limit)]
		rest := bytes.TrimLeft(read[dec.InputOffset():], " \t\r\n")
		switch {
		case len(rest) > 0 && (rest[0] == '}' || rest[0] == ']') && gs == http.StatusBadRequest && gm == ErrTrailingData.Error():
			return
		case len(rest) == 0 && int64(len(body)) > limit && gs == http.StatusRequestEntityTooLarge:
			return
		}
	}
	if gs != ws || gm != wm {
		t.Fatalf("%q (limit %d): ReadBatch answers %d %q, the json.Decoder path %d %q", body, limit, gs, gm, ws, wm)
	}
	if gs == http.StatusOK && !sameBits(points(got), points(want)) {
		t.Fatalf("%q: ReadBatch decoded %v, the json.Decoder path %v", body, points(got), points(want))
	}
}

// checkBothRequests runs checkReadBatch for ingest and delete bodies,
// with the whole body inside the limit and with the limit cutting it.
func checkBothRequests(t *testing.T, body []byte) {
	t.Helper()
	for _, limit := range []int64{int64(len(body)), int64(len(body)) / 2} {
		checkReadBatch(t, body, limit, new(IngestRequest), new(IngestRequest),
			func(r *IngestRequest) []divmax.Vector { return r.Points })
		checkReadBatch(t, body, limit, new(DeleteRequest), new(DeleteRequest),
			func(r *DeleteRequest) []divmax.Vector { return r.Points })
	}
}

// TestReadBatch: EOF must follow the value, and what the fast path
// declines still decodes in full.
func TestReadBatch(t *testing.T) {
	for _, c := range []struct {
		body string
		ok   bool
	}{
		{`{"points":[[1,2]]}`, true},
		{`{"points":[[1,2]]}` + " \n\t\r", true},
		{`{"points":[[1,2]]} }`, false},
		{`{"points":[[1,2]]}]`, false},
		{`{"points":[[1,2]],"want_outcomes":true} ]`, false},
		{`null }`, false},
		{`{"points":[[1,2]]}{"points":[[3,4]]}`, false},
	} {
		var req IngestRequest
		err := ReadBatch(strings.NewReader(c.body), &req)
		if c.ok != (err == nil) || (!c.ok && !errors.Is(err, ErrTrailingData)) {
			t.Errorf("%q: error %v, want ok=%v or ErrTrailingData", c.body, err, c.ok)
		}
	}
	var req DeleteRequest
	if err := ReadBatch(strings.NewReader(`{"points":[[1]],"want_outcomes":true}`), &req); err != nil || !req.WantOutcomes || len(req.Points) != 1 {
		t.Fatalf("delete with want_outcomes = %+v, %v", req, err)
	}
}

// TestReadBatchBodyLimit: through an http.MaxBytesReader, a body past
// the limit is 413 whether the limit cuts the value or only its
// trailing whitespace; a body exactly at the limit is read whole.
func TestReadBatchBodyLimit(t *testing.T) {
	const limit = 4 << 10
	obj := `{"points":[[1,2]]}`
	pad := func(s string, n int) string { return s + strings.Repeat(" ", n-len(s)) }
	for _, c := range []struct {
		name, body string
		status     int
	}{
		{"value past the limit", `{"points":[` + strings.Repeat(`[1,2],`, limit/6) + `[1,2]]}`, http.StatusRequestEntityTooLarge},
		{"whitespace past the limit", pad(obj, limit+1), http.StatusRequestEntityTooLarge},
		{"garbage before the limit", pad(obj+" x", limit+1), http.StatusBadRequest},
		{"exactly the limit", pad(obj, limit), http.StatusOK},
	} {
		var req IngestRequest
		r := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(strings.NewReader(c.body)), limit)
		status, msg := respond(ReadBatch(r, &req))
		if status != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.name, status, msg, c.status)
		}
		if status == http.StatusRequestEntityTooLarge && msg != fmt.Sprintf("body exceeds %d bytes; split the batch", limit) {
			t.Errorf("%s: message %q", c.name, msg)
		}
	}
}

// TestBodyPoolDropsLargeBuffers: a buffer that grew past maxPooledBody
// leaves the pool with its request, so one large batch does not stay
// resident; smaller ones come back empty.
func TestBodyPoolDropsLargeBuffers(t *testing.T) {
	small := getBody()
	small.Grow(maxPooledBody / 2)
	small.WriteString("x")
	if !putBody(small) || small.Len() != 0 {
		t.Fatalf("a %d-byte buffer was not reset and pooled", small.Cap())
	}
	large := new(bytes.Buffer)
	large.Grow(maxPooledBody + 1)
	if putBody(large) {
		t.Fatalf("a %d-byte buffer went back to the pool (cap %d)", large.Cap(), maxPooledBody)
	}
}

func TestAppendPointsMatchesMarshal(t *testing.T) {
	for _, pts := range [][]divmax.Vector{
		nil,
		{},
		{nil, {}},
		{{1, 2}, {3.5, -4}},
		{{1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 123456789e13, -1e-300, 5e-324}},
		{{math.Copysign(0, -1), 0.1, 100.0001, math.MaxFloat64, math.SmallestNonzeroFloat64}},
	} {
		want, err := json.Marshal(IngestRequest{Points: pts})
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendPoints([]byte("prefix"), pts)
		if err != nil || string(got) != "prefix"+string(want) {
			t.Errorf("AppendPoints(%v) = %s, %v; want %s", pts, got, err, want)
		}
	}
	if got, err := AppendPoints(nil, []divmax.Vector{{1e-7, 1e21, 1.5e-10}}); err != nil || string(got) != `{"points":[[1e-7,1e+21,1.5e-10]]}` {
		t.Errorf("exponent format: %s, %v", got, err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, jerr := json.Marshal(IngestRequest{Points: []divmax.Vector{{1, bad}}})
		got, err := AppendPoints([]byte("x"), []divmax.Vector{{1, bad}})
		var uv *json.UnsupportedValueError
		if !errors.As(err, &uv) || jerr == nil || err.Error() != jerr.Error() || string(got) != "x" {
			t.Errorf("%v: AppendPoints = %q, %v; json.Marshal error %v", bad, got, err, jerr)
		}
	}
}

// TestShortDecimal: appendFloat writes json.Marshal's bytes for random
// decimals of 1 to 15 significant digits at every scale of the exact
// path, 1e-4-grid values, full-precision values and their float64
// neighbours; and shortDecimal takes every such decimal, so the k it
// derives from the exponent is never one too few.
func TestShortDecimal(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	check := func(x float64) {
		want, err := json.Marshal(x)
		if got := appendFloat(nil, x); err != nil || string(got) != string(want) {
			t.Fatalf("appendFloat(%v) = %s; json.Marshal %s, %v", x, got, want, err)
		}
	}
	for range 20000 {
		digits := 1 + rng.IntN(15)
		m := rng.Int64N(int64(pow10[digits]))
		x := float64(m) / pow10[rng.IntN(22)]
		if 1e-6 <= x && x < 1e15 {
			if _, _, ok := shortDecimal(x); !ok {
				t.Fatalf("%v: shortDecimal missed a decimal of %d digits", x, digits)
			}
		}
		full := rng.Float64() * pow10[rng.IntN(16)]
		for _, y := range []float64{x, -x, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)),
			float64(rng.IntN(100*1e4)) / 1e4, full, full / 1e6, full / 1e7} {
			check(y)
		}
	}
}

// FuzzPointsDecode: on every input, DecodePoints declines or agrees
// with json.Unmarshal — accept or reject, point count and lengths,
// every coordinate's bits — and ReadBatch answers as the json.Decoder
// path did, under a body limit too, but for the two fixed cases
// checkReadBatch names. For the finite points a body decodes to, and
// for points made of the input's raw float64 bits, AppendPoints writes
// json.Marshal's bytes, and decoding them gives the same bits back.
func FuzzPointsDecode(f *testing.F) {
	for _, body := range pointsCorpus {
		f.Add([]byte(body))
	}
	for _, num := range exactPathEdges {
		f.Add([]byte(`{"points":[[` + num + `]]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want IngestRequest
		werr := json.Unmarshal(body, &want)
		if got, ok := DecodePoints(body, nil); ok {
			if werr != nil {
				t.Fatalf("%q: fast path accepted what encoding/json rejects: %v", body, werr)
			}
			if !sameBits(got, want.Points) {
				t.Fatalf("%q: fast path %v, encoding/json %v", body, got, want.Points)
			}
		}
		checkBothRequests(t, body)

		if werr == nil {
			checkAppend(t, want.Points)
		}
		raw := divmax.Vector{}
		for i := 0; i+8 <= len(body); i += 8 {
			var bits uint64
			for _, c := range body[i : i+8] {
				bits = bits<<8 | uint64(c)
			}
			if x := math.Float64frombits(bits); !math.IsInf(x, 0) && !math.IsNaN(x) {
				raw = append(raw, x)
			}
		}
		checkAppend(t, []divmax.Vector{raw, raw[:len(raw)/2]})
	})
}

// checkAppend holds AppendPoints to json.Marshal on pts and decodes the
// bytes back.
func checkAppend(t *testing.T, pts []divmax.Vector) {
	t.Helper()
	want, werr := json.Marshal(IngestRequest{Points: pts})
	got, err := AppendPoints(nil, pts)
	if (err == nil) != (werr == nil) || (err == nil && !bytes.Equal(got, want)) {
		t.Fatalf("AppendPoints(%v) = %s, %v; json.Marshal %s, %v", pts, got, err, want, werr)
	}
	if err != nil {
		return
	}
	var back IngestRequest
	if err := ReadBatch(bytes.NewReader(got), &back); err != nil || !sameBits(back.Points, pts) {
		t.Fatalf("%s decoded back to %v, %v; want %v", got, back.Points, err, pts)
	}
}

// benchBody is a batch of n uniform d-dimensional points with
// coordinates rounded to 1e-4 in [0, 100) — divmaxbench's ingest bodies.
func benchBody(n, d int) []byte {
	rng := rand.New(rand.NewPCG(1, uint64(n*d)))
	pts := make([]divmax.Vector, n)
	for i := range pts {
		pts[i] = make(divmax.Vector, d)
		for j := range pts[i] {
			pts[i][j] = float64(rng.IntN(100*1e4)) / 1e4
		}
	}
	body, err := AppendPoints(nil, pts)
	if err != nil {
		panic(err)
	}
	return body
}

// BenchmarkDecodePoints compares the fast path with the json.Decoder
// path it replaces, each decoding into a recycled outer slice as the
// server does, on divmaxbench's two body shapes. Besides MB/s it reports
// ns/pt and allocs/pt.
func BenchmarkDecodePoints(b *testing.B) {
	for _, shape := range []struct{ n, d int }{{2000, 8}, {50, 128}} {
		body := benchBody(shape.n, shape.d)
		for _, dec := range []struct {
			name   string
			decode func(dst []divmax.Vector) []divmax.Vector
		}{
			{"fast", func(dst []divmax.Vector) []divmax.Vector {
				pts, ok := DecodePoints(body, dst)
				if !ok {
					b.Fatal("fast path declined the benchmark body")
				}
				return pts
			}},
			{"json", func(dst []divmax.Vector) []divmax.Vector {
				req := IngestRequest{Points: dst}
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
					b.Fatal(err)
				}
				return req.Points
			}},
		} {
			b.Run(fmt.Sprintf("%dx%d/%s", shape.n, shape.d, dec.name), func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				var dst []divmax.Vector
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for b.Loop() {
					dst = dec.decode(dst[:0])
					clear(dst)
				}
				runtime.ReadMemStats(&after)
				pts := float64(b.N * shape.n)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pts, "ns/pt")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/pts, "allocs/pt")
			})
		}
	}
}

// BenchmarkSnapshotCodec compares the snapshot codec with encoding/json
// on 655-point d=8 replies: "grid" holds 1e-4-grid coordinates in
// [0, 100) (42 KB, a worker's proxy-family reply under divmaxbench's
// cluster_d8), whose shortest forms the exact path writes; "full" holds
// full-precision coordinates in [0, 10) (cmd/bench's cluster suite),
// whose 16- and 17-digit shortest forms go to strconv. Each times the
// worker's encode and the coordinator's decode, each into a recycled
// buffer or a fresh reply as they run there; the format cases time
// appendFloat alone against the strconv.AppendFloat call it makes off
// its exact path, per coordinate.
func BenchmarkSnapshotCodec(b *testing.B) {
	var grid IngestRequest
	if err := json.Unmarshal(benchBody(655, 8), &grid); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 655*8))
	full := make([]divmax.Vector, 655)
	for i := range full {
		full[i] = make(divmax.Vector, 8)
		for j := range full[i] {
			full[i][j] = rng.Float64() * 10
		}
	}
	for _, data := range []struct {
		name string
		pts  []divmax.Vector
	}{{"grid", grid.Points}, {"full", full}} {
		r := SnapshotResponse{Points: data.pts, Processed: 1 << 20, Shards: 2,
			Cursor: SnapshotCursor{Gens: []uint64{12, 9}, Poss: []int{330, 325}}}
		body, err := AppendSnapshot(nil, &r)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name string
			run  func(dst []byte) []byte
		}{
			{"encode/json", func(dst []byte) []byte {
				buf := bytes.NewBuffer(dst)
				if err := json.NewEncoder(buf).Encode(&r); err != nil {
					b.Fatal(err)
				}
				return buf.Bytes()
			}},
			{"encode/fast", func(dst []byte) []byte {
				out, err := AppendSnapshot(dst, &r)
				if err != nil {
					b.Fatal(err)
				}
				return out
			}},
			{"decode/json", func(dst []byte) []byte {
				var out SnapshotResponse
				if err := json.NewDecoder(bytes.NewReader(body)).Decode(&out); err != nil {
					b.Fatal(err)
				}
				return dst
			}},
			{"decode/fast", func(dst []byte) []byte {
				var out SnapshotResponse
				if !DecodeSnapshot(body, &out) {
					b.Fatal("fast path declined the benchmark reply")
				}
				return dst
			}},
		} {
			b.Run(data.name+"/"+c.name, func(b *testing.B) {
				b.SetBytes(int64(len(body)))
				b.ReportAllocs()
				var dst []byte
				for b.Loop() {
					dst = c.run(dst[:0])
				}
			})
		}
		for _, c := range []struct {
			name   string
			format func(dst []byte, x float64) []byte
		}{
			{"format/strconv", func(dst []byte, x float64) []byte { return strconv.AppendFloat(dst, x, 'f', -1, 64) }},
			{"format/exact", appendFloat},
		} {
			b.Run(data.name+"/"+c.name, func(b *testing.B) {
				var dst []byte
				for b.Loop() {
					for _, p := range r.Points {
						for _, x := range p {
							dst = c.format(dst[:0], x)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*655*8), "ns/coord")
			})
		}
	}
}
