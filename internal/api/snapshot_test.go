package api

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"divmax"
)

// The snapshot codec's contract: AppendSnapshot writes what
// json.NewEncoder(w).Encode writes; DecodeSnapshot either declines a
// body or returns what json.Decoder decodes from it; ReadSnapshot
// answers every body as json.Decoder does.

// formatEdges are numbers at the edges of appendFloat's exact path: the
// 1e-6 and 1e15 limits and their float64 neighbours, powers of two,
// where shortDecimal's k steps, 15- and 16-digit mantissas, sums that
// need 17 digits, and neighbours of 1e-4-grid values.
// FuzzSnapshotCodec's seeds take each, both signs, as a coordinate.
var formatEdges = []float64{
	1 << 49, math.Nextafter(1<<49, 0), 1024, math.Nextafter(1024, 0), 0x1p-19, 0x1p-10,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1.5e-6, 1.23456789012345e-6,
	999999999999999, 99999999999999.9, math.Nextafter(1e15, 0), 1e15, 1e21, 1e20,
	123456789012345, 1234567890123456, 0.123456789012345, 0.1234567890123456,
	12345.6789012345, 1.00000000000001, 9007199254740993, 4503599627370496.5,
	0.1, 0.2, 0.3, 0.1 + 0.2, 1.0 / 3, 2.0 / 3, 100, 1e14, 5e-324, math.MaxFloat64,
	12.3456, math.Nextafter(12.3456, 0), math.Nextafter(12.3456, 100), 99.9999,
	math.Nextafter(99.9999, 100), 0.0001, math.Nextafter(0.0001, 0), 50.5, 0.5,
	math.Copysign(0, -1), 0,
}

// snapshotCorpus seeds FuzzSnapshotCodec: canonical replies and every
// departure from the shape the fast path must leave to encoding/json.
var snapshotCorpus = []string{
	`{"partial":false,"points":[],"processed":0,"cursor":{"gens":[],"poss":[]},"shards":0}` + "\n",
	`{"partial":true,"points":[[1,2],[3.5,-4]],"processed":17,"cursor":{"gens":[3,1],"poss":[2,0]},"shards":2}` + "\n",
	` { "partial" : true , "points" : [ [ 1 , 2 ] ] , "processed" : 1 , "cursor" : { "gens" : [ 1 ] , "poss" : [ 0 ] } , "shards" : 1 } ` + "\n\t\r",
	`{"points":[[1]],"partial":true,"processed":1,"cursor":{"gens":[1],"poss":[0]},"shards":1}`,
	`{"shards":1,"cursor":{"poss":[0],"gens":[1]},"processed":1,"points":[[1]],"partial":true}`,
	`{"partial":false,"points":null,"processed":1,"cursor":{"gens":[1],"poss":[0]},"shards":1}`,
	`{"partial":false,"points":[null],"processed":1,"cursor":{"gens":[1],"poss":[0]},"shards":1}`,
	`{"partial":false,"points":[[1]],"processed":1,"cursor":null,"shards":1}`,
	`{"partial":false,"points":[[1]],"processed":1,"cursor":{"gens":null,"poss":null},"shards":1}`,
	`{"partial":null,"points":[[1]],"processed":1,"cursor":{"gens":[1],"poss":[0]},"shards":1}`,
	`{"partial":false,"points":[[-0,1e-7,1e21,1E+2,-0.0]],"processed":1,"cursor":{"gens":[1],"poss":[0]},"shards":1}`,
	`{"partial":false,"points":[[1e400]],"processed":1,"cursor":{"gens":[1],"poss":[0]},"shards":1}`,
	`{"partial":false,"points":[],"processed":-1,"cursor":{"gens":[1],"poss":[-1]},"shards":-1}`,
	`{"partial":false,"points":[],"processed":-0,"cursor":{"gens":[-0],"poss":[0]},"shards":1}`,
	`{"partial":false,"points":[],"processed":9223372036854775808,"cursor":{"gens":[18446744073709551616],"poss":[0]},"shards":1}`,
	`{"partial":false,"points":[],"processed":999999999999999999,"cursor":{"gens":[18446744073709551615],"poss":[1000000000000000000]},"shards":1}`,
	`{"partial":false,"points":[],"processed":1e3,"cursor":{"gens":[1.0],"poss":[01]},"shards":1}`,
	`{"Partial":false,"points":[],"processed":0,"cursor":{"gens":[],"poss":[]},"shards":0}`,
	`{"partial":false,"points":[],"processed":0,"cursor":{"gens":[],"poss":[]},"shards":0}`,
	`{"partial":false,"points":[],"processed":0,"cursor":{"gens":[],"poss":[]},"shards":0,"extra":1}`,
	`{"partial":false,"partial":true,"points":[],"processed":0,"cursor":{"gens":[],"poss":[]},"shards":0}`,
	`{"partial":false,"points":[],"processed":0,"cursor":{"gens":[],"poss":[]}}`,
	`{"partial":false,"points":[],"processed":0,"cursor":{"gens":[],"poss":[]},"shards":0}}`,
	`{"partial":false,"points":[],"processed":0,"cursor":{"gens":[],"poss":[]},"shards":0} x`,
	`{"partial":false,"points":[],"processed":0,"cursor":{"gens":[],"poss":[]},"shards":0}{}`,
	`{"partial":false,"points":[],"processed":0,"cursor":{"gens":[],"poss":[]},"shards":0`,
	`{"partial":fals,"points":[],"processed":0,"cursor":{"gens":[],"poss":[]},"shards":0}`,
	"\xef\xbb\xbf" + `{"partial":false,"points":[],"processed":0,"cursor":{"gens":[],"poss":[]},"shards":0}`,
	`{}`, `null`, ``, `[]`,
}

// FuzzSnapshotCodec: DecodeSnapshot declines the input or agrees with
// json.Decoder, and ReadSnapshot answers it as json.Decoder does. A
// reply built from the input's raw float64 bits — finite ones only, as
// workers hold — is appended as json.NewEncoder writes it, decoded back
// by the fast path when its integers fit, and mutated: keys reordered,
// whitespace added, null in place of points or the cursor, coordinates
// and integers replaced by forms the fast path declines or must parse.
func FuzzSnapshotCodec(f *testing.F) {
	for _, body := range snapshotCorpus {
		f.Add([]byte(body))
	}
	for _, num := range exactPathEdges {
		f.Add([]byte(`{"partial":false,"points":[[` + num + `]],"processed":1,"cursor":{"gens":[1],"poss":[0]},"shards":1}`))
		if x, err := strconv.ParseFloat(num, 64); err == nil {
			f.Add(binary.BigEndian.AppendUint64(nil, math.Float64bits(x)))
		}
	}
	var edges []byte
	for _, x := range formatEdges {
		edges = binary.BigEndian.AppendUint64(edges, math.Float64bits(x))
		edges = binary.BigEndian.AppendUint64(edges, math.Float64bits(-x))
	}
	f.Add(edges)
	f.Fuzz(func(t *testing.T, in []byte) {
		checkDecodeSnapshot(t, in)
		r := snapshotFromBits(in)
		body := checkAppendSnapshot(t, &r)
		var got SnapshotResponse
		if fits(r) && (!DecodeSnapshot(body, &got) || !sameSnapshot(got, r)) {
			t.Fatalf("%s: the fast path declined or changed AppendSnapshot's body: %+v", body, got)
		}
		for _, m := range mutateSnapshot(body, r, len(in)) {
			checkDecodeSnapshot(t, m)
		}
	})
}

// snapshotFromBits builds a reply from in: its 8-byte words as float64
// bits, the finite ones as coordinates of points of 1 to 8 dimensions,
// and as cursor integers of every magnitude, negative ones included.
func snapshotFromBits(in []byte) SnapshotResponse {
	r := SnapshotResponse{Partial: len(in)%2 == 1, Points: []divmax.Vector{}, Processed: int64(len(in)) * 1000003}
	d := 1
	if len(in) > 0 {
		d += int(in[0] % 8)
	}
	var p divmax.Vector
	for i := 0; i+8 <= len(in); i += 8 {
		bits := binary.BigEndian.Uint64(in[i:])
		if len(r.Cursor.Gens) < 4 {
			r.Cursor.Gens = append(r.Cursor.Gens, bits>>(bits%64))
			r.Cursor.Poss = append(r.Cursor.Poss, int(int64(bits)>>(bits%64)))
		}
		if x := math.Float64frombits(bits); !math.IsInf(x, 0) && !math.IsNaN(x) {
			if p = append(p, x); len(p) == d {
				r.Points, p = append(r.Points, p), nil
			}
		}
	}
	if p != nil {
		r.Points = append(r.Points, p)
	}
	r.Shards = len(r.Cursor.Gens)
	return r
}

// fits reports whether the fast path must take r's appended body:
// every integer non-negative with at most 18 digits, every slice
// non-nil.
func fits(r SnapshotResponse) bool {
	ok := func(x uint64) bool { return x < 1e18 }
	if r.Points == nil || r.Cursor.Gens == nil || r.Cursor.Poss == nil || r.Processed < 0 || !ok(uint64(r.Processed)) {
		return false
	}
	for i := range r.Cursor.Gens {
		if !ok(r.Cursor.Gens[i]) || r.Cursor.Poss[i] < 0 || !ok(uint64(r.Cursor.Poss[i])) {
			return false
		}
	}
	return true
}

// checkAppendSnapshot holds AppendSnapshot to json.NewEncoder on r and
// returns the body.
func checkAppendSnapshot(t *testing.T, r *SnapshotResponse) []byte {
	t.Helper()
	var want bytes.Buffer
	werr := json.NewEncoder(&want).Encode(r)
	got, err := AppendSnapshot([]byte("x"), r)
	if (err == nil) != (werr == nil) || (err != nil && (err.Error() != werr.Error() || string(got) != "x")) ||
		(err == nil && string(got[1:]) != want.String()) {
		t.Fatalf("AppendSnapshot(%+v) = %q, %v; json.Encoder %q, %v", *r, got, err, want.Bytes(), werr)
	}
	return got[1:]
}

// checkDecodeSnapshot holds DecodeSnapshot and ReadSnapshot to
// json.Decoder on body.
func checkDecodeSnapshot(t *testing.T, body []byte) {
	t.Helper()
	var want SnapshotResponse
	werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	var got SnapshotResponse
	if DecodeSnapshot(body, &got) && (werr != nil || !sameSnapshot(got, want)) {
		t.Fatalf("%q: fast path %+v, json.Decoder %+v, %v", body, got, want, werr)
	}
	var read SnapshotResponse
	err := ReadSnapshot(bytes.NewReader(body), &read)
	if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) || (err == nil && !sameSnapshot(read, want)) {
		t.Fatalf("%q: ReadSnapshot %+v, %v; json.Decoder %+v, %v", body, read, err, want, werr)
	}
}

// sameSnapshot reports whether two replies are equal, coordinates bit
// for bit, nil slices apart from empty ones.
func sameSnapshot(a, b SnapshotResponse) bool {
	if a.Partial != b.Partial || a.Processed != b.Processed || a.Shards != b.Shards ||
		!reflect.DeepEqual(a.Cursor, b.Cursor) || (a.Points == nil) != (b.Points == nil) || !sameBits(a.Points, b.Points) {
		return false
	}
	for i := range a.Points {
		if (a.Points[i] == nil) != (b.Points[i] == nil) {
			return false
		}
	}
	return true
}

// mutateSnapshot returns variants of body, the appended form of r: keys
// reordered, whitespace between every token, null points, gens or
// cursor, the first coordinate replaced, and each integer field
// replaced by a negative, signed-zero, overflowing or non-integer
// number. sel picks the replacements, so that one input runs a few
// decodes and the fuzzer's inputs between them run all.
func mutateSnapshot(body []byte, r SnapshotResponse, sel int) [][]byte {
	reordered, _ := json.Marshal(struct {
		Shards    int             `json:"shards"`
		Cursor    SnapshotCursor  `json:"cursor"`
		Processed int64           `json:"processed"`
		Points    []divmax.Vector `json:"points"`
		Partial   bool            `json:"partial"`
	}{r.Shards, r.Cursor, r.Processed, r.Points, r.Partial})
	spaced := strings.NewReplacer(",", " ,\n", ":", "\t: ", "[", "[ ", "]", " ]", "{", "{\r", "}", " }").Replace(string(body))
	out := [][]byte{reordered, []byte(spaced)}
	for _, nulled := range []SnapshotResponse{
		{Partial: r.Partial, Processed: r.Processed, Cursor: r.Cursor, Shards: r.Shards},
		{Partial: r.Partial, Points: r.Points, Processed: r.Processed, Cursor: SnapshotCursor{Poss: r.Cursor.Poss}, Shards: r.Shards},
	} {
		b, _ := AppendSnapshot(nil, &nulled)
		out = append(out, b)
	}
	s := string(body)
	if i, j := strings.Index(s, `"cursor":`), strings.Index(s, `,"shards"`); i >= 0 && j > i {
		out = append(out, []byte(s[:i]+`"cursor":null`+s[j:]))
	}
	if i := strings.Index(s, `"points":[[`); i >= 0 {
		i += len(`"points":[[`)
		if j := i + strings.IndexAny(s[i:], ",]"); j > i {
			nums := []string{"-0", "-0.0", "1e-7", "1E21", "1e21", "12.34560", "1e400", "01"}
			out = append(out, []byte(s[:i]+nums[sel%len(nums)]+s[j:]))
		}
	}
	nums := []string{"-1", "-0", "0", "1e3", "1.0", "01", "999999999999999999", "1000000000000000000", "9223372036854775808", "18446744073709551616"}
	for k, key := range []string{`"processed":`, `"gens":[`, `"poss":[`, `"shards":`} {
		i := strings.Index(s, key)
		if i < 0 {
			continue
		}
		i += len(key)
		j := i + strings.IndexAny(s[i:], ",]}")
		if j <= i {
			continue
		}
		out = append(out, []byte(s[:i]+nums[(sel+k)%len(nums)]+s[j:]))
	}
	return out
}

// TestReadSnapshotReadError: a read error after a complete reply, as
// when a connection resets past the last byte, fails neither path, as
// it fails no json.Decoder; one that cuts the reply is returned.
func TestReadSnapshotReadError(t *testing.T) {
	reset := errors.New("connection reset")
	for _, body := range []string{snapshotCorpus[1], snapshotCorpus[3]} {
		for _, cut := range []int{len(body), len(body) / 2} {
			src := func() io.Reader { return io.MultiReader(strings.NewReader(body[:cut]), errReader{reset}) }
			var want, got SnapshotResponse
			werr := json.NewDecoder(src()).Decode(&want)
			err := ReadSnapshot(src(), &got)
			if (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) || !sameSnapshot(got, want) {
				t.Errorf("%q cut at %d: ReadSnapshot %+v, %v; json.Decoder %+v, %v", body, cut, got, err, want, werr)
			}
		}
	}
}

// TestAppendSnapshotUnsupported: a non-finite coordinate is the error
// json.Encoder returns, with dst as given, and WriteSnapshot then
// writes no body and reports the error.
func TestAppendSnapshotUnsupported(t *testing.T) {
	r := SnapshotResponse{Points: []divmax.Vector{{1, math.NaN()}}}
	werr := json.NewEncoder(new(bytes.Buffer)).Encode(r)
	got, err := AppendSnapshot([]byte("x"), &r)
	var uv *json.UnsupportedValueError
	if !errors.As(err, &uv) || werr == nil || err.Error() != werr.Error() || string(got) != "x" {
		t.Fatalf("AppendSnapshot = %q, %v; json.Encoder error %v", got, err, werr)
	}
	rec := httptest.NewRecorder()
	var reported error
	WriteSnapshot(rec, &r, func(err error) { reported = err })
	if reported == nil || rec.Body.Len() != 0 {
		t.Fatalf("WriteSnapshot wrote %q and reported %v", rec.Body.Bytes(), reported)
	}
}

// TestWriteSnapshot: WriteSnapshot writes json.NewEncoder's bytes for
// replies that fit the pooled buffer and for ones that outgrow it, past
// maxPooledBody too, and for a small reply after a large one.
func TestWriteSnapshot(t *testing.T) {
	large := make([]divmax.Vector, 20000)
	for i := range large {
		large[i] = divmax.Vector{float64(i) / 3, -float64(i), 1e-4 * float64(i), 0, 1, 2, 3, 4}
	}
	for _, n := range []int{0, 10, len(large), 10} {
		r := SnapshotResponse{Partial: n > 0, Points: large[:n], Processed: int64(n), Shards: 1,
			Cursor: SnapshotCursor{Gens: []uint64{uint64(n)}, Poss: []int{n}}}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(&r); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		WriteSnapshot(rec, &r, func(err error) { t.Fatal(err) })
		if !bytes.Equal(rec.Body.Bytes(), want.Bytes()) || rec.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%d points: WriteSnapshot wrote %d bytes (%q), json.Encoder %d", n, rec.Body.Len(), rec.Header().Get("Content-Type"), want.Len())
		}
	}
}
