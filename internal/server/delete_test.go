package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"testing"

	"divmax"
	"divmax/internal/api"
)

// tryDelete mirrors tryIngest for POST /delete: an error instead of a
// test failure, safe from worker goroutines.
func tryDelete(url string, pts []divmax.Vector) (deleteResponse, error) {
	var out deleteResponse
	body, err := json.Marshal(deleteRequest{Points: pts})
	if err != nil {
		return out, err
	}
	resp, err := http.Post(url+"/delete", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("delete: status %d", resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

func postDelete(t *testing.T, url string, pts []divmax.Vector) deleteResponse {
	t.Helper()
	out, err := tryDelete(url, pts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDeleteEndToEnd is the tentpole's acceptance path: ingest a
// clustered stream, wipe out one entire cluster by value, and require
// that (a) every point is classified (evicting/spare/tombstone sum to
// the request), (b) deleting a whole cluster evicts retained core-set
// points somewhere, (c) the post-deletion solution contains no deleted
// value, and (d) its quality stays in the same envelope versus the
// brute-force sequential solve over the surviving ground set that the
// repo demands of every pipeline.
func TestDeleteEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	centers := []divmax.Vector{{0, 0}, {900, 0}, {0, 900}, {900, 900}}
	pts := clusterPoints(rng, centers, 25, 5)
	k := 4

	_, ts := newTestServer(t, Config{Shards: 2, MaxK: k, KPrime: 12})
	postIngest(t, ts.URL, pts)
	before := getQuery(t, ts.URL, k, divmax.RemoteEdge)
	if len(before.Solution) != k {
		t.Fatalf("pre-delete solution size %d, want %d", len(before.Solution), k)
	}

	// Partition the stream: doomed = every point of the {900,900}
	// cluster, live = the rest.
	var doomed, live []divmax.Vector
	for _, p := range pts {
		if p[0] > 800 && p[1] > 800 {
			doomed = append(doomed, p)
		} else {
			live = append(live, p)
		}
	}
	if len(doomed) != 25 {
		t.Fatalf("cluster partition found %d doomed points, want 25", len(doomed))
	}

	del := postDelete(t, ts.URL, doomed)
	if del.Requested != len(doomed) || del.Shards != 2 {
		t.Fatalf("delete response %+v, want requested=%d shards=2", del, len(doomed))
	}
	if del.Evicted+del.Spares+del.Tombstones != del.Requested {
		t.Fatalf("delete outcomes %d+%d+%d do not sum to requested %d",
			del.Evicted, del.Spares, del.Tombstones, del.Requested)
	}
	if del.Evicted == 0 {
		t.Fatal("deleting an entire well-separated cluster evicted nothing")
	}

	deleted := make(map[[2]float64]bool, len(doomed))
	for _, p := range doomed {
		deleted[[2]float64{p[0], p[1]}] = true
	}
	for _, m := range divmax.Measures {
		got := getQuery(t, ts.URL, k, m)
		for _, p := range got.Solution {
			if deleted[[2]float64{p[0], p[1]}] {
				t.Fatalf("%v: solution contains deleted point %v", m, p)
			}
		}
		_, seqVal := divmax.MaxDiversity(m, live, k, divmax.Euclidean)
		val, _ := divmax.Evaluate(m, got.Solution, divmax.Euclidean)
		if val < seqVal/2 {
			t.Errorf("%v: post-deletion value %v below half of sequential %v over the surviving set", m, val, seqVal)
		}
	}

	st := getStats(t, ts.URL)
	if st.DeletesRequested != int64(len(doomed)) {
		t.Fatalf("stats deletes_requested = %d, want %d", st.DeletesRequested, len(doomed))
	}
	if st.DeletesEvicting != int64(del.Evicted) || st.DeletesSpares != int64(del.Spares) || st.DeletesTombstoned != int64(del.Tombstones) {
		t.Fatalf("stats delete split %d/%d/%d disagrees with response %d/%d/%d",
			st.DeletesEvicting, st.DeletesSpares, st.DeletesTombstoned,
			del.Evicted, del.Spares, del.Tombstones)
	}
	var shardRemoved int64
	for _, sh := range st.Shards {
		shardRemoved += sh.Deleted
	}
	if shardRemoved == 0 {
		t.Fatal("no shard reported deleted points after an evicting delete")
	}
}

// TestDeleteKeepsPatchingWhenNonEvicting pins the generation contract
// that makes deletion cheap at steady state: a delete that removes
// nothing retained (a pure tombstone broadcast) invalidates the query
// cache — the response must reflect a deleted-free view — but leaves
// every core-set generation alone, so the stale query resolves as a
// delta patch, not a rebuild.
func TestDeleteKeepsPatchingWhenNonEvicting(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 4, KPrime: 8, DeltaBudget: 16})
	postIngest(t, ts.URL, clusterPoints(rng, []divmax.Vector{{0, 0}, {500, 500}}, 20, 4))
	getQuery(t, ts.URL, 3, divmax.RemoteEdge)

	del := postDelete(t, ts.URL, []divmax.Vector{{-1000, -1000}, {2000, 2000}})
	if del.Tombstones != 2 || del.Evicted != 0 || del.Spares != 0 {
		t.Fatalf("never-ingested deletes classified as %+v, want 2 tombstones", del)
	}
	q := getQuery(t, ts.URL, 3, divmax.RemoteEdge)
	if q.Cached {
		t.Fatal("query after a delete served the unvalidated cached state")
	}
	if !q.Patched {
		t.Fatal("non-evicting delete forced a full rebuild; want a delta patch")
	}
}

// decodeErrorEnvelope asserts a non-2xx response carries the uniform
// {"error":{"code","message"}} envelope and returns it.
func decodeErrorEnvelope(t *testing.T, resp *http.Response) api.ErrorEnvelope {
	t.Helper()
	defer resp.Body.Close()
	var env api.ErrorEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatalf("error body is not an envelope: %v", err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("error envelope missing code or message: %+v", env)
	}
	return env
}

func TestDeleteValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 3, KPrime: 6})

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/delete", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// An empty server accepts deletes of any dimension: everything is a
	// tombstone.
	if del := postDelete(t, ts.URL, []divmax.Vector{{1, 2, 3}}); del.Tombstones != 1 {
		t.Fatalf("delete on empty server = %+v, want 1 tombstone", del)
	}
	if del := postDelete(t, ts.URL, nil); del.Requested != 0 || del.Shards != 2 {
		t.Fatalf("empty delete = %+v, want requested=0 shards=2", del)
	}

	postIngest(t, ts.URL, []divmax.Vector{{0, 0}, {5, 5}})

	if resp := post(`not json`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", resp.StatusCode)
	} else if env := decodeErrorEnvelope(t, resp); env.Error.Code != api.CodeBadRequest {
		t.Errorf("bad JSON: code %q, want %q", env.Error.Code, api.CodeBadRequest)
	}
	if resp := post(`{"points": [[1,2], [3]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mixed dimensions: status %d, want 400", resp.StatusCode)
	} else {
		decodeErrorEnvelope(t, resp)
	}
	if resp := post(`{"points": [[1,2,3]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("dimension mismatch: status %d, want 400", resp.StatusCode)
	} else {
		decodeErrorEnvelope(t, resp)
	}
	if resp := post(`{"points": [[1,2]]}{"points": [[3,4]]}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("concatenated bodies: status %d, want 400", resp.StatusCode)
	} else {
		decodeErrorEnvelope(t, resp)
	}
	for _, body := range []string{`{"points": [[1,2]]} }`, `{"points": [[1,2]]}]`} {
		if resp := post(body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", body, resp.StatusCode)
		} else {
			decodeErrorEnvelope(t, resp)
		}
	}

	resp, err := http.Get(ts.URL + "/delete")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /delete: status %d, want 405", resp.StatusCode)
	}
	if env := decodeErrorEnvelope(t, resp); env.Error.Code != api.CodeMethodNotAllowed {
		t.Errorf("GET /delete: code %q, want %q", env.Error.Code, api.CodeMethodNotAllowed)
	}
}

// TestDeleteEverythingThenReQuery drives the stream to empty and back:
// deleting every ingested value must leave a well-formed empty answer,
// and re-ingesting must restore service.
func TestDeleteEverythingThenReQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 3, KPrime: 6})
	pts := []divmax.Vector{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}}
	postIngest(t, ts.URL, pts)
	getQuery(t, ts.URL, 2, divmax.RemoteEdge)

	del := postDelete(t, ts.URL, pts)
	if del.Evicted+del.Spares != len(pts) {
		t.Fatalf("deleting the whole stream removed %d+%d retained points, want %d",
			del.Evicted, del.Spares, len(pts))
	}
	q := getQuery(t, ts.URL, 2, divmax.RemoteEdge)
	if len(q.Solution) != 0 || q.Value != 0 {
		t.Fatalf("query after deleting everything = %+v, want empty with value 0", q)
	}

	postIngest(t, ts.URL, []divmax.Vector{{1, 1}, {99, 99}})
	q = getQuery(t, ts.URL, 2, divmax.RemoteEdge)
	if len(q.Solution) != 2 {
		t.Fatalf("query after re-ingest returned %d points, want 2", len(q.Solution))
	}
}
