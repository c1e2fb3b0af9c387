package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"divmax"
	"divmax/internal/api"
	"divmax/internal/sequential"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// tryIngest and tryQuery return errors instead of failing the test, so
// they are safe to call from worker goroutines (t.Fatal must only run on
// the test goroutine).
func tryIngest(url string, pts []divmax.Vector) (ingestResponse, error) {
	var out ingestResponse
	body, err := json.Marshal(ingestRequest{Points: pts})
	if err != nil {
		return out, err
	}
	resp, err := http.Post(url+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("ingest: status %d", resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

func tryQuery(url string, k int, m divmax.Measure) (queryResponse, error) {
	var out queryResponse
	resp, err := http.Get(fmt.Sprintf("%s/query?k=%d&measure=%s", url, k, m))
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("query: status %d", resp.StatusCode)
	}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

func postIngest(t *testing.T, url string, pts []divmax.Vector) ingestResponse {
	t.Helper()
	out, err := tryIngest(url, pts)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func getQuery(t *testing.T, url string, k int, m divmax.Measure) queryResponse {
	t.Helper()
	out, err := tryQuery(url, k, m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func getStats(t *testing.T, url string) statsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var out statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func clusterPoints(rng *rand.Rand, centers []divmax.Vector, perCluster int, spread float64) []divmax.Vector {
	var pts []divmax.Vector
	for i := 0; i < perCluster; i++ {
		for _, c := range centers {
			p := make(divmax.Vector, len(c))
			for j := range c {
				p[j] = c[j] + rng.Float64()*spread
			}
			pts = append(pts, p)
		}
	}
	rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return pts
}

func TestMergedShardsStayInEnvelope(t *testing.T) {
	// The shard-merge quality contract: for every measure, the merged
	// per-shard core-set solution must land in the same neighbourhood the
	// repo's integration test demands of every offline pipeline — at
	// least half the sequential value on well-separated clusters.
	rng := rand.New(rand.NewSource(99))
	pts := clusterPoints(rng, []divmax.Vector{{0, 0}, {800, 0}, {0, 800}, {800, 800}, {400, 400}}, 60, 10)
	k := 5

	_, ts := newTestServer(t, Config{Shards: 4, MaxK: k, KPrime: 15, Buffer: 8})
	for i := 0; i < len(pts); i += 50 {
		end := i + 50
		if end > len(pts) {
			end = len(pts)
		}
		postIngest(t, ts.URL, pts[i:end])
	}

	for _, m := range divmax.Measures {
		_, seqVal := divmax.MaxDiversity(m, pts, k, divmax.Euclidean)
		got := getQuery(t, ts.URL, k, m)
		if got.Processed != int64(len(pts)) {
			t.Fatalf("%v: processed %d, want %d", m, got.Processed, len(pts))
		}
		if len(got.Solution) != k {
			t.Fatalf("%v: solution size %d, want %d", m, len(got.Solution), k)
		}
		val, _ := divmax.Evaluate(m, got.Solution, divmax.Euclidean)
		if val < seqVal/2 {
			t.Errorf("%v: merged value %v below half of sequential %v", m, val, seqVal)
		}
		if got.Value != val {
			t.Errorf("%v: reported value %v, recomputed %v", m, got.Value, val)
		}
	}
}

func TestParallelIngestAndQuery(t *testing.T) {
	// The -race contract: writers hammering /ingest while readers hammer
	// /query and /stats must be free of data races and every response
	// must be well-formed.
	rng := rand.New(rand.NewSource(7))
	pts := clusterPoints(rng, []divmax.Vector{{0, 0}, {500, 0}, {0, 500}}, 80, 5)

	_, ts := newTestServer(t, Config{Shards: 3, MaxK: 4, KPrime: 12, Buffer: 4})

	const writers, readers, batches = 4, 4, 10
	batch := len(pts) / (writers * batches)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				off := (w*batches + b) * batch
				if _, err := tryIngest(ts.URL, pts[off:off+batch]); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m := divmax.Measures[r%len(divmax.Measures)]
			for i := 0; i < 5; i++ {
				got, err := tryQuery(ts.URL, 3, m)
				if err != nil {
					t.Error(err)
					return
				}
				if len(got.Solution) > 3 {
					t.Errorf("query returned %d points for k=3", len(got.Solution))
				}
				if resp, err := http.Get(ts.URL + "/stats"); err != nil {
					t.Error(err)
					return
				} else {
					resp.Body.Close()
				}
			}
		}(r)
	}
	wg.Wait()

	// The query first: its snapshot requests queue behind every batch the
	// writers enqueued, so once it returns the shards have processed
	// everything and the stats counters are settled.
	final := getQuery(t, ts.URL, 3, divmax.RemoteEdge)
	want := int64(writers * batches * batch)
	if final.Processed != want {
		t.Fatalf("processed %d, want %d", final.Processed, want)
	}
	if len(final.Solution) != 3 {
		t.Fatalf("final solution size %d, want 3", len(final.Solution))
	}
	stats := getStats(t, ts.URL)
	if stats.IngestedTotal != want {
		t.Fatalf("ingested %d, want %d", stats.IngestedTotal, want)
	}
}

func TestDrainProcessesEverythingThenRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := clusterPoints(rng, []divmax.Vector{{0, 0}, {100, 100}}, 50, 1)

	srv, err := New(Config{Shards: 2, MaxK: 3, KPrime: 6, Buffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postIngest(t, ts.URL, pts)
	srv.Close()
	srv.Close() // idempotent

	var total int64
	for _, sh := range srv.shards {
		total += sh.ingested.Load()
	}
	if total != int64(len(pts)) {
		t.Fatalf("drained %d points, want %d", total, len(pts))
	}

	body, _ := json.Marshal(ingestRequest{Points: pts[:1]})
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest after Close: status %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/query?k=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query after Close: status %d, want 503", resp.StatusCode)
	}
	stats := getStats(t, ts.URL)
	if !stats.Draining {
		t.Fatal("stats does not report draining after Close")
	}
}

func TestConfigValidation(t *testing.T) {
	// An explicit kprime below maxk is a configuration error, not
	// something to silently rewrite; 0 takes the 4*maxk default.
	if _, err := New(Config{MaxK: 16, KPrime: 10}); err == nil {
		t.Error("kprime < maxk: expected error")
	}
	srv, err := New(Config{MaxK: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if got := srv.Config().KPrime; got != 64 {
		t.Errorf("defaulted kprime = %d, want 64", got)
	}
}

func TestIngestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 3, KPrime: 6})

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`{"points": [[1,2], [3]]}`); code != http.StatusBadRequest {
		t.Errorf("mixed dimensions: status %d, want 400", code)
	}
	if code := post(`{"points": [[]]}`); code != http.StatusBadRequest {
		t.Errorf("zero-dimensional point: status %d, want 400", code)
	}
	if code := post(`not json`); code != http.StatusBadRequest {
		t.Errorf("bad JSON: status %d, want 400", code)
	}
	if code := post(`{"points": [[1,2]]}{"points": [[3,4]]}`); code != http.StatusBadRequest {
		t.Errorf("concatenated bodies: status %d, want 400", code)
	}
	// Trailing data that starts with a closing delimiter is trailing data
	// too, though json.Decoder.More reports false before one.
	for _, body := range []string{`{"points": [[1,2]]} }`, `{"points": [[1,2]]}]`} {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("%q: status %d, want 400", body, code)
		}
	}
	if code := post(`{"points": [[1,2]]}`); code != http.StatusOK {
		t.Errorf("valid ingest: status %d, want 200", code)
	}
	if code := post(`{"points": [[1,2,3]]}`); code != http.StatusBadRequest {
		t.Errorf("dimension change across requests: status %d, want 400", code)
	}

	resp, err := http.Get(ts.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: status %d, want 405", resp.StatusCode)
	}
}

// TestBatchBodyLimit: a body past maxIngestBody is 413
// payload_too_large on /v1/ingest and /v1/delete, whether the limit cuts
// the JSON value or only the whitespace after a complete one, and
// nothing of it is ingested.
func TestBatchBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 3, KPrime: 6})
	obj := `{"points": [[1,2]]}`
	pad := func(s string, n int) string { return s + strings.Repeat(" ", n-len(s)) }
	overLimit := []string{pad(`{"points": [[1,2],`, maxIngestBody+1), pad(obj, maxIngestBody+1)}
	for _, path := range []string{"/ingest", "/delete"} {
		for _, body := range overLimit {
			resp, err := http.Post(ts.URL+api.Prefix+path, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s, %q...: status %d, want 413", path, body[:20], resp.StatusCode)
			}
			if env := decodeErrorEnvelope(t, resp); env.Error.Code != api.CodePayloadTooLarge {
				t.Errorf("%s, %q...: code %q, want %q", path, body[:20], env.Error.Code, api.CodePayloadTooLarge)
			}
		}
	}
	if st := getStats(t, ts.URL); st.IngestedTotal != 0 || st.DeletesRequested != 0 {
		t.Fatalf("rejected bodies reached the shards: ingested %d, deletes %d", st.IngestedTotal, st.DeletesRequested)
	}
}

func TestQueryValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 3, KPrime: 6})

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/query?k=0"); code != http.StatusBadRequest {
		t.Errorf("k=0: status %d, want 400", code)
	}
	if code := get("/query?k=4"); code != http.StatusBadRequest {
		t.Errorf("k>maxk: status %d, want 400", code)
	}
	if code := get("/query?measure=nope"); code != http.StatusBadRequest {
		t.Errorf("bad measure: status %d, want 400", code)
	}

	// Query on an empty server: well-formed, empty solution. Remote-edge
	// matters here: it evaluates to +Inf on fewer than 2 points, which
	// the handler must report as 0 (JSON cannot encode non-finite
	// numbers).
	for _, m := range []divmax.Measure{divmax.RemoteEdge, divmax.RemoteClique} {
		got := getQuery(t, ts.URL, 2, m)
		if len(got.Solution) != 0 || got.Processed != 0 || got.Value != 0 {
			t.Errorf("%v: empty server query = %+v, want empty with value 0", m, got)
		}
	}

	// k=1 on a populated server: min-based measures are degenerate on a
	// single point and must also report value 0, not an empty body.
	postIngest(t, ts.URL, []divmax.Vector{{0, 0}, {5, 5}})
	got := getQuery(t, ts.URL, 1, divmax.RemoteEdge)
	if len(got.Solution) != 1 || got.Value != 0 {
		t.Errorf("k=1 query = %+v, want 1 point with value 0", got)
	}
}

func TestQueryDefaultsAndHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 4, KPrime: 8})
	postIngest(t, ts.URL, []divmax.Vector{{0, 0}, {1, 0}, {0, 1}, {5, 5}, {9, 2}})

	// No parameters: k defaults to MaxK, measure to remote-edge.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.K != 4 || got.Measure != divmax.RemoteEdge.String() {
		t.Errorf("defaults = (k=%d, measure=%s), want (4, remote-edge)", got.K, got.Measure)
	}
	if len(got.Solution) != 4 {
		t.Errorf("solution size %d, want 4", len(got.Solution))
	}

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Errorf("healthz: status %d", hr.StatusCode)
	}
}

func TestStatsReportBatchSizes(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 4})
	rng := rand.New(rand.NewSource(31))
	// Two ingests of 20 points (2 clusters × 10) over 2 shards: each
	// shard sees 2 batches of 10 points.
	for r := 0; r < 2; r++ {
		postIngest(t, ts.URL, clusterPoints(rng, []divmax.Vector{{0, 0}, {50, 50}}, 10, 1))
	}
	// A query drains the shard channels (snapshot requests are answered
	// in order after the buffered batches), so the counters are settled.
	getQuery(t, ts.URL, 2, divmax.RemoteEdge)
	stats := getStats(t, ts.URL)
	for _, sh := range stats.Shards {
		if sh.Batches != 2 || sh.Ingested != 20 {
			t.Fatalf("shard %d: %d batches of %d points, want 2 of 20", sh.ID, sh.Batches, sh.Ingested)
		}
		if sh.LastBatch != 10 {
			t.Fatalf("shard %d: last_batch %d, want 10", sh.ID, sh.LastBatch)
		}
		if sh.AvgBatch != 10 {
			t.Fatalf("shard %d: avg_batch %v, want 10", sh.ID, sh.AvgBatch)
		}
	}
}

// TestStatsReportSolveWorkersAndTiledSolves pins the new solver
// telemetry: solve_workers reflects the configured (or defaulted)
// round-2 parallelism, and tiled_solves counts exactly the solves that
// ran through the tiled engine — forced here by shrinking the matrix
// budget below the merged union, which must not change any answer.
func TestStatsReportSolveWorkersAndTiledSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	pts := clusterPoints(rng, []divmax.Vector{{0, 0}, {300, 0}, {0, 300}}, 30, 5)

	srvDefault, tsDefault := newTestServer(t, Config{Shards: 2, MaxK: 4, KPrime: 8})
	if got := srvDefault.Config().SolveWorkers; got < 1 {
		t.Fatalf("defaulted SolveWorkers = %d, want >= 1", got)
	}
	postIngest(t, tsDefault.URL, pts)
	matrixAnswer := getQuery(t, tsDefault.URL, 4, divmax.RemoteClique)
	stats := getStats(t, tsDefault.URL)
	if stats.SolveWorkers != srvDefault.Config().SolveWorkers {
		t.Fatalf("stats solve_workers = %d, want %d", stats.SolveWorkers, srvDefault.Config().SolveWorkers)
	}
	if stats.TiledSolves != 0 {
		t.Fatalf("tiled_solves = %d under the default budget, want 0", stats.TiledSolves)
	}
	if stats.CachedMatrixBytes <= 0 {
		t.Fatal("no retained matrix under the default budget")
	}

	// Force every merged union past the matrix budget: solves now run
	// tiled — counted, matrix-free, and bit-identical.
	origBudget := sequential.MatrixBudget
	sequential.MatrixBudget = 8
	t.Cleanup(func() { sequential.MatrixBudget = origBudget })
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 4, KPrime: 8, SolveWorkers: 3})
	postIngest(t, ts.URL, pts)
	tiledAnswer := getQuery(t, ts.URL, 4, divmax.RemoteClique)
	if !reflect.DeepEqual(tiledAnswer.Solution, matrixAnswer.Solution) {
		t.Fatalf("tiled solve answer %v differs from matrix solve %v", tiledAnswer.Solution, matrixAnswer.Solution)
	}
	getQuery(t, ts.URL, 4, divmax.RemoteClique) // memo hit: must not re-solve
	getQuery(t, ts.URL, 3, divmax.RemoteClique) // same state, new k: one more tiled solve
	stats = getStats(t, ts.URL)
	if stats.SolveWorkers != 3 {
		t.Fatalf("stats solve_workers = %d, want 3", stats.SolveWorkers)
	}
	if stats.TiledSolves != 2 {
		t.Fatalf("tiled_solves = %d, want 2 (two distinct (measure,k) solves)", stats.TiledSolves)
	}
	if stats.CachedMatrixBytes != 0 {
		t.Fatalf("cached_matrix_bytes = %d in tiled mode, want 0", stats.CachedMatrixBytes)
	}
}

// TestPooledBuffersDoNotAliasRetainedPoints guards the buffer recycling
// on the ingest path: shards retain accepted points indefinitely, so a
// recycled decode or batch buffer that still referenced them would let a
// later request corrupt the stored core-set. Every queried solution
// point must be bit-identical to some ingested point.
func TestPooledBuffersDoNotAliasRetainedPoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 3, MaxK: 4})
	seen := make(map[[2]float64]bool)
	rng := rand.New(rand.NewSource(33))
	// Many small sequential requests maximize pool reuse.
	for r := 0; r < 60; r++ {
		batch := make([]divmax.Vector, 5)
		for i := range batch {
			p := divmax.Vector{rng.Float64() * 1000, rng.Float64() * 1000}
			batch[i] = p
			seen[[2]float64{p[0], p[1]}] = true
		}
		postIngest(t, ts.URL, batch)
	}
	for _, m := range []divmax.Measure{divmax.RemoteEdge, divmax.RemoteClique} {
		res := getQuery(t, ts.URL, 4, m)
		if len(res.Solution) == 0 {
			t.Fatalf("%v: empty solution", m)
		}
		for _, p := range res.Solution {
			if len(p) != 2 || !seen[[2]float64{p[0], p[1]}] {
				t.Fatalf("%v: solution point %v was never ingested (buffer corruption?)", m, p)
			}
		}
	}
}

// TestStatsSplitCacheMissCauses covers the observability split of
// query_cache_misses: a cold miss (first query of a family, nothing
// cached yet) versus an invalidated miss (a shard accepted a batch
// since the cached merge), and the resolution counters — every miss
// ends as either a delta patch or a full rebuild, and a server with
// patching disabled (negative DeltaBudget) resolves every miss as a
// full rebuild.
func TestStatsSplitCacheMissCauses(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := clusterPoints(rng, []divmax.Vector{{0, 0}, {300, 300}}, 20, 5)

	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 4, KPrime: 8})
	postIngest(t, ts.URL, pts)
	getQuery(t, ts.URL, 3, divmax.RemoteEdge)   // cold: SMM family
	getQuery(t, ts.URL, 3, divmax.RemoteClique) // cold: SMM-EXT family
	st := getStats(t, ts.URL)
	if st.MissesCold != 2 || st.MissesInvalidated != 0 {
		t.Fatalf("after first queries: cold=%d invalidated=%d, want 2/0", st.MissesCold, st.MissesInvalidated)
	}
	if st.FullRebuilds != 2 || st.DeltaPatches != 0 {
		t.Fatalf("cold misses resolved as %d rebuilds / %d patches, want 2/0", st.FullRebuilds, st.DeltaPatches)
	}

	postIngest(t, ts.URL, clusterPoints(rng, []divmax.Vector{{900, 900}}, 6, 2))
	getQuery(t, ts.URL, 3, divmax.RemoteEdge) // stale: ingest invalidated
	getQuery(t, ts.URL, 3, divmax.RemoteEdge) // current again: a hit
	st = getStats(t, ts.URL)
	if st.MissesCold != 2 || st.MissesInvalidated != 1 {
		t.Fatalf("after ingest: cold=%d invalidated=%d, want 2/1", st.MissesCold, st.MissesInvalidated)
	}
	if st.CacheMisses != st.MissesCold+st.MissesInvalidated {
		t.Fatalf("total misses %d ≠ cold %d + invalidated %d", st.CacheMisses, st.MissesCold, st.MissesInvalidated)
	}
	if st.CacheMisses != st.DeltaPatches+st.FullRebuilds {
		t.Fatalf("misses %d ≠ patches %d + rebuilds %d", st.CacheMisses, st.DeltaPatches, st.FullRebuilds)
	}
	if st.CacheHits != 1 {
		t.Fatalf("hits = %d, want 1", st.CacheHits)
	}

	// Patching disabled: the same churn resolves every miss as a full
	// rebuild and reports no patches.
	_, off := newTestServer(t, Config{Shards: 2, MaxK: 4, KPrime: 8, DeltaBudget: -1})
	postIngest(t, off.URL, pts)
	getQuery(t, off.URL, 3, divmax.RemoteEdge)
	postIngest(t, off.URL, pts[:3])
	getQuery(t, off.URL, 3, divmax.RemoteEdge)
	ost := getStats(t, off.URL)
	if ost.DeltaPatches != 0 || ost.FullRebuilds != ost.CacheMisses || ost.MissesInvalidated != 1 {
		t.Fatalf("patching-disabled server: patches=%d rebuilds=%d misses=%d invalidated=%d",
			ost.DeltaPatches, ost.FullRebuilds, ost.CacheMisses, ost.MissesInvalidated)
	}
}

// TestQueryReportsPatched: the /query response must flag the query that
// repaired a stale cache incrementally, and only that query.
func TestQueryReportsPatched(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 4, KPrime: 8, DeltaBudget: 16})
	postIngest(t, ts.URL, clusterPoints(rng, []divmax.Vector{{0, 0}, {500, 500}}, 15, 4))
	cold := getQuery(t, ts.URL, 3, divmax.RemoteEdge)
	if cold.Cached || cold.Patched {
		t.Fatalf("cold query reported cached=%v patched=%v", cold.Cached, cold.Patched)
	}
	// Churn until a query reports a patch (absorbed batches patch with
	// empty deltas; grown core-sets patch with appends — either way the
	// flag must surface).
	patchedSeen := false
	for round := 0; round < 10 && !patchedSeen; round++ {
		postIngest(t, ts.URL, clusterPoints(rng, []divmax.Vector{{float64(10 * round), 250}}, 2, 1))
		q := getQuery(t, ts.URL, 3, divmax.RemoteEdge)
		if q.Cached && q.Patched {
			t.Fatal("query reported both cached and patched")
		}
		patchedSeen = patchedSeen || q.Patched
		again := getQuery(t, ts.URL, 3, divmax.RemoteEdge)
		if !again.Cached || again.Patched {
			t.Fatalf("repeat query reported cached=%v patched=%v", again.Cached, again.Patched)
		}
	}
	if !patchedSeen {
		st := getStats(t, ts.URL)
		t.Fatalf("no query reported patched across the churn (stats: %+v)", st)
	}
}
