package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"divmax"
	"divmax/internal/api"
	"divmax/internal/server"
)

// startHarness boots an in-process cluster with a goroutine-leak check
// that fires after everything is closed.
func startHarness(t *testing.T, opts HarnessOptions) *Harness {
	t.Helper()
	before := runtime.NumGoroutine()
	h, err := StartCluster(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		h.Close()
		checkGoroutines(t, before)
	})
	if err := h.WaitWorkersReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	return h
}

// checkGoroutines fails the test if the goroutine count has not
// returned to (near) its pre-harness level; the slack absorbs runtime
// bookkeeping goroutines.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+3 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after close\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// newRefServer fronts a single-process reference server for the
// equivalence tests.
func newRefServer(t *testing.T, srv *server.Server) string {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func coordClient(t *testing.T, h *Harness) *Client {
	t.Helper()
	return NewClient(ClientConfig{BaseURL: h.CoordServer.URL})
}

func testVecs(seed int64, n, d int) []divmax.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]divmax.Vector, n)
	for i := range out {
		v := make(divmax.Vector, d)
		for j := range v {
			v[j] = rng.NormFloat64() * 50
		}
		out[i] = v
	}
	return out
}

// bucketByRing deals pts into per-worker buckets exactly as the
// coordinator's all-alive ring will, then trims every bucket to the
// shortest one so aligned round-robin feeding is possible.
func bucketByRing(pts []divmax.Vector, workers int) [][]divmax.Vector {
	r := newRing(workers, defaultVNodes)
	alive := func(int) bool { return true }
	buckets := make([][]divmax.Vector, workers)
	for _, p := range pts {
		o := r.owner(hashPoint(p), alive)
		buckets[o] = append(buckets[o], p)
	}
	m := len(buckets[0])
	for _, b := range buckets[1:] {
		m = min(m, len(b))
	}
	for i := range buckets {
		buckets[i] = buckets[i][:m]
	}
	return buckets
}

// round r across the trimmed buckets: [b0[r], b1[r], ..., bW-1[r]] —
// the batch shape under which a W-shard single-process server's
// round-robin dealing assigns bucket i's stream to shard i, matching
// the coordinator's ring assignment of bucket i to worker i.
func roundBatch(buckets [][]divmax.Vector, r int) []divmax.Vector {
	out := make([]divmax.Vector, len(buckets))
	for i := range buckets {
		out[i] = buckets[i][r]
	}
	return out
}

func assertSameAnswer(t *testing.T, what string, a, b api.QueryResponse) {
	t.Helper()
	if a.Processed != b.Processed {
		t.Fatalf("%s: processed %d vs %d", what, a.Processed, b.Processed)
	}
	if a.CoresetSize != b.CoresetSize {
		t.Fatalf("%s: coreset_size %d vs %d", what, a.CoresetSize, b.CoresetSize)
	}
	if a.Exact != b.Exact {
		t.Fatalf("%s: exact %v vs %v", what, a.Exact, b.Exact)
	}
	if math.Float64bits(a.Value) != math.Float64bits(b.Value) {
		t.Fatalf("%s: value bits %x vs %x (%v vs %v)", what, math.Float64bits(a.Value), math.Float64bits(b.Value), a.Value, b.Value)
	}
	if len(a.Solution) != len(b.Solution) {
		t.Fatalf("%s: solution sizes %d vs %d", what, len(a.Solution), len(b.Solution))
	}
	for i := range a.Solution {
		if len(a.Solution[i]) != len(b.Solution[i]) {
			t.Fatalf("%s: solution[%d] dims differ", what, i)
		}
		for j := range a.Solution[i] {
			if math.Float64bits(a.Solution[i][j]) != math.Float64bits(b.Solution[i][j]) {
				t.Fatalf("%s: solution[%d][%d] bits differ: %v vs %v", what, i, j, a.Solution[i][j], b.Solution[i][j])
			}
		}
	}
}

func TestCoordinatorBasics(t *testing.T) {
	h := startHarness(t, HarnessOptions{
		Workers:     3,
		Worker:      server.Config{Shards: 2, MaxK: 4, KPrime: 8},
		Coordinator: Config{MaxK: 4, ProbeInterval: -1},
	})
	c := coordClient(t, h)
	ctx := context.Background()

	pts := testVecs(7, 90, 3)
	ing, err := c.Ingest(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	if ing.Accepted != 90 || ing.Shards != 3 {
		t.Fatalf("ingest = %+v, want accepted 90 across 3 workers", ing)
	}

	q, err := c.Query(ctx, "remote-edge", 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.Processed != 90 || q.CoresetSize == 0 || len(q.Solution) != 4 || q.Degraded {
		t.Fatalf("query = %+v, want 90 processed, 4 points, not degraded", q)
	}
	// Same state again: served from the coordinator's merge cache.
	q2, err := c.Query(ctx, "remote-edge", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.Cached {
		t.Fatalf("repeat query not cached: %+v", q2)
	}
	assertSameAnswer(t, "cached repeat", q, q2)

	// The proxy family answers too.
	if _, err := c.Query(ctx, "remote-clique", 3); err != nil {
		t.Fatal(err)
	}

	// Deletes broadcast and fold outcomes.
	del, err := c.Delete(ctx, []divmax.Vector{pts[0], {9e5, 9e5, 9e5}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if del.Requested != 2 || len(del.Outcomes) != 2 {
		t.Fatalf("delete = %+v, want 2 outcomes", del)
	}
	if del.Outcomes[1] != int(divmax.DeleteAbsent) {
		t.Fatalf("outcomes[1] = %d, want absent for a never-ingested point", del.Outcomes[1])
	}
	if del.Outcomes[0] == int(divmax.DeleteAbsent) {
		t.Fatalf("outcomes[0] = absent, want spare or evicted for an ingested point")
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Workers) != 3 || st.Quorum != 2 || st.WorkersEvicted != 0 {
		t.Fatalf("stats = %+v, want 3 healthy workers, quorum 2", st)
	}
	var ingested int64
	for _, ws := range st.Workers {
		if ws.State != "healthy" {
			t.Fatalf("worker %d state %q, want healthy", ws.ID, ws.State)
		}
		ingested += ws.IngestedPoints
	}
	if ingested != 90 || st.IngestedTotal != 90 {
		t.Fatalf("ingested sum = %d (total %d), want 90", ingested, st.IngestedTotal)
	}

	// The legacy unversioned alias serves the same handlers.
	resp, err := http.Get(h.CoordServer.URL + "/query?k=2")
	if err != nil {
		t.Fatal(err)
	}
	var lq api.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&lq); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || lq.K != 2 {
		t.Fatalf("legacy /query: status %d, k %d", resp.StatusCode, lq.K)
	}

	// Contract violations reject exactly like a single server.
	if _, err := c.Query(ctx, "remote-edge", 99); err == nil {
		t.Fatal("k beyond maxk accepted")
	}
	if _, err := c.Ingest(ctx, []divmax.Vector{{1, 2}}); err == nil {
		t.Fatal("dimension change accepted")
	}
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("readyz on a healthy cluster: %v", err)
	}
}

// TestCoordinatorBatchBodies: the coordinator reads /v1/ingest and
// /v1/delete bodies exactly as a worker does — malformed JSON and any
// trailing data (including a stray '}' or ']') are 400, a body past
// maxIngestBody is 413 whether the limit cuts the value or only the
// whitespace after it — and a rejected body reaches no worker.
func TestCoordinatorBatchBodies(t *testing.T) {
	h := startHarness(t, HarnessOptions{
		Workers:     2,
		Worker:      server.Config{Shards: 1, MaxK: 4, KPrime: 8},
		Coordinator: Config{MaxK: 4, ProbeInterval: -1},
	})
	post := func(path, body string) (int, api.ErrorEnvelope) {
		t.Helper()
		resp, err := http.Post(h.CoordServer.URL+api.Prefix+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env api.ErrorEnvelope
		json.NewDecoder(resp.Body).Decode(&env)
		return resp.StatusCode, env
	}
	obj := `{"points": [[1,2]]}`
	pad := func(s string, n int) string { return s + strings.Repeat(" ", n-len(s)) }
	overLimit := []string{pad(`{"points": [[1,2],`, maxIngestBody+1), pad(obj, maxIngestBody+1)}
	for _, path := range []string{"/ingest", "/delete"} {
		for _, body := range []string{`not json`, obj + obj, obj + ` }`, obj + `]`} {
			if code, env := post(path, body); code != http.StatusBadRequest || env.Error.Code != api.CodeBadRequest {
				t.Errorf("%s %q: status %d code %q, want 400 %s", path, body, code, env.Error.Code, api.CodeBadRequest)
			}
		}
		for _, body := range overLimit {
			if code, env := post(path, body); code != http.StatusRequestEntityTooLarge || env.Error.Code != api.CodePayloadTooLarge {
				t.Errorf("%s %q...: status %d code %q, want 413 %s", path, body[:20], code, env.Error.Code, api.CodePayloadTooLarge)
			}
		}
	}
	for _, wn := range h.Workers {
		st, err := NewClient(ClientConfig{BaseURL: wn.URL()}).Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.IngestedTotal != 0 || st.DeletesRequested != 0 {
			t.Fatalf("a rejected body reached a worker: ingested %d, deletes %d", st.IngestedTotal, st.DeletesRequested)
		}
	}
	if code, _ := post("/ingest", obj); code != http.StatusOK {
		t.Fatalf("valid ingest after the rejected bodies: status %d", code)
	}
}

// TestCoordinatorEquivalence is satellite 3's pin: with every worker
// healthy, the coordinator's answers are bit-for-bit the single-process
// server's on the same shard-partitioned stream — same solutions, same
// value bits, both core-set families, under ingests, deletes, and
// cache patch/rebuild transitions.
func TestCoordinatorEquivalence(t *testing.T) {
	const workers = 3
	h := startHarness(t, HarnessOptions{
		Workers:     workers,
		Worker:      server.Config{Shards: 1, MaxK: 4, KPrime: 8},
		Coordinator: Config{MaxK: 4, ProbeInterval: -1},
	})
	coord := coordClient(t, h)

	ref, err := server.New(server.Config{Shards: workers, MaxK: 4, KPrime: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	refTS := newRefServer(t, ref)
	refc := NewClient(ClientConfig{BaseURL: refTS})

	ctx := context.Background()
	buckets := bucketByRing(testVecs(42, 420, 3), workers)
	rounds := len(buckets[0])
	if rounds < 40 {
		t.Fatalf("only %d aligned rounds, want more spread", rounds)
	}

	compare := func(what string) {
		t.Helper()
		for _, m := range []string{"remote-edge", "remote-clique"} {
			for _, k := range []int{1, 2, 4} {
				qa, err := coord.Query(ctx, m, k)
				if err != nil {
					t.Fatalf("%s: coordinator %s/k=%d: %v", what, m, k, err)
				}
				qb, err := refc.Query(ctx, m, k)
				if err != nil {
					t.Fatalf("%s: reference %s/k=%d: %v", what, m, k, err)
				}
				if qa.Degraded || qa.WorkersMissing != 0 {
					t.Fatalf("%s: healthy cluster answered degraded: %+v", what, qa)
				}
				assertSameAnswer(t, what+"/"+m, qa, qb)
			}
		}
	}

	for r := 0; r < rounds; r++ {
		batch := roundBatch(buckets, r)
		if _, err := coord.Ingest(ctx, batch); err != nil {
			t.Fatalf("round %d: coordinator ingest: %v", r, err)
		}
		if _, err := refc.Ingest(ctx, batch); err != nil {
			t.Fatalf("round %d: reference ingest: %v", r, err)
		}
		// Querying mid-stream exercises the delta-patch path on both
		// sides; the two deletes exercise generation bumps (full
		// rebuilds) and the broadcast/fold path.
		if r%16 == 7 {
			compare(fmt.Sprintf("round %d", r))
		}
		if r == rounds/2 {
			victims := []divmax.Vector{buckets[0][2], buckets[1][5], buckets[2][9]}
			da, err := coord.Delete(ctx, victims, true)
			if err != nil {
				t.Fatal(err)
			}
			db, err := refc.Delete(ctx, victims, true)
			if err != nil {
				t.Fatal(err)
			}
			if da.Evicted != db.Evicted || da.Spares != db.Spares || da.Tombstones != db.Tombstones {
				t.Fatalf("delete fold differs: %+v vs %+v", da, db)
			}
			for i := range da.Outcomes {
				if da.Outcomes[i] != db.Outcomes[i] {
					t.Fatalf("outcome[%d]: %d vs %d", i, da.Outcomes[i], db.Outcomes[i])
				}
			}
		}
	}
	compare("final")

	// The equivalence held across cache transitions, not just cold
	// rebuilds: the coordinator must have patched at least once.
	st, err := coord.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeltaPatches == 0 {
		t.Fatalf("coordinator never delta-patched: %+v", st)
	}
}

// TestCoordinatorRejectedIngestDoesNotPinDim reproduces a restarted
// coordinator in front of populated workers: the coordinator's own
// dataset-dimension tracker is empty, the workers' is not. A batch
// with the wrong dimension must come back 400 (the workers' verdict,
// not a 503 outage) and must NOT claim the coordinator's dimension —
// before the fix, one rejected batch pinned the fresh coordinator to
// the bad dimension and every valid write was refused from then on.
func TestCoordinatorRejectedIngestDoesNotPinDim(t *testing.T) {
	h := startHarness(t, HarnessOptions{
		Workers:     3,
		Worker:      server.Config{Shards: 2, MaxK: 4, KPrime: 8},
		Coordinator: Config{MaxK: 4, ProbeInterval: -1},
	})
	ctx := context.Background()

	// Populate every worker directly (dim 2), bypassing the
	// coordinator — its dim tracker stays 0, like after a restart.
	pts := testVecs(11, 30, 2)
	for _, wn := range h.Workers {
		wc := NewClient(ClientConfig{BaseURL: wn.URL()})
		if _, err := wc.Ingest(ctx, pts); err != nil {
			t.Fatal(err)
		}
	}

	// A dim-3 batch through the coordinator: every worker rejects it,
	// and the caller must see their 400, not "unavailable".
	c := coordClient(t, h)
	_, err := c.Ingest(ctx, testVecs(12, 4, 3))
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusBadRequest {
		t.Fatalf("dim-3 ingest error = %v, want http 400", err)
	}

	// The rejected batch must not have claimed the dimension: dim-2
	// writes keep working.
	if _, err := c.Ingest(ctx, testVecs(13, 4, 2)); err != nil {
		t.Fatalf("dim-2 ingest after rejected dim-3 batch: %v", err)
	}
	if _, err := c.Delete(ctx, []divmax.Vector{pts[0]}, false); err != nil {
		t.Fatalf("dim-2 delete after rejected dim-3 batch: %v", err)
	}

	// And the guard still holds once the dimension is genuinely set.
	if _, err := c.Ingest(ctx, testVecs(14, 2, 5)); err == nil {
		t.Fatal("dim-5 ingest accepted after dim-2 points landed")
	}
}
