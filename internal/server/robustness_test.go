package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"divmax"
	"divmax/internal/api"
	"divmax/internal/faults"
	"divmax/internal/merge"
	"divmax/internal/sequential"
)

// White-box robustness tests: the degraded-answer bit-for-bit contract
// against a reference solve over the surviving shards, the error
// envelopes of the new failure codes pinned byte-identical across the
// /v1 and legacy prefixes, and the readiness probe. The end-to-end
// chaos scenarios live in internal/faults.

func awaitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDegradedAnswerMatchesSurvivorReference pins the acceptance
// criterion of the degradation tentpole: a degraded query's answer is
// bit-for-bit what a reference round-2 solve over the surviving
// shards' merged core-set returns — same union order (shard order),
// same engine, same selection — for a measure of each core-set family.
func TestDegradedAnswerMatchesSurvivorReference(t *testing.T) {
	const k = 4
	inj := faults.New()
	inj.OnBatch(func(shard, batch int) {
		if shard == 2 {
			panic("poisoned batch")
		}
	})
	srv, ts := newTestServer(t, Config{
		Shards: 3, MaxK: k, KPrime: 12, Buffer: 8,
		RestartBudget: -1, DegradedQueries: true, Faults: inj,
	})

	rng := rand.New(rand.NewSource(17))
	pts := clusterPoints(rng, []divmax.Vector{{0, 0}, {700, 0}, {0, 700}, {700, 700}}, 15, 8)
	postIngest(t, ts.URL, pts)
	awaitCond(t, "shard 2 permanent failure", func() bool { return srv.shards[2].failed() })

	for _, m := range []divmax.Measure{divmax.RemoteEdge, divmax.RemoteClique} {
		got := getQuery(t, ts.URL, k, m)
		if !got.Degraded || got.ShardsMissing != 1 {
			t.Fatalf("%v: degraded=%v shards_missing=%d, want true/1", m, got.Degraded, got.ShardsMissing)
		}

		// The reference: the same degraded snapshot round the handler
		// runs, survivors concatenated in shard order, engine built
		// fresh, solved by the index-based round-2 solver.
		var union []divmax.Vector
		var processed int64
		missing := 0
		for i := range srv.shards {
			r, err := shardSource{srv}.Fetch(context.Background(), i, merge.Family(m), nil)
			if err != nil {
				missing++
				continue
			}
			processed += r.Processed
			union = append(union, r.Points...)
		}
		if missing != 1 {
			t.Fatalf("%v: reference round missing %d shards, want 1", m, missing)
		}
		want := sequential.Solve(m, union, k, divmax.Euclidean)
		if eng := sequential.BuildEngine(union, divmax.Euclidean, srv.cfg.SolveWorkers); eng != nil {
			idx := sequential.SolveEngineIdx(m, eng, k)
			want = want[:0]
			for _, j := range idx {
				want = append(want, union[j])
			}
		}
		if !reflect.DeepEqual(got.Solution, want) {
			t.Errorf("%v: degraded solution %v != reference solve %v over the surviving union", m, got.Solution, want)
		}
		if got.Processed != processed || got.CoresetSize != len(union) {
			t.Errorf("%v: processed/coreset_size = %d/%d, want %d/%d", m, got.Processed, got.CoresetSize, processed, len(union))
		}
	}
}

// TestDeadlineEnvelopeAcrossPrefixes: a wedged shard with shedding
// disabled turns every endpoint into 504 deadline_exceeded, and the
// legacy and /v1 bodies are byte-identical.
func TestDeadlineEnvelopeAcrossPrefixes(t *testing.T) {
	inj := faults.New()
	hook, release := faults.Wedge(0)
	inj.OnBatch(hook)
	_, ts := newTestServer(t, Config{
		Shards: 1, MaxK: 4, Buffer: 1, Faults: inj,
		QueryDeadline:  150 * time.Millisecond,
		IngestDeadline: 150 * time.Millisecond,
		ShedWait:       -1, // shedding disabled: the deadline is the only bound
	})
	t.Cleanup(release)

	// Wedge the shard goroutine and fill the one-slot queue.
	postIngest(t, ts.URL, []divmax.Vector{{0, 0}})
	postIngest(t, ts.URL, []divmax.Vector{{1, 1}})

	for _, tc := range []struct {
		name, path, body string
	}{
		{"ingest", "/ingest", `{"points":[[2,2]]}`},
		{"delete", "/delete", `{"points":[[0,0]]}`},
		{"query", "/query?k=2", ""},
	} {
		run := func(prefix string) (int, string, []byte) {
			if tc.body != "" {
				return rawPost(t, ts.URL+prefix+tc.path, tc.body)
			}
			return rawGet(t, ts.URL+prefix+tc.path)
		}
		s1, ct1, b1 := run("")
		s2, ct2, b2 := run(api.Prefix)
		assertSameResponse(t, tc.name, s1, s2, ct1, ct2, b1, b2)
		if s1 != http.StatusGatewayTimeout {
			t.Errorf("%s on wedged shard: status %d (body %s), want 504", tc.name, s1, b1)
		}
		want := fmt.Sprintf("{\"error\":{\"code\":%q,\"message\":\"request deadline exceeded\"}}\n", api.CodeDeadlineExceeded)
		if string(b1) != want {
			t.Errorf("%s envelope %q, want %q", tc.name, b1, want)
		}
	}
}

// TestOverloadedEnvelopeAcrossPrefixes: load shedding — a full shard
// queue for ingest/delete, a saturated inflight-query limiter for
// query — answers 429 overloaded with a Retry-After hint, byte for
// byte the same on both prefixes.
func TestOverloadedEnvelopeAcrossPrefixes(t *testing.T) {
	inj := faults.New()
	hook, release := faults.Wedge(0)
	inj.OnBatch(hook)
	srv, ts := newTestServer(t, Config{
		Shards: 1, MaxK: 4, Buffer: 1, Faults: inj,
		ShedWait:    30 * time.Millisecond,
		MaxInflight: 1,
	})
	t.Cleanup(release)

	postIngest(t, ts.URL, []divmax.Vector{{0, 0}})
	postIngest(t, ts.URL, []divmax.Vector{{1, 1}})

	// Saturate the inflight-query limiter directly so the query path
	// sheds deterministically too.
	srv.querySem <- struct{}{}
	defer func() { <-srv.querySem }()

	for _, tc := range []struct {
		name, path, body string
	}{
		{"ingest", "/ingest", `{"points":[[2,2]]}`},
		{"delete", "/delete", `{"points":[[0,0]]}`},
		{"query", "/query?k=2", ""},
	} {
		run := func(prefix string) (int, string, []byte) {
			if tc.body != "" {
				return rawPost(t, ts.URL+prefix+tc.path, tc.body)
			}
			return rawGet(t, ts.URL+prefix+tc.path)
		}
		s1, ct1, b1 := run("")
		s2, ct2, b2 := run(api.Prefix)
		assertSameResponse(t, tc.name, s1, s2, ct1, ct2, b1, b2)
		if s1 != http.StatusTooManyRequests {
			t.Errorf("%s under overload: status %d (body %s), want 429", tc.name, s1, b1)
		}
		want := fmt.Sprintf("{\"error\":{\"code\":%q,\"message\":\"server: overloaded, retry later\"}}\n", api.CodeOverloaded)
		if string(b1) != want {
			t.Errorf("%s envelope %q, want %q", tc.name, b1, want)
		}
	}

	// The Retry-After hint rounds the shed wait up to a whole second.
	resp, err := http.Get(ts.URL + "/v1/query?k=2")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
}

// TestFailedShardEnvelopeAcrossPrefixes: a permanently failed shard
// answers every endpoint with 503 unavailable naming the shard, byte
// for byte the same on both prefixes — and never hangs.
func TestFailedShardEnvelopeAcrossPrefixes(t *testing.T) {
	inj := faults.New()
	inj.OnBatch(func(shard, batch int) { panic("poisoned batch") })
	srv, ts := newTestServer(t, Config{Shards: 1, MaxK: 4, RestartBudget: -1, Faults: inj})

	postIngest(t, ts.URL, []divmax.Vector{{0, 0}})
	awaitCond(t, "shard failure", func() bool { return srv.shards[0].failed() })

	want := fmt.Sprintf("{\"error\":{\"code\":%q,\"message\":\"server: shard 0 has failed permanently (restart budget exhausted)\"}}\n", api.CodeUnavailable)
	for _, tc := range []struct {
		name, path, body string
	}{
		{"ingest", "/ingest", `{"points":[[2,2]]}`},
		{"delete", "/delete", `{"points":[[0,0]]}`},
		{"query", "/query?k=1", ""},
	} {
		run := func(prefix string) (int, string, []byte) {
			if tc.body != "" {
				return rawPost(t, ts.URL+prefix+tc.path, tc.body)
			}
			return rawGet(t, ts.URL+prefix+tc.path)
		}
		s1, ct1, b1 := run("")
		s2, ct2, b2 := run(api.Prefix)
		assertSameResponse(t, tc.name, s1, s2, ct1, ct2, b1, b2)
		if s1 != http.StatusServiceUnavailable {
			t.Errorf("%s on failed shard: status %d (body %s), want 503", tc.name, s1, b1)
		}
		if string(b1) != want {
			t.Errorf("%s envelope %q, want %q", tc.name, b1, want)
		}
	}
}

// TestReadyzAliasAndDraining: /readyz is served identically on both
// prefixes, answers ok on a healthy server, and flips to 503
// unavailable when the server drains — while /healthz liveness keeps
// answering ok for the still-running process.
func TestReadyzAliasAndDraining(t *testing.T) {
	srv, err := New(Config{Shards: 1, MaxK: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close() // idempotent; the test closes early to test draining

	s1, ct1, b1 := rawGet(t, ts.URL+"/readyz")
	s2, ct2, b2 := rawGet(t, ts.URL+api.Prefix+"/readyz")
	assertSameResponse(t, "readyz", s1, s2, ct1, ct2, b1, b2)
	if s1 != http.StatusOK || string(b1) != "ok\n" {
		t.Fatalf("healthy readyz: status %d body %q, want 200 \"ok\\n\"", s1, b1)
	}

	srv.Close()
	s, _, b := rawGet(t, ts.URL+"/v1/readyz")
	if s != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: status %d (body %s), want 503", s, b)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(b, &env); err != nil || env.Error.Code != api.CodeUnavailable {
		t.Fatalf("draining readyz envelope %q (err %v), want code %q", b, err, api.CodeUnavailable)
	}
	if s, _, b := rawGet(t, ts.URL+"/v1/healthz"); s != http.StatusOK {
		t.Fatalf("draining healthz: status %d (body %s), want 200", s, b)
	}
}
