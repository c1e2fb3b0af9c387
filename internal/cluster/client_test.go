package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"divmax"
	"divmax/internal/api"
)

// captureClient builds a client against handler whose backoff waits are
// captured instead of slept and whose jitter is the identity, so the
// retry schedule is asserted exactly.
func captureClient(t *testing.T, handler http.Handler, cfg ClientConfig) (*Client, *[]time.Duration) {
	t.Helper()
	ts := httptest.NewServer(handler)
	t.Cleanup(ts.Close)
	cfg.BaseURL = ts.URL
	c := NewClient(cfg)
	waits := &[]time.Duration{}
	c.sleep = func(ctx context.Context, d time.Duration) error {
		*waits = append(*waits, d)
		return nil
	}
	c.jitter = func(d time.Duration) time.Duration { return d }
	return c, waits
}

// failNTimes answers the first n requests with status (and Retry-After
// when retryAfter > 0), then succeeds with an empty ingest response.
func failNTimes(n *atomic.Int64, limit int, status, retryAfter int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) <= int64(limit) {
			if retryAfter > 0 {
				w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
			}
			w.WriteHeader(status)
			w.Write([]byte(`{"error":{"code":"unavailable","message":"injected"}}`))
			return
		}
		w.Write([]byte(`{"accepted":1,"shards":1}`))
	})
}

func TestClientBackoffSchedule(t *testing.T) {
	var n atomic.Int64
	c, waits := captureClient(t, failNTimes(&n, 3, http.StatusServiceUnavailable, 0), ClientConfig{
		BackoffBase: 50 * time.Millisecond,
		BackoffCap:  2 * time.Second,
	})
	if _, err := c.Ingest(context.Background(), []divmax.Vector{{1, 2}}); err != nil {
		t.Fatalf("Ingest after retries: %v", err)
	}
	if n.Load() != 4 {
		t.Fatalf("attempts = %d, want 4 (3 failures + success)", n.Load())
	}
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond, 200 * time.Millisecond}
	if len(*waits) != len(want) {
		t.Fatalf("waits = %v, want %v", *waits, want)
	}
	for i, w := range want {
		if (*waits)[i] != w {
			t.Fatalf("wait[%d] = %v, want %v", i, (*waits)[i], w)
		}
	}
}

// TestClientRetryAfterFloor: a 429's Retry-After raises the wait when
// the backoff is shorter — the floor behavior the worker's load
// shedding depends on.
func TestClientRetryAfterFloor(t *testing.T) {
	var n atomic.Int64
	c, waits := captureClient(t, failNTimes(&n, 2, http.StatusTooManyRequests, 1), ClientConfig{
		BackoffBase: 50 * time.Millisecond,
	})
	if _, err := c.Ingest(context.Background(), []divmax.Vector{{1}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	for i, w := range *waits {
		if w != time.Second {
			t.Fatalf("wait[%d] = %v, want 1s (Retry-After floor over %v backoff)", i, w, 50*time.Millisecond<<i)
		}
	}
	if len(*waits) != 2 {
		t.Fatalf("waits = %v, want two floored waits", *waits)
	}
}

// TestClientRetryAfterNotCeiling: a backoff already past the hint is
// not shortened.
func TestClientRetryAfterNotCeiling(t *testing.T) {
	var n atomic.Int64
	c, waits := captureClient(t, failNTimes(&n, 1, http.StatusTooManyRequests, 1), ClientConfig{
		BackoffBase: 3 * time.Second,
		BackoffCap:  5 * time.Second,
	})
	if _, err := c.Ingest(context.Background(), []divmax.Vector{{1}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if len(*waits) != 1 || (*waits)[0] != 3*time.Second {
		t.Fatalf("waits = %v, want [3s] (backoff above the Retry-After hint)", *waits)
	}
}

func TestClientNonRetryable(t *testing.T) {
	var n atomic.Int64
	c, waits := captureClient(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.Add(1)
		api.WriteError(w, http.StatusBadRequest, "bad k")
	}), ClientConfig{})
	_, err := c.Query(context.Background(), "remote-edge", 99)
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusBadRequest || he.Code != api.CodeBadRequest {
		t.Fatalf("err = %v, want *HTTPError with 400/bad_request", err)
	}
	if n.Load() != 1 || len(*waits) != 0 {
		t.Fatalf("attempts = %d, waits = %v: a 400 must not retry", n.Load(), *waits)
	}
}

// TestClientRetriesDisabled: MaxRetries < 0 means one attempt, raw
// failure — cmd/bench's overload suite counts unretried 429s this way.
func TestClientRetriesDisabled(t *testing.T) {
	var n atomic.Int64
	c, waits := captureClient(t, failNTimes(&n, 100, http.StatusTooManyRequests, 1), ClientConfig{
		MaxRetries: -1,
	})
	_, err := c.Ingest(context.Background(), []divmax.Vector{{1}})
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusTooManyRequests {
		t.Fatalf("err = %v, want raw 429", err)
	}
	if he.RetryAfter != time.Second {
		t.Fatalf("RetryAfter = %v, want 1s parsed from the header", he.RetryAfter)
	}
	if n.Load() != 1 || len(*waits) != 0 {
		t.Fatalf("attempts = %d, waits = %v: MaxRetries=-1 must not retry", n.Load(), *waits)
	}
}

// TestClientContextStopsRetries: the caller's context expiring during a
// backoff surfaces the request error instead of sleeping on.
func TestClientContextStopsRetries(t *testing.T) {
	var n atomic.Int64
	c, _ := captureClient(t, failNTimes(&n, 100, http.StatusServiceUnavailable, 0), ClientConfig{})
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}
	_, err := c.Ingest(ctx, []divmax.Vector{{1}})
	var he *HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want the 503 the last attempt saw", err)
	}
	if n.Load() != 1 {
		t.Fatalf("attempts = %d, want 1 (canceled during the first backoff)", n.Load())
	}
}

func TestBackoffCap(t *testing.T) {
	if d := backoff(50*time.Millisecond, 2*time.Second, 20); d != 2*time.Second {
		t.Fatalf("backoff capped = %v, want 2s", d)
	}
	if d := backoff(50*time.Millisecond, 2*time.Second, 0); d != 50*time.Millisecond {
		t.Fatalf("backoff attempt 0 = %v, want base", d)
	}
}

// TestDefaultJitterRange: equal jitter keeps every wait within
// [d/2, d] — spread, never collapse.
func TestDefaultJitterRange(t *testing.T) {
	c := NewClient(ClientConfig{BaseURL: "http://unused"})
	d := 800 * time.Millisecond
	for i := 0; i < 200; i++ {
		if j := c.jitter(d); j < d/2 || j > d {
			t.Fatalf("jitter(%v) = %v, outside [d/2, d]", d, j)
		}
	}
}

// TestClientRetryCountsViaOnRetry: the coordinator's per-worker retry
// counter hook observes every backoff.
func TestClientRetryCountsViaOnRetry(t *testing.T) {
	var n, retries atomic.Int64
	c, _ := captureClient(t, failNTimes(&n, 2, http.StatusServiceUnavailable, 0), ClientConfig{
		OnRetry: func(time.Duration) { retries.Add(1) },
	})
	if _, err := c.Ingest(context.Background(), []divmax.Vector{{1}}); err != nil {
		t.Fatalf("Ingest: %v", err)
	}
	if retries.Load() != 2 {
		t.Fatalf("OnRetry fired %d times, want 2", retries.Load())
	}
}

// stubWorker serves fixed 2xx bodies by path and counts the connections
// its clients open.
func stubWorker(t *testing.T, bodies map[string]func(w http.ResponseWriter)) (*Client, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		bodies[r.URL.Path](w)
	}))
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return NewClient(ClientConfig{BaseURL: ts.URL, HTTPClient: ts.Client()}), &conns
}

// TestClientReusesConnections: a client reading replies one after
// another keeps one connection, for chunked replies larger than a
// json.Decoder's read-ahead too — full proxy snapshots of 816 points
// at d=8, query answers of 16 points at d=512 — because it leaves every
// body at EOF before closing it.
func TestClientReusesConnections(t *testing.T) {
	snap := api.SnapshotResponse{Points: testVecs(1, 816, 8), Processed: 4096, Shards: 2,
		Cursor: api.SnapshotCursor{Gens: []uint64{3, 4}, Poss: []int{400, 416}}}
	query := api.QueryResponse{Measure: "remote-edge", K: 16, Solution: testVecs(2, 16, 512), Value: 1}
	c, conns := stubWorker(t, map[string]func(http.ResponseWriter){
		"/v1/snapshot": func(w http.ResponseWriter) { json.NewEncoder(w).Encode(snap) },
		"/v1/query":    func(w http.ResponseWriter) { json.NewEncoder(w).Encode(query) },
	})
	ctx := context.Background()
	for i := range 50 {
		got, err := c.Snapshot(ctx, "proxy", nil)
		if err != nil || len(got.Points) != len(snap.Points) || got.Cursor.Poss[1] != 416 {
			t.Fatalf("snapshot %d: %d points, cursor %+v, %v", i, len(got.Points), got.Cursor, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("50 snapshots opened %d connections, want 1", n)
	}
	for i := range 30 {
		if got, err := c.Query(ctx, "remote-edge", 16); err != nil || len(got.Solution) != 16 {
			t.Fatalf("query %d: %d points, %v", i, len(got.Solution), err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("50 snapshots and 30 queries opened %d connections, want 1", n)
	}
}

// TestClientSnapshotFallback: a reply the fast decoder declines — a
// worker writing the same fields in another order — decodes through
// encoding/json exactly as the bytes say.
func TestClientSnapshotFallback(t *testing.T) {
	want := api.SnapshotResponse{Partial: true, Points: []divmax.Vector{{1.5, -2}, {math.Copysign(0, -1), 1e-7}},
		Processed: 42, Shards: 2, Cursor: api.SnapshotCursor{Gens: []uint64{7, 8}, Poss: []int{1, 2}}}
	body := `{"shards":2,"cursor":{"poss":[1,2],"gens":[7,8]},"processed":42,"points":[[1.5,-2],[-0,1e-7]],"partial":true}`
	if api.DecodeSnapshot([]byte(body), new(api.SnapshotResponse)) {
		t.Fatal("the fast path took a reply with reordered keys")
	}
	c, _ := stubWorker(t, map[string]func(http.ResponseWriter){
		"/v1/snapshot": func(w http.ResponseWriter) { io.WriteString(w, body) },
	})
	got, err := c.Snapshot(context.Background(), "edge", nil)
	if err != nil || !reflect.DeepEqual(got.Cursor, want.Cursor) || got.Partial != want.Partial ||
		got.Processed != want.Processed || got.Shards != want.Shards || len(got.Points) != len(want.Points) {
		t.Fatalf("Snapshot = %+v, %v; want %+v", got, err, want)
	}
	for i, p := range got.Points {
		for j, x := range p {
			if math.Float64bits(x) != math.Float64bits(want.Points[i][j]) {
				t.Fatalf("point %d coordinate %d: %v, want %v", i, j, x, want.Points[i][j])
			}
		}
	}
}
