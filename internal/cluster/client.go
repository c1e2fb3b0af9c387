package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"divmax"
	"divmax/internal/api"
)

// Client is the typed HTTP client for one divmaxd server (a worker, or
// a coordinator — they speak the same /v1 dialect). It is the single
// place retry policy lives: per-attempt deadlines, capped exponential
// backoff with jitter, and Retry-After honored as a FLOOR on the
// backoff — a 429's hint never shortens a wait, it only lengthens one.
// cmd/bench drives its servers through this client too, so the policy
// is exercised by every benchmark run, not just the chaos tests.
//
// Retries are at-least-once: a retried POST whose first attempt died
// after the server processed it is delivered twice. The coordinator
// accepts that for /ingest (a duplicate point is absorbed by the
// core-sets at zero diversity cost) and /delete (idempotent by value);
// exactly-once is deliberately out of scope.
type Client struct {
	base    string
	httpc   *http.Client
	cfg     ClientConfig
	retries int // attempts beyond the first

	// sleep and jitter are swappable for tests: backoff unit tests
	// capture the waits instead of paying them.
	sleep  func(ctx context.Context, d time.Duration) error
	jitter func(d time.Duration) time.Duration
}

// ClientConfig tunes a Client. The zero value is usable: default
// transport, 10s per attempt, 3 retries, 50ms–2s backoff.
type ClientConfig struct {
	// BaseURL is the server's root, e.g. "http://worker-0:9090".
	BaseURL string
	// HTTPClient overrides the transport (default http.DefaultClient).
	// Deadlines come from contexts, not from HTTPClient.Timeout.
	HTTPClient *http.Client
	// AttemptTimeout bounds each attempt, so one blackholed connection
	// costs one attempt, not the whole request deadline. 0 means the
	// default (10s); negative disables (the request context still
	// applies).
	AttemptTimeout time.Duration
	// MaxRetries is the number of attempts beyond the first for
	// retryable failures — connection errors, 429, 5xx. 0 means the
	// default (3); negative disables retries (cmd/bench's overload
	// suite counts raw 429s this way).
	MaxRetries int
	// BackoffBase and BackoffCap shape the capped exponential backoff:
	// attempt n waits jitter(min(cap, base·2ⁿ)), raised to the
	// server's Retry-After when that is longer. Defaults 50ms and 2s.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// OnRetry, when set, observes every backoff wait just before it is
	// taken (the coordinator counts per-worker retries through it).
	OnRetry func(wait time.Duration)
}

// HTTPError is a non-2xx response, decoded from the uniform error
// envelope.
type HTTPError struct {
	Status     int
	Code       string
	Message    string
	RetryAfter time.Duration // 0 when the response carried no hint
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("http %d (%s): %s", e.Status, e.Code, e.Message)
}

// NewClient builds a client for cfg.BaseURL.
func NewClient(cfg ClientConfig) *Client {
	c := &Client{base: cfg.BaseURL, httpc: cfg.HTTPClient, cfg: cfg}
	if c.httpc == nil {
		c.httpc = http.DefaultClient
	}
	switch {
	case cfg.AttemptTimeout == 0:
		c.cfg.AttemptTimeout = 10 * time.Second
	case cfg.AttemptTimeout < 0:
		c.cfg.AttemptTimeout = 0
	}
	switch {
	case cfg.MaxRetries == 0:
		c.retries = 3
	case cfg.MaxRetries < 0:
		c.retries = 0
	default:
		c.retries = cfg.MaxRetries
	}
	if c.cfg.BackoffBase <= 0 {
		c.cfg.BackoffBase = 50 * time.Millisecond
	}
	if c.cfg.BackoffCap <= 0 {
		c.cfg.BackoffCap = 2 * time.Second
	}
	c.sleep = sleepCtx
	// Equal jitter: half the exponential window deterministic, half
	// uniform — spreads a thundering herd without ever halving below
	// 50% of the intended wait.
	c.jitter = func(d time.Duration) time.Duration {
		if d <= 1 {
			return d
		}
		half := d / 2
		return half + rand.N(half+1)
	}
	return c
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Ingest posts a batch of points.
func (c *Client) Ingest(ctx context.Context, pts []divmax.Vector) (api.IngestResponse, error) {
	body, err := api.AppendPoints(nil, pts)
	if err != nil {
		return api.IngestResponse{}, err
	}
	return c.IngestBody(ctx, body)
}

// IngestBody posts a pre-encoded ingest body — what cmd/bench uses so
// encoding stays outside its timed loops.
func (c *Client) IngestBody(ctx context.Context, body []byte) (api.IngestResponse, error) {
	var out api.IngestResponse
	err := c.do(ctx, http.MethodPost, "/ingest", body, &out)
	return out, err
}

// Delete posts a delete-by-value batch; wantOutcomes asks for the
// per-point outcome array.
func (c *Client) Delete(ctx context.Context, pts []divmax.Vector, wantOutcomes bool) (api.DeleteResponse, error) {
	body, err := json.Marshal(api.DeleteRequest{Points: pts, WantOutcomes: wantOutcomes})
	if err != nil {
		return api.DeleteResponse{}, err
	}
	var out api.DeleteResponse
	err = c.do(ctx, http.MethodPost, "/delete", body, &out)
	return out, err
}

// Snapshot fetches the server's merged core-set for family ("edge" or
// "proxy"), incrementally when cursor is non-nil.
func (c *Client) Snapshot(ctx context.Context, family string, cursor *api.SnapshotCursor) (api.SnapshotResponse, error) {
	body, err := json.Marshal(api.SnapshotRequest{Family: family, Cursor: cursor})
	if err != nil {
		return api.SnapshotResponse{}, err
	}
	var out api.SnapshotResponse
	err = c.do(ctx, http.MethodPost, "/snapshot", body, &out)
	return out, err
}

// Query runs a diversity query.
func (c *Client) Query(ctx context.Context, measure string, k int) (api.QueryResponse, error) {
	var out api.QueryResponse
	path := fmt.Sprintf("/query?k=%d&measure=%s", k, url.QueryEscape(measure))
	err := c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Stats fetches the server's counters.
func (c *Client) Stats(ctx context.Context) (api.StatsResponse, error) {
	var out api.StatsResponse
	err := c.do(ctx, http.MethodGet, "/stats", nil, &out)
	return out, err
}

// Ready performs a single readiness probe — no retries, no backoff:
// the health checker wants the raw signal, and its own cadence is the
// retry loop.
func (c *Client) Ready(ctx context.Context) error {
	return c.attempt(ctx, http.MethodGet, "/readyz", nil, nil)
}

// do runs one request with the full retry policy. path is relative to
// the versioned prefix ("/ingest" → "/v1/ingest").
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	for attempt := 0; ; attempt++ {
		err := c.attempt(ctx, method, path, body, out)
		if err == nil {
			return nil
		}
		// The outer context expiring is the caller's deadline, not the
		// attempt's: stop retrying regardless of the error's shape.
		if attempt >= c.retries || !retryable(err) || ctx.Err() != nil {
			return err
		}
		wait := c.jitter(backoff(c.cfg.BackoffBase, c.cfg.BackoffCap, attempt))
		// Retry-After is a floor, never a ceiling: an overloaded server
		// asking for N seconds gets at least N seconds, but a backoff
		// already past it is not shortened.
		var he *HTTPError
		if errors.As(err, &he) && he.RetryAfter > wait {
			wait = he.RetryAfter
		}
		if c.cfg.OnRetry != nil {
			c.cfg.OnRetry(wait)
		}
		if c.sleep(ctx, wait) != nil {
			return err // deadline expired mid-backoff; surface the request error
		}
	}
}

// backoff is the capped exponential schedule before jitter:
// min(cap, base·2^attempt).
func backoff(base, cap time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	return min(d, cap)
}

// retryable classifies an attempt failure: connection-level errors and
// the transient statuses (429 back-pressure, 5xx) retry; everything
// else — 4xx contract violations — surfaces immediately.
func retryable(err error) bool {
	var he *HTTPError
	if errors.As(err, &he) {
		switch he.Status {
		case http.StatusTooManyRequests,
			http.StatusInternalServerError,
			http.StatusBadGateway,
			http.StatusServiceUnavailable,
			http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true // transport-level: refused, reset, attempt timeout
}

// attempt runs exactly one HTTP round trip under the per-attempt
// deadline, decoding a 2xx body into out (when non-nil) and any other
// status into an *HTTPError.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte, out any) error {
	actx, cancel := ctx, context.CancelFunc(func() {})
	if c.cfg.AttemptTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	}
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, c.base+api.Prefix+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 {
		return decodeBody(resp.Body, out)
	}
	he := &HTTPError{Status: resp.StatusCode}
	var env api.ErrorEnvelope
	if json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&env) == nil {
		he.Code, he.Message = env.Error.Code, env.Error.Message
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs > 0 {
			he.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return he
}

// decodeBody decodes a 2xx body into out, when non-nil, and leaves the
// body at EOF: the transport reuses a connection only when its reply was
// read to the end, and a json.Decoder stops at the end of the value,
// short of the end of a chunked reply. A snapshot reply is read whole
// by api.ReadSnapshot; other values are decoded, then what follows them
// is drained.
func decodeBody(body io.Reader, out any) error {
	switch out := out.(type) {
	case nil:
		_, err := io.Copy(io.Discard, body)
		return err
	case *api.SnapshotResponse:
		return api.ReadSnapshot(body, out)
	default:
		if err := json.NewDecoder(body).Decode(out); err != nil {
			return err
		}
		// The value is decoded; a failed drain costs only the connection.
		io.Copy(io.Discard, body)
		return nil
	}
}
