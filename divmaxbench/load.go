package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"divmax/internal/api"
)

// requestTimeout bounds one request; a request past it counts as failed.
const requestTimeout = 10 * time.Second

// conn is one client connection. Its transport holds a single socket,
// so each load goroutine uses exactly one connection, and it never
// retries: every non-2xx answer, timeout and transport error is counted
// as a failure of the request that met it.
type conn struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{base: base, hc: &http.Client{Transport: tr, Timeout: requestTimeout}}
}

// do sends one request and returns the response body, valid until the
// next call. ok reports a 2xx answer read in full.
func (c *conn) do(method, path string, body []byte) (resp []byte, ok bool) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, false
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return nil, false
	}
	defer r.Body.Close()
	c.buf.Reset()
	_, err = c.buf.ReadFrom(r.Body)
	return c.buf.Bytes(), err == nil && r.StatusCode/100 == 2
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// stats fetches /v1/stats.
func (c *conn) stats() (api.StatsResponse, error) {
	var st api.StatsResponse
	body, ok := c.do(http.MethodGet, "/v1/stats", nil)
	if !ok {
		return st, fmt.Errorf("GET %s/v1/stats failed", c.base)
	}
	return st, json.Unmarshal(body, &st)
}

// idleRTT is the median of repeated /v1/healthz round trips on an
// otherwise idle connection: the floor under every request's latency.
func idleRTT(base string) (time.Duration, error) {
	c := newConn(base)
	defer c.close()
	var rtts []float64
	for i := range 51 {
		t0 := time.Now()
		if _, ok := c.do(http.MethodGet, "/v1/healthz", nil); !ok {
			return 0, fmt.Errorf("GET %s/v1/healthz failed", base)
		}
		if i > 0 { // the first one also dials
			rtts = append(rtts, float64(time.Since(t0)))
		}
	}
	return time.Duration(median(rtts)), nil
}

// Operation kinds.
type opKind uint8

const (
	opIngest opKind = iota
	opDelete
	opQuery
	numKinds
)

var kindNames = [numKinds]string{"ingest", "delete", "query"}

// tally counts attempted and failed operations per kind.
type tally struct {
	attempted, failed [numKinds]int
}

func (t *tally) record(k opKind, ok bool) {
	t.attempted[k]++
	if !ok {
		t.failed[k]++
	}
}

func (t *tally) totals() (attempted, failed int) {
	for k := range numKinds {
		attempted += t.attempted[k]
		failed += t.failed[k]
	}
	return
}

// clock is the time source of the open-loop generator; tests substitute
// one that stalls a request without sleeping.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// sent describes one request an open-loop generator sent.
type sent struct {
	i       int           // request number
	send    time.Time     // when it went out
	latency time.Duration // from its due time to its completion
	ok      bool
	resp    []byte // the response, when the sender keeps it
}

// openLoop sends n requests on one connection, request i due at
// start + i·interval. Each goes out when it is due or, if the previous
// request is still running, as soon as that one completes. Its latency
// counts from its due time, not its send time, so a stall also charges
// the wait it imposes on every request queued behind it. send performs
// request i and reports success and the response to keep (or nil).
// lateMax is how far behind schedule the generator sent at worst.
func openLoop(clk clock, start time.Time, interval time.Duration, n int, send func(i int) (bool, []byte)) (out []sent, lateMax time.Duration) {
	out = make([]sent, 0, n)
	for i := range n {
		due := start.Add(time.Duration(i) * interval)
		clk.SleepUntil(due)
		at := clk.Now()
		lateMax = max(lateMax, at.Sub(due))
		ok, resp := send(i)
		out = append(out, sent{i: i, send: at, latency: clk.Now().Sub(due), ok: ok, resp: resp})
	}
	return out, lateMax
}
