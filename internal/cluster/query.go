package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"time"

	"divmax"
	"divmax/internal/api"
	"divmax/internal/merge"
)

// The coordinator's query path is the single-process server's, lifted
// one level: the same merge cache (internal/merge), whose parts are the
// workers instead of in-process shards — each worker's /v1/snapshot
// reply already the merged core-set of that worker's shards. The
// coordinator cannot see a worker's epochs, so no state is current
// without a fetch round: the round itself, run with per-worker snapshot
// cursors (the wire form of SnapshotSince), is the currency check, and
// one in which every worker returns an empty pure delta is a cache hit.
//
// What is new at this level is distrust of the fan-out: every worker
// call can be slow (hedged), failing (retried by the client, then
// surfaced), or against an evicted worker (skipped and reported
// missing). A healthy-path merge fails if ANY worker is missing; the
// handler then retries in degraded mode, answering from the survivors
// when at least Quorum respond.

// workerCursor is one worker's snapshot cursor, tagged with the worker
// incarnation it was fetched under: a readmission bumps the incarnation,
// so a cursor taken before the worker went away is never replayed
// against its recovered state.
type workerCursor struct {
	cursor      api.SnapshotCursor
	incarnation uint64
}

// workerSource is the coordinator's merge.Source.
type workerSource struct{ *Coordinator }

func (co workerSource) Parts() int { return len(co.workers) }

// Current is never true: only a fetch round can tell that a worker's
// view has not changed.
func (workerSource) Current([]workerCursor) bool { return false }

// Fetch reads worker part's view of family f, hedged, as a delta since
// cur unless the worker was readmitted since cur was taken.
func (co workerSource) Fetch(ctx context.Context, part, f int, cur *workerCursor) (merge.Reply[workerCursor], error) {
	wk := co.workers[part]
	if !wk.admitted.Load() {
		return merge.Reply[workerCursor]{}, fmt.Errorf("cluster: worker %d (%s) evicted", wk.id, wk.url)
	}
	inc := wk.incarnation.Load()
	var ac *api.SnapshotCursor
	if cur != nil && cur.incarnation == inc {
		ac = &cur.cursor
	}
	resp, err := co.fetchSnapshot(ctx, wk, merge.FamilyNames[f], ac)
	return merge.Reply[workerCursor]{
		Partial:   resp.Partial,
		Points:    resp.Points,
		Processed: resp.Processed,
		Cursor:    workerCursor{cursor: resp.Cursor, incarnation: inc},
	}, err
}

// writeFailure maps a fan-out failure onto the wire with the same
// shapes the single-process server uses: deadlines are 504, a worker's
// back-pressure is propagated as 429 (its Retry-After hint passed
// through), everything else — evictions, exhausted retries, quorum —
// is 503.
func (co *Coordinator) writeFailure(w http.ResponseWriter, err error) {
	var he *HTTPError
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		api.WriteError(w, http.StatusGatewayTimeout, "request deadline exceeded")
	case errors.As(err, &he) && he.Status == http.StatusTooManyRequests:
		if secs := int(math.Ceil(he.RetryAfter.Seconds())); secs > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(secs))
		}
		api.WriteError(w, http.StatusTooManyRequests, "%v", err)
	case errors.As(err, &he) && he.Status == http.StatusBadRequest:
		// A worker rejecting the request as malformed (e.g. a point
		// dimension the dataset refuses) is the caller's error, not a
		// cluster outage — propagate the 400 instead of masking it
		// as unavailable.
		api.WriteError(w, http.StatusBadRequest, "%v", err)
	default:
		api.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	}
}

// fetchSnapshot fetches one worker's merged core-set, hedging the
// request: if the first attempt has not answered within the hedge
// delay, a second identical attempt races it and the first reply wins.
// Snapshot requests are read-only, so the duplicate is harmless — what
// hedging buys is that one slow worker (GC pause, flaky link, loaded
// box) delays the merge by the hedge threshold plus a healthy RTT,
// instead of by the worker's full tail latency.
func (co *Coordinator) fetchSnapshot(ctx context.Context, wk *worker, fam string, cursor *api.SnapshotCursor) (api.SnapshotResponse, error) {
	type result struct {
		resp api.SnapshotResponse
		err  error
	}
	attempt := func(ch chan<- result) {
		start := time.Now()
		resp, err := wk.client.Snapshot(ctx, fam, cursor)
		if err == nil {
			co.recordLatency(time.Since(start))
		}
		ch <- result{resp, err}
	}
	delay, hedge := co.hedgeDelay()
	if !hedge {
		start := time.Now()
		resp, err := wk.client.Snapshot(ctx, fam, cursor)
		if err == nil {
			co.recordLatency(time.Since(start))
		}
		return resp, err
	}
	// Buffered to the attempt count: a straggler's send never blocks,
	// so no goroutine outlives its reply.
	ch := make(chan result, 2)
	go attempt(ch)
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-ctx.Done():
		return api.SnapshotResponse{}, ctx.Err()
	case <-t.C:
		wk.hedged.Add(1)
		go attempt(ch)
	}
	// Two attempts in flight: first success wins; an early error waits
	// for the other attempt before giving up.
	var firstErr error
	for i := 0; i < 2; i++ {
		select {
		case r := <-ch:
			if r.err == nil {
				return r.resp, nil
			}
			firstErr = r.err
		case <-ctx.Done():
			return api.SnapshotResponse{}, ctx.Err()
		}
	}
	return api.SnapshotResponse{}, firstErr
}

const (
	// latWindow is how many recent snapshot latencies feed the adaptive
	// hedge delay; minHedgeSamples gates hedging until the window has
	// seen enough of them to estimate a tail.
	latWindow       = 128
	minHedgeSamples = 8
)

func (co *Coordinator) recordLatency(d time.Duration) {
	co.latMu.Lock()
	if len(co.lats) < latWindow {
		co.lats = append(co.lats, float64(d))
	} else {
		co.lats[co.latPos] = float64(d)
		co.latPos = (co.latPos + 1) % latWindow
	}
	co.latMu.Unlock()
}

// hedgeDelay resolves the hedging threshold: fixed when HedgeAfter > 0,
// disabled when negative, otherwise adaptive — twice the p95 of the
// recent snapshot latencies (so routine variance never hedges, a
// genuine straggler does), clamped below by 5ms and above by a quarter
// of the query deadline.
func (co *Coordinator) hedgeDelay() (time.Duration, bool) {
	switch {
	case co.cfg.HedgeAfter > 0:
		return co.cfg.HedgeAfter, true
	case co.cfg.HedgeAfter < 0:
		return 0, false
	}
	co.latMu.Lock()
	if len(co.lats) < minHedgeSamples {
		co.latMu.Unlock()
		return 0, false
	}
	buf := append([]float64(nil), co.lats...)
	co.latMu.Unlock()
	sort.Float64s(buf)
	d := time.Duration(2 * buf[len(buf)*95/100])
	lo, hi := 5*time.Millisecond, time.Second
	if co.cfg.QueryDeadline > 0 {
		hi = co.cfg.QueryDeadline / 4
	}
	return min(max(d, lo), hi), true
}

func (co *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	q := r.URL.Query()
	m := divmax.RemoteEdge
	if name := q.Get("measure"); name != "" {
		var err error
		if m, err = divmax.ParseMeasure(name); err != nil {
			api.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	k := co.cfg.MaxK
	if arg := q.Get("k"); arg != "" {
		var err error
		if k, err = strconv.Atoi(arg); err != nil {
			api.WriteError(w, http.StatusBadRequest, "bad k: %v", err)
			return
		}
	}
	if k < 1 || k > co.cfg.MaxK {
		api.WriteError(w, http.StatusBadRequest, "k must be in [1, %d] (the coordinator's maxk), got %d", co.cfg.MaxK, k)
		return
	}
	if co.draining.Load() {
		api.WriteError(w, http.StatusServiceUnavailable, "%v", errCoordDraining)
		return
	}
	ctx, cancel := api.RequestContext(r, co.cfg.QueryDeadline)
	defer cancel()

	// The healthy fan-out gets half the deadline; if it cannot complete
	// — an evicted worker, one that keeps failing — the remainder buys
	// a degraded round over the survivors instead of a bare 503/504.
	mctx := ctx
	if co.cfg.QueryDeadline > 0 {
		var mcancel context.CancelFunc
		mctx, mcancel = context.WithTimeout(ctx, co.cfg.QueryDeadline/2)
		defer mcancel()
	}
	resp, err := co.cache.Query(mctx, m, k, nil)
	if err != nil {
		var missing int
		resp, missing, err = co.cache.Degraded(ctx, m, k, nil)
		if err != nil {
			n := len(co.workers)
			co.writeFailure(w, fmt.Errorf("cluster: %d of %d workers responsive, quorum is %d: %w", n-missing, n, co.cfg.Quorum, err))
			return
		}
		resp.WorkersMissing = missing
	}
	writeJSON(w, resp)
}
