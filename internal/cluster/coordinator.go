// Package cluster is divmaxd's multi-node tier: a coordinator that
// deals /v1/ingest and /v1/delete batches across N remote divmaxd
// workers by consistent hashing, and answers /v1/query by fanning out
// snapshot requests and running the round-2 merge + solve itself — the
// paper's MapReduce round-1/round-2 split made literal across
// processes, where each worker's merged core-set is a round-1 output
// and the coordinator is the round-2 reducer.
//
// Composability (Section 4 of the paper) is what makes the tier sound:
// the union of any subset of per-worker core-sets is a valid core-set
// for the points those workers ingested, with the same α+ε guarantee.
// The engineering interest is therefore all in the failure path, and
// that is what this package layers on:
//
//   - a worker client with per-attempt deadlines and capped
//     exponential backoff with jitter, honoring Retry-After as a floor
//     (client.go);
//   - hedged snapshot fan-out — a second attempt to a lagging worker
//     after an adaptive latency percentile (query.go);
//   - an active health checker probing /v1/readyz, evicting workers
//     that keep failing and readmitting them once they answer again —
//     with an incarnation bump that invalidates cached snapshot
//     cursors, so a recovered worker is re-read from scratch
//     (health.go);
//   - quorum-degraded queries: with workers missing, the coordinator
//     answers from the survivors ("degraded": true, workers_missing
//     set) as long as at least Quorum workers respond, and fails
//     closed with 503 below that.
//
// The coordinator serves the same /v1 surface as a single divmaxd —
// same wire types, same error envelope — so clients need not know
// which tier they are talking to.
package cluster

import (
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"divmax"
	"divmax/internal/api"
	"divmax/internal/dataset"
	"divmax/internal/merge"
)

// Config tunes a Coordinator.
type Config struct {
	// Workers is the list of worker base URLs ("http://host:port").
	// Required, order-significant: worker IDs, ring placement, and the
	// merge order of per-worker core-sets all follow it.
	Workers []string
	// MaxK is the largest solution size queries may request (default
	// 16). It must not exceed the workers' own -maxk: their core-sets
	// are sized to support it.
	MaxK int
	// SolveWorkers bounds the round-2 solve parallelism per query
	// (default GOMAXPROCS). Selections are bit-identical for every
	// value.
	SolveWorkers int
	// SolutionMemo caps the per-state (measure, k) answer memo
	// (default 128).
	SolutionMemo int
	// DeltaBudget caps the incremental patch of the merge cache, as in
	// the single-process server: patch only when the per-worker deltas
	// total at most DeltaBudget × the cached union size. 0 means the
	// default (0.25); negative disables patching.
	DeltaBudget float64
	// Quorum is the minimum number of responsive workers a query
	// needs: with fewer the coordinator fails closed (503), with at
	// least Quorum but not all it answers degraded. 0 means a majority
	// (N/2+1); values are clamped into [1, N].
	Quorum int
	// QueryDeadline bounds a /query end to end — fan-out, merge, solve
	// (default 30s; negative disables). IngestDeadline is the same for
	// /ingest and /delete.
	QueryDeadline  time.Duration
	IngestDeadline time.Duration
	// ProbeInterval is the health checker's cadence (default 2s;
	// negative disables the prober — workers are then never evicted).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /v1/readyz probe (default min(1s,
	// ProbeInterval)).
	ProbeTimeout time.Duration
	// FailAfter is the consecutive failed probes that evict a worker
	// (default 3; minimum 1).
	FailAfter int
	// HedgeAfter sets the snapshot hedging delay: 0 (the default)
	// adapts it to a percentile of recently observed snapshot
	// latencies, a positive value fixes it, a negative value disables
	// hedging.
	HedgeAfter time.Duration
	// VNodes is the per-worker virtual node count on the hash ring
	// (default 64).
	VNodes int
	// Client is the template for the per-worker clients: retry policy,
	// per-attempt timeout, transport. BaseURL and OnRetry are set per
	// worker.
	Client ClientConfig
}

func (c Config) withDefaults() Config {
	if c.MaxK < 1 {
		c.MaxK = 16
	}
	if c.SolveWorkers < 1 {
		c.SolveWorkers = runtime.GOMAXPROCS(0)
	}
	if c.SolutionMemo < 1 {
		c.SolutionMemo = 128
	}
	if c.DeltaBudget == 0 {
		c.DeltaBudget = 0.25
	}
	n := len(c.Workers)
	if c.Quorum < 1 {
		c.Quorum = n/2 + 1
	}
	if c.Quorum > n {
		c.Quorum = n
	}
	switch {
	case c.QueryDeadline == 0:
		c.QueryDeadline = 30 * time.Second
	case c.QueryDeadline < 0:
		c.QueryDeadline = 0
	}
	switch {
	case c.IngestDeadline == 0:
		c.IngestDeadline = 30 * time.Second
	case c.IngestDeadline < 0:
		c.IngestDeadline = 0
	}
	switch {
	case c.ProbeInterval == 0:
		c.ProbeInterval = 2 * time.Second
	case c.ProbeInterval < 0:
		c.ProbeInterval = 0 // prober disabled
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
		if c.ProbeInterval > 0 && c.ProbeInterval < c.ProbeTimeout {
			c.ProbeTimeout = c.ProbeInterval
		}
	}
	if c.FailAfter < 1 {
		c.FailAfter = 3
	}
	if c.VNodes < 1 {
		c.VNodes = defaultVNodes
	}
	return c
}

var errCoordDraining = errors.New("cluster: coordinator draining, not accepting requests")

// worker is the coordinator's view of one remote divmaxd.
type worker struct {
	id     int
	url    string
	client *Client

	// admitted is flipped by the health checker: an evicted worker
	// receives no traffic (ingest reroutes along the ring, queries
	// count it missing) until a probe succeeds again.
	admitted    atomic.Bool
	consecFails atomic.Int32
	lastProbeNS atomic.Int64
	// incarnation is bumped on every readmission; merge-cache cursors
	// remember the incarnation they were fetched under, so a recovered
	// worker — whether it replayed its WAL or restarted empty — is
	// always re-read with a full snapshot instead of a delta against a
	// view it may no longer hold.
	incarnation atomic.Uint64

	hedged    atomic.Int64
	retries   atomic.Int64
	evictions atomic.Int64
	ingested  atomic.Int64
}

// Coordinator is the multi-node tier's front end. Create one with New,
// mount Handler on an http.Server, Close it to stop the prober.
type Coordinator struct {
	cfg     Config
	workers []*worker
	ring    *ring

	dim      atomic.Int64
	draining atomic.Bool

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once

	// cache is the merge cache over the workers (query.go), with its
	// query counters.
	cache *merge.Cache[workerCursor]

	// lats is the rolling window of successful snapshot round-trip
	// times (nanoseconds) the adaptive hedge delay is computed from.
	latMu  sync.Mutex
	lats   []float64
	latPos int

	deletesRequested  atomic.Int64
	deletesEvicting   atomic.Int64
	deletesSpares     atomic.Int64
	deletesTombstoned atomic.Int64
}

// logf is the package's error logger; a variable so tests can intercept
// what gets logged.
var logf = log.Printf

func writeJSON(w http.ResponseWriter, v any) {
	api.WriteJSON(w, v, func(err error) { logf("cluster: encoding response: %v", err) })
}

// New builds a coordinator over cfg.Workers and starts its health
// checker. Workers start admitted: the prober discovers reality within
// one interval, and an optimistic start means an all-healthy cluster
// serves immediately.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	co := &Coordinator{cfg: cfg, workers: make([]*worker, len(cfg.Workers))}
	for i, u := range cfg.Workers {
		w := &worker{id: i, url: strings.TrimRight(u, "/")}
		ccfg := cfg.Client
		ccfg.BaseURL = w.url
		userRetry := ccfg.OnRetry
		ccfg.OnRetry = func(wait time.Duration) {
			w.retries.Add(1)
			if userRetry != nil {
				userRetry(wait)
			}
		}
		w.client = NewClient(ccfg)
		w.admitted.Store(true)
		co.workers[i] = w
	}
	co.ring = newRing(len(co.workers), cfg.VNodes)
	co.cache = merge.New(workerSource{co}, merge.Config{
		SolveWorkers: cfg.SolveWorkers,
		Memo:         cfg.SolutionMemo,
		DeltaBudget:  cfg.DeltaBudget,
		UnchangedHit: true,
		Quorum:       cfg.Quorum,
	})
	if cfg.ProbeInterval > 0 {
		co.stop = make(chan struct{})
		co.wg.Add(1)
		go co.probeLoop()
	}
	return co, nil
}

// Config returns the effective (defaulted) configuration.
func (co *Coordinator) Config() Config { return co.cfg }

// Close stops the health checker and marks the coordinator draining:
// every subsequent request is rejected with 503. Idempotent.
func (co *Coordinator) Close() {
	co.closeOnce.Do(func() {
		co.draining.Store(true)
		if co.stop != nil {
			close(co.stop)
		}
		co.wg.Wait()
	})
}

// Ready reports whether the coordinator can currently answer queries:
// not draining and at least Quorum workers admitted.
func (co *Coordinator) Ready() bool {
	return !co.draining.Load() && co.admittedCount() >= co.cfg.Quorum
}

func (co *Coordinator) admittedCount() int {
	n := 0
	for _, w := range co.workers {
		if w.admitted.Load() {
			n++
		}
	}
	return n
}

// Handler returns the coordinator's HTTP API — the same surface and
// wire bytes as a single divmaxd, under api.Prefix with the legacy
// unversioned aliases.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	healthz := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}
	for _, prefix := range []string{api.Prefix, ""} {
		mux.HandleFunc(prefix+"/ingest", co.handleIngest)
		mux.HandleFunc(prefix+"/delete", co.handleDelete)
		mux.HandleFunc(prefix+"/query", co.handleQuery)
		mux.HandleFunc(prefix+"/stats", co.handleStats)
		mux.HandleFunc(prefix+"/healthz", healthz)
		mux.HandleFunc(prefix+"/readyz", co.handleReadyz)
	}
	return mux
}

// maxIngestBody mirrors the worker-side bound.
const maxIngestBody = 32 << 20

// decodeBatch reads an ingest- or delete-shaped body into req under
// the body bound (api.ReadBatch). It reports whether decoding
// succeeded; on failure the error response has been written.
func decodeBatch[R *api.IngestRequest | *api.DeleteRequest](w http.ResponseWriter, r *http.Request, req R) bool {
	if err := api.ReadBatch(http.MaxBytesReader(w, r.Body, maxIngestBody), req); err != nil {
		status, msg := api.BatchError(err)
		api.WriteError(w, status, "%s", msg)
		return false
	}
	return true
}

func (co *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if co.draining.Load() {
		api.WriteError(w, http.StatusServiceUnavailable, "%v", errCoordDraining)
		return
	}
	var req api.IngestRequest
	if !decodeBatch(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		writeJSON(w, api.IngestResponse{Accepted: 0, Shards: len(co.workers)})
		return
	}
	if err := dataset.ValidateVectors(req.Points); err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	dim := int64(len(req.Points[0]))
	if dim == 0 {
		api.WriteError(w, http.StatusBadRequest, "points must have at least one coordinate")
		return
	}
	setDim := co.dim.CompareAndSwap(0, dim)
	if !setDim && co.dim.Load() != dim {
		api.WriteError(w, http.StatusBadRequest, "point dimension %d does not match the dataset dimension %d", dim, co.dim.Load())
		return
	}

	// Route each point along the ring, skipping evicted workers: a
	// rerouted point lands on the next live arc, so ingest keeps
	// flowing through a partial outage (composability makes the
	// placement quality-neutral).
	alive := func(i int) bool { return co.workers[i].admitted.Load() }
	batches := make([][]divmax.Vector, len(co.workers))
	for _, p := range req.Points {
		owner := co.ring.owner(hashPoint(p), alive)
		if owner < 0 {
			api.WriteError(w, http.StatusServiceUnavailable, "cluster: no admitted workers")
			return
		}
		batches[owner] = append(batches[owner], p)
	}

	ctx, cancel := api.RequestContext(r, co.cfg.IngestDeadline)
	defer cancel()
	errs := make([]error, len(co.workers))
	var delivered atomic.Int64
	var wg sync.WaitGroup
	for i, b := range batches {
		if len(b) == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, b []divmax.Vector) {
			defer wg.Done()
			wk := co.workers[i]
			if _, err := wk.client.Ingest(ctx, b); err != nil {
				errs[i] = fmt.Errorf("worker %d (%s): %w", wk.id, wk.url, err)
				return
			}
			wk.ingested.Add(int64(len(b)))
			delivered.Add(int64(len(b)))
		}(i, b)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// If this request was the one that claimed the dataset
			// dimension and no point landed anywhere, release the
			// claim: a wholly rejected first batch (e.g. a dim the
			// workers refuse) must not pin the coordinator to it.
			// Best-effort — the workers stay authoritative either way.
			if setDim && delivered.Load() == 0 {
				co.dim.CompareAndSwap(dim, 0)
			}
			// A partial fan-out leaves the delivered sub-batches
			// ingested (at-least-once, like a partial shard fan-out in
			// the single-process server); the error tells the caller
			// the batch did not land in full.
			co.writeFailure(w, err)
			return
		}
	}
	writeJSON(w, api.IngestResponse{Accepted: len(req.Points), Shards: len(co.workers)})
}

func (co *Coordinator) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if co.draining.Load() {
		api.WriteError(w, http.StatusServiceUnavailable, "%v", errCoordDraining)
		return
	}
	var req api.DeleteRequest
	if !decodeBatch(w, r, &req) {
		return
	}
	if len(req.Points) == 0 {
		writeJSON(w, api.DeleteResponse{Shards: len(co.workers)})
		return
	}
	if err := dataset.ValidateVectors(req.Points); err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if dim, want := int64(len(req.Points[0])), co.dim.Load(); want != 0 && dim != want {
		api.WriteError(w, http.StatusBadRequest, "point dimension %d does not match the dataset dimension %d", dim, want)
		return
	}
	// Deletes fail closed on an evicted worker: eviction reroutes
	// ingest, so any worker may hold any value — a broadcast that
	// cannot reach everyone cannot guarantee removal. (Retrying a
	// delete after readmission is idempotent.)
	for _, wk := range co.workers {
		if !wk.admitted.Load() {
			api.WriteError(w, http.StatusServiceUnavailable, "cluster: worker %d (%s) evicted; deletes fail closed", wk.id, wk.url)
			return
		}
	}

	ctx, cancel := api.RequestContext(r, co.cfg.IngestDeadline)
	defer cancel()
	outcomes := make([][]int, len(co.workers))
	errs := make([]error, len(co.workers))
	var wg sync.WaitGroup
	for i, wk := range co.workers {
		wg.Add(1)
		go func(i int, wk *worker) {
			defer wg.Done()
			resp, err := wk.client.Delete(ctx, req.Points, true)
			if err != nil {
				errs[i] = fmt.Errorf("worker %d (%s): %w", wk.id, wk.url, err)
				return
			}
			outcomes[i] = resp.Outcomes
		}(i, wk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			co.writeFailure(w, err)
			return
		}
	}
	// Fold each point's strongest outcome across workers (evicted >
	// spare > tombstone), exactly as one server folds across shards.
	folded := make([]int, len(req.Points))
	for _, outs := range outcomes {
		if len(outs) != len(req.Points) {
			api.WriteError(w, http.StatusServiceUnavailable, "cluster: worker returned %d outcomes for %d points (version skew?)", len(outs), len(req.Points))
			return
		}
		for j, o := range outs {
			folded[j] = max(folded[j], o)
		}
	}
	resp := api.DeleteResponse{Requested: len(req.Points), Shards: len(co.workers)}
	for _, o := range folded {
		switch o {
		case int(divmax.DeleteEvicted):
			resp.Evicted++
		case int(divmax.DeleteSpare):
			resp.Spares++
		default:
			resp.Tombstones++
		}
	}
	if req.WantOutcomes {
		resp.Outcomes = folded
	}
	co.deletesRequested.Add(int64(resp.Requested))
	co.deletesEvicting.Add(int64(resp.Evicted))
	co.deletesSpares.Add(int64(resp.Spares))
	co.deletesTombstoned.Add(int64(resp.Tombstones))
	writeJSON(w, resp)
}

func (co *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := api.StatsResponse{
		Shards:            []api.ShardStats{},
		DeletesRequested:  co.deletesRequested.Load(),
		DeletesEvicting:   co.deletesEvicting.Load(),
		DeletesSpares:     co.deletesSpares.Load(),
		DeletesTombstoned: co.deletesTombstoned.Load(),
		MaxK:              co.cfg.MaxK,
		Draining:          co.draining.Load(),
		Quorum:            co.cfg.Quorum,
		Workers:           make([]api.WorkerStats, len(co.workers)),
	}
	co.cache.FillStats(&resp)
	for i, wk := range co.workers {
		ws := api.WorkerStats{
			ID:                  wk.id,
			URL:                 wk.url,
			State:               "healthy",
			ConsecutiveFailures: int(wk.consecFails.Load()),
			LastProbeMS:         float64(wk.lastProbeNS.Load()) / float64(time.Millisecond),
			HedgedRequests:      wk.hedged.Load(),
			Retries:             wk.retries.Load(),
			Evictions:           wk.evictions.Load(),
			IngestedPoints:      wk.ingested.Load(),
		}
		switch {
		case !wk.admitted.Load():
			ws.State = "evicted"
			resp.WorkersEvicted++
		case ws.ConsecutiveFailures > 0:
			ws.State = "suspect"
		}
		resp.Workers[i] = ws
		resp.IngestedTotal += ws.IngestedPoints
	}
	writeJSON(w, resp)
}

// handleReadyz: a coordinator below quorum answers 503 so load
// balancers stop routing to it; /healthz stays ok (the process is
// alive, and may regain quorum).
func (co *Coordinator) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if co.draining.Load() {
		api.WriteError(w, http.StatusServiceUnavailable, "%v", errCoordDraining)
		return
	}
	if n := co.admittedCount(); n < co.cfg.Quorum {
		api.WriteError(w, http.StatusServiceUnavailable, "cluster: %d of %d workers admitted, quorum %d", n, len(co.workers), co.cfg.Quorum)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}
