// Package server implements divmaxd, the resident sharded diversity
// service. Points stream in over HTTP and are dealt round-robin to N
// independent shards; each shard is a single goroutine folding its slice
// of the stream into composable streaming core-sets (SMM and SMM-EXT,
// Section 4 of the paper), so per-shard state stays O(k′·k) points no
// matter how much data has been ingested. A query snapshots every
// shard's core-set and merges them through the same round-2 aggregation
// MapReduceSolve uses (internal/mrdiv.SolveCoresets) — the paper's
// round-1/round-2 split, kept resident and online — answering
// MaxDiversity for any of the six measures within the usual α+ε
// envelope, without ever rescanning the data.
//
// The query path is cached (internal/merge, the shards as its parts):
// while no shard has accepted a new batch, repeated queries — any k, any
// measure of the same family — reuse the previously merged core-set and
// its pairwise distance matrix instead of re-snapshotting, re-merging,
// and re-filling; any /ingest invalidates via per-shard epochs. Results
// are identical with and without the cache.
//
// The stream is fully dynamic: POST /delete removes points by value —
// broadcast to every shard, swept from both core-set families. A
// delete that matches nothing retained (or only spares) leaves the
// snapshot generations alone, so the delta-patched cache keeps winning
// under churn; a delete that evicts a core-set point re-covers locally
// (a deleted center promotes a retained spare or a surviving delegate)
// and bumps the generation, forcing the next stale query to rebuild
// from deleted-free snapshots.
//
// Endpoints (versioned under /v1, legacy unversioned aliases kept; the
// wire types live in internal/api):
//
//	POST /v1/ingest  {"points": [[x,y,...], ...]}    — batched ingest
//	POST /v1/delete  {"points": [[x,y,...], ...]}    — delete by value
//	GET  /v1/query?k=5&measure=remote-edge           — merge + solve
//	GET  /v1/stats                                   — shard + cache counters
//	GET  /v1/healthz                                 — liveness
package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"divmax"
	"divmax/internal/api"
	"divmax/internal/dataset"
	"divmax/internal/faults"
	"divmax/internal/merge"
	"divmax/internal/wal"
)

// Config tunes the service.
type Config struct {
	// Shards is the number of independent core-set shards, each a
	// goroutine owning its own SMM and SMM-EXT processors (default
	// runtime.GOMAXPROCS(0), minimum 1).
	Shards int
	// MaxK is the largest solution size queries may request; core-sets
	// are sized to support it (default 16).
	MaxK int
	// KPrime is the per-shard kernel size k′ ≥ MaxK controlling core-set
	// accuracy (0 = 4·MaxK; an explicit value below MaxK is an error).
	KPrime int
	// Buffer is the per-shard ingest queue capacity in batches; a full
	// queue applies backpressure to /ingest (default 64).
	Buffer int
	// SolveWorkers bounds the goroutines the round-2 solve engine uses
	// per query — the parallel matrix fill and the sharded Ω(n²) scans
	// (default runtime.GOMAXPROCS(0)). Selections are bit-identical for
	// every value.
	SolveWorkers int
	// SolutionMemo caps the per-state (measure, k) answer memo; beyond
	// it the least-recently-used answer is evicted (default 128 —
	// comfortably above the 6·MaxK key space of the default MaxK, so
	// small servers never evict).
	SolutionMemo int
	// DeltaBudget caps the incremental patch of the query cache: a
	// stale query patches the cached merged state — appending the
	// per-shard core-set deltas and extending the retained solve engine
	// — only when the deltas total at most DeltaBudget × the cached
	// union size; beyond it (or when any shard's core-set restructured)
	// the query falls back to a full snapshot + merge + fill. 0 means
	// the default (0.25); a negative value disables delta patching
	// entirely, restoring the rebuild-on-every-ingest behavior.
	DeltaBudget float64
	// DisableDeltaPatch keeps every patch/fallback decision and every
	// merged-union layout identical but builds each engine from scratch
	// instead of extending the cached one — the reference mode the
	// interleaving fuzz harness compares delta patching against. Not
	// useful in production (it only costs CPU).
	DisableDeltaPatch bool
	// Spares is the per-center spare retention of the SMM family's
	// dynamic core-sets: each center keeps up to Spares absorbed points
	// as promotion candidates for its own deletion, costing up to
	// Spares·(k′+1) extra points per shard. 0 means the default (2); a
	// negative value retains none (center deletions then drop their
	// cluster until new points arrive).
	Spares int
	// QueryDeadline bounds the server-side work of a /query request —
	// the snapshot fan-out, the merge, and every channel wait become
	// selects against it, so a wedged shard turns into a 504
	// (deadline_exceeded) instead of a hang. 0 means the default (30s);
	// a negative value disables the deadline.
	QueryDeadline time.Duration
	// IngestDeadline is the same bound for /ingest and /delete. 0 means
	// the default (30s); negative disables.
	IngestDeadline time.Duration
	// ShedWait is how long a request may wait on a full shard queue (or
	// the inflight-query limiter) before the server sheds it with 429
	// (overloaded, Retry-After set) instead of blocking. 0 means the
	// default (1s); a negative value disables shedding and restores the
	// unbounded blocking backpressure of earlier versions.
	ShedWait time.Duration
	// MaxInflight caps the queries solving concurrently; excess queries
	// wait up to ShedWait for a slot and are then shed with 429. 0
	// means the default (4·GOMAXPROCS, at least 16); a negative value
	// removes the cap.
	MaxInflight int
	// RestartBudget is how many times a shard's supervisor restarts it
	// with fresh core-sets after a panic before declaring it
	// permanently failed. 0 means the default (3); a negative value
	// never restarts (the first panic fails the shard).
	RestartBudget int
	// DegradedQueries opts queries into graceful degradation: when the
	// fan-out hits failed or unresponsive shards, the query merges the
	// surviving shards' core-sets and answers with "degraded": true and
	// the missing-shard count instead of failing. The composable
	// core-set property makes the answer a valid core-set solution over
	// the points the surviving shards ingested. Default off: queries
	// fail closed with 503/504.
	DegradedQueries bool
	// Faults is the fault-injection surface consulted by the shard
	// goroutines (internal/faults). nil — the production value — injects
	// nothing; the chaos tests install hooks here to drive panics,
	// wedges, and dropped replies through the live code paths.
	Faults *faults.Injector
	// DataDir enables durability: each shard keeps a write-ahead log and
	// periodic core-set checkpoints under DataDir/shard-NNN, every
	// accepted ingest/delete hits the log before its shard folds it, and
	// New recovers all shards (checkpoint + log-tail replay) before
	// /v1/readyz reports ready. Empty — the default — keeps the server
	// fully in memory, byte- and behavior-identical to earlier versions.
	DataDir string
	// Fsync is the WAL fsync policy (wal.SyncAlways / SyncInterval /
	// SyncOff; the zero value is SyncInterval). Only the power-cut
	// window differs: process crashes lose nothing under any policy.
	Fsync wal.SyncPolicy
	// FsyncInterval is the background flush period under SyncInterval
	// (default 100ms).
	FsyncInterval time.Duration
	// CheckpointEvery is the period of the checkpoint ticker that asks
	// each shard to fold its log tail into a fresh core-set checkpoint,
	// bounding both recovery replay and WAL growth. 0 means the default
	// (15s); a negative value disables the ticker (shards still
	// checkpoint eagerly after restructures and on clean shutdown).
	CheckpointEvery time.Duration
	// SegmentBytes is the WAL segment rotation size (default 4 MiB).
	SegmentBytes int64
	// ProjectDim, when positive, turns on the opt-in high-dimensional
	// fast path: once the first request pins a dataset dimension above
	// it, every ingested and deleted point is Johnson–Lindenstrauss
	// projected to ProjectDim dimensions at the handler and the whole
	// resident pipeline — shards, core-sets, caches, solve engines —
	// runs in the reduced space. Query responses map the selected set
	// back to the original points and report the TRUE-space diversity
	// value of that set (re-evaluated over the originals), within the
	// projection's distortion envelope of the unprojected answer. With
	// projection on, a delete arriving before any ingest also pins the
	// dataset dimension (the projector's shape must be fixed before
	// anything reaches the shards). Datasets at or below ProjectDim
	// dimensions pass through untouched. Incompatible with DataDir: the
	// projected→original map is in-memory only. Default 0 — off, with
	// every response and /v1/stats body byte-identical to earlier
	// versions.
	ProjectDim int
}

func (c Config) withDefaults() Config {
	if c.Shards < 1 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxK < 1 {
		c.MaxK = 16
	}
	if c.KPrime == 0 {
		c.KPrime = 4 * c.MaxK
	}
	if c.Buffer < 1 {
		c.Buffer = 64
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
	if c.Spares == 0 {
		c.Spares = 2
	}
	if c.Spares < 0 {
		c.Spares = 0
	}
	switch {
	case c.QueryDeadline == 0:
		c.QueryDeadline = 30 * time.Second
	case c.QueryDeadline < 0:
		c.QueryDeadline = 0 // disabled
	}
	switch {
	case c.IngestDeadline == 0:
		c.IngestDeadline = 30 * time.Second
	case c.IngestDeadline < 0:
		c.IngestDeadline = 0 // disabled
	}
	switch {
	case c.ShedWait == 0:
		c.ShedWait = time.Second
	case c.ShedWait < 0:
		c.ShedWait = 0 // disabled: block until the deadline
	}
	switch {
	case c.MaxInflight == 0:
		c.MaxInflight = max(16, 4*runtime.GOMAXPROCS(0))
	case c.MaxInflight < 0:
		c.MaxInflight = 0 // uncapped
	}
	switch {
	case c.RestartBudget == 0:
		c.RestartBudget = 3
	case c.RestartBudget < 0:
		c.RestartBudget = 0 // first panic fails the shard
	}
	if c.FsyncInterval <= 0 {
		c.FsyncInterval = 100 * time.Millisecond
	}
	if c.ProjectDim < 0 {
		c.ProjectDim = 0
	}
	switch {
	case c.CheckpointEvery == 0:
		c.CheckpointEvery = 15 * time.Second
	case c.CheckpointEvery < 0:
		c.CheckpointEvery = 0 // ticker disabled
	}
	return c
}

// maxIngestBody bounds a single /ingest request body.
const maxIngestBody = 32 << 20

var (
	errDraining = errors.New("server: draining, not accepting requests")
	// errOverloaded is load shedding: a shard queue stayed full past the
	// shed wait, or the inflight-query limiter is at capacity. Mapped to
	// 429 with a Retry-After header.
	errOverloaded = errors.New("server: overloaded, retry later")
)

// Server is the sharded diversity service. Create one with New, mount
// Handler on an http.Server, and Close it to drain.
type Server struct {
	cfg    Config
	shards []*shard
	wg     sync.WaitGroup

	// next deals ingested points round-robin across shards — the paper's
	// "arbitrary partition", which composability makes quality-neutral.
	next atomic.Uint64
	// dim pins the point dimensionality to that of the first batch.
	dim atomic.Int64

	// mu guards channel sends against Close: senders hold it for
	// reading, Close sets draining under the write lock so no send can
	// race the channel close.
	mu       sync.RWMutex
	draining bool

	// cache is the query path's merge cache over the shards
	// (snapshot.go), with its query counters.
	cache *merge.Cache[shardCursor]
	// Deletion counters, per /delete request point: each point lands in
	// exactly one bucket by its strongest outcome across shards and
	// families — evicting > spares > tombstoned.
	deletesRequested  atomic.Int64
	deletesEvicting   atomic.Int64
	deletesSpares     atomic.Int64
	deletesTombstoned atomic.Int64

	// Opt-in JL projection state (project.go): the lazily built
	// projector plus the projected→original map, and the count of
	// points projected at ingest.
	proj            projection
	projectedPoints atomic.Int64

	// Requests shed with 429 by the bounded-backpressure (ingest) and
	// inflight-query (query) limiters.
	ingestSheds atomic.Int64
	querySheds  atomic.Int64

	// querySem is the inflight-query limiter (nil when uncapped): a
	// query holds one slot across its merge and solve, so a burst
	// cannot pile up unbounded concurrent O(n²) work.
	querySem chan struct{}

	// Durability plumbing (zero-valued in in-memory mode): recoveries
	// counts shard recoveries performed (boot and panic-restart),
	// ckptStop/loopWG manage the checkpoint ticker goroutine, which
	// Close stops BEFORE closing the shard channels so the ticker can
	// never send on a closed channel.
	recoveries atomic.Int64
	ckptStop   chan struct{}
	loopWG     sync.WaitGroup
}

// New starts the shard goroutines and returns the service. It rejects an
// explicitly-set KPrime below MaxK rather than silently overriding it
// (matching the k′ ≥ k contract of the core-set constructions). With
// DataDir set it opens (or recovers) every shard's write-ahead log
// before any goroutine starts; recovery itself — checkpoint restore
// plus log-tail replay — runs on the shard goroutines, and /v1/readyz
// (or the Ready method) reports when all of them have finished.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.KPrime < cfg.MaxK {
		return nil, fmt.Errorf("server: kprime (%d) must be at least maxk (%d), or 0 for the default", cfg.KPrime, cfg.MaxK)
	}
	if cfg.ProjectDim > 0 && cfg.DataDir != "" {
		return nil, errors.New("server: projectdim is incompatible with datadir (the projected→original map is in-memory only)")
	}
	s := &Server{cfg: cfg, shards: make([]*shard, cfg.Shards)}
	if cfg.MaxInflight > 0 {
		s.querySem = make(chan struct{}, cfg.MaxInflight)
	}
	s.cache = merge.New(shardSource{s}, merge.Config{
		SolveWorkers: cfg.SolveWorkers,
		Memo:         cfg.SolutionMemo,
		DeltaBudget:  cfg.DeltaBudget,
		Reference:    cfg.DisableDeltaPatch,
		Quorum:       1,
	})
	logs := make([]*wal.Log, cfg.Shards)
	if cfg.DataDir != "" {
		for i := range logs {
			opts := wal.Options{
				Dir:          filepath.Join(cfg.DataDir, fmt.Sprintf("shard-%03d", i)),
				Sync:         cfg.Fsync,
				SyncEvery:    cfg.FsyncInterval,
				SegmentBytes: cfg.SegmentBytes,
			}
			if inj := cfg.Faults; inj != nil {
				shard := i
				opts.AppendHook = func(seq uint64, size int) int { return inj.WALAppend(shard, seq, size) }
				opts.CheckpointHook = func(size int) int { return inj.CheckpointWrite(shard, size) }
			}
			l, err := wal.Open(opts)
			if err != nil {
				for _, open := range logs[:i] {
					open.Close(false)
				}
				return nil, fmt.Errorf("server: shard %d wal: %w", i, err)
			}
			logs[i] = l
		}
	}
	for i := range s.shards {
		s.shards[i] = newShard(i, cfg, logs[i], &s.recoveries, &s.dim)
		s.wg.Add(1)
		go s.shards[i].run(&s.wg)
	}
	if cfg.DataDir != "" && cfg.CheckpointEvery > 0 {
		s.ckptStop = make(chan struct{})
		s.loopWG.Add(1)
		go s.checkpointLoop()
	}
	return s, nil
}

// checkpointLoop periodically asks every healthy shard to checkpoint,
// through the ordinary message channel (non-blocking: a busy shard
// whose queue is full just catches the next tick). Close stops this
// loop before closing the channels.
func (s *Server) checkpointLoop() {
	defer s.loopWG.Done()
	t := time.NewTicker(s.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.mu.RLock()
			if !s.draining {
				for _, sh := range s.shards {
					if sh.failed() {
						continue
					}
					select {
					case sh.ch <- shardMsg{ckpt: true}:
					default:
					}
				}
			}
			s.mu.RUnlock()
		case <-s.ckptStop:
			return
		}
	}
}

// Ready reports whether every shard has finished boot recovery and is
// serving (in-memory servers are ready immediately; /v1/readyz answers
// 503 while this is false).
func (s *Server) Ready() bool {
	for _, sh := range s.shards {
		if !sh.ready.Load() {
			return false
		}
	}
	return true
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Close drains the service: new requests are rejected with 503, every
// batch already accepted is processed, each durable shard flushes its
// WAL and writes a final checkpoint (so a clean restart replays zero
// records), and the shard goroutines exit. It is idempotent and safe to
// call concurrently with requests.
func (s *Server) Close() { s.close(0, false) }

// CloseTimeout is Close bounded by d: it reports whether the drain —
// including the final per-shard checkpoints — completed in time. On
// false the shards keep draining in the background; if the process
// exits anyway (the -drain-timeout path), the WAL already holds every
// accepted record, so the next start replays the tail the cut-short
// checkpoint would have covered.
func (s *Server) CloseTimeout(d time.Duration) bool { return s.close(d, false) }

// CloseAbrupt shuts down crash-shaped: queued work still drains (an
// accepted record is on disk either way), but no final checkpoint is
// written and the closing fsync is skipped — the data directory is left
// exactly as a kill would leave it. The recovery tests and benchmarks
// reopen from this state.
func (s *Server) CloseAbrupt() { s.close(0, true) }

func (s *Server) close(d time.Duration, abrupt bool) bool {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return true
	}
	s.draining = true
	s.mu.Unlock()
	if s.ckptStop != nil {
		close(s.ckptStop)
		s.loopWG.Wait()
	}
	if abrupt {
		for _, sh := range s.shards {
			sh.abrupt.Store(true)
		}
	}
	for _, sh := range s.shards {
		close(sh.ch)
	}
	if d <= 0 {
		s.wg.Wait()
		return true
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// Handler returns the HTTP API: every endpoint under the versioned
// api.Prefix, with the legacy unversioned paths as aliases served by
// the very same handlers (byte-identical bodies, pinned by the compat
// suite).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	healthz := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	}
	for _, prefix := range []string{api.Prefix, ""} {
		mux.HandleFunc(prefix+"/ingest", s.handleIngest)
		mux.HandleFunc(prefix+"/delete", s.handleDelete)
		mux.HandleFunc(prefix+"/query", s.handleQuery)
		mux.HandleFunc(prefix+"/snapshot", s.handleSnapshot)
		mux.HandleFunc(prefix+"/stats", s.handleStats)
		mux.HandleFunc(prefix+"/healthz", healthz)
		mux.HandleFunc(prefix+"/readyz", s.handleReadyz)
	}
	return mux
}

// The handlers' wire types are the versioned ones of internal/api;
// local aliases keep the package and its tests reading naturally.
type (
	ingestRequest  = api.IngestRequest
	ingestResponse = api.IngestResponse
	deleteRequest  = api.DeleteRequest
	deleteResponse = api.DeleteResponse
	queryResponse  = api.QueryResponse
	shardStats     = api.ShardStats
	statsResponse  = api.StatsResponse
)

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	// Decode into a pooled buffer: the outer []Vector backing array is
	// recycled across requests, while the decoder allocates every point
	// as a Vector of its own (api.ReadBatch) — the shards retain
	// accepted points. The buffer is safe to release when the handler
	// returns because the per-shard batches copy the point headers they
	// need.
	bufp := getVecSlice()
	defer putVecSlice(bufp)
	req := ingestRequest{Points: *bufp}
	err := api.ReadBatch(http.MaxBytesReader(w, r.Body, maxIngestBody), &req)
	if len(req.Points) > 0 {
		*bufp = req.Points // hand any grown backing array back to the pool
	}
	if err != nil {
		status, msg := api.BatchError(err)
		api.WriteError(w, status, "%s", msg)
		return
	}
	if len(req.Points) == 0 {
		writeJSON(w, ingestResponse{Accepted: 0, Shards: len(s.shards)})
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
	if !s.dim.CompareAndSwap(0, dim) && s.dim.Load() != dim {
		api.WriteError(w, http.StatusBadRequest, "point dimension %d does not match the dataset dimension %d", dim, s.dim.Load())
		return
	}
	// With projection on, the shards fold the reduced-space batch; the
	// originals are recorded for query-time mapping. Pass-through
	// otherwise.
	pts := s.projectIngest(req.Points)

	// Deal the batch round-robin into pooled per-shard batches,
	// continuing where the previous request left off so small batches
	// still spread across shards.
	n := uint64(len(pts))
	start := s.next.Add(n) - n
	batches := make([]*[]divmax.Vector, len(s.shards))
	for i := range batches {
		batches[i] = getVecSlice()
	}
	for i, p := range pts {
		sh := (start + uint64(i)) % uint64(len(s.shards))
		*batches[sh] = append(*batches[sh], p)
	}

	ctx, cancel := api.RequestContext(r, s.cfg.IngestDeadline)
	defer cancel()
	if err := s.send(ctx, batches); err != nil {
		s.writeFailure(w, err)
		return
	}
	writeJSON(w, ingestResponse{Accepted: len(req.Points), Shards: len(s.shards)})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	bufp := getVecSlice()
	defer putVecSlice(bufp)
	req := deleteRequest{Points: *bufp}
	err := api.ReadBatch(http.MaxBytesReader(w, r.Body, maxIngestBody), &req)
	if len(req.Points) > 0 {
		*bufp = req.Points
	}
	if err != nil {
		status, msg := api.BatchError(err)
		api.WriteError(w, status, "%s", msg)
		return
	}
	if len(req.Points) == 0 {
		writeJSON(w, deleteResponse{Shards: len(s.shards)})
		return
	}
	if err := dataset.ValidateVectors(req.Points); err != nil {
		api.WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Deletes of a dimension the stream has never seen cannot match
	// anything; rejecting them catches caller bugs the same way ingest
	// does. An empty server (dim still 0) accepts any dimension — every
	// point is a tombstone.
	if dim, want := int64(len(req.Points[0])), s.dim.Load(); want != 0 && dim != want {
		api.WriteError(w, http.StatusBadRequest, "point dimension %d does not match the dataset dimension %d", dim, want)
		return
	}
	pts := req.Points
	if s.cfg.ProjectDim > 0 {
		// The shards store reduced-space points, so deletes must chase
		// them there. A delete before any ingest pins the dataset
		// dimension (the projector's shape is fixed at first use).
		s.dim.CompareAndSwap(0, int64(len(req.Points[0])))
		pts = s.projectDelete(req.Points)
	}
	ctx, cancel := api.RequestContext(r, s.cfg.IngestDeadline)
	defer cancel()
	outcomes, err := s.deleteAll(ctx, pts)
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	resp := deleteResponse{Requested: len(req.Points), Shards: len(s.shards)}
	for _, o := range outcomes {
		switch o {
		case divmax.DeleteEvicted:
			resp.Evicted++
		case divmax.DeleteSpare:
			resp.Spares++
		default:
			resp.Tombstones++
		}
	}
	if req.WantOutcomes {
		resp.Outcomes = make([]int, len(outcomes))
		for i, o := range outcomes {
			resp.Outcomes[i] = int(o)
		}
	}
	s.deletesRequested.Add(int64(resp.Requested))
	s.deletesEvicting.Add(int64(resp.Evicted))
	s.deletesSpares.Add(int64(resp.Spares))
	s.deletesTombstoned.Add(int64(resp.Tombstones))
	writeJSON(w, resp)
}

// failedShard returns the error for the first permanently failed shard,
// nil when all are healthy. Ingest and delete fail closed on it; the
// query path lets the caller decide whether to degrade.
func (s *Server) failedShard() error {
	for _, sh := range s.shards {
		if sh.failed() {
			return &shardFailedError{id: sh.id}
		}
	}
	return nil
}

// deliver enqueues msg on sh's channel. A full queue waits at most the
// shed wait when shed is true (then errOverloaded — load shedding
// instead of unbounded blocking backpressure) and at most the request
// deadline either way (then the context error). The fast path is a
// non-blocking send, so an uncontended queue never allocates a timer.
func (s *Server) deliver(ctx context.Context, sh *shard, msg shardMsg, shed bool) error {
	select {
	case sh.ch <- msg:
		return nil
	default:
	}
	var shedC <-chan time.Time
	if shed && s.cfg.ShedWait > 0 {
		t := time.NewTimer(s.cfg.ShedWait)
		defer t.Stop()
		shedC = t.C
	}
	select {
	case sh.ch <- msg:
		return nil
	case <-shedC:
		return errOverloaded
	case <-ctx.Done():
		return ctx.Err()
	}
}

// deleteAll broadcasts the delete batch to every shard — round-robin
// dealing means any shard may hold a copy of any value — and folds the
// per-shard replies into one outcome per point (the strongest across
// shards: evicted > spare > absent). Like send, it bumps each shard's
// accepted epoch before the channel send, so by the time /delete
// returns every query-cache epoch check sees the deletion; the shared
// points slice is read-only for the shards and stays alive until every
// reply is in (reply channels are buffered, so a late reply after an
// abort never blocks the shard). An abort mid-broadcast — deadline,
// shed, or a shard failing under us — leaves the delete applied on the
// shards already reached; the error response tells the caller the
// broadcast did not complete, and retrying a delete is idempotent.
func (s *Server) deleteAll(ctx context.Context, points []divmax.Vector) ([]divmax.DeleteOutcome, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return nil, errDraining
	}
	if err := s.failedShard(); err != nil {
		return nil, err
	}
	replies := make([]chan deleteReply, len(s.shards))
	for i, sh := range s.shards {
		replies[i] = make(chan deleteReply, 1)
		sh.accEpoch.Add(1)
		if err := s.logAndDeliver(ctx, sh, wal.KindDelete, points, shardMsg{del: points, delReply: replies[i]}); err != nil {
			sh.accEpoch.Add(^uint64(0)) // undo: this shard never got the delete
			if errors.Is(err, errOverloaded) {
				s.ingestSheds.Add(1)
			}
			return nil, err
		}
	}
	out := make([]divmax.DeleteOutcome, len(points))
	for _, ch := range replies {
		select {
		case rep := <-ch:
			if rep.err != nil {
				return nil, rep.err
			}
			for j, o := range rep.outs {
				out[j] = max(out[j], o)
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return out, nil
}

// send delivers one batch per shard, holding the read lock so Close
// cannot close the channels mid-send. A full shard queue applies
// backpressure bounded by the shed wait (then 429) and the ingest
// deadline (then 504); an abort mid-fan-out leaves the batches already
// delivered in place — those points ARE ingested (and counted by
// /stats) — and undoes only the aborted shard's accepted epoch, so the
// epoch lockstep with the query cache survives partial ingest.
// Non-empty batches are released back to the pool by the receiving
// shard goroutine; empty, undelivered, and drain-rejected ones are
// released here.
func (s *Server) send(ctx context.Context, batches []*[]divmax.Vector) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	release := func(from int) {
		for _, b := range batches[from:] {
			putVecSlice(b)
		}
	}
	if s.draining {
		release(0)
		return errDraining
	}
	if err := s.failedShard(); err != nil {
		release(0)
		return err
	}
	for i, b := range batches {
		if len(*b) == 0 {
			putVecSlice(b)
			continue
		}
		sh := s.shards[i]
		// Bump the accepted epoch before the channel send: once /ingest
		// returns, every accepted batch is visible to the query cache's
		// epoch check, so no later query can serve a merge that predates
		// this batch.
		sh.accEpoch.Add(1)
		if err := s.logAndDeliver(ctx, sh, wal.KindIngest, *b, shardMsg{batch: b}); err != nil {
			sh.accEpoch.Add(^uint64(0)) // undo: the batch was never delivered
			if errors.Is(err, errOverloaded) {
				s.ingestSheds.Add(1)
			}
			release(i)
			return err
		}
	}
	return nil
}

// logAndDeliver routes one ingest or delete message to its shard. In
// memory it is a plain deliver; with a WAL the record is appended FIRST
// and the channel send runs as the append's deliver callback — under
// the log mutex, so per-shard log order and fold order cannot diverge —
// and a send that fails (shed, deadline, drain) truncates the record
// back off as if it never happened. A crashed log (torn write, fsync
// failure, injected fault) fails writes closed with wal.ErrCrashed,
// which the handlers surface as 503 while queries keep serving.
func (s *Server) logAndDeliver(ctx context.Context, sh *shard, kind wal.Kind, pts []divmax.Vector, msg shardMsg) error {
	if sh.log == nil {
		return s.deliver(ctx, sh, msg, true)
	}
	_, err := sh.log.Append(kind, pts, func(seq uint64) error {
		msg.seq = seq
		return s.deliver(ctx, sh, msg, true)
	})
	return err
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
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
	k := s.cfg.MaxK
	if arg := q.Get("k"); arg != "" {
		var err error
		if k, err = strconv.Atoi(arg); err != nil {
			api.WriteError(w, http.StatusBadRequest, "bad k: %v", err)
			return
		}
	}
	if k < 1 || k > s.cfg.MaxK {
		api.WriteError(w, http.StatusBadRequest, "k must be in [1, %d] (the server's maxk), got %d", s.cfg.MaxK, k)
		return
	}
	ctx, cancel := api.RequestContext(r, s.cfg.QueryDeadline)
	defer cancel()

	// The inflight-query limiter: a query holds one slot across its
	// merge and solve, so a burst cannot pile up unbounded concurrent
	// O(n²) work — excess queries wait up to the shed wait for a slot
	// and are then shed with 429.
	if s.querySem != nil {
		var shedC <-chan time.Time
		if s.cfg.ShedWait > 0 {
			t := time.NewTimer(s.cfg.ShedWait)
			defer t.Stop()
			shedC = t.C
		}
		select {
		case s.querySem <- struct{}{}:
			defer func() { <-s.querySem }()
		case <-shedC:
			s.querySheds.Add(1)
			s.writeFailure(w, errOverloaded)
			return
		case <-ctx.Done():
			s.writeFailure(w, ctx.Err())
			return
		}
	}

	// The merge: round-2 aggregation over the composable per-shard
	// core-sets — served from the merge cache while no shard accepted a
	// batch since it was built, patched when the shards can serve pure
	// deltas, rebuilt (snapshot + merge + matrix fill) otherwise. With
	// degraded queries enabled, the normal fan-out gets half the
	// deadline: if it cannot complete — a failed shard, a wedged one —
	// the remainder buys a degraded round over the surviving shards
	// instead of a bare 503/504. Under projection the solver picks
	// projected points, mapped back to the originals before evaluating.
	mctx := ctx
	if s.cfg.DegradedQueries && s.cfg.QueryDeadline > 0 {
		var mcancel context.CancelFunc
		mctx, mcancel = context.WithTimeout(ctx, s.cfg.QueryDeadline/2)
		defer mcancel()
	}
	resp, err := s.cache.Query(mctx, m, k, s.unproject)
	if err != nil && s.cfg.DegradedQueries && !errors.Is(err, errDraining) {
		var missing int
		resp, missing, err = s.cache.Degraded(ctx, m, k, s.unproject)
		resp.ShardsMissing = missing
	}
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	writeJSON(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		api.WriteError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	resp := statsResponse{
		Shards:            make([]shardStats, len(s.shards)),
		DeletesRequested:  s.deletesRequested.Load(),
		DeletesEvicting:   s.deletesEvicting.Load(),
		DeletesSpares:     s.deletesSpares.Load(),
		DeletesTombstoned: s.deletesTombstoned.Load(),
		MaxK:              s.cfg.MaxK,
		KPrime:            s.cfg.KPrime,
		ProjectDim:        s.cfg.ProjectDim,
		ProjectedPoints:   s.projectedPoints.Load(),
	}
	s.cache.FillStats(&resp)
	s.mu.RLock()
	resp.Draining = s.draining
	s.mu.RUnlock()
	resp.IngestSheds = s.ingestSheds.Load()
	resp.QuerySheds = s.querySheds.Load()
	resp.Recoveries = s.recoveries.Load()
	for i, sh := range s.shards {
		st := shardStats{
			ID:         sh.id,
			Ingested:   sh.ingested.Load(),
			Batches:    sh.batches.Load(),
			LastBatch:  sh.lastBatch.Load(),
			Stored:     sh.stored.Load(),
			Deleted:    sh.deleted.Load(),
			Health:     "healthy",
			QueueDepth: len(sh.ch),
			Restarts:   sh.restarts.Load(),
			Panics:     sh.panics.Load(),
		}
		if sh.log != nil {
			st.WALBytes, st.WALSegments = sh.log.Stats()
			st.ReplayedPoints = sh.replayed.Load()
			if ms := sh.lastCkptMS.Load(); ms != 0 {
				// Floored at 1ms so the field reliably appears (omitempty)
				// once a checkpoint exists.
				st.CheckpointAgeMS = float64(max(time.Now().UnixMilli()-ms, 1))
			}
		}
		if sh.failed() {
			st.Health = "failed"
			resp.ShardsFailed++
		}
		if st.Batches > 0 {
			st.AvgBatch = float64(st.Ingested) / float64(st.Batches)
		}
		resp.Shards[i] = st
		resp.IngestedTotal += st.Ingested
		resp.ShardRestarts += st.Restarts
	}
	writeJSON(w, resp)
}

// handleReadyz is the readiness probe, distinct from /healthz liveness:
// a draining server, or one with more than half its shards permanently
// failed, answers 503 with the uniform envelope so load balancers stop
// routing to it — while /healthz keeps answering ok, because the
// process itself is alive and (with degraded queries on) still useful.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		api.WriteError(w, http.StatusServiceUnavailable, "%v", errDraining)
		return
	}
	recovering := 0
	for _, sh := range s.shards {
		if !sh.ready.Load() {
			recovering++
		}
	}
	if recovering > 0 {
		api.WriteError(w, http.StatusServiceUnavailable, "server: not ready, recovering %d of %d shards", recovering, len(s.shards))
		return
	}
	failed := 0
	for _, sh := range s.shards {
		if sh.failed() {
			failed++
		}
	}
	if failed*2 > len(s.shards) {
		api.WriteError(w, http.StatusServiceUnavailable, "server: not ready, %d of %d shards failed permanently", failed, len(s.shards))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// logf is the server's error logger; a variable so tests can intercept
// what gets logged.
var logf = log.Printf

func writeJSON(w http.ResponseWriter, v any) {
	api.WriteJSON(w, v, func(err error) { logf("server: encoding response: %v", err) })
}

// writeFailure maps a fan-out error onto the wire: an expired deadline
// is 504 (deadline_exceeded, with a fixed message so the /v1 and legacy
// bodies stay byte-identical), load shedding is 429 (overloaded) with a
// Retry-After hint derived from the shed wait, and everything else —
// draining, failed shards — is 503 (unavailable), exactly the bytes the
// pre-robustness server wrote for errDraining.
func (s *Server) writeFailure(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		api.WriteError(w, http.StatusGatewayTimeout, "request deadline exceeded")
	case errors.Is(err, errOverloaded):
		retry := int(math.Ceil(s.cfg.ShedWait.Seconds()))
		if retry < 1 {
			retry = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(retry))
		api.WriteError(w, http.StatusTooManyRequests, "%v", err)
	default:
		api.WriteError(w, http.StatusServiceUnavailable, "%v", err)
	}
}
