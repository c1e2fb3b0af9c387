// Package api defines divmaxd's versioned wire contract: the typed
// request and response bodies of every /v1 endpoint, and the uniform
// error envelope. The server handlers, cmd/bench, and the tests all
// encode and decode through these structs, so the wire shapes live in
// exactly one place before multi-node scale-out freezes them.
//
// Versioning: every endpoint is mounted under /v1 (Prefix); the
// original unversioned paths remain as aliases served by the same
// handlers, byte-identical body for body. New fields may be added to
// responses within /v1; renaming or removing one is a new version.
package api

import "divmax"

// Prefix is the path prefix of the current API version. The legacy
// unversioned paths are aliases of the /v1 ones.
const Prefix = "/v1"

// Error codes of the uniform envelope, mapped 1:1 from HTTP status:
// every non-2xx response body is an ErrorEnvelope carrying one of
// these.
const (
	// CodeBadRequest (400): malformed JSON, invalid points (mixed
	// dimensions, NaN/Inf), out-of-range parameters, unknown measure.
	CodeBadRequest = "bad_request"
	// CodeMethodNotAllowed (405): wrong HTTP method for the endpoint.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodePayloadTooLarge (413): request body over the ingest limit.
	CodePayloadTooLarge = "payload_too_large"
	// CodeUnavailable (503): the server is draining (Close was called),
	// or a shard has failed permanently and the request needs it
	// (fail-closed queries, every ingest and delete).
	CodeUnavailable = "unavailable"
	// CodeDeadlineExceeded (504): the request's deadline (the
	// -query-deadline / -ingest-deadline flags, or the client hanging
	// up) expired before the shard fan-out completed.
	CodeDeadlineExceeded = "deadline_exceeded"
	// CodeOverloaded (429): load shed — a shard's ingest queue stayed
	// full past the shed wait, or the inflight-query limiter is at
	// capacity. The response carries a Retry-After header.
	CodeOverloaded = "overloaded"
)

// ErrorEnvelope is the body of every error response:
// {"error":{"code":"bad_request","message":"..."}}.
type ErrorEnvelope struct {
	Error ErrorDetail `json:"error"`
}

// ErrorDetail carries the machine-readable code and the human-readable
// message of an error response.
type ErrorDetail struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// IngestRequest is the body of POST /v1/ingest: a batch of points,
// uniform dimension, finite coordinates.
type IngestRequest struct {
	Points []divmax.Vector `json:"points"`
}

// IngestResponse acknowledges an ingest batch.
type IngestResponse struct {
	// Accepted is the number of points dealt to the shards.
	Accepted int `json:"accepted"`
	// Shards is the server's shard count.
	Shards int `json:"shards"`
}

// DeleteRequest is the body of POST /v1/delete: points to remove from
// the stream's ground set. Deletion is by value — every retained copy
// at distance 0 is removed on every shard, so callers need no handles
// into server state.
type DeleteRequest struct {
	Points []divmax.Vector `json:"points"`
	// WantOutcomes asks for the per-point outcome array in the response
	// (omitempty: absent requests keep the pre-cluster wire bytes). The
	// coordinator sets it so it can fold each point's strongest outcome
	// across workers instead of summing double-counted totals.
	WantOutcomes bool `json:"want_outcomes,omitempty"`
}

// DeleteResponse reports what a delete batch did, per point classified
// by the strongest outcome across shards and core-set families.
type DeleteResponse struct {
	// Requested is the number of points in the request.
	Requested int `json:"requested"`
	// Evicted counts points whose removal evicted a core-set point
	// somewhere — the expensive case: the affected core-sets re-covered
	// locally and bumped their snapshot generation, so the next query
	// on a stale cache rebuilds instead of patching.
	Evicted int `json:"evicted"`
	// Spares counts points that only removed spare (backup) points;
	// core-set outputs and generations unchanged, caches keep patching.
	Spares int `json:"spares"`
	// Tombstones counts points with no retained copy anywhere — either
	// never ingested or absorbed without retention. Free: nothing
	// structural changed.
	Tombstones int `json:"tombstones"`
	// Shards is the server's shard count (every delete is broadcast).
	Shards int `json:"shards"`
	// Outcomes, present only when the request set want_outcomes, holds
	// one entry per request point in order: 0 tombstone, 1 spare, 2
	// evicted (divmax.DeleteAbsent/DeleteSpare/DeleteEvicted).
	Outcomes []int `json:"outcomes,omitempty"`
}

// QueryResponse is the body of GET /v1/query.
type QueryResponse struct {
	Measure     string          `json:"measure"`
	K           int             `json:"k"`
	Solution    []divmax.Vector `json:"solution"`
	Value       float64         `json:"value"`
	Exact       bool            `json:"exact_value"`
	CoresetSize int             `json:"coreset_size"`
	Processed   int64           `json:"processed"`
	MergeMillis float64         `json:"merge_ms"`
	// Cached reports that the merged core-set and its distance matrix
	// were reused from the snapshot cache (no shard accepted a batch
	// since they were built); merge_ms then covers only the solve — or
	// nothing at all when the (measure, k) answer itself was memoized.
	Cached bool `json:"cached"`
	// Patched reports that this query found the cache stale and
	// repaired it incrementally — per-shard core-set deltas appended to
	// the cached union, the retained solve engine extended — instead of
	// re-snapshotting, re-merging, and re-filling from scratch.
	Patched bool `json:"patched"`
	// WarmStarted reports that the answer was carried over from the
	// previous merged state's memo after a replay verification proved
	// it identical to what a cold solve over the patched union would
	// return (delta-aware memo reuse; no solve ran).
	WarmStarted bool `json:"warm_started"`
	// Degraded reports that the fan-out hit failed or unresponsive
	// shards and the answer was solved over the surviving shards'
	// merged core-set only (opt-in via -degraded-queries; the default
	// is fail-closed). The answer keeps the composable-core-set
	// guarantee over the points the surviving shards ingested;
	// ShardsMissing counts the shards that did not contribute.
	Degraded      bool `json:"degraded,omitempty"`
	ShardsMissing int  `json:"shards_missing,omitempty"`
	// WorkersMissing is the coordinator-tier analogue of ShardsMissing:
	// the number of remote workers that did not contribute to a
	// quorum-degraded answer. Always absent from single-process
	// responses.
	WorkersMissing int `json:"workers_missing,omitempty"`
}

// SnapshotRequest is the body of POST /v1/snapshot — the coordinator's
// round-1 fetch: a worker's merged core-set for one family, optionally
// incremental against the caller's previous view.
type SnapshotRequest struct {
	// Family selects the core-set family: "edge" (SMM — remote-edge,
	// remote-cycle) or "proxy" (SMM-EXT — the four injective-proxy
	// measures).
	Family string `json:"family"`
	// Cursor, when present, is the cursor of the caller's previous
	// snapshot of this worker; the worker then answers with a pure
	// delta if none of its shards restructured since, a full snapshot
	// otherwise. Absent forces a full snapshot.
	Cursor *SnapshotCursor `json:"cursor,omitempty"`
}

// SnapshotCursor identifies a snapshot for the next incremental
// request: each of the worker's shards' core-set generation and
// append-log position at snapshot time (gens[i], poss[i] for shard i).
// Opaque to the coordinator beyond equality of length.
type SnapshotCursor struct {
	Gens []uint64 `json:"gens"`
	Poss []int    `json:"poss"`
}

// SnapshotResponse is a worker's answer to POST /v1/snapshot.
type SnapshotResponse struct {
	// Partial reports that Points extends the caller's earlier view
	// (the points that joined this worker's core-sets since the
	// request cursor, possibly none) instead of replacing it.
	Partial bool `json:"partial"`
	// Points is the worker's merged core-set across its shards (shard
	// order), or the delta when Partial.
	Points []divmax.Vector `json:"points"`
	// Processed is the total number of stream points this worker's
	// snapshot reflects (always the absolute total, delta or not).
	Processed int64 `json:"processed"`
	// Cursor is this snapshot's identity, to pass back next time.
	Cursor SnapshotCursor `json:"cursor"`
	// Shards is the worker's shard count.
	Shards int `json:"shards"`
}

// WorkerStats is one remote worker's slice of a coordinator's GET
// /v1/stats.
type WorkerStats struct {
	ID  int    `json:"id"`
	URL string `json:"url"`
	// State is "healthy" (serving), "suspect" (recent probe failures,
	// below the eviction threshold), or "evicted" (failing probes —
	// ingest reroutes around it, queries count it missing — until a
	// probe succeeds again after recovery).
	State string `json:"state"`
	// ConsecutiveFailures is the current run of failed health probes.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// LastProbeMS is the round-trip time of the last successful health
	// probe.
	LastProbeMS float64 `json:"last_probe_ms"`
	// HedgedRequests counts snapshot fetches where this worker lagged
	// past the hedge delay and a second attempt was launched.
	HedgedRequests int64 `json:"hedged_requests"`
	// Retries counts request attempts beyond the first (connection
	// errors, 5xx, 429 backoff) across all endpoints.
	Retries int64 `json:"retries"`
	// Evictions counts the times the prober evicted this worker.
	Evictions int64 `json:"evictions"`
	// IngestedPoints counts the points this coordinator routed to the
	// worker.
	IngestedPoints int64 `json:"ingested_points"`
}

// ShardStats is one shard's slice of GET /v1/stats.
type ShardStats struct {
	ID       int   `json:"id"`
	Ingested int64 `json:"ingested"`
	Batches  int64 `json:"batches"`
	// LastBatch and AvgBatch report the per-shard batch sizes the ingest
	// path is achieving; small averages mean the fast path is amortizing
	// little and callers should send bigger /ingest bodies.
	LastBatch int64   `json:"last_batch"`
	AvgBatch  float64 `json:"avg_batch"`
	Stored    int64   `json:"stored_points"`
	// Deleted counts the points this shard actually removed (evictions
	// and spares; broadcast tombstones that matched nothing here are
	// not counted).
	Deleted int64 `json:"deleted_points"`
	// Health is "healthy" while the shard goroutine is serving and
	// "failed" once it has exhausted its restart budget (it then
	// answers every message with an error instead of going dark).
	Health string `json:"health"`
	// QueueDepth is the number of batches currently buffered in the
	// shard's ingest queue — a sustained full queue is what triggers
	// load shedding.
	QueueDepth int `json:"queue_depth"`
	// Restarts counts supervisor restarts (panic recovered, core-sets
	// rebuilt fresh); Panics counts every recovered panic, including
	// the one that exhausted the budget.
	Restarts int64 `json:"restarts"`
	Panics   int64 `json:"panics"`
	// Durability fields, present only when the server runs with a data
	// directory (omitempty keeps in-memory /v1/stats bodies
	// byte-identical to earlier versions): WALBytes / WALSegments size
	// the shard's write-ahead log on disk, CheckpointAgeMS is the
	// wall-clock age of its latest core-set checkpoint (floored at 1ms
	// so the field appears as soon as one exists; absent before the
	// first), and ReplayedPoints counts points re-folded from the log
	// across all of the shard's recoveries.
	WALBytes        int64   `json:"wal_bytes,omitempty"`
	WALSegments     int     `json:"wal_segments,omitempty"`
	CheckpointAgeMS float64 `json:"checkpoint_age_ms,omitempty"`
	ReplayedPoints  int64   `json:"replayed_points,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Shards        []ShardStats `json:"shards"`
	IngestedTotal int64        `json:"ingested_total"`
	Queries       int64        `json:"queries"`
	Merges        int64        `json:"merges"`
	LastMergeMS   float64      `json:"last_merge_ms"`
	// Query-path snapshot cache counters: a hit served the merged
	// core-set (and its solve engine) without touching the shards; a
	// miss found no current state. Misses split by cause — cold (first
	// query of a family: server start, nothing cached yet) versus
	// invalidated (a shard accepted a batch or a delete since the
	// cached merge) — and every miss resolves as either a delta patch
	// (the cached union and engine extended by the per-shard core-set
	// deltas) or a full rebuild (snapshot + merge + fill from scratch),
	// counted under DeltaPatches and FullRebuilds. CacheMisses remains
	// the total. CachedCoresetPoints and CachedMatrixBytes size what
	// the caches currently retain, summed over the two core-set
	// families (tiled engines retain no matrix, so they contribute 0
	// bytes). CachedMatrixBytes counts each retained matrix buffer
	// whole, the headroom beyond its n×n view included: a patch grows a
	// buffer a quarter wider than it needs, and a rebuild into a
	// retired buffer keeps that buffer's width. It includes the buffer
	// a rebuild keeps for the next one to reuse.
	CacheHits           int64 `json:"query_cache_hits"`
	CacheMisses         int64 `json:"query_cache_misses"`
	MissesCold          int64 `json:"query_cache_misses_cold"`
	MissesInvalidated   int64 `json:"query_cache_misses_invalidated"`
	DeltaPatches        int64 `json:"delta_patches"`
	FullRebuilds        int64 `json:"full_rebuilds"`
	CachedCoresetPoints int   `json:"cached_coreset_points"`
	CachedMatrixBytes   int64 `json:"cached_matrix_bytes"`
	// MemoWarmStarts counts stale (measure, k) answers served after the
	// replay verification proved them identical to a cold solve over
	// the patched union (delta-aware memo reuse).
	MemoWarmStarts int64 `json:"memo_warm_starts"`
	// Deletion counters, per request point (not per shard): every
	// /delete point lands in exactly one of the three buckets —
	// evicting (restructured some core-set), spares (removed backups
	// only), tombstoned (matched nothing retained).
	DeletesRequested  int64 `json:"deletes_requested"`
	DeletesEvicting   int64 `json:"deletes_evicting"`
	DeletesSpares     int64 `json:"deletes_spares"`
	DeletesTombstoned int64 `json:"deletes_tombstoned"`
	// SolveWorkers is the configured round-2 solver parallelism;
	// TiledSolves counts solves that ran through the tiled engine
	// (merged union past the matrix memory budget).
	SolveWorkers int   `json:"solve_workers"`
	TiledSolves  int64 `json:"tiled_solves"`
	// Robustness counters: ShardsFailed is the current number of
	// permanently failed shards (restart budget exhausted),
	// ShardRestarts the supervisor restarts performed so far across all
	// shards, DegradedQueries the queries answered from surviving
	// shards only, IngestSheds / QuerySheds the requests rejected with
	// 429 by the bounded-backpressure and inflight-query limiters.
	ShardsFailed    int   `json:"shards_failed"`
	ShardRestarts   int64 `json:"shard_restarts"`
	DegradedQueries int64 `json:"degraded_queries"`
	IngestSheds     int64 `json:"ingest_sheds"`
	QuerySheds      int64 `json:"query_sheds"`
	MaxK            int   `json:"max_k"`
	KPrime          int   `json:"kprime"`
	Draining        bool  `json:"draining"`
	// Projection fields, present only when the server runs with
	// -project-dim (omitempty keeps unprojected /v1/stats bodies
	// byte-identical): ProjectDim is the configured reduced dimension,
	// ProjectedPoints the number of ingested points projected so far
	// (stays 0 — and absent — while the dataset dimension is at or
	// below ProjectDim, where ingest passes through).
	ProjectDim      int   `json:"project_dim,omitempty"`
	ProjectedPoints int64 `json:"projected_points,omitempty"`
	// Recoveries counts shard recoveries performed — boot-time restores
	// (checkpoint + log-tail replay) and lossless panic-restart replays
	// — since the process started. Absent (omitempty) on in-memory
	// servers and on durable ones that started from an empty directory.
	Recoveries int64 `json:"recoveries,omitempty"`
	// Coordinator-tier fields, all omitempty so single-process /v1/stats
	// bodies stay byte-identical: Workers is per-worker health and
	// traffic, Quorum the minimum responsive workers a query needs,
	// WorkersEvicted the currently evicted count.
	Workers        []WorkerStats `json:"workers,omitempty"`
	Quorum         int           `json:"quorum,omitempty"`
	WorkersEvicted int           `json:"workers_evicted,omitempty"`
}
