package server

import (
	"context"
	"math"
	"slices"
	"sync"

	"divmax"
	"divmax/internal/metric"
	"divmax/internal/sequential"
)

// Query-path snapshot cache, with incremental (copy-on-patch) merges.
//
// The expensive part of /query is not the sequential solve alone: it is
// snapshotting every shard, merging the per-shard core-sets, and — on
// the remote-clique path — building the union's solve engine (the
// pairwise DistMatrix fill within the memory budget, the flat store
// behind tiled solves beyond it). None of that depends on (k, measure)
// beyond the core-set family, and all of it is a pure function of how
// many batches each shard has folded in. So the server keeps, per
// family, the last merged state keyed by the per-shard ingest epochs:
// while no shard has accepted a new batch, a query reuses the
// previously merged core-set and its engine (and, for a repeated
// (measure, k), the previously solved answer) instead of re-merging and
// re-building from scratch.
//
// When a shard HAS accepted a batch, the cache patches instead of
// rebuilding whenever it can. Each shard's StreamCoreset reports, via
// SnapshotSince, either a pure delta — the points that joined its
// core-set since the cached state, valid exactly while the core-set has
// not restructured (its generation is unchanged) — or a full snapshot.
// If every shard reports a pure delta and the deltas total at most
// Config.DeltaBudget × the cached union, the stale query patches: it
// clones the union header, appends the deltas (in shard order), extends
// a copy-safe fork of the solve engine — new matrix rows plus the
// old×new column stripe via capacity-doubling DistMatrix.Grown, or just
// the flat store in tiled mode — and installs the new state. A single
// accepted point therefore costs O(delta·union) instead of the
// O(union²) refill the pre-PR-5 cache paid. If any shard's generation
// moved, or the deltas exceed the budget, the query falls back to the
// full snapshot + merge + fill path.
//
// Correctness. A patched union is the cached union plus every point
// that joined any shard's core-set since — a set of genuine stream
// points that contains each shard's current core-set as a subset (see
// divmax.CoresetDelta), so solving over it keeps the full α+ε core-set
// guarantee. A patched union's ORDER is the cached order with deltas
// appended, which is not the order a from-scratch shard concatenation
// would produce; the engine equivalence that matters — and that the
// interleaving fuzz harness pins — is that a patched state is
// bit-identical, solutions and engine mode, to rebuilding the engine
// from scratch over the same patched union (BuildEngine(prefix) +
// Append(delta) ≡ BuildEngine(all), internal/sequential's append
// equivalence tests). Config.DisableDeltaPatch switches a server to
// exactly that reference behavior: identical patch/fallback decisions
// and identical unions, every engine built from scratch.
//
// Results are identical with and without the cache on an unchanged
// stream: a cache hit serves exactly the state an uncached query would
// rebuild, and the engine solvers select bit-identically to the generic
// path for every worker count and both engine modes.

// cacheFamilies indexes the two core-set families: 0 — SMM (remote-edge,
// remote-cycle), 1 — SMM-EXT (the four injective-proxy measures).
const cacheFamilies = 2

func cacheIndex(proxy bool) int {
	if proxy {
		return 1
	}
	return 0
}

// solutionKey memoizes solved answers within one merged state; the state
// is immutable, so a (measure, k) solve is a pure function of it.
type solutionKey struct {
	measure divmax.Measure
	k       int
}

// solvedQuery is a memoized answer, stored response-ready (non-nil
// solution, finite value). idx holds the engine indices the solution
// was selected at — positions into the owning state's union, nil when
// the solve ran on the generic (engine-less) path — and is what lets a
// later patched state replay the selection against its delta points to
// prove the stale answer still exact (warmStartValid).
type solvedQuery struct {
	sol   []divmax.Vector
	idx   []int
	val   float64
	exact bool
}

// mergeState is one family's merged view of the stream at a fixed vector
// of shard epochs. union and engine are immutable after construction and
// shared by every query that hits this state; solutions is guarded by
// the owning familyCache's mutex.
type mergeState struct {
	// epochs[i] is shard i's processed-batch count at snapshot time.
	epochs []uint64
	// gens[i] and poss[i] are shard i's core-set generation and
	// append-log position at snapshot time (per family), handed back to
	// SnapshotSince so the next stale query can request a pure delta.
	gens []uint64
	poss []int
	// union is the merged per-shard core-set family: a concatenation of
	// full shard snapshots after a rebuild, or the previous union plus
	// the per-shard deltas after a patch.
	union []divmax.Vector
	// engine is the union's round-2 solve engine — a retained distance
	// matrix within the memory budget, the tiled flat store beyond it —
	// nil when the fast path does not apply (union of 0–1 points; the
	// solver then falls back to the generic path).
	engine *sequential.Engine
	// processed is the total number of stream points the snapshots
	// reflect.
	processed int64
	// solutions memoizes solved (measure, k) answers against this state,
	// LRU-bounded by Config.SolutionMemo.
	solutions *solutionMemo
	// stale is an ancestor state's solution memo, carried along the
	// delta-patch chain: its answers were solved over union[:staleLen]
	// (every patch only appends, so that prefix is untouched), and a
	// stale answer may be served for THIS state once warmStartValid
	// replays its selection and proves no point of union[staleLen:]
	// could change it. nil after a full rebuild — the union was laid
	// out afresh and old indices mean nothing.
	stale    *solutionMemo
	staleLen int
}

// familyCache holds one family's latest mergeState. mu guards the state
// pointer and the solutions map of whichever state it points at (held
// only for pointer/map operations); rebuild — a one-slot semaphore
// rather than a mutex, so waiters can select against their request
// deadline — serializes the expensive snapshot + merge + fill (and
// every engine patch, which is what makes chained engine forks safe):
// a burst of queries arriving after an invalidation performs one
// rebuild, not one per query, and a query queued behind a slow rebuild
// still returns 504 in time instead of blocking past its deadline.
type familyCache struct {
	mu      sync.Mutex
	rebuild chan struct{}
	state   *mergeState
}

// mergeHow reports how a query's merged state was obtained.
type mergeHow int

const (
	// mergeHit: the cached state was current; nothing was touched.
	mergeHit mergeHow = iota
	// mergePatched: the cached state was stale but patchable — the new
	// state reuses the cached union and engine, extended by the
	// per-shard deltas.
	mergePatched
	// mergeRebuilt: full snapshot + merge + fill.
	mergeRebuilt
)

// current reports whether st is up to date with the accepted epochs.
func (st *mergeState) current(accepted []uint64) bool {
	return st != nil && slices.Equal(st.epochs, accepted)
}

// acceptedEpochs reads every shard's accepted-batch counter.
func (s *Server) acceptedEpochs() []uint64 {
	out := make([]uint64, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.accEpoch.Load()
	}
	return out
}

// merged returns the family cache and an up-to-date merged state for
// measure m, patching the cached state — union clone + delta append +
// engine extension — when every shard can serve a pure delta within the
// delta budget, and rebuilding it (snapshot, merge, fill) otherwise.
// Every wait — the rebuild semaphore, the snapshot fan-out — selects
// against ctx, and a permanently failed shard fails the merge even on
// what would be a cache hit: the cached state includes that shard's
// pre-failure core-set, but its slice of the stream is no longer
// served, so the caller decides whether to answer degraded instead.
func (s *Server) merged(ctx context.Context, m divmax.Measure) (*familyCache, *mergeState, mergeHow, error) {
	// A draining server rejects queries even on a cache hit: Close means
	// no more answers, not answers from the last snapshot.
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining {
		return nil, nil, mergeRebuilt, errDraining
	}
	if err := s.failedShard(); err != nil {
		return nil, nil, mergeRebuilt, err
	}
	c := &s.caches[cacheIndex(m.NeedsInjectiveProxy())]
	c.mu.Lock()
	st := c.state
	c.mu.Unlock()
	if st.current(s.acceptedEpochs()) {
		s.cacheHits.Add(1)
		return c, st, mergeHit, nil
	}
	// Serialize the rebuild: concurrent queries that missed together wait
	// here, then re-check — all but the first are served by the rebuild
	// (or patch) the first one performed.
	select {
	case c.rebuild <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, mergeRebuilt, ctx.Err()
	}
	defer func() { <-c.rebuild }()
	c.mu.Lock()
	prev := c.state
	c.mu.Unlock()
	if prev.current(s.acceptedEpochs()) {
		s.cacheHits.Add(1)
		return c, prev, mergeHit, nil
	}
	// Miss counters are bumped only once a resolution commits (alongside
	// the matching deltaPatches/fullRebuilds increment), so a snapshot
	// round aborted by a concurrent drain cannot break the invariant
	// misses == patches + rebuilds.

	if prev != nil && s.cfg.DeltaBudget >= 0 {
		replies, err := s.snapshots(ctx, m, prev, false)
		if err != nil {
			return nil, nil, mergeRebuilt, err
		}
		if st, how, ok := s.patchState(c, prev, replies); ok {
			s.missesInvalidated.Add(1)
			c.mu.Lock()
			c.state = st
			c.mu.Unlock()
			return c, st, how, nil
		}
		// Some shard restructured, or the deltas exceeded the budget:
		// fall through to a fresh full-snapshot round (the delta replies
		// hold deltas, not complete core-sets).
	}

	replies, err := s.snapshots(ctx, m, nil, false)
	if err != nil {
		return nil, nil, mergeRebuilt, err
	}
	st = &mergeState{
		epochs:    make([]uint64, len(replies)),
		gens:      make([]uint64, len(replies)),
		poss:      make([]int, len(replies)),
		solutions: newSolutionMemo(s.cfg.SolutionMemo),
	}
	for i, r := range replies {
		st.epochs[i] = r.epoch
		st.gens[i] = r.delta.Gen
		st.poss[i] = r.delta.Pos
		st.processed += r.delta.Processed
		st.union = append(st.union, r.delta.Points...)
	}
	// The engine is built here, once per stream state — the matrix fill
	// runs in parallel across the solve workers; in tiled mode only the
	// flat store is retained — and every query against this state reuses
	// or extends it.
	st.engine = sequential.BuildEngine(st.union, divmax.Euclidean, s.cfg.SolveWorkers)
	if prev == nil {
		s.missesCold.Add(1)
	} else {
		s.missesInvalidated.Add(1)
	}
	s.fullRebuilds.Add(1)
	c.mu.Lock()
	c.state = st
	c.mu.Unlock()
	return c, st, mergeRebuilt, nil
}

// degradedState builds a one-off merged state over the surviving
// shards' core-sets: a full-snapshot round in degraded mode (per-shard
// errors instead of a failed round), the successful replies
// concatenated in shard order, the engine built fresh. Composability
// (Section 4 of the paper) is what makes this sound — the union of any
// subset of per-shard core-sets is a valid core-set for the points
// those shards ingested, so the answer keeps the α+ε guarantee over the
// surviving ground set. The state deliberately bypasses the snapshot
// cache in both directions: it is never installed (a later healthy
// query must not inherit a partial view) and bumps no miss counters
// (preserving the invariant misses == patches + rebuilds). missing is
// the number of shards that did not contribute; when every shard is
// missing there is nothing to answer from and the first per-shard
// error is returned.
func (s *Server) degradedState(ctx context.Context, m divmax.Measure) (*mergeState, int, error) {
	replies, err := s.snapshots(ctx, m, nil, true)
	if err != nil {
		return nil, 0, err
	}
	st := &mergeState{}
	missing := 0
	var firstErr error
	for _, r := range replies {
		if r.err != nil {
			missing++
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		st.processed += r.delta.Processed
		st.union = append(st.union, r.delta.Points...)
	}
	if missing == len(replies) {
		return nil, missing, firstErr
	}
	st.engine = sequential.BuildEngine(st.union, divmax.Euclidean, s.cfg.SolveWorkers)
	return st, missing, nil
}

// patchState builds the successor of prev from per-shard delta replies,
// reporting how its engine was obtained — mergePatched when the cached
// engine carried over or was extended, mergeRebuilt when it was built
// from scratch (reference mode), so /query's patched flag always agrees
// with the delta_patches/full_rebuilds stats. It reports ok=false when
// any shard could not serve a pure delta (its core-set restructured
// since prev) or the deltas exceed the configured fraction of the
// cached union — the caller then takes the full path.
func (s *Server) patchState(c *familyCache, prev *mergeState, replies []snapReply) (*mergeState, mergeHow, bool) {
	total := 0
	for _, r := range replies {
		if !r.delta.Partial {
			return nil, mergeRebuilt, false
		}
		total += len(r.delta.Points)
	}
	if float64(total) > s.cfg.DeltaBudget*float64(len(prev.union)) {
		return nil, mergeRebuilt, false
	}
	st := &mergeState{
		epochs: make([]uint64, len(replies)),
		gens:   make([]uint64, len(replies)),
		poss:   make([]int, len(replies)),
	}
	var delta []divmax.Vector
	for i, r := range replies {
		st.epochs[i] = r.epoch
		st.gens[i] = r.delta.Gen
		st.poss[i] = r.delta.Pos
		st.processed += r.delta.Processed
		delta = append(delta, r.delta.Points...)
	}
	if len(delta) == 0 && !s.cfg.DisableDeltaPatch {
		// Batches were accepted but every point was absorbed without
		// growing any core-set — the steady state of a saturated stream.
		// The union, engine, and even the (measure, k) answers carry
		// over untouched.
		st.union = prev.union
		st.engine = prev.engine
		st.solutions = prev.solutions
		st.stale, st.staleLen = prev.stale, prev.staleLen
		s.deltaPatches.Add(1)
		return st, mergePatched, true
	}
	// Clone the union header (full-slice expression forces a fresh
	// backing array) and append the deltas in shard order; readers of
	// prev.union are untouched.
	st.union = append(prev.union[:len(prev.union):len(prev.union)], delta...)
	st.solutions = newSolutionMemo(s.cfg.SolutionMemo)
	// Chain the warm-start memo: the predecessor's own answers if it has
	// any (they were solved over exactly union[:len(prev.union)]),
	// otherwise whatever it inherited — an unqueried intermediate patch
	// must not sever the chain. Reference mode chains nothing: the
	// DisableDeltaPatch server must answer every stale query with a cold
	// solve, so the interleaving fuzz harness pins warm-started answers
	// bit for bit against genuinely re-solved ones.
	if !s.cfg.DisableDeltaPatch {
		// Queries still holding prev add answers to its memo under c.mu.
		c.mu.Lock()
		answered := prev.solutions != nil && prev.solutions.len() > 0
		c.mu.Unlock()
		if answered {
			st.stale, st.staleLen = prev.solutions, len(prev.union)
		} else {
			st.stale, st.staleLen = prev.stale, prev.staleLen
		}
	}
	how := mergePatched
	switch {
	case s.cfg.DisableDeltaPatch:
		// Reference mode (the interleaving fuzz harness): identical
		// patch decisions and unions, but every engine is built from
		// scratch — what the append-equivalence contract says patching
		// must match bit for bit.
		st.engine = sequential.BuildEngine(st.union, divmax.Euclidean, s.cfg.SolveWorkers)
		s.fullRebuilds.Add(1)
		how = mergeRebuilt
	case prev.engine == nil:
		// Nothing to extend (cached union of 0–1 points): build fresh
		// over the patched union.
		st.engine = sequential.BuildEngine(st.union, divmax.Euclidean, s.cfg.SolveWorkers)
		s.deltaPatches.Add(1)
	default:
		// The copy-safe fork: concurrent solves on prev.engine keep
		// reading their immutable prefix while the fork gains the new
		// rows and column stripe (or, in tiled mode, just the grown flat
		// store). The rebuild mutex guarantees only the latest fork of
		// the chain is ever extended.
		eng := prev.engine.Fork()
		if sequential.AppendEngine(eng, delta) {
			st.engine = eng
		} else {
			// Unreachable with /ingest-validated vectors; kept as a safe
			// fallback.
			st.engine = sequential.BuildEngine(st.union, divmax.Euclidean, s.cfg.SolveWorkers)
		}
		s.deltaPatches.Add(1)
	}
	return st, how, true
}

// warmStartValid reports whether a stale (non-clique) answer — selected
// by the engine's farthest-first traversal over union[:staleLen] at the
// indices idx — is exactly what a cold solve over the FULL patched
// union would select, by replaying the traversal's decisions against
// the delta points.
//
// The traversal (sequential.gmmEngine) starts at index 0 and at each
// step picks the point maximizing the squared distance to the chosen
// set, scanning ascending with a strict '>' so ties keep the lowest
// index. The patch appended the delta AFTER the stale prefix, so the
// prefix indices — and the stale answer's whole candidate order — are
// unchanged; the cold solve diverges if and only if, at some step t,
// a delta point's distance to the already-chosen set strictly exceeds
// v_t, the squared distance at which the stale answer picked idx[t]
// (a delta point that merely ties loses to the lower prefix index).
// The replay therefore walks the stale picks in order, maintaining
// each delta point's min squared distance to the chosen set, and
// rejects on the first step a delta point would have won. All
// comparisons run on metric.SquaredEuclidean, which evaluates the
// same canonical four-lane sum as the engine's kernels — the replay
// compares bit-identical values to the ones a cold solve would.
//
// Conservative rejections (never false positives): answers without
// engine indices (generic-path solves), answers whose length is not k
// (the stale union was smaller than k — a bigger union would pick more
// points), and any out-of-range index.
func (st *mergeState) warmStartValid(idx []int, k int) bool {
	n, l := len(st.union), st.staleLen
	if l < 1 || l > n || len(idx) != k || k < 1 || idx[0] != 0 {
		return false
	}
	for _, i := range idx {
		if i < 0 || i >= l {
			return false
		}
	}
	if l == n {
		return true // no delta points: same union, answer carries as is
	}
	delta := st.union[l:]
	// dmin[j] tracks delta[j]'s min squared distance to the chosen set.
	dmin := make([]float64, len(delta))
	p0 := st.union[idx[0]]
	for j, q := range delta {
		dmin[j] = metric.SquaredEuclidean(q, p0)
	}
	for t := 1; t < k; t++ {
		p := st.union[idx[t]]
		// v is the squared distance at which the stale traversal picked
		// idx[t]: its min squared distance to the t points chosen so far.
		v := math.Inf(1)
		for _, u := range idx[:t] {
			if d := metric.SquaredEuclidean(p, st.union[u]); d < v {
				v = d
			}
		}
		for j, q := range delta {
			if dmin[j] > v {
				return false // this delta point would have been picked instead
			}
			if d := metric.SquaredEuclidean(q, p); d < dmin[j] {
				dmin[j] = d
			}
		}
	}
	return true
}

// solveMerged runs the round-2 sequential α-approximation on a merged
// state: index-based against the retained engine when one was built —
// the Ω(n²) scans sharded across the server's solve workers, streaming
// row-blocks when the union is past the matrix budget — generic
// otherwise. Identical output either way (the engine solvers'
// bit-identical-selection contract). The returned indices are the
// engine selection positions into st.union, nil on the generic path;
// the solution memo keeps them so a later patched state can verify the
// answer against its delta (warmStartValid).
func (s *Server) solveMerged(m divmax.Measure, st *mergeState, k int) ([]divmax.Vector, []int) {
	if len(st.union) == 0 {
		return nil, nil
	}
	if st.engine != nil {
		if st.engine.Tiled() {
			s.tiledSolves.Add(1)
		}
		idx := sequential.SolveEngineIdx(m, st.engine, k)
		sol := make([]divmax.Vector, len(idx))
		for i, j := range idx {
			sol[i] = st.union[j]
		}
		return sol, idx
	}
	return sequential.Solve(m, st.union, k, divmax.Euclidean), nil
}
