// Package merge is divmaxd's round-2 merge cache, shared by the
// single-process server and the coordinator.
//
// The paper's composability theorem (Section 4) lets a query answer from
// the union of per-part core-sets, whether the parts are in-process
// shards or remote workers: the union of any set of per-part core-sets
// is a core-set of the points those parts ingested, with the same α+ε
// guarantee. So the merge is one algorithm over a Source, the tier's
// parts. Per core-set family the Cache keeps the last merged state: the
// union of the parts' views, its solve engine and its (measure, k)
// answers, keyed by one cursor per part.
//
// A query serves that state while the Source reports it current. When it
// is stale, the query asks every part for a pure delta since its cursor
// — the points that joined the part's core-set since, valid while the
// core-set has not restructured (divmax.CoresetDelta) — and patches
// instead of rebuilding when every part answers with one and the deltas
// total at most the delta budget × the cached union: it appends the
// deltas (in part order) to a copy of the union header and extends a
// copy-safe fork of the engine, which costs O(delta·union) instead of
// the O(union²) refill. Otherwise the parts whose reply was a delta are
// fetched again in full and the engine is built afresh.
//
// A patched union is the cached union plus every point that joined any
// part's core-set since — genuine stream points containing each part's
// current core-set — so solving over it keeps the guarantee. Its order
// is the cached order with the deltas appended, which is not a fresh
// concatenation's; what the interleaving fuzz harness pins is that a
// patched state is bit-identical, solutions and engine mode, to building
// the engine from scratch over the same union (BuildEngine(prefix) +
// Append(delta) ≡ BuildEngine(all)). Config.Reference is that reference
// mode.
package merge

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"divmax"
	"divmax/internal/api"
	"divmax/internal/sequential"
)

// Family returns the core-set family serving m: 0 for SMM (remote-edge,
// remote-cycle), 1 for SMM-EXT (the four injective-proxy measures).
func Family(m divmax.Measure) int {
	if m.NeedsInjectiveProxy() {
		return 1
	}
	return 0
}

// FamilyNames are the families' names on the wire
// (api.SnapshotRequest.Family), indexed by Family.
var FamilyNames = [2]string{"edge", "proxy"}

// Reply is one part's view of one core-set family.
type Reply[C any] struct {
	// Partial reports that Points extend the view at the request cursor,
	// possibly by nothing, instead of replacing it.
	Partial bool
	Points  []divmax.Vector
	// Processed is the number of stream points the view reflects, delta
	// or not.
	Processed int64
	// Cursor identifies the view, for the next Fetch and Current.
	Cursor C
}

// Source is a tier's parts.
type Source[C any] interface {
	// Parts is the number of parts.
	Parts() int
	// Current reports, without fetching, that views taken at cursors (one
	// per part) are still every part's view, so a state built from them
	// can be served as is. It is checked before the rebuild semaphore.
	Current(cursors []C) bool
	// Fetch returns part's view of family: a pure delta since cursor when
	// the part can serve one, its full view otherwise. A nil cursor asks
	// for the full view.
	Fetch(ctx context.Context, part, family int, cursor *C) (Reply[C], error)
}

// Config is what differs between the tiers.
type Config struct {
	// SolveWorkers bounds the goroutines of each engine build and solve.
	SolveWorkers int
	// Memo caps each state's (measure, k) answer memo.
	Memo int
	// DeltaBudget is the largest total delta, as a fraction of the cached
	// union, a stale state is patched with; negative never patches.
	DeltaBudget float64
	// Reference keeps every patch decision and union layout but builds
	// each engine from scratch and never warm-starts: the mode patching
	// is compared against.
	Reference bool
	// UnchangedHit labels a round in which every part answered an empty
	// delta a cache hit, for a Source whose Current never holds; otherwise
	// it is a patch that carries the state over.
	UnchangedHit bool
	// Quorum is the fewest parts a degraded answer is solved from.
	Quorum int
}

// how reports how a query's merged state was obtained.
type how int

const (
	// hit: the cached state was current; nothing was built.
	hit how = iota
	// patched: the cached union and engine were carried over or extended
	// by the parts' deltas.
	patched
	// rebuilt: the engine was built from scratch.
	rebuilt
)

// state is one family's merged view at one cursor per part. union and
// engine are immutable once installed and shared by every query that
// uses the state; memo is guarded by the owning family's mutex.
type state[C any] struct {
	cursors []C
	// union is the parts' views concatenated in part order after a
	// rebuild, or the previous union plus the deltas after a patch.
	union []divmax.Vector
	// engine is the union's solve engine — a distance matrix within the
	// memory budget, a tiled flat store beyond it — nil for unions of 0–1
	// points, which the generic solver takes.
	engine    *sequential.Engine
	processed int64
	memo      *memo
	// stale is an ancestor's memo, carried along the patch chain: its
	// answers were solved over union[:staleLen], which every patch leaves
	// untouched, and one may be served for this state once warmStartValid
	// proves no point of union[staleLen:] changes it. nil after a rebuild,
	// which lays the union out afresh.
	stale    *memo
	staleLen int
}

// family holds one core-set family's state. mu guards the state pointer
// and the memo of whichever state it points at. rebuild, a one-slot
// semaphore that waiters select against their deadline, serializes the
// fetch rounds and engine patches, which is what makes extending a fork
// of the latest engine safe: a burst of stale queries runs one round,
// and a query queued behind a slow one still fails in time.
type family[C any] struct {
	mu      sync.Mutex
	rebuild chan struct{}
	state   *state[C]
}

// Cache is the merge cache of one tier.
type Cache[C any] struct {
	cfg  Config
	src  Source[C]
	fams [2]family[C]

	queries, merges, lastMergeNanos      atomic.Int64
	hits, missesCold, missesInvalidated  atomic.Int64
	patches, rebuilds, tiled, warmStarts atomic.Int64
	degraded                             atomic.Int64
}

// New returns an empty cache over src.
func New[C any](src Source[C], cfg Config) *Cache[C] {
	c := &Cache[C]{cfg: cfg, src: src}
	for i := range c.fams {
		c.fams[i].rebuild = make(chan struct{}, 1)
	}
	return c
}

// Query answers (m, k) from an up-to-date merged state over every part,
// or returns the first part's error. mapBack, when non-nil, maps a
// solution to the points reported and evaluated in its place.
func (c *Cache[C]) Query(ctx context.Context, m divmax.Measure, k int, mapBack func([]divmax.Vector) []divmax.Vector) (api.QueryResponse, error) {
	fam, st, h, err := c.merged(ctx, Family(m))
	if err != nil {
		return api.QueryResponse{}, err
	}
	resp := c.answer(fam, st, m, k, mapBack)
	resp.Cached, resp.Patched = h == hit, h == patched
	return resp, nil
}

// Degraded answers (m, k) from the parts that answer a full round,
// reporting how many did not. Below Quorum answering parts it returns
// the first part's error. The state it solves on is never installed, so
// a later healthy query cannot inherit a partial view, and it counts no
// cache hit or miss.
func (c *Cache[C]) Degraded(ctx context.Context, m divmax.Measure, k int, mapBack func([]divmax.Vector) []divmax.Vector) (resp api.QueryResponse, missing int, err error) {
	f, n := Family(m), c.src.Parts()
	replies, errs := make([]Reply[C], n), make([]error, n)
	fanOut(n, func(i int) { replies[i], errs[i] = c.src.Fetch(ctx, i, f, nil) })
	st := &state[C]{}
	var first error
	for i, r := range replies {
		if errs[i] != nil {
			missing++
			if first == nil {
				first = errs[i]
			}
			continue
		}
		st.processed += r.Processed
		st.union = append(st.union, r.Points...)
	}
	if n-missing < c.cfg.Quorum {
		return api.QueryResponse{}, missing, first
	}
	st.engine = c.build(st.union)
	if missing > 0 {
		c.degraded.Add(1)
	}
	resp = c.answer(nil, st, m, k, mapBack)
	resp.Degraded = missing > 0
	return resp, missing, nil
}

// Engine returns family f's installed solve engine, nil when it has none.
func (c *Cache[C]) Engine(f int) *sequential.Engine {
	fam := &c.fams[f]
	fam.mu.Lock()
	defer fam.mu.Unlock()
	if fam.state == nil {
		return nil
	}
	return fam.state.engine
}

// FillStats writes the query and cache counters, and the size of what
// the cache retains over both families, into st.
func (c *Cache[C]) FillStats(st *api.StatsResponse) {
	st.Queries = c.queries.Load()
	st.Merges = c.merges.Load()
	st.LastMergeMS = float64(c.lastMergeNanos.Load()) / float64(time.Millisecond)
	st.CacheHits = c.hits.Load()
	st.MissesCold = c.missesCold.Load()
	st.MissesInvalidated = c.missesInvalidated.Load()
	st.CacheMisses = st.MissesCold + st.MissesInvalidated
	st.DeltaPatches = c.patches.Load()
	st.FullRebuilds = c.rebuilds.Load()
	st.MemoWarmStarts = c.warmStarts.Load()
	st.SolveWorkers = c.cfg.SolveWorkers
	st.TiledSolves = c.tiled.Load()
	st.DegradedQueries = c.degraded.Load()
	for i := range c.fams {
		fam := &c.fams[i]
		fam.mu.Lock()
		if s := fam.state; s != nil {
			st.CachedCoresetPoints += len(s.union)
			if s.engine != nil {
				st.CachedMatrixBytes += s.engine.MatrixBytes()
			}
		}
		fam.mu.Unlock()
	}
}

// Round fetches every part's view of family f in parallel — since
// cursors[i], or in full when cursors is nil — and returns one reply per
// part, or the first part's error in part order.
func Round[C any](ctx context.Context, src Source[C], f int, cursors []C) ([]Reply[C], error) {
	replies, errs := make([]Reply[C], src.Parts()), make([]error, src.Parts())
	fanOut(len(replies), func(i int) {
		var cur *C
		if cursors != nil {
			cur = &cursors[i]
		}
		replies[i], errs[i] = src.Fetch(ctx, i, f, cur)
	})
	return replies, firstErr(errs)
}

// Complete fetches again, in full and in parallel, every part whose
// reply is a delta, so that replies hold complete views: a delta is
// relative to a view the caller is discarding.
func Complete[C any](ctx context.Context, src Source[C], f int, replies []Reply[C]) error {
	errs := make([]error, len(replies))
	fanOut(len(replies), func(i int) {
		if replies[i].Partial {
			replies[i], errs[i] = src.Fetch(ctx, i, f, nil)
		}
	})
	return firstErr(errs)
}

// fanOut runs fetch(i) for every part i concurrently and waits for all.
func fanOut(n int, fetch func(i int)) {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			fetch(i)
		}()
	}
	wg.Wait()
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// merged returns family f and an up-to-date state for it: the cached one
// while the Source reports it current, a patch of it when the parts'
// deltas allow, a rebuild otherwise.
func (c *Cache[C]) merged(ctx context.Context, f int) (*family[C], *state[C], how, error) {
	fam := &c.fams[f]
	if st := fam.current(c.src); st != nil {
		c.hits.Add(1)
		return fam, st, hit, nil
	}
	// Queries that missed together wait here and re-check: all but the
	// first are served by the round the first one ran.
	select {
	case fam.rebuild <- struct{}{}:
	case <-ctx.Done():
		return nil, nil, rebuilt, ctx.Err()
	}
	defer func() { <-fam.rebuild }()
	if st := fam.current(c.src); st != nil {
		c.hits.Add(1)
		return fam, st, hit, nil
	}
	fam.mu.Lock()
	prev := fam.state
	fam.mu.Unlock()
	// Counters move only once a round commits, so a round that fails
	// keeps misses == patches + rebuilds.
	var cursors []C
	if prev != nil && c.cfg.DeltaBudget >= 0 {
		cursors = prev.cursors
	}
	replies, err := Round(ctx, c.src, f, cursors)
	if err != nil {
		return nil, nil, rebuilt, err
	}
	var st *state[C]
	h := rebuilt
	if cursors != nil {
		st, h = c.patch(fam, prev, replies)
	}
	if st == nil {
		if err := Complete(ctx, c.src, f, replies); err != nil {
			return nil, nil, rebuilt, err
		}
		st = newState(replies, newMemo(c.cfg.Memo))
		for _, r := range replies {
			st.union = append(st.union, r.Points...)
		}
		st.engine = c.build(st.union)
		if prev == nil {
			c.missesCold.Add(1)
		} else {
			c.missesInvalidated.Add(1)
		}
		c.rebuilds.Add(1)
	}
	fam.mu.Lock()
	fam.state = st
	fam.mu.Unlock()
	return fam, st, h, nil
}

// current returns the installed state when src reports it current.
func (fam *family[C]) current(src Source[C]) *state[C] {
	fam.mu.Lock()
	st := fam.state
	fam.mu.Unlock()
	if st != nil && src.Current(st.cursors) {
		return st
	}
	return nil
}

// patch builds prev's successor from the parts' replies, or returns nil
// when some part restructured (its reply is not a delta) or the deltas
// exceed the budget. Its label follows the engine: patched when prev's
// engine carried over or was extended, rebuilt in reference mode, so the
// answer's flags always agree with the patch and rebuild counters.
func (c *Cache[C]) patch(fam *family[C], prev *state[C], replies []Reply[C]) (*state[C], how) {
	var delta []divmax.Vector
	for _, r := range replies {
		if !r.Partial {
			return nil, rebuilt
		}
		delta = append(delta, r.Points...)
	}
	if float64(len(delta)) > c.cfg.DeltaBudget*float64(len(prev.union)) {
		return nil, rebuilt
	}
	if len(delta) == 0 && !c.cfg.Reference {
		// Every accepted point was absorbed without growing a core-set, the
		// steady state of a saturated stream: the union, the engine and
		// the answers carry over.
		st := newState(replies, prev.memo)
		st.union, st.engine = prev.union, prev.engine
		st.stale, st.staleLen = prev.stale, prev.staleLen
		if c.cfg.UnchangedHit {
			c.hits.Add(1)
			return st, hit
		}
		c.missesInvalidated.Add(1)
		c.patches.Add(1)
		return st, patched
	}
	c.missesInvalidated.Add(1)
	st := newState(replies, newMemo(c.cfg.Memo))
	// The full-slice expression forces a fresh backing array, so readers
	// of prev.union are untouched.
	st.union = append(prev.union[:len(prev.union):len(prev.union)], delta...)
	if c.cfg.Reference {
		st.engine = c.build(st.union)
		c.rebuilds.Add(1)
		return st, rebuilt
	}
	// Chain the warm-start memo: prev's own answers if it has any (they
	// were solved over exactly union[:len(prev.union)]), otherwise what
	// it inherited, so an unqueried patch does not sever the chain.
	// Queries still holding prev add answers to its memo under fam.mu.
	fam.mu.Lock()
	answered := prev.memo.len() > 0
	fam.mu.Unlock()
	if answered {
		st.stale, st.staleLen = prev.memo, len(prev.union)
	} else {
		st.stale, st.staleLen = prev.stale, prev.staleLen
	}
	if prev.engine == nil {
		st.engine = c.build(st.union)
	} else {
		// The copy-safe fork: solves on prev.engine keep reading their
		// immutable prefix while the fork gains the new rows and column
		// stripe (or, tiled, the grown flat store).
		st.engine = prev.engine.Fork()
		if !sequential.AppendEngine(st.engine, delta) {
			st.engine = c.build(st.union) // unreachable with validated vectors
		}
	}
	c.patches.Add(1)
	return st, patched
}

// newState starts a state at the replies' cursors, answering into m.
func newState[C any](replies []Reply[C], m *memo) *state[C] {
	st := &state[C]{cursors: make([]C, len(replies)), memo: m}
	for i, r := range replies {
		st.cursors[i] = r.Cursor
		st.processed += r.Processed
	}
	return st
}

func (c *Cache[C]) build(union []divmax.Vector) *sequential.Engine {
	return sequential.BuildEngine(union, divmax.Euclidean, c.cfg.SolveWorkers)
}

// answer serves (m, k) on st: from its memo, from a verified stale
// answer, or by solving. fam is nil for a state that was never
// installed, which keeps no memo.
func (c *Cache[C]) answer(fam *family[C], st *state[C], m divmax.Measure, k int, mapBack func([]divmax.Vector) []divmax.Vector) api.QueryResponse {
	c.queries.Add(1)
	key := memoKey{measure: m, k: k}
	var a solved
	have, warm := false, false
	if fam != nil {
		var stale solved
		var haveStale bool
		fam.mu.Lock()
		a, have = st.memo.get(key)
		// warmStartValid replays the farthest-first traversal, which
		// every measure but remote-clique (max-dispersion pairs) solves by.
		if !have && st.stale != nil && st.engine != nil && m != divmax.RemoteClique {
			stale, haveStale = st.stale.get(key)
		}
		fam.mu.Unlock()
		if haveStale && warmStartValid(st.union, st.staleLen, stale.idx, k) {
			a, have, warm = stale, true, true
			c.warmStarts.Add(1)
			fam.mu.Lock()
			st.memo.put(key, a)
			fam.mu.Unlock()
		}
	}
	var elapsed time.Duration
	if !have {
		start := time.Now()
		sol, idx := c.solve(m, st, k)
		if mapBack != nil {
			sol = mapBack(sol)
		}
		val, exact := divmax.Evaluate(m, sol, divmax.Euclidean)
		if math.IsInf(val, 0) || math.IsNaN(val) {
			// Min-based measures evaluate to +Inf on fewer than 2 points,
			// which JSON cannot encode: report 0, inexact.
			val, exact = 0, false
		}
		elapsed = time.Since(start)
		c.merges.Add(1)
		c.lastMergeNanos.Store(int64(elapsed))
		if sol == nil {
			sol = []divmax.Vector{}
		}
		a = solved{sol: sol, idx: idx, val: val, exact: exact}
		if fam != nil {
			fam.mu.Lock()
			st.memo.put(key, a)
			fam.mu.Unlock()
		}
	}
	return api.QueryResponse{
		Measure:     m.String(),
		K:           k,
		Solution:    a.sol,
		Value:       a.val,
		Exact:       a.exact,
		CoresetSize: len(st.union),
		Processed:   st.processed,
		MergeMillis: float64(elapsed) / float64(time.Millisecond),
		WarmStarted: warm,
	}
}

// solve runs the round-2 sequential α-approximation on st: index-based
// against the engine when there is one, its Ω(n²) scans sharded across
// the solve workers, generic otherwise — bit-identical selections either
// way. It returns the engine indices of the selection, nil on the
// generic path, which the memo keeps for warmStartValid.
func (c *Cache[C]) solve(m divmax.Measure, st *state[C], k int) ([]divmax.Vector, []int) {
	if len(st.union) == 0 {
		return nil, nil
	}
	if st.engine == nil {
		return sequential.Solve(m, st.union, k, divmax.Euclidean), nil
	}
	if st.engine.Tiled() {
		c.tiled.Add(1)
	}
	idx := sequential.SolveEngineIdx(m, st.engine, k)
	sol := make([]divmax.Vector, len(idx))
	for i, j := range idx {
		sol[i] = st.union[j]
	}
	return sol, idx
}
