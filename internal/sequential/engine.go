package sequential

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"divmax/internal/diversity"
	"divmax/internal/metric"
)

// Parallel, tiled round-2 solve engine.
//
// The Ω(n²) scans of the round-2 solvers — MaxDispersionPairs'
// farthest-partner pass, LocalSearchClique's (and the matroid solver's)
// swap sweeps — shard across worker goroutines here, with reductions
// that keep every selection bit-identical to the sequential scans:
//
//   - The farthest-partner pass shards, in both modes, by column
//     ranges of the triangular pair walk — each worker owns the pairs
//     whose larger index falls in its range, accumulates per-shard
//     partial (farDist, farIdx) arrays, and the partials merge in shard
//     order with strict '>': concatenating the shards' candidate
//     subsequences in range order reproduces the sequential ascending
//     candidate order, so the merge keeps exactly the partner the
//     sequential scan keeps, at the sequential pass's n²/2 total work.
//     Matrix mode reads the materialized rows; tiled mode computes
//     exactly the walked entries on demand through column-range fills
//     (metric.Points.FillSqRowsRange) — n²/2 kernel evaluations, half
//     of what the pre-PR-5 full-row tiled fills cost — on values
//     bit-identical by matrix symmetry ((a−b)² = (b−a)² in IEEE
//     arithmetic). Same comparisons, same strict '>', same result.
//   - The swap sweeps shard by candidate (column) ranges; each shard
//     reports its best improvement in the sequential scan order, and
//     the shard winners reduce by strictly-larger delta with exact ties
//     going to the lexicographically smallest (slot, candidate) — the
//     swap the sequential (slot outer, candidate inner, strict '>')
//     scan would have applied. The applied exchange, and therefore the
//     whole trajectory, is independent of the worker count.
//
// The engine runs in one of two modes, selected by MatrixBudget:
//
//   - matrix mode (8·n² ≤ MatrixBudget): the pairwise squared-distance
//     matrix is materialized once — rows filled in parallel — and the
//     scans read rows of it;
//   - tiled mode (beyond the budget): no n² buffer exists. The
//     farthest-partner pass streams row-blocks through worker-private
//     tiles (metric.Points.FillSqRows), and the passes that revisit a
//     few rows — recomputes, swap sweeps, contribution updates — compute
//     those rows on demand into O(k·n) scratch. Entries are the same
//     per-pair kernel values either way (canonical four-lane squares
//     below metric.BlockedMinDim, position-independent blocked-tier
//     values at and above it), so tiled solves select bit-identically
//     to matrix solves. Below the blocked threshold math.Sqrt of an
//     entry is also bit-identical to metric.Euclidean on the same rows,
//     so the solvers make exactly the comparisons and sums of the
//     generic callback path; at and above it the values agree within
//     the documented envelope and the SELECTIONS stay identical —
//     pinned by the envelope harness in internal/metric.

// MatrixBudget is the memory budget, in bytes, for automatically
// materialized full distance matrices: a point set with 8·n² above it
// solves in tiled mode (streamed row-blocks, no n² buffer) instead.
// The default keeps the full-matrix threshold at 4096 points — the
// pre-engine cap — while callers with a known budget can raise it.
var MatrixBudget int64 = 128 << 20

// tileBudgetBytes bounds each worker's private row-block tile in tiled
// scans; a var so tests can force tiny tiles (multi-block streaming) on
// small inputs.
var tileBudgetBytes int64 = 4 << 20

// Shard minima: a scan is only sharded when every worker gets at least
// this much of it, so goroutine overhead cannot dominate small inputs.
// Vars so tests can force multi-shard scans on small inputs.
var (
	// minScanRows is for the O(n²) farthest-partner pass (each row costs
	// a full n-entry scan).
	minScanRows = 16
	// minSweepCols is for the O(k·n) swap sweeps (each column costs a
	// k-entry scan).
	minSweepCols = 1024
	// minChunkRows is for the O(n) contribution init/update passes.
	minChunkRows = 2048
)

// Engine is a prepared round-2 solve: the flat point store plus either
// a materialized distance matrix or the tiling parameters to stream one.
// It is immutable after construction — solver scratch is per call — so
// one Engine may serve concurrent solves (the divmaxd merge cache holds
// one per merged state). Fork + Append extend an engine incrementally
// without touching the original's view (the cache's delta-patch path).
type Engine struct {
	n  int
	dm *metric.DistMatrix // full matrix; nil in tiled mode
	// flat backs tiled mode's streamed fills and on-demand rows, and is
	// the coordinate source for incremental Appends in both modes. At
	// n·d values it is negligible next to the 8·n² matrix it feeds.
	flat    metric.Points
	workers int
}

// BuildEngine prepares the solve engine for pts when the
// Euclidean-over-Vector fast path applies — d is metric.Euclidean, the
// points are []metric.Vector of uniform dimension, and n ≥ 2 — choosing
// matrix or tiled mode by MatrixBudget. workers bounds the goroutines
// of the fill and of every sharded scan (≤ 0 means runtime.NumCPU()).
// It returns nil when the fast path does not apply, in which case
// callers run the generic solvers.
func BuildEngine[P any](pts []P, d metric.Distance[P], workers int) *Engine {
	if len(pts) < 2 || !metric.IsEuclidean(d) {
		return nil
	}
	vecs, ok := any(pts).([]metric.Vector)
	if !ok {
		return nil
	}
	return buildEngineVectors(vecs, nil, nil, workers)
}

// RebuildEngine is BuildEngine over pts, reusing the matrix of prev, an
// engine over an earlier point set: every cell whose two points both
// occur in prev's store, matched by their coordinate bits, is copied
// from prev's matrix, and only the rows of the other points go to the
// kernels (metric.NewDistMatrixRemapped). The result is bit-identical to
// BuildEngine(pts, d, workers), mode included — past MatrixBudget it is
// tiled — so every solve on it is too. It is the merge cache's rebuild:
// a rebuilt union is mostly the previous one laid out again. It builds
// from scratch when prev is nil, tiled or of another dimension. prev is
// only read, so solves on it may run concurrently.
func RebuildEngine[P any](prev *Engine, pts []P, d metric.Distance[P], workers int) *Engine {
	return RebuildEngineReusing(prev, nil, pts, d, workers)
}

// RebuildEngineReusing is RebuildEngine that writes a remapped matrix
// into the buffer of spare, an engine no solve will read again, when
// that buffer is large enough and is not prev's. The engine is the same
// either way; spare's is only a buffer the caller would otherwise leave
// to the garbage collector.
func RebuildEngineReusing[P any](prev, spare *Engine, pts []P, d metric.Distance[P], workers int) *Engine {
	if len(pts) < 2 || !metric.IsEuclidean(d) {
		return nil
	}
	vecs, ok := any(pts).([]metric.Vector)
	if !ok {
		return nil
	}
	return buildEngineVectors(vecs, prev, spare, workers)
}

// buildEngineVectors is BuildEngine after the distance and point-type
// checks (the matroid solver reaches it from []Grouped[metric.Vector]),
// remapping prev's matrix, into spare's buffer when it may, when prev
// is a matrix-mode engine of the same dimension.
func buildEngineVectors(vecs []metric.Vector, prev, spare *Engine, workers int) *Engine {
	if len(vecs) < 2 {
		return nil
	}
	var flat metric.Points
	if !flat.Fill(vecs) {
		return nil // ragged rows: the generic path surfaces the panic
	}
	e := &Engine{n: flat.Len(), flat: flat, workers: resolveWorkers(workers)}
	if int64(e.n)*int64(e.n)*8 > MatrixBudget {
		return e
	}
	if prev != nil && prev.dm != nil && prev.flat.Dim() == flat.Dim() {
		var buf *metric.DistMatrix
		if spare != nil {
			buf = spare.dm
		}
		e.dm = metric.NewDistMatrixRemapped(&e.flat, &prev.flat, prev.dm, buf, workers)
	} else {
		e.dm = metric.NewDistMatrix(&e.flat, workers)
	}
	return e
}

// Fork returns a copy of the engine that may be Appended without
// affecting solves running concurrently on e: the copy shares e's
// immutable prefix (matrix cells and flat rows below e.Len()), and an
// Append on it only ever writes memory outside that prefix or freshly
// allocated buffers. Forks chain — fork the result to append again —
// but because chained forks reuse one buffer's spare capacity, only the
// latest engine of a chain may be extended (the divmaxd merge cache
// serializes its patches exactly this way).
func (e *Engine) Fork() *Engine {
	c := *e
	return &c
}

// Append extends the engine with vecs, as if BuildEngine had been
// called on the concatenated point set: the flat store grows in place,
// and in matrix mode the retained matrix gains the new rows (canonical
// kernel fills) plus the old×new column stripe (copied through matrix
// symmetry) via DistMatrix.Grown, which reuses spare stride and
// otherwise reallocates a quarter wider — so every cell, and therefore
// every solve, is bit-identical to a from-scratch build over all the
// points. An append that pushes 8·n² past MatrixBudget drops
// the matrix and crosses into tiled mode, exactly where BuildEngine
// would have started tiled. It reports false — leaving the engine
// unchanged — when a row's dimension disagrees with the store's;
// callers then rebuild from scratch.
func (e *Engine) Append(vecs []metric.Vector) bool {
	if len(vecs) == 0 {
		return true
	}
	for _, v := range vecs {
		if len(v) != e.flat.Dim() {
			return false
		}
	}
	for _, v := range vecs {
		e.flat.Append(v)
	}
	e.n = e.flat.Len()
	if e.dm != nil {
		if int64(e.n)*int64(e.n)*8 <= MatrixBudget {
			e.dm = e.dm.Grown(&e.flat, maxBudgetPoints(), e.workers)
		} else {
			e.dm = nil
		}
	}
	return true
}

// AppendEngine is Append behind the same point-type gate as
// BuildEngine: it extends e with pts when they are []metric.Vector of
// the engine's dimension, reporting false (engine unchanged) otherwise.
func AppendEngine[P any](e *Engine, pts []P) bool {
	if e == nil {
		return false
	}
	if len(pts) == 0 {
		return true
	}
	vecs, ok := any(pts).([]metric.Vector)
	if !ok {
		return false
	}
	return e.Append(vecs)
}

// autoMatrixSolve gates the solvers' internal dispatch to the engine.
// A one-shot solve does the same Θ(n²) pair work either way, so the
// engine only beats the callback path when its fills and scans run
// wider than one core; on a single core the fill is pure added latency.
// Callers that skip the gate are unaffected: when the fill is amortized
// across queries (the divmaxd merge cache, internal/merge, calls
// BuildEngine and RebuildEngine directly), the engine path wins
// regardless of core count. A variable so tests can force both paths
// on any machine.
var autoMatrixSolve = runtime.NumCPU() > 1

// AutoEngine is BuildEngine behind the autoMatrixSolve gate: it builds
// only when a one-shot engine solve is expected to beat the callback
// path. It is the entry point of the solvers' internal dispatch and of
// mrdiv.SolveCoresets; callers that amortize the build across several
// solves (the divmaxd merge cache) use BuildEngine directly.
func AutoEngine[P any](pts []P, d metric.Distance[P], workers int) *Engine {
	if !autoMatrixSolve {
		return nil
	}
	return BuildEngine(pts, d, workers)
}

// maxBudgetPoints returns the largest point count whose full matrix
// (8·n² bytes) fits MatrixBudget — the matrix/tiled mode boundary.
func maxBudgetPoints() int {
	n := int(math.Sqrt(float64(MatrixBudget) / 8))
	for int64(n)*int64(n)*8 > MatrixBudget && n > 0 {
		n--
	}
	return n
}

// Len returns the number of points the engine was built over.
func (e *Engine) Len() int { return e.n }

// Tiled reports whether the engine streams row-blocks instead of
// holding a materialized matrix.
func (e *Engine) Tiled() bool { return e.dm == nil }

// Matrix returns the materialized distance matrix, nil in tiled mode.
func (e *Engine) Matrix() *metric.DistMatrix { return e.dm }

// SqAt returns the squared distance between points i and j as the
// engine's solves see it: the matrix cell in matrix mode, the active
// kernel tier's value (metric.Points.SqBetween) in tiled mode. At and
// above metric.BlockedMinDim that is the blocked tier's value, which
// may differ in the last bits from metric.SquaredEuclidean on the rows.
func (e *Engine) SqAt(i, j int) float64 {
	if e.dm != nil {
		return e.dm.SqAt(i, j)
	}
	return e.flat.SqBetween(i, j)
}

// MatrixBytes returns the size of the retained matrix buffer
// (monitoring); 0 in tiled mode, where solves use O(k·n) scratch.
func (e *Engine) MatrixBytes() int64 {
	if e.dm == nil {
		return 0
	}
	return e.dm.Bytes()
}

// Workers returns the resolved worker count the engine's scans use.
func (e *Engine) Workers() int { return e.workers }

// WithWorkers returns a copy of the engine whose scans use the given
// worker bound (≤ 0 means runtime.NumCPU()), sharing the underlying
// matrix or flat store — so a worker sweep (cmd/bench) pays one fill,
// not one per count. The copy is as immutable and concurrency-safe as
// the original, and selections are bit-identical for every value.
func (e *Engine) WithWorkers(workers int) *Engine {
	c := *e
	c.workers = resolveWorkers(workers)
	return &c
}

func resolveWorkers(workers int) int {
	if workers > 0 {
		return workers
	}
	return runtime.NumCPU()
}

// shardRanges splits [0, n) into at most workers contiguous ranges of
// at least minSpan elements each.
func shardRanges(n, workers, minSpan int) [][2]int {
	if n <= 0 {
		return nil
	}
	if minSpan < 1 {
		minSpan = 1
	}
	if maxw := (n + minSpan - 1) / minSpan; workers > maxw {
		workers = maxw
	}
	if workers < 1 {
		workers = 1
	}
	chunk := (n + workers - 1) / workers
	out := make([][2]int, 0, workers)
	for lo := 0; lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// runShards invokes fn once per range, concurrently when there is more
// than one. fn(s, lo, hi) owns range s = [lo, hi).
func runShards(ranges [][2]int, fn func(s, lo, hi int)) {
	if len(ranges) == 1 {
		fn(0, ranges[0][0], ranges[0][1])
		return
	}
	var wg sync.WaitGroup
	for s, r := range ranges {
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			fn(s, lo, hi)
		}(s, r[0], r[1])
	}
	wg.Wait()
}

// rowScratch returns a buffer for on-demand rows (nil in matrix mode,
// where rows are views).
func (e *Engine) rowScratch() []float64 {
	if e.dm != nil {
		return nil
	}
	return make([]float64, e.n)
}

// sqRowInto returns row i of the squared-distance matrix: a view into
// the materialized matrix, or — in tiled mode — the row computed into
// buf (which must hold n values).
func (e *Engine) sqRowInto(i int, buf []float64) []float64 {
	if e.dm != nil {
		return e.dm.SqRow(i)
	}
	e.flat.FillSqRows(i, i+1, buf, 1)
	return buf[:e.n]
}

// farthestPartners runs the Ω(n²) farthest-partner pass: on return,
// farDist[i]/farIdx[i] hold the distance to and index of the point
// farthest from i (ties on the lowest index), exactly as the sequential
// triangular pass of MaxDispersionPairs computes them. Both modes walk
// the triangular pair set — n²/2 kernel evaluations in tiled mode too,
// streamed through FillSqRowsRange column tiles instead of the full
// rows the pre-PR-5 tiled pass computed — sharded by column ranges of
// the walk with per-shard partials merged in shard order (see
// farthestTriangularShard for the order argument). Callers initialize
// farDist to −Inf and farIdx to −1.
func (e *Engine) farthestPartners(farDist []float64, farIdx []int) {
	n := e.n
	// Clamp so each shard owns on average at least minScanRows rows'
	// worth of pairs.
	workers := e.workers
	if maxw := max(1, (n-1)/(2*minScanRows)); workers > maxw {
		workers = maxw
	}
	if workers <= 1 {
		// One worker: the triangular pass over the whole pair set,
		// exactly as the generic scan runs it.
		e.farthestTriangularShard(0, n, farDist, farIdx)
		return
	}
	e.farthestPartnersTriangular(workers, farDist, farIdx)
}

// triangularBounds splits the columns of the triangular pair walk into
// workers ranges of roughly equal pair count: range s is
// [bounds[s], bounds[s+1]), and the pairs whose larger index lands in
// it number ≈ n(n−1)/2w, which is what balances the shards (column j
// owns j pairs, so uniform column ranges would be hopelessly skewed).
func triangularBounds(n, workers int) []int {
	bounds := make([]int, workers+1)
	for s := 1; s < workers; s++ {
		b := int(math.Round(float64(n) * math.Sqrt(float64(s)/float64(workers))))
		if b < bounds[s-1] {
			b = bounds[s-1]
		}
		if b > n {
			b = n
		}
		bounds[s] = b
	}
	bounds[workers] = n
	return bounds
}

// farthestPartnersTriangular is the column-sharded triangular pass:
// worker s walks the pairs (i, j) with i < j and j in its column range
// [lo, hi), updating both endpoints in a private (farDist, farIdx)
// partial — the same pair walk, same values, same strict '>' as the
// sequential pass, restricted to its pair subset — and the partials
// merge in shard order. The merge is exact: for any row r, the
// candidates a shard feeds to r's entry arrive in ascending order
// (pairs (i, r) during iterations i < r, then (r, j) at iteration r),
// shards earlier in column order hold candidates that all precede later
// shards' (r's own shard also holds the [0, r) prefix, which precedes
// everything), and a strict '>' merge in shard order therefore keeps
// the first maximum of the concatenated — i.e. the sequential ascending
// — candidate sequence. Total pair work equals the sequential pass's
// n²/2; only the O(w·n) merge is added.
func (e *Engine) farthestPartnersTriangular(workers int, farDist []float64, farIdx []int) {
	n := e.n
	bounds := triangularBounds(n, workers)
	partDist := make([]float64, workers*n)
	partIdx := make([]int, workers*n)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			fd := partDist[s*n : s*n+n]
			fi := partIdx[s*n : s*n+n]
			for i := range fd {
				fd[i] = math.Inf(-1)
				fi[i] = -1
			}
			e.farthestTriangularShard(bounds[s], bounds[s+1], fd, fi)
		}(s)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		for s := 0; s < workers; s++ {
			if idx := partIdx[s*n+i]; idx >= 0 && partDist[s*n+i] > farDist[i] {
				farDist[i], farIdx[i] = partDist[s*n+i], idx
			}
		}
	}
}

// farthestTriangularShard walks the pairs (i, j) with i < j and j in
// the column range [lo, hi), in the sequential order — i ascending,
// j ascending within each i, both endpoints updated with strict '>' —
// accumulating into fd/fi (the caller's partial, pre-initialized to
// −Inf/−1). Matrix mode reads the materialized rows. Tiled mode
// computes exactly the walked entries on demand — the rectangular
// [0, lo)×[lo, hi) block streamed through a private column tile, then
// the diagonal block row by row from each row's i+1 offset — via
// FillSqRowsRange, so the pass totals n²/2 kernel evaluations across
// shards, half of what full-row fills cost. The entries are the same
// canonical squares either way, consumed in the same order, so matrix
// and tiled shards produce bit-identical partials.
// Within one outer row i, entry i is only ever updated as the pair's
// smaller endpoint (every inner j is strictly greater), so each branch
// below keeps row i's running (best, idx) in locals and writes it back
// once per row — the same comparisons against the same values, without
// a bounds-checked fd[i] access per pair.
func (e *Engine) farthestTriangularShard(lo, hi int, fd []float64, fi []int) {
	if e.dm != nil {
		for i := 0; i < hi; i++ {
			row := e.dm.SqRow(i)
			best, bi := fd[i], fi[i]
			for j := max(lo, i+1); j < hi; j++ {
				dist := math.Sqrt(row[j])
				if dist > best {
					best, bi = dist, j
				}
				if dist > fd[j] {
					fd[j], fi[j] = dist, i
				}
			}
			fd[i], fi[i] = best, bi
		}
		return
	}
	w := hi - lo
	if w <= 0 {
		return
	}
	// Rectangular block: rows [0, lo) need columns [lo, hi), streamed
	// through a tile within the per-worker budget.
	if lo > 0 {
		rows := int(tileBudgetBytes / (8 * int64(w)))
		if rows < 1 {
			rows = 1
		}
		if rows > lo {
			rows = lo
		}
		tile := make([]float64, rows*w)
		for b0 := 0; b0 < lo; b0 += rows {
			b1 := min(b0+rows, lo)
			e.flat.FillSqRowsRange(b0, b1, lo, hi, tile, 1)
			for i := b0; i < b1; i++ {
				seg := tile[(i-b0)*w : (i-b0)*w+w]
				best, bi := fd[i], fi[i]
				for jj, sq := range seg {
					j := lo + jj
					dist := math.Sqrt(sq)
					if dist > best {
						best, bi = dist, j
					}
					if dist > fd[j] {
						fd[j], fi[j] = dist, i
					}
				}
				fd[i], fi[i] = best, bi
			}
		}
	}
	// Diagonal block: row i in [lo, hi) needs columns [i+1, hi) — the
	// triangular tail, filled per row from its own offset.
	buf := make([]float64, w)
	for i := lo; i < hi-1; i++ {
		jlo := i + 1
		seg := buf[:hi-jlo]
		e.flat.FillSqRowsRange(i, i+1, jlo, hi, seg, 1)
		best, bi := fd[i], fi[i]
		for jj, sq := range seg {
			j := jlo + jj
			dist := math.Sqrt(sq)
			if dist > best {
				best, bi = dist, j
			}
			if dist > fd[j] {
				fd[j], fi[j] = dist, i
			}
		}
		fd[i], fi[i] = best, bi
	}
}

// swapThreshold is the minimum improvement a 1-swap must bring to be
// applied — shared by every local-search sweep, sharded or not, so the
// stopping condition is identical across paths.
const swapThreshold = 1e-12

// swapChoice is one shard's best improving swap: replace solution slot
// si with candidate j for a gain of delta. si < 0 means none found.
type swapChoice struct {
	delta float64
	si, j int
}

// reduceSwaps merges per-shard sweep winners: strictly larger delta
// wins; exact ties go to the lexicographically smallest (si, j) — the
// swap the sequential (slot outer, candidate inner, strict '>') scan
// would have kept, since shards partition the candidate axis. The
// result is therefore independent of the shard count.
func reduceSwaps(best []swapChoice) swapChoice {
	out := swapChoice{delta: swapThreshold, si: -1, j: -1}
	for _, c := range best {
		if c.si < 0 {
			continue
		}
		if c.delta > out.delta ||
			(c.delta == out.delta && out.si >= 0 && (c.si < out.si || (c.si == out.si && c.j < out.j))) {
			out = c
		}
	}
	return out
}

// solRowSet maintains the squared-distance rows of the current solution
// members — views into the matrix in matrix mode, an O(k·n) scratch
// buffer refreshed on swaps in tiled mode. It is what lets the swap
// sweeps run without the full matrix.
type solRowSet struct {
	e    *Engine
	rows [][]float64
	buf  []float64 // backing store in tiled mode
}

func newSolRowSet(e *Engine, k int) *solRowSet {
	s := &solRowSet{e: e, rows: make([][]float64, k)}
	if e.dm == nil {
		s.buf = make([]float64, k*e.n)
	}
	return s
}

// load (re)computes slot si's row for point idx.
func (s *solRowSet) load(si, idx int) {
	if s.e.dm != nil {
		s.rows[si] = s.e.dm.SqRow(idx)
		return
	}
	dst := s.buf[si*s.e.n : si*s.e.n+s.e.n]
	s.e.flat.FillSqRows(idx, idx+1, dst, 1)
	s.rows[si] = dst
}

// row returns slot si's row.
func (s *solRowSet) row(si int) []float64 { return s.rows[si] }

// loadPrefix fills slots [0, k) with rows 0..k−1 — the contiguous
// lexicographic start of the local search — as one sharded range fill
// in tiled mode (identical values to k single-row loads, computed
// across the engine's workers instead of serially).
func (s *solRowSet) loadPrefix(k int) {
	if s.e.dm != nil {
		for si := 0; si < k; si++ {
			s.rows[si] = s.e.dm.SqRow(si)
		}
		return
	}
	n := s.e.n
	s.e.flat.FillSqRows(0, k, s.buf[:k*n], s.e.workers)
	for si := 0; si < k; si++ {
		s.rows[si] = s.buf[si*n : si*n+n]
	}
}

// gmmEngine is the farthest-first traversal of Solve's GMM branch on
// engine rows (one row per selected center — O(k) rows total, so tiled
// mode computes them on demand). It compares raw squares with the flat
// GMM kernel's bookkeeping (strict '<' keeps ties on the earliest
// center, strict '>' on an ascending scan keeps the lowest index), so
// it selects exactly the points coreset.GMM's fast path selects. Starts
// from index 0, as Solve does.
func gmmEngine(e *Engine, k int) []int {
	n := e.n
	if k > n {
		k = n
	}
	minSq := make([]float64, n)
	for i := range minSq {
		minSq[i] = math.Inf(1)
	}
	out := make([]int, 0, k)
	buf := e.rowScratch()
	cur := 0
	for sel := 0; sel < k; sel++ {
		out = append(out, cur)
		row := e.sqRowInto(cur, buf)
		next, nextSq := cur, math.Inf(-1)
		for i := 0; i < n; i++ {
			m := minSq[i]
			if sq := row[i]; sq < m {
				m = sq
				minSq[i] = sq
			}
			if m > nextSq {
				next, nextSq = i, m
			}
		}
		cur = next
	}
	return out
}

// maxDispersionPairsEngine is MaxDispersionPairs run index-based on the
// engine: the farthest-partner pass shards across workers (streaming
// row-blocks in tiled mode), the pair-taking loop and its on-demand
// recomputes run on single rows, and the odd-k distance sums read the
// taken points' rows through matrix symmetry. Every consulted value is
// the square-rooted canonical square, consumed in the generic path's
// comparison and summation order, so the selected indices are
// bit-identical to the sequential scan's for every worker count and
// both engine modes.
func maxDispersionPairsEngine(e *Engine, k int) []int {
	n := e.n
	if k > n {
		k = n
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	farDist := make([]float64, n)
	farIdx := make([]int, n)
	for i := range farIdx {
		farIdx[i] = -1
		farDist[i] = math.Inf(-1)
	}
	e.farthestPartners(farDist, farIdx)
	rowBuf := e.rowScratch()
	recompute := func(i int) {
		row := e.sqRowInto(i, rowBuf)
		farDist[i], farIdx[i] = math.Inf(-1), -1
		for j := 0; j < n; j++ {
			if j == i || !alive[j] {
				continue
			}
			if dist := math.Sqrt(row[j]); dist > farDist[i] {
				farDist[i], farIdx[i] = dist, j
			}
		}
	}
	farthestAlivePair := func() (int, int) {
		for {
			bi := -1
			for i := 0; i < n; i++ {
				if alive[i] && (bi == -1 || farDist[i] > farDist[bi]) {
					bi = i
				}
			}
			if bi == -1 {
				return -1, -1
			}
			if bj := farIdx[bi]; bj >= 0 && alive[bj] {
				return bi, bj
			}
			recompute(bi)
			if farIdx[bi] == -1 {
				return -1, -1
			}
		}
	}
	taken := make([]int, 0, k)
	for len(taken)+2 <= k {
		bi, bj := farthestAlivePair()
		if bi == -1 {
			break
		}
		alive[bi], alive[bj] = false, false
		taken = append(taken, bi, bj)
	}
	if len(taken) < k {
		// Odd k: the distance sum accumulates sqrt'd entries in the order
		// the generic path sums d(pts[i], q) over the taken points; entry
		// (q, i) is bit-identical to entry (i, q) by symmetry, so reading
		// the taken points' rows — O(k) rows, computed on demand in tiled
		// mode — yields sums, and a chosen point, bit-identical to the
		// generic path's.
		takenRows := newSolRowSet(e, len(taken))
		for t, j := range taken {
			takenRows.load(t, j)
		}
		bi, best := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			var sum float64
			for t := range taken {
				sum += math.Sqrt(takenRows.row(t)[i])
			}
			if sum > best {
				bi, best = i, sum
			}
		}
		if bi >= 0 {
			alive[bi] = false
			taken = append(taken, bi)
		}
	}
	return taken
}

// localSearchCliqueEngine is LocalSearchClique run index-based on the
// engine. Contribution sums consume square-rooted entries in the
// generic path's order (through matrix symmetry), each swap sweep
// shards the candidate axis across workers and reduces with the
// lowest-(slot, candidate) tie-break, and the O(n) contribution updates
// shard by row ranges — so every sweep applies the same exchange as the
// sequential scan and the final solution is bit-identical, in both
// engine modes, for every worker count. The caller guarantees k < n.
func localSearchCliqueEngine(e *Engine, k, maxSweeps int) []int {
	n := e.n
	const safetyLimit = 1000
	if maxSweeps <= 0 || maxSweeps > safetyLimit {
		maxSweeps = safetyLimit
	}
	inSol := make([]bool, n)
	sol := make([]int, k)
	solRows := newSolRowSet(e, k)
	solRows.loadPrefix(k)
	for i := 0; i < k; i++ {
		inSol[i] = true
		sol[i] = i
	}
	contrib := make([]float64, n)
	chunkRanges := shardRanges(n, e.workers, minChunkRows)
	runShards(chunkRanges, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var sum float64
			for si := range sol {
				sum += math.Sqrt(solRows.row(si)[i])
			}
			contrib[i] = sum
		}
	})
	sweepRanges := shardRanges(n, e.workers, minSweepCols)
	shardBest := make([]swapChoice, len(sweepRanges))
	newRowBuf := e.rowScratch()
	for sweep := 0; sweep < maxSweeps; sweep++ {
		runShards(sweepRanges, func(s, lo, hi int) {
			loc := swapChoice{delta: swapThreshold, si: -1, j: -1}
			for si := range sol {
				row := solRows.row(si)
				ci := contrib[sol[si]]
				for j := lo; j < hi; j++ {
					if inSol[j] {
						continue
					}
					if delta := contrib[j] - math.Sqrt(row[j]) - ci; delta > loc.delta {
						loc = swapChoice{delta: delta, si: si, j: j}
					}
				}
			}
			shardBest[s] = loc
		})
		choice := reduceSwaps(shardBest)
		if choice.si < 0 {
			break
		}
		oldIdx := sol[choice.si]
		newIdx := choice.j
		inSol[oldIdx], inSol[newIdx] = false, true
		sol[choice.si] = newIdx
		oldRow := solRows.row(choice.si)
		var newRow []float64
		if e.dm != nil {
			newRow = e.dm.SqRow(newIdx)
		} else {
			e.flat.FillSqRows(newIdx, newIdx+1, newRowBuf, 1)
			newRow = newRowBuf[:n]
		}
		runShards(chunkRanges, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				contrib[i] += math.Sqrt(newRow[i]) - math.Sqrt(oldRow[i])
			}
		})
		if e.dm != nil {
			solRows.rows[choice.si] = newRow
		} else {
			copy(oldRow, newRow) // refresh the slot in place
		}
	}
	return sol
}

// pick maps solver indices back to caller points.
func pick[P any](pts []P, idx []int) []P {
	out := make([]P, len(idx))
	for i, j := range idx {
		out[i] = pts[j]
	}
	return out
}

// SolveEngine is Solve run on a prepared engine over the same points:
// the sharded MaxDispersionPairs for remote-clique, the engine-indexed
// farthest-first traversal for every other measure. It panics if k < 1
// or the engine size disagrees with len(pts).
func SolveEngine[P any](m diversity.Measure, pts []P, e *Engine, k int) []P {
	if k < 1 {
		panic(fmt.Sprintf("sequential: SolveEngine requires k >= 1, got %d", k))
	}
	if len(pts) == 0 {
		return nil
	}
	if e == nil || e.n != len(pts) {
		panic(fmt.Sprintf("sequential: SolveEngine engine over %d points for %d input points", engineLen(e), len(pts)))
	}
	return pick(pts, SolveEngineIdx(m, e, k))
}

// SolveEngineIdx is SolveEngine returning indices into the engine's
// point set instead of materialized points — for callers that retain
// the point slice themselves and want to store or replay the selection
// (the divmaxd solution memo keeps indices so a later patched state can
// verify a stale answer against its delta). Same dispatch and same
// bit-identical-selection contract as SolveEngine. It panics if k < 1
// and returns nil for a nil or empty engine.
func SolveEngineIdx(m diversity.Measure, e *Engine, k int) []int {
	if k < 1 {
		panic(fmt.Sprintf("sequential: SolveEngineIdx requires k >= 1, got %d", k))
	}
	if e == nil || e.n == 0 {
		return nil
	}
	if m == diversity.RemoteClique {
		return maxDispersionPairsEngine(e, k)
	}
	return gmmEngine(e, k)
}

func engineLen(e *Engine) int {
	if e == nil {
		return -1
	}
	return e.n
}

// MaxDispersionPairsEngine is MaxDispersionPairs on a prepared engine;
// see maxDispersionPairsEngine for the bit-identity contract. It panics
// if k < 1 or the engine size disagrees with len(pts).
func MaxDispersionPairsEngine[P any](pts []P, e *Engine, k int) []P {
	if k < 1 {
		panic(fmt.Sprintf("sequential: MaxDispersionPairs requires k >= 1, got %d", k))
	}
	if e == nil || e.n != len(pts) {
		panic(fmt.Sprintf("sequential: MaxDispersionPairsEngine engine over %d points for %d input points", engineLen(e), len(pts)))
	}
	return pick(pts, maxDispersionPairsEngine(e, k))
}

// LocalSearchCliqueEngine is LocalSearchClique on a prepared engine;
// see localSearchCliqueEngine for the bit-identity contract. It panics
// if k < 1 or the engine size disagrees with len(pts).
func LocalSearchCliqueEngine[P any](pts []P, e *Engine, k, maxSweeps int) []P {
	if k < 1 {
		panic(fmt.Sprintf("sequential: LocalSearchClique requires k >= 1, got %d", k))
	}
	if e == nil || e.n != len(pts) {
		panic(fmt.Sprintf("sequential: LocalSearchCliqueEngine engine over %d points for %d input points", engineLen(e), len(pts)))
	}
	if k >= len(pts) {
		out := make([]P, len(pts))
		copy(out, pts)
		return out
	}
	return pick(pts, localSearchCliqueEngine(e, k, maxSweeps))
}
