// Package sequential implements the linear-space sequential
// α-approximation algorithms of Table 1, which the streaming and
// MapReduce drivers run on the extracted core-sets to produce the final
// solution (the "algorithm A" of Theorems 3 and 6):
//
//   - remote-clique: the Hassin–Rubinstein–Tamir max-dispersion heuristic
//     (repeatedly take the farthest remaining pair), α = 2;
//   - every other measure: the Gonzalez farthest-first traversal (GMM),
//     whose greedy anticover yields α = 2 for remote-edge and remote-star,
//     3 for remote-bipartition and remote-cycle, and 4 for remote-tree
//     (Chandra–Halldórsson; Halldórsson–Iwano–Katoh–Tokuyama).
//
// The package also provides multiplicity-aware adaptations for
// generalized core-sets (Fact 2), a local-search improver for
// remote-clique (the ingredient of the AFZ baseline), and exact
// brute-force solvers used by tests and reference computations.
package sequential

import (
	"fmt"
	"math"

	"divmax/internal/coreset"
	"divmax/internal/diversity"
	"divmax/internal/metric"
)

// Solve returns an α-approximate solution with min(k, len(pts)) points
// for measure m, where α is m.SequentialAlpha(). It panics if k < 1.
//
// On the Euclidean-over-Vector fast path both branches avoid per-pair
// distance callbacks: the remote-clique branch dispatches (inside
// MaxDispersionPairs) to the solve engine of engine.go, and the
// GMM branch dispatches (inside coreset.GMM) to the flat squared-distance
// kernel — the traversal is O(n·k) distance evaluations, so it relaxes
// against flat rows directly rather than paying an O(n²) matrix fill.
// Callers that reuse one union across solves build its Engine once and
// solve on it instead: mrdiv.SolveCoresets through SolveEngine for
// remote-clique, the divmaxd merge cache (internal/merge) through
// SolveEngineIdx for every measure.
func Solve[P any](m diversity.Measure, pts []P, k int, d metric.Distance[P]) []P {
	if k < 1 {
		panic(fmt.Sprintf("sequential: Solve requires k >= 1, got %d", k))
	}
	if len(pts) == 0 {
		return nil
	}
	if m == diversity.RemoteClique {
		return MaxDispersionPairs(pts, k, d)
	}
	return coreset.GMM(pts, k, 0, d).Points
}

// MaxDispersionPairs is the Hassin–Rubinstein–Tamir 2-approximation for
// remote-clique: ⌊k/2⌋ times, pick the pair of remaining points at
// maximum distance and add both endpoints; for odd k a final point
// maximizing the distance sum to the chosen set is added.
//
// A lazy farthest-partner index makes the repeated farthest-pair queries
// cheap: one O(n²) pass caches each point's farthest partner; removing
// the two endpoints of a taken pair only invalidates entries that pointed
// at them, which are recomputed on demand. Total time is O(n² + k·n)
// distance evaluations instead of the naive O(k·n²), with O(n) extra
// space — this is the round-2 hot path of every remote-clique pipeline.
//
// When the points are metric.Vector, d is metric.Euclidean, and more
// than one core is available, the O(n²) pass runs sharded across cores
// against the solve engine (engine.go) — a parallel-filled DistMatrix
// within the memory budget, streamed row-block tiles beyond it —
// instead of per-pair callbacks, selecting a bit-identical solution.
func MaxDispersionPairs[P any](pts []P, k int, d metric.Distance[P]) []P {
	if k < 1 {
		panic(fmt.Sprintf("sequential: MaxDispersionPairs requires k >= 1, got %d", k))
	}
	if e := AutoEngine(pts, d, 0); e != nil {
		return pick(pts, maxDispersionPairsEngine(e, k))
	}
	n := len(pts)
	if k > n {
		k = n
	}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	// farDist[i], farIdx[i]: farthest partner of i over all points
	// (computed once), lazily downgraded to "farthest alive partner" when
	// consulted after removals.
	farDist := make([]float64, n)
	farIdx := make([]int, n)
	for i := range farIdx {
		farIdx[i] = -1
		farDist[i] = math.Inf(-1)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dist := d(pts[i], pts[j])
			if dist > farDist[i] {
				farDist[i], farIdx[i] = dist, j
			}
			if dist > farDist[j] {
				farDist[j], farIdx[j] = dist, i
			}
		}
	}
	recompute := func(i int) {
		farDist[i], farIdx[i] = math.Inf(-1), -1
		for j := 0; j < n; j++ {
			if j == i || !alive[j] {
				continue
			}
			if dist := d(pts[i], pts[j]); dist > farDist[i] {
				farDist[i], farIdx[i] = dist, j
			}
		}
	}
	// farthestAlivePair returns the endpoints of the maximum-distance
	// alive pair, or (-1,-1). Stale cache entries (dead partner) only
	// overestimate, so recomputing the current maximum until its partner
	// is alive yields the true global maximum.
	farthestAlivePair := func() (int, int) {
		for {
			bi := -1
			for i := 0; i < n; i++ {
				if alive[i] && (bi == -1 || farDist[i] > farDist[bi]) {
					bi = i
				}
			}
			if bi == -1 {
				return -1, -1 // no alive points
			}
			if bj := farIdx[bi]; bj >= 0 && alive[bj] {
				return bi, bj
			}
			recompute(bi)
			if farIdx[bi] == -1 {
				return -1, -1 // bi is the only alive point
			}
		}
	}
	out := make([]P, 0, k)
	for len(out)+2 <= k {
		bi, bj := farthestAlivePair()
		if bi == -1 {
			break
		}
		alive[bi], alive[bj] = false, false
		out = append(out, pts[bi], pts[bj])
	}
	if len(out) < k {
		// Odd k (or a single point): add the remaining point with the
		// largest distance sum to the current solution.
		bi, best := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			var sum float64
			for _, q := range out {
				sum += d(pts[i], q)
			}
			if sum > best {
				bi, best = i, sum
			}
		}
		if bi >= 0 {
			alive[bi] = false
			out = append(out, pts[bi])
		}
	}
	return out
}

// LocalSearchClique improves a remote-clique solution by 1-swaps: while
// some exchange of a solution point with an outside point increases the
// sum of pairwise distances, apply the best such exchange. Starting from
// an arbitrary solution this is the core-set construction of the AFZ
// baseline (Aghamolaei, Farhadi, Zarrabi-Zadeh, CCCG'15); its running
// time is superlinear in n, which Table 4 measures. maxSweeps bounds the
// number of swap rounds (≤ 0 means no bound beyond convergence, capped at
// a package-internal safety limit).
//
// When the points are metric.Vector, d is metric.Euclidean, and more
// than one core is available, the contribution and swap scans run
// sharded across cores against the solve engine (engine.go) — a
// parallel-filled DistMatrix within the memory budget, streamed
// row-block tiles beyond it — instead of per-pair callbacks, applying
// bit-identical sweeps.
func LocalSearchClique[P any](pts []P, k int, maxSweeps int, d metric.Distance[P]) []P {
	if k < 1 {
		panic(fmt.Sprintf("sequential: LocalSearchClique requires k >= 1, got %d", k))
	}
	n := len(pts)
	if k >= n {
		// Trivial before any engine is built: the whole input is the
		// solution.
		out := make([]P, n)
		copy(out, pts)
		return out
	}
	if e := AutoEngine(pts, d, 0); e != nil {
		return pick(pts, localSearchCliqueEngine(e, k, maxSweeps))
	}
	const safetyLimit = 1000
	if maxSweeps <= 0 || maxSweeps > safetyLimit {
		maxSweeps = safetyLimit
	}
	// Start from the lexicographic prefix: AFZ's analysis does not need a
	// clever start, and a weak start exhibits the algorithm's true cost.
	inSol := make([]bool, n)
	sol := make([]int, k)
	for i := 0; i < k; i++ {
		inSol[i] = true
		sol[i] = i
	}
	// contrib[i] = Σ_{j∈sol} d(i, j) for every point i.
	contrib := make([]float64, n)
	for i := 0; i < n; i++ {
		for _, j := range sol {
			contrib[i] += d(pts[i], pts[j])
		}
	}
	for sweep := 0; sweep < maxSweeps; sweep++ {
		bestDelta, bestOut, bestIn := 1e-12, -1, -1
		for si, i := range sol {
			for j := 0; j < n; j++ {
				if inSol[j] {
					continue
				}
				// Swap i out, j in: new sum gains contrib[j]−d(i,j) and
				// loses contrib[i].
				delta := contrib[j] - d(pts[i], pts[j]) - contrib[i]
				if delta > bestDelta {
					bestDelta, bestOut, bestIn = delta, si, j
				}
			}
		}
		if bestOut < 0 {
			break
		}
		oldIdx := sol[bestOut]
		newIdx := bestIn
		inSol[oldIdx], inSol[newIdx] = false, true
		sol[bestOut] = newIdx
		for i := 0; i < n; i++ {
			contrib[i] += d(pts[i], pts[newIdx]) - d(pts[i], pts[oldIdx])
		}
	}
	out := make([]P, k)
	for i, j := range sol {
		out[i] = pts[j]
	}
	return out
}
