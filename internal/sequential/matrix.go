package sequential

import (
	"fmt"
	"math"
	"runtime"

	"divmax/internal/diversity"
	"divmax/internal/metric"
)

// Matrix-indexed round-2 solve entry points.
//
// The sequential α-approximation algorithms this package runs on merged
// core-set unions are Ω(n²) in distance evaluations (MaxDispersionPairs'
// farthest-pair index, LocalSearchClique's swap scans), so on the
// Euclidean-over-Vector fast path they run index-based against the
// solve engine of engine.go: every pairwise squared distance is either
// materialized once in a metric.DistMatrix (filled in parallel on the
// canonical four-lane kernel) or streamed through row-block tiles when
// the matrix would blow the memory budget, and the solvers replace each
// d(pts[i], pts[j]) callback with one load (plus one hardware square
// root where the generic path compared or summed real distances).
// Because every entry is the canonical square, math.Sqrt of an entry is
// bit-identical to metric.Euclidean on the same rows, so the engine
// solvers perform exactly the comparisons and sums of their generic
// counterparts and select bit-identical solutions — unconditionally,
// with no tie caveat, for every worker count and both engine modes.
// The GMM branch of SolveMatrix compares raw squares instead, matching
// the flat GMM kernel it mirrors (same selections as the generic
// traversal up to the sqrt-collapse caveat documented in
// internal/coreset/fastgmm.go).
//
// Dispatch mirrors PR 2's: the distance must BE metric.Euclidean
// (metric.IsEuclidean identity check) over []metric.Vector; wrappers and
// other metrics keep the generic path. A false negative only costs
// speed, never correctness.

// autoMatrixSolve gates the solvers' internal dispatch to the engine.
// A one-shot solve does the same Θ(n²) pair work either way, so the
// engine only beats the callback path when its fills and scans run
// wider than one core; on a single core the fill is pure added latency.
// Callers that skip the gate are unaffected: when the fill is amortized
// across queries (the divmaxd merge cache, internal/merge, calls
// BuildEngine and RebuildEngine directly) or handed down prebuilt
// (SolveMatrix), the engine path wins regardless of core count. A
// variable so tests can force both paths on any machine.
var autoMatrixSolve = runtime.NumCPU() > 1

// maxBudgetPoints returns the largest point count whose full matrix
// (8·n² bytes) fits MatrixBudget — the matrix/tiled mode boundary.
func maxBudgetPoints() int {
	n := int(math.Sqrt(float64(MatrixBudget) / 8))
	for int64(n)*int64(n)*8 > MatrixBudget && n > 0 {
		n--
	}
	return n
}

// AutoMatrix is BuildMatrix behind the autoMatrixSolve gate; see
// AutoEngine, which supersedes it for callers that also want tiled
// mode. It returns nil when the gate is off or the matrix does not
// apply.
func AutoMatrix[P any](pts []P, d metric.Distance[P], workers int) *metric.DistMatrix {
	if !autoMatrixSolve {
		return nil
	}
	return BuildMatrix(pts, d, workers)
}

// BuildMatrix materializes the pairwise squared-distance matrix of pts
// when the matrix fast path applies — d is metric.Euclidean, the points
// are []metric.Vector of uniform dimension, n ≥ 2, and the 8·n² buffer
// fits MatrixBudget — filling rows in parallel across workers
// goroutines (≤ 0 means NumCPU). It returns nil when the fast path does
// not apply, in which case callers run the generic solvers or, past the
// budget, the tiled engine (BuildEngine).
func BuildMatrix[P any](pts []P, d metric.Distance[P], workers int) *metric.DistMatrix {
	return buildMatrixCapped(pts, d, workers, maxBudgetPoints())
}

// buildMatrixCapped is BuildMatrix with an explicit point cap (tests
// exercise the cap without paying for a budget-sized build).
func buildMatrixCapped[P any](pts []P, d metric.Distance[P], workers, cap int) *metric.DistMatrix {
	if len(pts) < 2 || len(pts) > cap || !metric.IsEuclidean(d) {
		return nil
	}
	vecs, ok := any(pts).([]metric.Vector)
	if !ok {
		return nil
	}
	var flat metric.Points
	if !flat.Fill(vecs) {
		return nil // ragged rows: the generic path surfaces the panic
	}
	return metric.NewDistMatrix(&flat, workers)
}

// SolveMatrix is Solve run index-based against a precomputed DistMatrix
// over the same points: MaxDispersionPairsMatrix for remote-clique, the
// matrix-indexed farthest-first traversal for every other measure. The
// Ω(n²) scans shard across NumCPU workers (SolveEngine takes an
// explicit worker count). It panics if k < 1 or the matrix size
// disagrees with len(pts).
func SolveMatrix[P any](m diversity.Measure, pts []P, dm *metric.DistMatrix, k int) []P {
	if k < 1 {
		panic(fmt.Sprintf("sequential: SolveMatrix requires k >= 1, got %d", k))
	}
	if len(pts) == 0 {
		return nil
	}
	if dm == nil || dm.Len() != len(pts) {
		panic(fmt.Sprintf("sequential: SolveMatrix matrix over %d points for %d input points", matrixLen(dm), len(pts)))
	}
	return SolveEngine(m, pts, engineFromMatrix(dm, 0), k)
}

func matrixLen(dm *metric.DistMatrix) int {
	if dm == nil {
		return -1
	}
	return dm.Len()
}

// MaxDispersionPairsMatrix is MaxDispersionPairs run index-based against
// a precomputed DistMatrix over the same points, with the O(n²)
// farthest-partner pass sharded across NumCPU workers; the selected
// solution is bit-identical to the generic path's (engine.go). It panics
// if k < 1 or the matrix size disagrees with len(pts).
func MaxDispersionPairsMatrix[P any](pts []P, dm *metric.DistMatrix, k int) []P {
	if k < 1 {
		panic(fmt.Sprintf("sequential: MaxDispersionPairs requires k >= 1, got %d", k))
	}
	if dm == nil || dm.Len() != len(pts) {
		panic(fmt.Sprintf("sequential: MaxDispersionPairsMatrix matrix over %d points for %d input points", matrixLen(dm), len(pts)))
	}
	return pick(pts, maxDispersionPairsEngine(engineFromMatrix(dm, 0), k))
}

// LocalSearchCliqueMatrix is LocalSearchClique run index-based against a
// precomputed DistMatrix over the same points, with each swap sweep
// sharded across NumCPU workers; every sweep applies the same exchange
// as the generic path and the final solution is bit-identical
// (engine.go). It panics if k < 1 or the matrix size disagrees with
// len(pts).
func LocalSearchCliqueMatrix[P any](pts []P, dm *metric.DistMatrix, k, maxSweeps int) []P {
	if k < 1 {
		panic(fmt.Sprintf("sequential: LocalSearchClique requires k >= 1, got %d", k))
	}
	if dm == nil || dm.Len() != len(pts) {
		panic(fmt.Sprintf("sequential: LocalSearchCliqueMatrix matrix over %d points for %d input points", matrixLen(dm), len(pts)))
	}
	return LocalSearchCliqueEngine(pts, engineFromMatrix(dm, 0), k, maxSweeps)
}
