package sequential

import (
	"fmt"
	"math"

	"divmax/internal/metric"
)

// Grouped is a point carrying its partition-matroid class.
type Grouped[P any] struct {
	Point P
	Group int
}

// MaxDispersionPartitionMatroid maximizes remote-clique (sum of pairwise
// distances) over selections of exactly k points containing at most
// limits[g] points of each group g — the partition-matroid–constrained
// diversity maximization the paper cites as an important generalization
// (Abbassi, Mirrokni, Thakur, KDD'13; Cevallos, Eisenbrand, Zenklusen,
// SoCG'16). The algorithm is the KDD'13 approach: a feasible greedy start
// followed by feasibility-preserving 1-swap local search, a
// constant-factor approximation (½ for local search on max-sum
// dispersion under a matroid).
//
// It returns an error when no feasible solution of size k exists
// (Σ min(limits[g], |group g|) < k) or the inputs are malformed.
//
// When the points are metric.Vector, d is metric.Euclidean, and more
// than one core is available, the greedy start and the swap sweeps run
// index-based on the round-2 solve engine (engine.go) — the third
// index-based consumer after MaxDispersionPairs and LocalSearchClique —
// with the sweeps sharded across cores; every distance it consults is
// the square-rooted canonical square, consumed in the generic path's
// order, so the selection is bit-identical to the callback path's.
func MaxDispersionPartitionMatroid[P any](pts []Grouped[P], limits []int, k int, d metric.Distance[P]) ([]P, error) {
	if k < 1 {
		return nil, fmt.Errorf("sequential: matroid dispersion requires k >= 1, got %d", k)
	}
	groupSize := make([]int, len(limits))
	for i, gp := range pts {
		if gp.Group < 0 || gp.Group >= len(limits) {
			return nil, fmt.Errorf("sequential: point %d has group %d outside [0,%d)", i, gp.Group, len(limits))
		}
		groupSize[gp.Group]++
	}
	capacity := 0
	for g, lim := range limits {
		if lim < 0 {
			return nil, fmt.Errorf("sequential: negative limit %d for group %d", lim, g)
		}
		c := lim
		if groupSize[g] < c {
			c = groupSize[g]
		}
		capacity += c
	}
	if capacity < k {
		return nil, fmt.Errorf("sequential: partition matroid admits at most %d points, need k=%d", capacity, k)
	}

	if grouped, ok := any(pts).([]Grouped[metric.Vector]); ok && autoMatrixSolve && metric.IsEuclidean(d) {
		vecs := make([]metric.Vector, len(grouped))
		group := make([]int, len(grouped))
		for i, gp := range grouped {
			vecs[i] = gp.Point
			group[i] = gp.Group
		}
		if e := buildEngineVectors(vecs, nil, nil, 0); e != nil {
			sol := maxDispersionMatroidEngine(e, group, limits, k)
			result := make([]P, len(sol))
			for i, j := range sol {
				result[i] = pts[j].Point
			}
			return result, nil
		}
	}

	n := len(pts)
	dist := func(i, j int) float64 { return d(pts[i].Point, pts[j].Point) }

	// Greedy feasible start: farthest-first among points whose group has
	// spare capacity (a matroid-respecting GMM sweep).
	inSol := make([]bool, n)
	used := make([]int, len(limits))
	sol := make([]int, 0, k)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	for len(sol) < k {
		best := -1
		for i := 0; i < n; i++ {
			if inSol[i] || used[pts[i].Group] >= limits[pts[i].Group] {
				continue
			}
			if best == -1 || minDist[i] > minDist[best] {
				best = i
			}
		}
		if best == -1 {
			break // cannot happen: capacity checked above
		}
		inSol[best] = true
		used[pts[best].Group]++
		sol = append(sol, best)
		for i := 0; i < n; i++ {
			if dd := dist(best, i); dd < minDist[i] {
				minDist[i] = dd
			}
		}
	}

	// contrib[i] = Σ_{j∈sol} d(i,j).
	contrib := make([]float64, n)
	for i := 0; i < n; i++ {
		for _, j := range sol {
			contrib[i] += dist(i, j)
		}
	}
	// Local search: swap sol[si] for an outside point j when the sum
	// improves and the partition matroid stays satisfied (same group, or
	// j's group has spare capacity once sol[si] leaves).
	const maxSweeps = 500
	for sweep := 0; sweep < maxSweeps; sweep++ {
		bestDelta, bestSi, bestJ := 1e-12, -1, -1
		for si, i := range sol {
			gi := pts[i].Group
			for j := 0; j < n; j++ {
				if inSol[j] {
					continue
				}
				gj := pts[j].Group
				if gj != gi && used[gj] >= limits[gj] {
					continue
				}
				delta := contrib[j] - dist(i, j) - contrib[i]
				if delta > bestDelta {
					bestDelta, bestSi, bestJ = delta, si, j
				}
			}
		}
		if bestSi < 0 {
			break
		}
		out := sol[bestSi]
		inSol[out] = false
		used[pts[out].Group]--
		inSol[bestJ] = true
		used[pts[bestJ].Group]++
		sol[bestSi] = bestJ
		for i := 0; i < n; i++ {
			contrib[i] += dist(i, bestJ) - dist(i, out)
		}
	}

	result := make([]P, len(sol))
	for i, j := range sol {
		result[i] = pts[j].Point
	}
	return result, nil
}

// maxDispersionMatroidEngine is the KDD'13 greedy-start + 1-swap local
// search run index-based on the solve engine. The greedy relaxation
// reads one row per selected point (computed on demand in tiled mode
// and kept as that slot's solution row), contribution sums read the
// solution rows through matrix symmetry in the generic path's order,
// and each swap sweep shards the candidate axis across the engine's
// workers with the lowest-(slot, candidate) tie-break of reduceSwaps —
// so every greedy pick and every applied exchange matches the callback
// path bit for bit, for every worker count and both engine modes.
// Feasibility (the capacity check) is the caller's responsibility.
func maxDispersionMatroidEngine(e *Engine, group, limits []int, k int) []int {
	n := e.n
	inSol := make([]bool, n)
	used := make([]int, len(limits))
	sol := make([]int, 0, k)
	solRows := newSolRowSet(e, k)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	chunkRanges := shardRanges(n, e.workers, minChunkRows)
	// Greedy feasible start: farthest-first among points whose group has
	// spare capacity. The selection scan is the generic path's (strict
	// '>' over an ascending scan keeps the lowest index); the relaxation
	// shards by row ranges with disjoint writes.
	for len(sol) < k {
		best := -1
		for i := 0; i < n; i++ {
			if inSol[i] || used[group[i]] >= limits[group[i]] {
				continue
			}
			if best == -1 || minDist[i] > minDist[best] {
				best = i
			}
		}
		if best == -1 {
			break // cannot happen: capacity checked by the caller
		}
		inSol[best] = true
		used[group[best]]++
		solRows.load(len(sol), best)
		row := solRows.row(len(sol))
		sol = append(sol, best)
		runShards(chunkRanges, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				if dd := math.Sqrt(row[i]); dd < minDist[i] {
					minDist[i] = dd
				}
			}
		})
	}

	// contrib[i] = Σ_{j∈sol} d(i,j), accumulated in sol order through
	// the symmetric entries of the solution rows.
	contrib := make([]float64, n)
	runShards(chunkRanges, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var sum float64
			for si := range sol {
				sum += math.Sqrt(solRows.row(si)[i])
			}
			contrib[i] = sum
		}
	})

	// Local search: swap sol[si] for an outside point j when the sum
	// improves and the partition matroid stays satisfied (same group, or
	// j's group has spare capacity once sol[si] leaves).
	const maxSweeps = 500
	sweepRanges := shardRanges(n, e.workers, minSweepCols)
	shardBest := make([]swapChoice, len(sweepRanges))
	newRowBuf := e.rowScratch()
	for sweep := 0; sweep < maxSweeps; sweep++ {
		runShards(sweepRanges, func(s, lo, hi int) {
			loc := swapChoice{delta: swapThreshold, si: -1, j: -1}
			for si, i := range sol {
				gi := group[i]
				row := solRows.row(si)
				ci := contrib[i]
				for j := lo; j < hi; j++ {
					if inSol[j] {
						continue
					}
					gj := group[j]
					if gj != gi && used[gj] >= limits[gj] {
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
		out := sol[choice.si]
		inSol[out] = false
		used[group[out]]--
		inSol[choice.j] = true
		used[group[choice.j]]++
		sol[choice.si] = choice.j
		oldRow := solRows.row(choice.si)
		var newRow []float64
		if e.dm != nil {
			newRow = e.dm.SqRow(choice.j)
		} else {
			e.flat.FillSqRows(choice.j, choice.j+1, newRowBuf, 1)
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
