package sequential

import (
	"math"
	"math/rand"
	"testing"

	"divmax/internal/metric"
)

// appendEngine builds the engine the incremental path produces for a
// prefix/suffix split: BuildEngine over the prefix (nil below 2 points,
// in which case the build starts from scratch over everything — exactly
// what the divmaxd cache does when there is nothing to extend),
// followed by Fork + Append of the suffix.
func appendEngine(t *testing.T, all []metric.Vector, cut, workers int) *Engine {
	t.Helper()
	base := BuildEngine(all[:cut], metric.Euclidean, workers)
	if base == nil {
		return BuildEngine(all, metric.Euclidean, workers)
	}
	e := base.Fork()
	if !e.Append(all[cut:]) {
		t.Fatalf("Append rejected a %d-point suffix of dimension %d", len(all)-cut, len(all[0]))
	}
	return e
}

// sameEngineCells asserts two engines agree on mode, size, and — in
// matrix mode — every matrix cell, bit for bit.
func sameEngineCells(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: engine nil-ness %v vs %v", label, got == nil, want == nil)
	}
	if got == nil {
		return
	}
	if got.Len() != want.Len() || got.Tiled() != want.Tiled() {
		t.Fatalf("%s: engine (n=%d tiled=%v) vs (n=%d tiled=%v)",
			label, got.Len(), got.Tiled(), want.Len(), want.Tiled())
	}
	if got.Tiled() {
		return
	}
	gm, wm := got.Matrix(), want.Matrix()
	for i := 0; i < got.Len(); i++ {
		for j := 0; j < got.Len(); j++ {
			if math.Float64bits(gm.SqAt(i, j)) != math.Float64bits(wm.SqAt(i, j)) {
				t.Fatalf("%s: matrix cell (%d,%d) = %v, want %v", label, i, j, gm.SqAt(i, j), wm.SqAt(i, j))
			}
		}
	}
}

// TestEngineAppendMatchesBuild is the append-equivalence contract the
// divmaxd delta patch rests on: for random prefix/suffix splits —
// including empty prefixes, empty suffixes, and chains of several
// appends — BuildEngine(prefix)+Append(suffix) must agree with
// BuildEngine(all) entry for entry in matrix mode and solve
// bit-identically for every engine consumer (MaxDispersionPairs,
// LocalSearchClique, the partition-matroid solver) across worker counts
// and both engine modes.
func TestEngineAppendMatchesBuild(t *testing.T) {
	forceShardMinima(t)
	forceTileBudget(t, 8*7)
	for _, budget := range []int64{128 << 20, 8} { // matrix mode / forced tiled
		forceMatrixBudget(t, budget)
		for seed := int64(0); seed < 6; seed++ {
			rng := rand.New(rand.NewSource(100 + seed))
			for _, dim := range []int{1, 2, 3, 8} {
				for _, n := range []int{0, 1, 2, 3, 8, 60} {
					all := testVectors(rng, seed, n, dim)
					for _, cut := range []int{0, 1, n / 2, n - 1, n} {
						if cut < 0 || cut > n {
							continue
						}
						for _, workers := range []int{1, 3} {
							want := BuildEngine(all, metric.Euclidean, workers)
							got := appendEngine(t, all, cut, workers)
							label := "append/" + string(rune('0'+dim)) + "d"
							sameEngineCells(t, label, got, want)
							if want == nil {
								continue
							}
							k := 1 + rng.Intn(n)
							sameSolution(t, label+"/pairs",
								MaxDispersionPairsEngine(all, got, k),
								MaxDispersionPairsEngine(all, want, k))
							sameSolution(t, label+"/clique",
								LocalSearchCliqueEngine(all, got, k, 0),
								LocalSearchCliqueEngine(all, want, k, 0))
						}
					}
				}
			}
		}
	}
}

// TestEngineAppendChained: repeated Fork+Append steps — the cache's
// steady-state patch chain, reusing one buffer's spare capacity — must
// stay cell-identical to a from-scratch build after every step. Dims 32
// and 128 run the append stripes through the blocked kernel tier, whose
// per-cell values are position-independent, so the bitwise comparison
// against a from-scratch build holds there exactly as below the
// threshold.
func TestEngineAppendChained(t *testing.T) {
	forceShardMinima(t)
	rng := rand.New(rand.NewSource(9))
	for _, dim := range []int{2, 8, 32, 128} {
		all := testVectors(rng, int64(dim), 90, dim)
		e := BuildEngine(all[:4], metric.Euclidean, 2)
		grown := 4
		for _, step := range []int{1, 1, 2, 7, 30, 0, 44} {
			e = e.Fork()
			if !e.Append(all[grown : grown+step]) {
				t.Fatalf("chained Append of %d points failed", step)
			}
			grown += step
			want := BuildEngine(all[:grown], metric.Euclidean, 2)
			sameEngineCells(t, "chain", e, want)
			sameSolution(t, "chain/pairs",
				MaxDispersionPairsEngine(all[:grown], e, 5),
				MaxDispersionPairsEngine(all[:grown], want, 5))
		}
	}
}

// TestEngineAppendCrossesBudget: an append that pushes 8·n² past
// MatrixBudget must drop the matrix and cross into tiled mode, exactly
// where BuildEngine over the full set starts tiled — mode and solutions
// agree on both sides of the boundary.
func TestEngineAppendCrossesBudget(t *testing.T) {
	forceShardMinima(t)
	forceMatrixBudget(t, 40*40*8) // matrix up to 40 points
	rng := rand.New(rand.NewSource(17))
	all := testVectors(rng, 3, 64, 3)
	e := BuildEngine(all[:30], metric.Euclidean, 2)
	if e.Tiled() {
		t.Fatal("prefix engine should be matrix-mode under the forced budget")
	}
	e = e.Fork()
	if !e.Append(all[30:]) {
		t.Fatal("boundary-crossing Append failed")
	}
	want := BuildEngine(all, metric.Euclidean, 2)
	if !e.Tiled() || !want.Tiled() {
		t.Fatalf("expected both engines tiled past the budget (append=%v build=%v)", e.Tiled(), want.Tiled())
	}
	sameSolution(t, "crossing/pairs",
		MaxDispersionPairsEngine(all, e, 7),
		MaxDispersionPairsEngine(all, want, 7))
	sameSolution(t, "crossing/clique",
		LocalSearchCliqueEngine(all, e, 6, 0),
		LocalSearchCliqueEngine(all, want, 6, 0))
}

// TestMatroidEngineAppendMatchesBuild covers the third engine consumer:
// the partition-matroid solver over an appended engine must select
// exactly what it selects over a from-scratch engine, across worker
// counts and both modes.
func TestMatroidEngineAppendMatchesBuild(t *testing.T) {
	forceShardMinima(t)
	for _, budget := range []int64{128 << 20, 8} {
		forceMatrixBudget(t, budget)
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(40 + seed))
			n := 50
			all := testVectors(rng, seed, n, 2)
			group := make([]int, n)
			for i := range group {
				group[i] = rng.Intn(3)
			}
			limits := []int{3, 3, 3}
			for _, cut := range []int{0, 5, n / 2, n - 1} {
				for _, workers := range []int{1, 4} {
					want := BuildEngine(all, metric.Euclidean, workers)
					got := appendEngine(t, all, cut, workers)
					ws := maxDispersionMatroidEngine(want, group, limits, 6)
					gs := maxDispersionMatroidEngine(got, group, limits, 6)
					if len(ws) != len(gs) {
						t.Fatalf("matroid solution sizes differ: %d vs %d", len(gs), len(ws))
					}
					for i := range ws {
						if ws[i] != gs[i] {
							t.Fatalf("seed=%d cut=%d workers=%d: matroid pick %d = %d, want %d",
								seed, cut, workers, i, gs[i], ws[i])
						}
					}
				}
			}
		}
	}
}

// TestEngineForkIsolation: appending to a fork must leave the original
// engine's view — size, mode, cells, and solutions — untouched while
// solves run on it concurrently.
func TestEngineForkIsolation(t *testing.T) {
	forceShardMinima(t)
	rng := rand.New(rand.NewSource(77))
	all := testVectors(rng, 1, 40, 2)
	e := BuildEngine(all[:25], metric.Euclidean, 2)
	before := MaxDispersionPairsEngine(all[:25], e, 6)
	done := make(chan []metric.Vector, 8)
	for g := 0; g < 4; g++ {
		go func() {
			done <- MaxDispersionPairsEngine(all[:25], e, 6)
		}()
	}
	f := e.Fork()
	if !f.Append(all[25:]) {
		t.Fatal("fork Append failed")
	}
	for g := 0; g < 4; g++ {
		sameSolution(t, "concurrent-with-fork", <-done, before)
	}
	if e.Len() != 25 || f.Len() != 40 {
		t.Fatalf("fork/original lengths %d/%d, want 40/25", f.Len(), e.Len())
	}
	after := MaxDispersionPairsEngine(all[:25], e, 6)
	sameSolution(t, "original-after-fork", after, before)
}

// TestAppendEngineRejects: the gates — dimension mismatches, non-vector
// points — must report false and leave the engine unchanged.
func TestAppendEngineRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	all := testVectors(rng, 1, 10, 2)
	e := BuildEngine(all, metric.Euclidean, 1)
	if e.Append([]metric.Vector{{1, 2, 3}}) {
		t.Fatal("Append accepted a dimension-mismatched row")
	}
	if e.Len() != 10 {
		t.Fatalf("rejected Append changed the engine length to %d", e.Len())
	}
	if !e.Append(nil) {
		t.Fatal("empty Append must be a no-op success")
	}
	if AppendEngine(nil, all) {
		t.Fatal("AppendEngine accepted a nil engine")
	}
	type alias struct{ x float64 }
	if !AppendEngine(e, []alias{}) {
		t.Fatal("AppendEngine must accept an empty append of any type")
	}
	if AppendEngine(e, []alias{{1}}) {
		t.Fatal("AppendEngine accepted non-vector points")
	}
}
