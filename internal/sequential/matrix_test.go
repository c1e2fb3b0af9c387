package sequential

import (
	"math"
	"math/rand"
	"testing"

	"divmax/internal/diversity"
	"divmax/internal/metric"
)

// genericEuclid has the same semantics as metric.Euclidean but is a
// distinct function, so IsEuclidean does not recognize it and every
// solver driven by it takes the generic callback path — the reference
// implementation of the equivalence tests (mirroring
// internal/coreset/fast_test.go).
func genericEuclid(a, b metric.Vector) float64 { return metric.Euclidean(a, b) }

// tieHeavyVectors draws coordinates from a small integer grid, so the
// input is dense with duplicate points and exactly tied distances — the
// regime where any divergence between the matrix and generic paths
// would surface.
func tieHeavyVectors(rng *rand.Rand, n, dim int) []metric.Vector {
	pts := make([]metric.Vector, n)
	for i := range pts {
		v := make(metric.Vector, dim)
		for j := range v {
			v[j] = float64(rng.Intn(4))
		}
		pts[i] = v
	}
	return pts
}

func sameSolution(t *testing.T, label string, fast, slow []metric.Vector) {
	t.Helper()
	if len(fast) != len(slow) {
		t.Fatalf("%s: matrix selected %d points, generic %d", label, len(fast), len(slow))
	}
	for i := range fast {
		if len(fast[i]) != len(slow[i]) {
			t.Fatalf("%s: point %d dimension differs", label, i)
		}
		for j := range fast[i] {
			if math.Float64bits(fast[i][j]) != math.Float64bits(slow[i][j]) {
				t.Fatalf("%s: point %d differs: matrix %v, generic %v", label, i, fast[i], slow[i])
			}
		}
	}
}

func testVectors(rng *rand.Rand, seed int64, n, dim int) []metric.Vector {
	if seed%2 == 0 {
		return randomVectors(rng, n, dim)
	}
	return tieHeavyVectors(rng, n, dim)
}

// forceAutoEngine pins the solvers' internal engine dispatch (the
// autoMatrixSolve gate in front of AutoEngine) on or off for the
// duration of a test, so the equivalence suites exercise the engine
// path regardless of the machine's core count (the gate defaults to off
// on single-core machines).
func forceAutoEngine(t testing.TB, on bool) {
	t.Helper()
	orig := autoMatrixSolve
	autoMatrixSolve = on
	t.Cleanup(func() { autoMatrixSolve = orig })
}

// TestMatrixFastPathDispatches pins the two switches in front of the
// engine's matrix mode: maxBudgetPoints, the largest union whose 8·n²
// matrix fits MatrixBudget (Append clamps a grown matrix's stride to
// it), exactly at a budget and one byte under it; and the gate
// AutoEngine reads (a regression here would silently turn the solvers'
// fast path off and only show up in benchmarks).
func TestMatrixFastPathDispatches(t *testing.T) {
	if got := maxBudgetPoints(); got != 4096 {
		t.Fatalf("maxBudgetPoints() at the default budget = %d, want 4096", got)
	}
	forceMatrixBudget(t, 50*50*8)
	if got := maxBudgetPoints(); got != 50 {
		t.Fatalf("maxBudgetPoints() at 50·50·8 bytes = %d, want 50", got)
	}
	forceMatrixBudget(t, 50*50*8-1)
	if got := maxBudgetPoints(); got != 49 {
		t.Fatalf("maxBudgetPoints() one byte under 50·50·8 = %d, want 49", got)
	}
	pts := randomVectors(rand.New(rand.NewSource(1)), 50, 3)
	forceAutoEngine(t, false)
	if AutoEngine(pts, metric.Euclidean, 0) != nil {
		t.Fatal("AutoEngine built despite the dispatch gate being off")
	}
	forceAutoEngine(t, true)
	if AutoEngine(pts, metric.Euclidean, 0) == nil {
		t.Fatal("AutoEngine did not build with the dispatch gate on")
	}
}

// TestMaxDispersionPairsMatrixMatchesGeneric is the equivalence test of
// the remote-clique solver's internal dispatch: across seeds,
// dimensions, sizes, and k (odd, even, and above n), MaxDispersionPairs
// with metric.Euclidean returns bit-identical solutions to the generic
// callback path — including on tie-heavy inputs.
// TestMaxDispersionPairsEngineMatchesGeneric covers the engine entry
// point on the same grid.
func TestMaxDispersionPairsMatrixMatchesGeneric(t *testing.T) {
	forceAutoEngine(t, true)
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, dim := range []int{1, 2, 3, 4, 8} {
			for _, n := range []int{2, 3, 7, 60, 150} {
				pts := testVectors(rng, seed, n, dim)
				k := 1 + rng.Intn(n+3)
				fast := MaxDispersionPairs(pts, k, metric.Euclidean)
				slow := MaxDispersionPairs(pts, k, metric.Distance[metric.Vector](genericEuclid))
				sameSolution(t, "MaxDispersionPairs", fast, slow)
			}
		}
	}
}

// TestLocalSearchCliqueMatrixMatchesGeneric: every sweep of the local
// search behind the internal dispatch must apply the same exchange as
// the generic path, so the final solutions agree bit for bit across
// sweep budgets (including unbounded).
func TestLocalSearchCliqueMatrixMatchesGeneric(t *testing.T) {
	forceAutoEngine(t, true)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{2, 9, 40, 120} {
			pts := testVectors(rng, seed, n, 1+int(seed%4))
			k := 1 + rng.Intn(n+2)
			for _, sweeps := range []int{0, 1, 5} {
				fast := LocalSearchClique(pts, k, sweeps, metric.Euclidean)
				slow := LocalSearchClique(pts, k, sweeps, metric.Distance[metric.Vector](genericEuclid))
				sameSolution(t, "LocalSearchClique", fast, slow)
			}
		}
	}
}

// TestSolveMatrixMatchesSolve: SolveEngineIdx, the index form the
// divmaxd merge cache serves and memoizes, must pick exactly the points
// SolveEngine returns, for every measure in both engine modes.
func TestSolveMatrixMatchesSolve(t *testing.T) {
	forceShardMinima(t)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(90)
		pts := testVectors(rng, seed, n, 2+int(seed%3))
		k := 1 + rng.Intn(12)
		for _, m := range diversity.Measures {
			for mode, e := range engineModes(t, pts) {
				sameSolution(t, "SolveEngineIdx/"+m.String()+"/"+mode,
					pick(pts, SolveEngineIdx(m, e, k)), SolveEngine(m, pts, e, k))
			}
		}
	}
}

// TestSolveFastPathMatchesGeneric ties Solve's Euclidean fast path to
// the generic callback path across all six measures. (The clique branch
// is unconditionally bit-identical; the GMM branch compares squares, so
// it matches the generic traversal exactly as the flat-kernel
// equivalence tests in internal/coreset pin.)
func TestSolveFastPathMatchesGeneric(t *testing.T) {
	forceAutoEngine(t, true)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(100)
		pts := testVectors(rng, seed, n, 1+int(seed%4))
		k := 1 + rng.Intn(n+2)
		for _, m := range diversity.Measures {
			fast := Solve(m, pts, k, metric.Euclidean)
			slow := Solve(m, pts, k, metric.Distance[metric.Vector](genericEuclid))
			sameSolution(t, "Solve/"+m.String(), fast, slow)
		}
	}
}

// TestSolveMatrixValidation pins SolveEngineIdx's contract: it panics
// for k < 1 and returns nil for a nil engine.
func TestSolveMatrixValidation(t *testing.T) {
	pts := randomVectors(rand.New(rand.NewSource(2)), 10, 2)
	e := BuildEngine(pts, metric.Euclidean, 1)
	if got := SolveEngineIdx(diversity.RemoteClique, nil, 3); got != nil {
		t.Errorf("SolveEngineIdx on a nil engine = %v, want nil", got)
	}
	for _, m := range []diversity.Measure{diversity.RemoteClique, diversity.RemoteEdge} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SolveEngineIdx(%v, k=0) did not panic", m)
				}
			}()
			SolveEngineIdx(m, e, 0)
		}()
	}
}

// FuzzMaxDispersionPairsMatrixEquivalence drives both remote-clique
// paths with byte-quantized coordinates (heavy exact ties and
// duplicates) and arbitrary k, mirroring FuzzGMMFastEquivalence in
// internal/coreset.
func FuzzMaxDispersionPairsMatrixEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 0, 0, 9, 9}, uint8(3), uint8(2))
	f.Add([]byte{5, 5, 5, 5, 1, 9}, uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, dimRaw uint8) {
		dim := 1 + int(dimRaw)%4
		var pts []metric.Vector
		for i := 0; i+dim <= len(data); i += dim {
			v := make(metric.Vector, dim)
			for j := 0; j < dim; j++ {
				v[j] = float64(data[i+j])
			}
			pts = append(pts, v)
		}
		if len(pts) == 0 {
			return
		}
		k := 1 + int(kRaw)%8
		forceAutoEngine(t, true)
		fast := MaxDispersionPairs(pts, k, metric.Euclidean)
		slow := MaxDispersionPairs(pts, k, metric.Distance[metric.Vector](genericEuclid))
		sameSolution(t, "MaxDispersionPairs", fast, slow)
		fastLS := LocalSearchClique(pts, k, 4, metric.Euclidean)
		slowLS := LocalSearchClique(pts, k, 4, metric.Distance[metric.Vector](genericEuclid))
		sameSolution(t, "LocalSearchClique", fastLS, slowLS)
	})
}
