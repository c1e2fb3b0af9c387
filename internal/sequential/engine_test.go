package sequential

import (
	"math/rand"
	"sync"
	"testing"

	"divmax/internal/diversity"
	"divmax/internal/metric"
)

// forceMatrixBudget pins the matrix/tiled mode boundary for a test, so
// tiled mode engages on inputs small enough to cross-check against the
// generic path.
func forceMatrixBudget(t testing.TB, b int64) {
	t.Helper()
	orig := MatrixBudget
	MatrixBudget = b
	t.Cleanup(func() { MatrixBudget = orig })
}

// forceTileBudget shrinks the worker tile so small inputs stream
// through many row-blocks, exercising the block boundaries.
func forceTileBudget(t testing.TB, b int64) {
	t.Helper()
	orig := tileBudgetBytes
	tileBudgetBytes = b
	t.Cleanup(func() { tileBudgetBytes = orig })
}

// forceShardMinima drops the per-shard scan minima to 1 so multi-worker
// sharding actually engages on test-sized inputs.
func forceShardMinima(t testing.TB) {
	t.Helper()
	origScan, origSweep, origChunk := minScanRows, minSweepCols, minChunkRows
	minScanRows, minSweepCols, minChunkRows = 1, 1, 1
	t.Cleanup(func() { minScanRows, minSweepCols, minChunkRows = origScan, origSweep, origChunk })
}

// engineModes builds the engines an input can solve through: the
// materialized matrix and — with the budget forced below 8·n² — the
// tiled mode, each at several worker counts including the forced
// 1-worker path.
func engineModes(t *testing.T, pts []metric.Vector) map[string]*Engine {
	t.Helper()
	out := make(map[string]*Engine)
	for _, w := range []int{1, 2, 3, 7} {
		if e := BuildEngine(pts, metric.Euclidean, w); e != nil {
			if e.Tiled() {
				t.Fatalf("BuildEngine built tiled under the default budget for n=%d", len(pts))
			}
			out["matrix/w"+string(rune('0'+w))] = e
		}
	}
	orig := MatrixBudget
	MatrixBudget = 8 // below any 2-point matrix
	defer func() { MatrixBudget = orig }()
	for _, w := range []int{1, 2, 3, 7} {
		if e := BuildEngine(pts, metric.Euclidean, w); e != nil {
			if !e.Tiled() {
				t.Fatalf("BuildEngine built a matrix over the forced budget for n=%d", len(pts))
			}
			out["tiled/w"+string(rune('0'+w))] = e
		}
	}
	return out
}

// TestEngineDispatchAndModes pins the build conditions: Euclidean over
// Vector builds, wrappers/other metrics/ragged/singleton inputs do not,
// and the budget — not a point count — selects matrix versus tiled.
func TestEngineDispatchAndModes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := randomVectors(rng, 50, 3)
	e := BuildEngine(pts, metric.Euclidean, 0)
	if e == nil || e.Tiled() || e.Len() != 50 || e.Matrix() == nil || e.MatrixBytes() != 50*50*8 {
		t.Fatalf("BuildEngine on Euclidean/Vector = %+v", e)
	}
	if e.Workers() < 1 {
		t.Fatal("engine resolved a non-positive worker count")
	}
	if BuildEngine(pts, metric.Distance[metric.Vector](genericEuclid), 0) != nil {
		t.Fatal("BuildEngine accepted a wrapper distance")
	}
	if BuildEngine(pts, metric.Manhattan, 0) != nil {
		t.Fatal("BuildEngine accepted Manhattan")
	}
	if BuildEngine([]metric.Vector{{1, 2}, {3}}, metric.Euclidean, 0) != nil {
		t.Fatal("BuildEngine accepted ragged input")
	}
	if BuildEngine(pts[:1], metric.Euclidean, 0) != nil {
		t.Fatal("BuildEngine accepted a singleton")
	}
	forceMatrixBudget(t, 50*50*8)
	if e := BuildEngine(pts, metric.Euclidean, 0); e == nil || e.Tiled() {
		t.Fatal("BuildEngine went tiled with the matrix exactly at budget")
	}
	forceMatrixBudget(t, 50*50*8-1)
	e = BuildEngine(pts, metric.Euclidean, 0)
	if e == nil || !e.Tiled() || e.Matrix() != nil || e.MatrixBytes() != 0 {
		t.Fatalf("BuildEngine one byte over budget = %+v, want tiled", e)
	}
	if w2 := e.WithWorkers(5); w2.Workers() != 5 || w2.Matrix() != e.Matrix() || w2.Len() != e.Len() {
		t.Fatal("WithWorkers did not share the underlying engine state")
	}
}

// TestMaxDispersionPairsEngineMatchesGeneric is the tentpole
// equivalence test of the sharded farthest-partner pass: across seeds,
// dimensions, sizes, k parities, worker counts (including the forced
// 1-worker path), and both engine modes — with tiles forced down to a
// few rows so tiled runs cross block boundaries — the engine returns
// solutions bit-identical to the generic callback scan, including on
// tie-heavy inputs.
func TestMaxDispersionPairsEngineMatchesGeneric(t *testing.T) {
	forceShardMinima(t)
	forceTileBudget(t, 8*7) // ≲7-entry tiles: every n > 7 streams multiple blocks
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, dim := range []int{1, 2, 3, 4, 8} {
			for _, n := range []int{2, 3, 7, 60, 150} {
				pts := testVectors(rng, seed, n, dim)
				k := 1 + rng.Intn(n+3)
				want := MaxDispersionPairs(pts, k, metric.Distance[metric.Vector](genericEuclid))
				for mode, e := range engineModes(t, pts) {
					got := MaxDispersionPairsEngine(pts, e, k)
					sameSolution(t, "MaxDispersionPairsEngine/"+mode, got, want)
				}
			}
		}
	}
}

// TestLocalSearchCliqueEngineMatchesGeneric: every sharded sweep must
// apply the exchange the sequential scan would, so final solutions
// agree bit for bit across sweep budgets, worker counts, and modes.
func TestLocalSearchCliqueEngineMatchesGeneric(t *testing.T) {
	forceShardMinima(t)
	forceTileBudget(t, 8*5)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range []int{2, 9, 40, 120} {
			pts := testVectors(rng, seed, n, 1+int(seed%4))
			k := 1 + rng.Intn(n+2)
			for _, sweeps := range []int{0, 1, 5} {
				want := LocalSearchClique(pts, k, sweeps, metric.Distance[metric.Vector](genericEuclid))
				for mode, e := range engineModes(t, pts) {
					got := LocalSearchCliqueEngine(pts, e, k, sweeps)
					sameSolution(t, "LocalSearchCliqueEngine/"+mode, got, want)
				}
			}
		}
	}
}

// TestSolveEngineMatchesSolve: SolveEngine must agree with Solve's own
// fast path for every measure in both modes — the contract the divmaxd
// query cache relies on when it retains an engine across queries.
func TestSolveEngineMatchesSolve(t *testing.T) {
	forceAutoEngine(t, true)
	forceShardMinima(t)
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(90)
		pts := testVectors(rng, seed, n, 2+int(seed%3))
		k := 1 + rng.Intn(12)
		for _, m := range diversity.Measures {
			direct := Solve(m, pts, k, metric.Euclidean)
			for mode, e := range engineModes(t, pts) {
				got := SolveEngine(m, pts, e, k)
				sameSolution(t, "SolveEngine/"+m.String()+"/"+mode, got, direct)
			}
		}
	}
}

// TestMatroidEngineMatchesGeneric: the engine-indexed matroid solver —
// the third index-based consumer — must select bit-identically to the
// callback path under every mode and worker count, with the partition
// limits still respected.
func TestMatroidEngineMatchesGeneric(t *testing.T) {
	forceShardMinima(t)
	forceTileBudget(t, 8*6)
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		groups := 2 + rng.Intn(3)
		n := 15 + rng.Intn(60)
		pts := make([]Grouped[metric.Vector], n)
		raw := testVectors(rng, seed, n, 1+int(seed%3))
		for i := range pts {
			pts[i] = Grouped[metric.Vector]{Point: raw[i], Group: rng.Intn(groups)}
		}
		limits := make([]int, groups)
		for g := range limits {
			limits[g] = 1 + rng.Intn(4)
		}
		k := 2 + rng.Intn(4)
		forceAutoEngine(t, false)
		want, wantErr := MaxDispersionPartitionMatroid(pts, limits, k, metric.Euclidean)
		forceAutoEngine(t, true)
		for _, budget := range []int64{MatrixBudget, 8} {
			forceMatrixBudget(t, budget)
			got, gotErr := MaxDispersionPartitionMatroid(pts, limits, k, metric.Euclidean)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("seed=%d budget=%d: engine err %v, generic err %v", seed, budget, gotErr, wantErr)
			}
			if wantErr != nil {
				continue
			}
			sameSolution(t, "MaxDispersionPartitionMatroid", got, want)
		}
	}
}

// TestEngineTiledLargeUnion is the acceptance gate for the lifted cap:
// a 16384-point union — 2 GiB as a full matrix, far past the 128 MiB
// budget — must build a tiled engine (no n² buffer), solve
// remote-clique through it with odd k (covering the distance-sum tail),
// and agree bit for bit with the generic callback path. Under the race
// detector the union shrinks to 6000 points — still past the pre-engine
// 4096 cap and still tiled — to keep the instrumented O(n²) pass fast.
func TestEngineTiledLargeUnion(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second O(n²) pass")
	}
	n, k := 16384, 9
	if raceEnabled {
		n = 6000
	}
	rng := rand.New(rand.NewSource(42))
	pts := randomVectors(rng, n, 2)
	e := BuildEngine(pts, metric.Euclidean, 2)
	if e == nil {
		t.Fatal("BuildEngine rejected the union")
	}
	if !e.Tiled() || e.Matrix() != nil || e.MatrixBytes() != 0 {
		t.Fatalf("16384-point engine is not tiled (matrix bytes %d)", e.MatrixBytes())
	}
	got := MaxDispersionPairsEngine(pts, e, k)
	want := MaxDispersionPairs(pts, k, metric.Distance[metric.Vector](genericEuclid))
	sameSolution(t, "MaxDispersionPairsEngine/16384", got, want)
}

// TestConcurrentEngineSolves hammers one shared engine per mode with
// concurrent sharded solves — the -race CI job turns this into a data
// race detector for the engine's immutability contract (all solver
// scratch must be per call).
func TestConcurrentEngineSolves(t *testing.T) {
	forceShardMinima(t)
	forceTileBudget(t, 8*16)
	rng := rand.New(rand.NewSource(9))
	pts := randomVectors(rng, 400, 8)
	matrixEng := BuildEngine(pts, metric.Euclidean, 4)
	forceMatrixBudget(t, 8)
	tiledEng := BuildEngine(pts, metric.Euclidean, 4)
	if matrixEng == nil || matrixEng.Tiled() || tiledEng == nil || !tiledEng.Tiled() {
		t.Fatal("engine modes not built as expected")
	}
	want := MaxDispersionPairsEngine(pts, matrixEng, 7)
	wantLS := LocalSearchCliqueEngine(pts, matrixEng, 5, 4)
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			e := matrixEng
			if g%2 == 1 {
				e = tiledEng
			}
			same := func(a, b []metric.Vector) bool {
				if len(a) != len(b) {
					return false
				}
				for i := range a {
					for j := range a[i] {
						if a[i][j] != b[i][j] {
							return false
						}
					}
				}
				return true
			}
			for r := 0; r < 3; r++ {
				if !same(MaxDispersionPairsEngine(pts, e, 7), want) ||
					!same(LocalSearchCliqueEngine(pts, e, 5, 4), wantLS) {
					t.Errorf("goroutine %d rep %d: concurrent solve diverged", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEngineValidation pins the panic contract of the engine entry
// points that return points (TestSolveMatrixValidation pins
// SolveEngineIdx's).
func TestEngineValidation(t *testing.T) {
	pts := randomVectors(rand.New(rand.NewSource(2)), 10, 2)
	e := BuildEngine(pts, metric.Euclidean, 1)
	if got := SolveEngine(diversity.RemoteClique, []metric.Vector{}, e, 3); got != nil {
		t.Errorf("SolveEngine on empty input = %v, want nil", got)
	}
	for _, fn := range []func(){
		func() { SolveEngine(diversity.RemoteClique, pts, e, 0) },
		func() { SolveEngine(diversity.RemoteClique, pts[:5], e, 2) },
		func() { SolveEngine(diversity.RemoteEdge, pts, nil, 2) },
		func() { MaxDispersionPairsEngine(pts[:5], e, 2) },
		func() { MaxDispersionPairsEngine(pts, e, 0) },
		func() { LocalSearchCliqueEngine(pts[:5], e, 2, 0) },
		func() { LocalSearchCliqueEngine(pts, e, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
	// k ≥ n returns the whole input, as LocalSearchClique does.
	if got := LocalSearchCliqueEngine(pts, e, 12, 3); len(got) != len(pts) {
		t.Errorf("LocalSearchCliqueEngine k>n returned %d points", len(got))
	}
}

// FuzzEngineParallelTiledEquivalence drives the sharded and tiled scans
// with byte-quantized coordinates (heavy exact ties and duplicates) and
// arbitrary k and worker counts against the generic callback path.
func FuzzEngineParallelTiledEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 0, 0, 9, 9}, uint8(3), uint8(2), uint8(3))
	f.Add([]byte{5, 5, 5, 5, 1, 9, 7, 7, 7, 7, 2, 2}, uint8(5), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, dimRaw, wRaw uint8) {
		dim := 1 + int(dimRaw)%4
		var pts []metric.Vector
		for i := 0; i+dim <= len(data); i += dim {
			v := make(metric.Vector, dim)
			for j := 0; j < dim; j++ {
				v[j] = float64(data[i+j])
			}
			pts = append(pts, v)
		}
		if len(pts) < 2 {
			return
		}
		k := 1 + int(kRaw)%8
		workers := 1 + int(wRaw)%5
		forceShardMinima(t)
		forceTileBudget(t, 8*4)
		want := MaxDispersionPairs(pts, k, metric.Distance[metric.Vector](genericEuclid))
		wantLS := LocalSearchClique(pts, k, 4, metric.Distance[metric.Vector](genericEuclid))
		for _, budget := range []int64{128 << 20, 8} {
			forceMatrixBudget(t, budget)
			e := BuildEngine(pts, metric.Euclidean, workers)
			if e == nil {
				t.Fatal("BuildEngine rejected fuzz input")
			}
			sameSolution(t, "fuzz MaxDispersionPairsEngine", MaxDispersionPairsEngine(pts, e, k), want)
			if k < len(pts) {
				sameSolution(t, "fuzz LocalSearchCliqueEngine", LocalSearchCliqueEngine(pts, e, k, 4), wantLS)
			}
		}
	})
}

// TestSolveDispatchesTiledPastBudget pins that the auto path no longer
// bails to callbacks past the budget: with the gate on and the budget
// forced below the input, MaxDispersionPairs must still match the
// generic scan (it is now running tiled underneath).
func TestSolveDispatchesTiledPastBudget(t *testing.T) {
	forceAutoEngine(t, true)
	forceMatrixBudget(t, 8)
	forceShardMinima(t)
	rng := rand.New(rand.NewSource(17))
	pts := randomVectors(rng, 200, 3)
	for _, k := range []int{4, 5} {
		fast := MaxDispersionPairs(pts, k, metric.Euclidean)
		slow := MaxDispersionPairs(pts, k, metric.Distance[metric.Vector](genericEuclid))
		sameSolution(t, "MaxDispersionPairs/tiled-auto", fast, slow)
	}
	fastLS := LocalSearchClique(pts, 6, 5, metric.Euclidean)
	slowLS := LocalSearchClique(pts, 6, 5, metric.Distance[metric.Vector](genericEuclid))
	sameSolution(t, "LocalSearchClique/tiled-auto", fastLS, slowLS)
}

// TestGMMEngineTiledMatchesMatrix: the GMM branch must select the same
// centers whether it reads matrix rows or computes them on demand.
func TestGMMEngineTiledMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	orig := MatrixBudget
	defer func() { MatrixBudget = orig }()
	for _, n := range []int{5, 80, 200} {
		pts := testVectors(rng, int64(n), n, 4)
		k := 1 + rng.Intn(10)
		MatrixBudget = orig
		matrixEng := BuildEngine(pts, metric.Euclidean, 2)
		MatrixBudget = 8
		tiledEng := BuildEngine(pts, metric.Euclidean, 2)
		for _, m := range []diversity.Measure{diversity.RemoteEdge, diversity.RemoteTree} {
			a := SolveEngine(m, pts, matrixEng, k)
			b := SolveEngine(m, pts, tiledEng, k)
			sameSolution(t, "gmmEngine/"+m.String(), a, b)
		}
	}
}
