package sequential

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"divmax/internal/diversity"
	"divmax/internal/metric"
)

// bruteIndex is the farthest-partner index by its definition, every
// root taken: for each point the largest root distance to another
// point, the lowest index at it, and whether a second index is at it.
func bruteIndex(e *Engine) *farIndex {
	f := newFarIndex(e.Len())
	for i := 0; i < e.Len(); i++ {
		for j := 0; j < e.Len(); j++ {
			if j == i {
				continue
			}
			switch d := math.Sqrt(e.SqAt(i, j)); {
			case d > f.dist[i]:
				f.dist[i], f.idx[i], f.tie[i] = d, j, false
			case d == f.dist[i]:
				f.tie[i] = true
			}
		}
	}
	return f
}

// sameIndex asserts two indexes agree entry for entry: the root's bits,
// the partner and the tie flag.
func sameIndex(t *testing.T, label string, got, want *farIndex) {
	t.Helper()
	if len(got.idx) != len(want.idx) {
		t.Fatalf("%s: index over %d points, want %d", label, len(got.idx), len(want.idx))
	}
	for i := range want.idx {
		if math.Float64bits(got.dist[i]) != math.Float64bits(want.dist[i]) || got.idx[i] != want.idx[i] || got.tie[i] != want.tie[i] {
			t.Fatalf("%s: entry %d = (%v, %d, tie %v), want (%v, %d, tie %v)",
				label, i, got.dist[i], got.idx[i], got.tie[i], want.dist[i], want.idx[i], want.tie[i])
		}
	}
}

// sameCliqueSelections asserts that remote-clique selects the same
// indices on got as on want for k = 1..8.
func sameCliqueSelections(t *testing.T, label string, got, want *Engine) {
	t.Helper()
	for k := 1; k <= 8; k++ {
		g, w := SolveEngineIdx(diversity.RemoteClique, got, k), SolveEngineIdx(diversity.RemoteClique, want, k)
		if fmt.Sprint(g) != fmt.Sprint(w) {
			t.Fatalf("%s: k=%d selected %v, want %v", label, k, g, w)
		}
	}
}

// indexPool draws the rows a derivation chain samples its unions from:
// an integer grid (exact ties), a few values repeated, coordinates of
// ±0 and ±1 (signed zeros), or Gaussian coordinates.
func indexPool(rng *rand.Rand, kind, size, dim int) []metric.Vector {
	pool := make([]metric.Vector, size)
	for r := range pool {
		v := make(metric.Vector, dim)
		for c := range v {
			switch kind {
			case 0:
				v[c] = float64(rng.Intn(5))
			case 1:
				v[c] = float64(r % 4)
			case 2:
				v[c] = []float64{0, math.Copysign(0, -1), 1, -1}[rng.Intn(4)]
			default:
				v[c] = rng.NormFloat64()
			}
		}
		pool[r] = v
	}
	return pool
}

// draw returns m rows of pool picked at random, repeats allowed.
func draw(rng *rand.Rand, pool []metric.Vector, m int) []metric.Vector {
	out := make([]metric.Vector, m)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// reshape lays out the union a rebuild meets after pts: a few points
// dropped, a few drawn from the pool, and now and then a shuffle.
func reshape(rng *rand.Rand, pts, pool []metric.Vector) []metric.Vector {
	var out []metric.Vector
	for _, p := range pts {
		if rng.Intn(8) > 0 {
			out = append(out, p)
		}
	}
	out = append(out, draw(rng, pool, rng.Intn(4))...)
	if rng.Intn(4) == 0 {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	for len(out) < 2 {
		out = append(out, draw(rng, pool, 1)...)
	}
	return out
}

// TestFarthestIndexDerivedMatchesPass runs chains of Fork+Append and
// RebuildEngine/RebuildEngineReusing steps over tie-heavy and Gaussian
// unions, at 1–20 dimensions and 1–3 workers, under the default matrix
// budget, a budget the chain's appends cross into tiled mode, and an
// 8-byte budget (tiled throughout). After every step an index the
// engine holds must equal the one the definition gives — and so the
// full pass, which is checked against it too — entry for entry, and
// remote-clique must select as on a fresh engine. An engine whose
// parent had published no index must hold none.
func TestFarthestIndexDerivedMatchesPass(t *testing.T) {
	forceShardMinima(t)
	forceTileBudget(t, 8*7)
	forceMatrixBudget(t, MatrixBudget) // restores the budget the chains set
	defaultBudget := MatrixBudget
	chains := 600
	if raceEnabled || testing.Short() {
		chains = 90
	}
	derived := map[string]int{}
	for c := 0; c < chains; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		dim, workers := 1+rng.Intn(20), 1+rng.Intn(3)
		pool := indexPool(rng, c%4, 6+rng.Intn(60), dim)
		pts := draw(rng, pool, 2+rng.Intn(40))
		switch c % 3 {
		case 0:
			MatrixBudget = defaultBudget
		case 1:
			m := int64(len(pts) + 2)
			MatrixBudget = 8 * m * m
		default:
			MatrixBudget = 8
		}
		e := BuildEngine(pts, metric.Euclidean, workers)
		var spare *Engine
		published := rng.Intn(5) > 0
		if published {
			SolveEngineIdx(diversity.RemoteClique, e, 1)
		}
		for step := 0; step < 6; step++ {
			var next *Engine
			var kind string
			if rng.Intn(3) == 0 {
				delta := draw(rng, pool, 1+rng.Intn(max(1, len(pts)/3)))
				next = e.Fork()
				if !next.Append(delta) {
					t.Fatalf("chain %d step %d: Append failed", c, step)
				}
				pts = append(pts[:len(pts):len(pts)], delta...)
				kind = "append"
			} else {
				pts = reshape(rng, pts, pool)
				if rng.Intn(2) == 0 {
					next = RebuildEngine(e, pts, metric.Euclidean, workers)
				} else {
					next = RebuildEngineReusing(e, spare, pts, metric.Euclidean, workers)
				}
				spare = e
				kind = "remap"
			}
			label := fmt.Sprintf("chain %d step %d (%s, d=%d, w=%d, n=%d, tiled=%v)", c, step, kind, dim, workers, len(pts), next.Tiled())
			fresh := BuildEngine(pts, metric.Euclidean, workers)
			want := bruteIndex(fresh)
			sameIndex(t, label+" full pass", fresh.farthest(), want)
			got := next.far.Load()
			if got != nil {
				if !published {
					t.Fatalf("%s: derived an index from a parent that published none", label)
				}
				sameIndex(t, label, got, want)
				derived[kind]++
			}
			e = next
			// Solving publishes the index, so the next step derives from it.
			published = rng.Intn(4) > 0 || got != nil
			if published {
				sameCliqueSelections(t, label, e, fresh)
			}
		}
	}
	if derived["append"] == 0 || derived["remap"] == 0 {
		t.Fatalf("no derivation exercised: %v", derived)
	}
	t.Logf("derived indexes: %v", derived)
}

// TestFarthestIndexRootTies: distinct squares can share a root — from
// the origin, (1, 1) is at square 2 and (1, 1+2⁻⁵²) at 2+2⁻⁵¹, both
// at root 1.4142135623730951 — so the square-first scans must still
// flag the tie when the larger square comes first, and a remap that
// puts the smaller square's point first must move the partner to it.
func TestFarthestIndexRootTies(t *testing.T) {
	a, b := metric.Vector{1, 1 + 0x1p-52}, metric.Vector{1, 1}
	pts := []metric.Vector{{0, 0}, a, b, {0.5, 0.5}}
	e := BuildEngine(pts, metric.Euclidean, 1)
	if e.SqAt(0, 1) == e.SqAt(0, 2) || math.Sqrt(e.SqAt(0, 1)) != math.Sqrt(e.SqAt(0, 2)) {
		t.Fatalf("squares %v and %v do not share a root", e.SqAt(0, 1), e.SqAt(0, 2))
	}
	f := e.farthest()
	if f.idx[0] != 1 || !f.tie[0] {
		t.Fatalf("origin's entry = (%d, tie %v), want (1, tie true)", f.idx[0], f.tie[0])
	}
	sameIndex(t, "full pass", f, bruteIndex(e))
	swapped := []metric.Vector{{0, 0}, b, a, {0.5, 0.5}}
	got := RebuildEngine(e, swapped, metric.Euclidean, 1)
	want := BuildEngine(swapped, metric.Euclidean, 1)
	if got.far.Load() == nil {
		t.Fatal("the remap derived no index")
	}
	sameIndex(t, "remap", got.far.Load(), bruteIndex(want))
	sameCliqueSelections(t, "remap", got, want)
}

// TestFarthestIndexCopies: a remap that gives a kept partner's value a
// second copy keeps the lowest new index of it and sets the tie flag;
// a copy of an entry's own value lies at distance 0 from it, which
// matters only where its farthest distance is 0 (two points at
// distance 0, the others at NaN).
func TestFarthestIndexCopies(t *testing.T) {
	x, y, z := metric.Vector{0}, metric.Vector{10}, metric.Vector{3}
	negZero, nan := metric.Vector{math.Copysign(0, -1)}, metric.Vector{math.NaN()}
	for _, tc := range []struct {
		name       string
		prev, next []metric.Vector
		derives    bool
	}{
		{"partner copied", []metric.Vector{x, z, y}, []metric.Vector{y, x, z, y}, true},
		{"partner copied before", []metric.Vector{x, z, y}, []metric.Vector{x, y, z, y}, true},
		{"own value copied", []metric.Vector{x, z, y}, []metric.Vector{x, z, y, x}, true},
		{"own value copied at distance 0", []metric.Vector{x, negZero, nan}, []metric.Vector{x, x, negZero, nan}, false},
	} {
		prev := BuildEngine(tc.prev, metric.Euclidean, 1)
		prev.farthest()
		got := RebuildEngine(prev, tc.next, metric.Euclidean, 1)
		want := BuildEngine(tc.next, metric.Euclidean, 1)
		switch f := got.far.Load(); {
		case f != nil:
			sameIndex(t, tc.name, f, bruteIndex(want))
		case tc.derives:
			t.Fatalf("%s: the remap derived no index", tc.name)
		}
		sameCliqueSelections(t, tc.name, got, want)
	}
}

// TestFarthestIndexConcurrentPublication runs concurrent remote-clique
// solves on one fresh engine, which race to publish its index, beside
// a Fork+Append and a RebuildEngine from that engine, which read
// whatever it has published. Under -race this checks the publication;
// every answer must equal a fresh engine's.
func TestFarthestIndexConcurrentPublication(t *testing.T) {
	forceShardMinima(t)
	rng := rand.New(rand.NewSource(13))
	pool := randomVectors(rng, 330, 8)
	pts, delta := pool[:300], pool[300:310]
	evicted := append(append([]metric.Vector(nil), pts[:100]...), pool[310:330]...)
	evicted = append(evicted, pts[101:]...)
	for rep := 0; rep < 4; rep++ {
		e := BuildEngine(pts, metric.Euclidean, 2)
		want := SolveEngineIdx(diversity.RemoteClique, BuildEngine(pts, metric.Euclidean, 2), 8)
		wantAppended := BuildEngine(append(pts[:300:300], delta...), metric.Euclidean, 2)
		wantRemapped := BuildEngine(evicted, metric.Euclidean, 2)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := SolveEngineIdx(diversity.RemoteClique, e, 8); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("concurrent solve selected %v, want %v", got, want)
				}
			}()
		}
		results := make([]*Engine, 2)
		wg.Add(2)
		go func() {
			defer wg.Done()
			f := e.Fork()
			if f.Append(delta) {
				results[0] = f
			}
		}()
		go func() {
			defer wg.Done()
			results[1] = RebuildEngine(e, evicted, metric.Euclidean, 2)
		}()
		wg.Wait()
		if results[0] == nil {
			t.Fatal("Append on the fork failed")
		}
		sameCliqueSelections(t, "fork+append", results[0], wantAppended)
		sameCliqueSelections(t, "rebuild", results[1], wantRemapped)
		if got := SolveEngineIdx(diversity.RemoteClique, e, 8); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("the parent selected %v after its fork appended, want %v", got, want)
		}
	}
}
