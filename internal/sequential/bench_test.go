package sequential

import (
	"fmt"
	"math/rand"
	"testing"

	"divmax/internal/diversity"
	"divmax/internal/metric"
)

func benchPoints(n int) []metric.Vector {
	rng := rand.New(rand.NewSource(1))
	return randomVectors(rng, n, 3)
}

func BenchmarkSolvePerMeasure(b *testing.B) {
	pts := benchPoints(1024)
	for _, m := range diversity.Measures {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Solve(m, pts, 16, metric.Euclidean)
			}
		})
	}
}

// BenchmarkMaxDispersionPairs exercises the lazy farthest-partner index:
// near-quadratic in n but nearly independent of k.
func BenchmarkMaxDispersionPairs(b *testing.B) {
	for _, n := range []int{512, 2048} {
		for _, k := range []int{8, 64} {
			pts := benchPoints(n)
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					MaxDispersionPairs(pts, k, metric.Euclidean)
				}
			})
		}
	}
}

func BenchmarkLocalSearchClique(b *testing.B) {
	for _, n := range []int{512, 2048} {
		pts := benchPoints(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				LocalSearchClique(pts, 8, 0, metric.Euclidean)
			}
		})
	}
}

func BenchmarkSolveGeneralized(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := randomVectors(rng, 256, 3)
	mult := make([]int, len(pts))
	for i := range mult {
		mult[i] = 1 + rng.Intn(8)
	}
	g := genFromPoints(pts, mult)
	for _, m := range []diversity.Measure{diversity.RemoteClique, diversity.RemoteTree} {
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SolveGeneralized(m, g, 32, metric.Euclidean)
			}
		})
	}
}

// benchShapes are the merged-union shapes of the divmaxbench workloads:
// ingest_d8's read-back, cluster_d8 and churn_d128.
var benchShapes = []struct{ n, dim int }{{1076, 8}, {1311, 8}, {320, 128}}

// BenchmarkRebuildEngine compares the merge cache's rebuild, which
// remaps the previous engine's cells, with a fresh build, on a union
// that has one point replaced, as after an evicting delete.
func BenchmarkRebuildEngine(b *testing.B) {
	for _, s := range benchShapes {
		rng := rand.New(rand.NewSource(3))
		prevPts := randomVectors(rng, s.n, s.dim)
		pts := append([]metric.Vector(nil), prevPts...)
		pts[s.n/2] = randomVectors(rng, 1, s.dim)[0]
		prev := BuildEngine(prevPts, metric.Euclidean, 1)
		name := fmt.Sprintf("n=%d/d=%d", s.n, s.dim)
		b.Run(name+"/build", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildEngine(pts, metric.Euclidean, 1)
			}
		})
		b.Run(name+"/remap", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RebuildEngine(prev, pts, metric.Euclidean, 1)
			}
		})
	}
}

// BenchmarkEngineFirstAppend is the first patch after a rebuild: one
// point appended to an engine whose matrix has no spare stride, as
// after a build, so DistMatrix.Grown reallocates it and copies the old
// rows (build); and the same append after a rebuild into the buffer an
// earlier patch grew, which keeps that buffer's stride, so the new row
// and column are filled in place (grown-spare).
func BenchmarkEngineFirstAppend(b *testing.B) {
	for _, s := range benchShapes {
		rng := rand.New(rand.NewSource(4))
		pts := randomVectors(rng, s.n+1, s.dim)
		base := BuildEngine(pts[:s.n], metric.Euclidean, 1)
		spare := base.Fork()
		if !spare.Append(pts[s.n:]) {
			b.Fatal("Append failed")
		}
		rebuilt := RebuildEngineReusing(base, spare, pts[:s.n], metric.Euclidean, 1)
		name := fmt.Sprintf("n=%d/d=%d", s.n, s.dim)
		for _, c := range []struct {
			name string
			e    *Engine
		}{{name + "/build", base}, {name + "/grown-spare", rebuilt}} {
			b.Run(c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !c.e.Fork().Append(pts[s.n:]) {
						b.Fatal("Append failed")
					}
				}
			})
		}
	}
}

// BenchmarkCliqueSolve times a remote-clique solve (k = 16) at the
// benchShapes in three cases: cold, on an engine with no
// farthest-partner index, so the solve runs the full pass; after a
// one-row Append into the stride headroom of a rebuild into a grown
// spare buffer (BenchmarkEngineFirstAppend's grown-spare case), whose
// index was published, so the Append derived the appended engine's;
// and after an eviction-shaped remap of an engine with a published
// index — one point dropped, one added — which derived the remapped
// engine's. The Append and the remap run once, outside the timer.
func BenchmarkCliqueSolve(b *testing.B) {
	const k = 16
	for _, s := range benchShapes {
		rng := rand.New(rand.NewSource(5))
		pts := randomVectors(rng, s.n+1, s.dim)
		base := BuildEngine(pts[:s.n], metric.Euclidean, 1)
		spare := base.Fork()
		if !spare.Append(pts[s.n:]) {
			b.Fatal("Append failed")
		}
		rebuilt := RebuildEngineReusing(base, spare, pts[:s.n], metric.Euclidean, 1)
		SolveEngineIdx(diversity.RemoteClique, rebuilt, k)
		appended := rebuilt.Fork()
		if !appended.Append(pts[s.n:]) {
			b.Fatal("Append failed")
		}
		SolveEngineIdx(diversity.RemoteClique, base, k)
		evicted := append([]metric.Vector(nil), pts[:s.n]...)
		evicted[s.n/2] = randomVectors(rng, 1, s.dim)[0]
		remapped := RebuildEngine(base, evicted, metric.Euclidean, 1)
		name := fmt.Sprintf("n=%d/d=%d", s.n, s.dim)
		b.Run(name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				SolveEngineIdx(diversity.RemoteClique, base.WithWorkers(1), k)
			}
		})
		for _, c := range []struct {
			name string
			e    *Engine
		}{{name + "/append", appended}, {name + "/remap", remapped}} {
			b.Run(c.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					SolveEngineIdx(diversity.RemoteClique, c.e, k)
				}
			})
		}
	}
}
