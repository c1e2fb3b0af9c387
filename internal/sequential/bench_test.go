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

// BenchmarkEngineFirstAppend is the first patch after a build: one
// point appended to an engine whose matrix has no spare stride, so
// DistMatrix.Grown reallocates it and copies the old rows.
func BenchmarkEngineFirstAppend(b *testing.B) {
	for _, s := range benchShapes {
		rng := rand.New(rand.NewSource(4))
		pts := randomVectors(rng, s.n+1, s.dim)
		base := BuildEngine(pts[:s.n], metric.Euclidean, 1)
		b.Run(fmt.Sprintf("n=%d/d=%d", s.n, s.dim), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !base.Fork().Append(pts[s.n:]) {
					b.Fatal("Append failed")
				}
			}
		})
	}
}
