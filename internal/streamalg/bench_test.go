package streamalg

import (
	"fmt"
	"math/rand"
	"testing"

	"divmax/internal/diversity"
	"divmax/internal/metric"
)

// BenchmarkSMMProcess measures the per-point cost of the doubling
// algorithm's update step (O(|T|) ≤ O(k′) distance evaluations) — the
// quantity behind the paper's Figure 3 throughput.
func BenchmarkSMMProcess(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := randomVectors(rng, 50000, 3)
	for _, kprime := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("k'=%d", kprime), func(b *testing.B) {
			s := NewSMM(8, kprime, metric.Euclidean)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Process(pts[i%len(pts)])
			}
		})
	}
}

func BenchmarkSMMExtProcess(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	pts := randomVectors(rng, 50000, 3)
	for _, k := range []int{8, 64} {
		b.Run(fmt.Sprintf("k=%d/k'=128", k), func(b *testing.B) {
			s := NewSMMExt(k, 128, metric.Euclidean)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Process(pts[i%len(pts)])
			}
		})
	}
}

func BenchmarkSMMGenProcess(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	pts := randomVectors(rng, 50000, 3)
	s := NewSMMGen(8, 128, metric.Euclidean)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Process(pts[i%len(pts)])
	}
}

func BenchmarkOnePassEndToEnd(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	pts := randomVectors(rng, 20000, 3)
	b.Run("remote-edge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			OnePass(diversity.RemoteEdge, SliceStream(pts), 16, 64, metric.Euclidean)
		}
	})
}

func BenchmarkTwoPassEndToEnd(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	pts := randomVectors(rng, 20000, 3)
	b.Run("remote-clique", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := TwoPass(diversity.RemoteClique, SliceStream(pts), 16, 64, metric.Euclidean); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkShardFold is one divmaxd shard's fold: each 1000-point batch
// goes through ProcessBatch into both core-set families with divmaxd's
// parameters (k=16, k′=64, two spares per SMM center), on the fast and
// the generic path. Points are uniform in [0, 100) on a 1e-4 grid, like
// divmaxbench's bodies, and drawn fresh outside the timer, because the
// processors keep points by reference. The processors fold 50 batches
// before the timer starts, so it measures the steady state, where every
// spare list and delegate set is full and only a point that no center
// covers changes the core-set.
func BenchmarkShardFold(b *testing.B) {
	const batch = 1000
	for _, dim := range []int{2, 8, 32, 128} {
		for _, path := range []struct {
			name string
			d    metric.Distance[metric.Vector]
		}{{"fast", metric.Euclidean}, {"generic", genericEuclid}} {
			b.Run(fmt.Sprintf("d=%d/%s", dim, path.name), func(b *testing.B) {
				rng := rand.New(rand.NewSource(int64(dim)))
				next := func() []metric.Vector {
					pts := make([]metric.Vector, batch)
					for i := range pts {
						pts[i] = make(metric.Vector, dim)
						for j := range pts[i] {
							pts[i][j] = float64(rng.Intn(100*1e4)) / 1e4
						}
					}
					return pts
				}
				edge := NewSMM(16, 64, path.d)
				edge.SetSpareCap(2)
				proxy := NewSMMExt(16, 64, path.d)
				for range 50 {
					pts := next()
					edge.ProcessBatch(pts)
					proxy.ProcessBatch(pts)
				}
				b.ResetTimer()
				for range b.N {
					b.StopTimer()
					pts := next()
					b.StartTimer()
					edge.ProcessBatch(pts)
					proxy.ProcessBatch(pts)
				}
				b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "pts/s")
			})
		}
	}
}
