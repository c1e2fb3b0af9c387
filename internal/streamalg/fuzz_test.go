package streamalg

import (
	"testing"

	"divmax/internal/coreset"
	"divmax/internal/metric"
)

// FuzzSMMInvariants drives SMM with an arbitrary byte-encoded point
// stream (two bytes per 2-D point, so duplicates and near-duplicates are
// common) and asserts the doubling algorithm's invariants at every step.
func FuzzSMMInvariants(f *testing.F) {
	f.Add([]byte{0, 0, 255, 255, 0, 255, 255, 0, 128, 128}, uint8(2), uint8(4))
	f.Add([]byte{1, 1, 1, 1, 1, 1}, uint8(1), uint8(1))
	f.Add([]byte{}, uint8(3), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, kpRaw uint8) {
		k := 1 + int(kRaw)%4
		kprime := k + int(kpRaw)%5
		s := NewSMM(k, kprime, metric.Euclidean)
		// ref runs the generic scan (the wrapper defeats the Euclidean
		// fast path): the scalar and batched kernels must agree step for
		// step on arbitrary streams.
		ref := NewSMM(k, kprime, metric.Distance[metric.Vector](genericEuclid))
		var all []metric.Vector
		for i := 0; i+1 < len(data); i += 2 {
			p := metric.Vector{float64(data[i]), float64(data[i+1])}
			all = append(all, p)
			s.Process(p)
			ref.Process(p)
			if got := len(s.centers); got > kprime+1 {
				t.Fatalf("center count %d exceeds k'+1=%d", got, kprime+1)
			}
			if s.StoredPoints() > 2*(kprime+1) {
				t.Fatalf("memory %d exceeds 2(k'+1)", s.StoredPoints())
			}
			if len(s.centers) != len(ref.centers) || s.Threshold() != ref.Threshold() {
				t.Fatalf("fast path diverged from generic: %d centers at threshold %v vs %d at %v",
					len(s.centers), s.Threshold(), len(ref.centers), ref.Threshold())
			}
		}
		if len(all) == 0 {
			return
		}
		// Coverage invariant at stream end.
		if cover := metric.Range(all, s.centers, metric.Euclidean); cover > s.CoverageRadius()+1e-9 {
			t.Fatalf("coverage %v exceeds radius %v", cover, s.CoverageRadius())
		}
		// Pairwise separation invariant.
		if s.Threshold() > 0 && s.invariantPairwise() < s.Threshold()-1e-9 {
			t.Fatalf("pairwise %v below threshold %v", s.invariantPairwise(), s.Threshold())
		}
		// Result top-up: at least min(k, distinct) points.
		distinct := map[[2]float64]bool{}
		for _, p := range all {
			distinct[[2]float64{p[0], p[1]}] = true
		}
		want := k
		if len(distinct) < want {
			want = len(distinct)
		}
		if got := len(s.Result()); got < want {
			t.Fatalf("result %d points, want >= %d", got, want)
		}
	})
}

// FuzzSMMExtDelegateCaps checks SMM-EXT's cap and coverage invariants on
// arbitrary streams, with a generic twin (as in FuzzSMMInvariants) that
// must hold the same checkpoint after every step. A pair starting with
// 255 deletes a retained point, picked by the pair's second byte, from
// both.
func FuzzSMMExtDelegateCaps(f *testing.F) {
	f.Add([]byte{0, 0, 200, 200, 0, 200, 100, 100}, uint8(2), uint8(3))
	f.Add([]byte{0, 0, 200, 200, 0, 200, 100, 100, 1, 1, 255, 0, 201, 200, 255, 3, 0, 201}, uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, data []byte, kRaw, kpRaw uint8) {
		k := 1 + int(kRaw)%4
		kprime := k + int(kpRaw)%4
		w := newExtTwin(k, kprime)
		s := w.fast
		deleted := false
		for i := 0; i+1 < len(data); i += 2 {
			if data[i] == 255 {
				if kept := w.retained(); len(kept) > 0 {
					w.remove(t, kept[int(data[i+1])%len(kept)])
					deleted = true
				}
			} else {
				w.ingest([]metric.Vector{{float64(data[i]), float64(data[i+1])}})
			}
			w.check(t)
			for _, set := range s.delegates {
				if len(set) > k {
					t.Fatalf("delegate set size %d exceeds k=%d", len(set), k)
				}
			}
		}
		centers := s.Centers()
		if len(centers) == 0 || deleted {
			return // a promoted delegate covers its cluster within 8·d_i only
		}
		for _, q := range s.Result() {
			if dist, _ := metric.MinDistance(q, centers, metric.Euclidean); dist > s.CoverageRadius()+1e-9 {
				t.Fatalf("delegate at %v from kernel, radius %v", dist, s.CoverageRadius())
			}
		}
	})
}

// FuzzInstantiator feeds arbitrary streams to the pass-2 instantiator:
// it must never panic, and when it succeeds every output point must be
// within delta of a kernel point and the output size must equal the
// total multiplicity.
func FuzzInstantiator(f *testing.F) {
	f.Add([]byte{10, 20, 30, 200, 210}, uint8(2), uint8(50))
	f.Add([]byte{}, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, multRaw, deltaRaw uint8) {
		if len(data) == 0 {
			return
		}
		g := coreset.Generalized[metric.Vector]{
			{Point: metric.Vector{float64(data[0])}, Mult: 1 + int(multRaw)%3},
		}
		if len(data) > 1 && data[1] != data[0] {
			g = append(g, coreset.Weighted[metric.Vector]{
				Point: metric.Vector{float64(data[1])}, Mult: 1 + int(multRaw)%2,
			})
		}
		delta := float64(deltaRaw)
		inst := NewInstantiator(g, delta, metric.Euclidean)
		for _, b := range data {
			inst.Process(metric.Vector{float64(b)})
		}
		out, err := inst.Result()
		if err != nil {
			return // legitimately unfillable at this delta
		}
		if len(out) != g.ExpandedSize() {
			t.Fatalf("instantiated %d points, want %d", len(out), g.ExpandedSize())
		}
		for _, q := range out {
			ok := false
			for _, w := range g {
				if metric.Euclidean(q, w.Point) <= delta {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("delegate %v outside delta of every kernel point", q)
			}
		}
	})
}
