package streamalg

import (
	"math"
	"math/rand"
	"testing"

	"divmax/internal/metric"
)

// genericEuclid defeats IsEuclidean recognition, forcing the generic
// MinDistance scan; the tests below use it as the reference.
func genericEuclid(a, b metric.Vector) float64 { return metric.Euclidean(a, b) }

func tieHeavyStream(rng *rand.Rand, n, dim int) []metric.Vector {
	pts := make([]metric.Vector, n)
	for i := range pts {
		v := make(metric.Vector, dim)
		for j := range v {
			v[j] = float64(rng.Intn(5))
		}
		pts[i] = v
	}
	return pts
}

func sameVectors(t *testing.T, label string, fast, slow []metric.Vector) {
	t.Helper()
	if len(fast) != len(slow) {
		t.Fatalf("%s: fast holds %d points, generic %d", label, len(fast), len(slow))
	}
	for i := range fast {
		if len(fast[i]) != len(slow[i]) {
			t.Fatalf("%s: point %d dims differ", label, i)
		}
		for j := range fast[i] {
			if math.Float64bits(fast[i][j]) != math.Float64bits(slow[i][j]) {
				t.Fatalf("%s: point %d coordinate %d: fast %v, generic %v",
					label, i, j, fast[i][j], slow[i][j])
			}
		}
	}
}

// TestSMMScannerDispatch pins that the SMM family actually installs the
// flat scanner for Euclidean-over-Vector and only then.
func TestSMMScannerDispatch(t *testing.T) {
	if NewSMM(2, 4, metric.Euclidean).scan == nil {
		t.Fatal("SMM: Euclidean over Vector did not get the fast scanner")
	}
	if NewSMM(2, 4, metric.Distance[metric.Vector](genericEuclid)).scan != nil {
		t.Fatal("SMM: wrapper distance got the fast scanner")
	}
	if NewSMM(2, 4, metric.CosineDistance).scan != nil {
		t.Fatal("SMM: sparse cosine got the fast scanner")
	}
	if NewSMMExt(2, 4, metric.Euclidean).scan == nil {
		t.Fatal("SMMExt: Euclidean over Vector did not get the fast scanner")
	}
	if NewSMMGen(2, 4, metric.Euclidean).scan == nil {
		t.Fatal("SMMGen: Euclidean over Vector did not get the fast scanner")
	}
}

// TestSMMFastMatchesGeneric streams identical data through the fast and
// generic SMM, interleaving Process and ProcessBatch, and requires
// bit-identical centers, thresholds, phase counts, and results at every
// checkpoint.
func TestSMMFastMatchesGeneric(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dims := []int{1, 2, 3, 8, 16}
		dim := dims[int(seed)%len(dims)]
		var pts []metric.Vector
		if seed%2 == 0 {
			pts = randomVectors(rng, 3000, dim)
		} else {
			pts = tieHeavyStream(rng, 3000, dim)
		}
		k := 1 + rng.Intn(4)
		kprime := k + rng.Intn(12)
		fast := NewSMM(k, kprime, metric.Euclidean)
		slow := NewSMM(k, kprime, metric.Distance[metric.Vector](genericEuclid))
		for len(pts) > 0 {
			batch := 1 + rng.Intn(200)
			if batch > len(pts) {
				batch = len(pts)
			}
			fast.ProcessBatch(pts[:batch])
			for _, p := range pts[:batch] {
				slow.Process(p)
			}
			pts = pts[batch:]
			if math.Float64bits(fast.Threshold()) != math.Float64bits(slow.Threshold()) {
				t.Fatalf("seed %d: thresholds differ: fast %v, generic %v", seed, fast.Threshold(), slow.Threshold())
			}
			if fast.Phases() != slow.Phases() {
				t.Fatalf("seed %d: phases differ: fast %d, generic %d", seed, fast.Phases(), slow.Phases())
			}
			sameVectors(t, "SMM centers", fast.centers, slow.centers)
		}
		sameVectors(t, "SMM result", fast.Result(), slow.Result())
	}
	for _, dim := range []int{2, 8, 16} {
		driveDivmaxdShape(t, newSMMTwin(16, 64, 2), dim)
	}
}

// TestSMMExtFastMatchesGeneric does the same for the delegate-carrying
// variant, whose nearest-center *index* (not just distance) must match
// for every non-center point.
func TestSMMExtFastMatchesGeneric(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dim := []int{2, 3, 8}[int(seed)%3]
		var pts []metric.Vector
		if seed%2 == 0 {
			pts = randomVectors(rng, 2000, dim)
		} else {
			pts = tieHeavyStream(rng, 2000, dim)
		}
		k := 2 + rng.Intn(3)
		kprime := k + rng.Intn(8)
		fast := NewSMMExt(k, kprime, metric.Euclidean)
		slow := NewSMMExt(k, kprime, metric.Distance[metric.Vector](genericEuclid))
		half := len(pts) / 2
		fast.ProcessBatch(pts[:half])
		fast.ProcessBatch(pts[half:])
		for _, p := range pts {
			slow.Process(p)
		}
		sameVectors(t, "SMMExt centers", fast.Centers(), slow.Centers())
		sameVectors(t, "SMMExt result", fast.Result(), slow.Result())
		if fast.StoredPoints() != slow.StoredPoints() {
			t.Fatalf("seed %d: stored points differ: fast %d, generic %d",
				seed, fast.StoredPoints(), slow.StoredPoints())
		}
	}
	for _, dim := range []int{2, 8, 16} {
		driveDivmaxdShape(t, newExtTwin(16, 64), dim)
	}
}

// TestSMMGenFastMatchesGeneric checks the count-based variant: centers
// and multiplicities must agree exactly.
func TestSMMGenFastMatchesGeneric(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var pts []metric.Vector
		if seed%2 == 0 {
			pts = randomVectors(rng, 2000, 3)
		} else {
			pts = tieHeavyStream(rng, 2000, 2)
		}
		k := 2 + rng.Intn(3)
		kprime := k + rng.Intn(8)
		fast := NewSMMGen(k, kprime, metric.Euclidean)
		slow := NewSMMGen(k, kprime, metric.Distance[metric.Vector](genericEuclid))
		fast.ProcessBatch(pts)
		for _, p := range pts {
			slow.Process(p)
		}
		fg, sg := fast.Result(), slow.Result()
		if len(fg) != len(sg) {
			t.Fatalf("seed %d: result sizes differ: fast %d, generic %d", seed, len(fg), len(sg))
		}
		for i := range fg {
			if fg[i].Mult != sg[i].Mult {
				t.Fatalf("seed %d: multiplicity %d differs: fast %d, generic %d", seed, i, fg[i].Mult, sg[i].Mult)
			}
			sameVectors(t, "SMMGen center", []metric.Vector{fg[i].Point}, []metric.Vector{sg[i].Point})
		}
	}
	for _, dim := range []int{2, 8, 16} {
		driveDivmaxdShape(t, newGenTwin(16, 64), dim)
	}
}

// TestProcessBatchMatchesProcess: batching is pure plumbing — the
// processor state after ProcessBatch must equal point-at-a-time
// Process on the same prefix, on both paths.
func TestProcessBatchMatchesProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := randomVectors(rng, 1500, 3)
	for _, d := range []metric.Distance[metric.Vector]{metric.Euclidean, genericEuclid} {
		batched := NewSMM(3, 9, d)
		single := NewSMM(3, 9, d)
		batched.ProcessBatch(pts)
		for _, p := range pts {
			single.Process(p)
		}
		if batched.Processed() != single.Processed() {
			t.Fatalf("processed counts differ: %d vs %d", batched.Processed(), single.Processed())
		}
		sameVectors(t, "batched SMM", batched.Result(), single.Result())
		// Empty batches are no-ops.
		before := batched.Processed()
		batched.ProcessBatch(nil)
		if batched.Processed() != before {
			t.Fatal("empty batch changed the processed count")
		}
	}
}
