package metric

import (
	"math"
	"math/rand"
	"testing"
)

func randRows(rng *rand.Rand, n, dim int) []Vector {
	rows := make([]Vector, n)
	for i := range rows {
		v := make(Vector, dim)
		for j := range v {
			v[j] = rng.NormFloat64() * 100
		}
		rows[i] = v
	}
	return rows
}

func TestFlattenVectorsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{1, 2, 3, 4, 7, 8, 9, 32} {
		rows := randRows(rng, 17, dim)
		flat, ok := FlattenVectors(rows)
		if !ok {
			t.Fatalf("dim %d: FlattenVectors rejected a regular input", dim)
		}
		if flat.Len() != 17 || flat.Dim() != dim {
			t.Fatalf("dim %d: flat is %d×%d, want 17×%d", dim, flat.Len(), flat.Dim(), dim)
		}
		for i, row := range rows {
			got := flat.Vector(i)
			for j := range row {
				if got[j] != row[j] {
					t.Fatalf("dim %d: row %d coordinate %d: %v != %v", dim, i, j, got[j], row[j])
				}
			}
		}
	}
}

func TestFlattenVectorsRejectsRaggedAndZeroDim(t *testing.T) {
	if _, ok := FlattenVectors([]Vector{{1, 2}, {3}}); ok {
		t.Fatal("ragged input accepted")
	}
	if _, ok := FlattenVectors([]Vector{{}, {}}); ok {
		t.Fatal("zero-dimensional input accepted")
	}
	if flat, ok := FlattenVectors(nil); !ok || flat.Len() != 0 {
		t.Fatalf("empty input: (%v, %v), want empty store and ok", flat.Len(), ok)
	}
}

func TestPointsAppendMirrorsFlatten(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := randRows(rng, 9, 5)
	var inc Points
	for _, r := range rows {
		inc.Append(r)
	}
	bulk, _ := FlattenVectors(rows)
	if inc.Len() != bulk.Len() || inc.Dim() != bulk.Dim() {
		t.Fatalf("incremental %d×%d vs bulk %d×%d", inc.Len(), inc.Dim(), bulk.Len(), bulk.Dim())
	}
	for i := range rows {
		a, b := inc.Row(i), bulk.Row(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("row %d differs at %d", i, j)
			}
		}
	}
	inc.Reset()
	if inc.Len() != 0 || inc.Dim() != 0 {
		t.Fatalf("Reset left %d×%d", inc.Len(), inc.Dim())
	}
	// Dimension is re-established by the first Append after Reset.
	inc.Append(Vector{1, 2})
	if inc.Dim() != 2 {
		t.Fatalf("post-Reset dim %d, want 2", inc.Dim())
	}
}

func TestPointsAppendPanicsOnMixedDimensions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	var p Points
	p.Append(Vector{1, 2})
	p.Append(Vector{1})
}

// refSqDist is an independent implementation of the package's canonical
// four-lane summation order (kernel.go): coordinate j of each aligned
// block of four feeds lane j, leftover coordinates feed lane 0 in index
// order, and the total is (s0+s1) + (s2+s3); dimensions below four
// reduce to the plain in-order sum. The dimension-specialized kernels
// and the scalar distances must all match it bit for bit.
func refSqDist(a, b Vector) float64 {
	if len(a) < 4 {
		var sum float64
		for i := range a {
			d := a[i] - b[i]
			sum += d * d
		}
		return sum
	}
	var s [4]float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		for j := 0; j < 4; j++ {
			d := a[i+j] - b[i+j]
			s[j] += d * d
		}
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s[0] += d * d
	}
	return (s[0] + s[1]) + (s[2] + s[3])
}

// TestSqDistMatchesCanonicalOrder pins the bit-identical contract the
// whole fast path rests on: the dimension-specialized and unrolled
// kernels, and the scalar Euclidean/SquaredEuclidean, all accumulate in
// the one canonical lane order.
func TestSqDistMatchesCanonicalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, dim := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 16, 32, 33} {
		for trial := 0; trial < 50; trial++ {
			a := make(Vector, dim)
			b := make(Vector, dim)
			for j := 0; j < dim; j++ {
				a[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
				b[j] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			want := refSqDist(a, b)
			if got := SqDist(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d: SqDist %v != canonical %v", dim, got, want)
			}
			if got := SquaredEuclidean(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("dim %d: SquaredEuclidean %v != canonical %v", dim, got, want)
			}
			if se, ee := math.Sqrt(want), Euclidean(a, b); math.Float64bits(se) != math.Float64bits(ee) {
				t.Fatalf("dim %d: sqrt(canonical) %v != Euclidean %v", dim, se, ee)
			}
		}
	}
}

func TestSqDistPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SqDist([]float64{1, 2}, []float64{1})
}

// TestMinSqMatchesMinDistance: the flat nearest-row scan returns the
// same index as the generic scan and the square of its distance, and
// AnyWithin(q, r) answers !(dist > r) for that distance, at radii on
// both sides of it and at 0, +Inf and NaN — also with rows whose square
// overflows to +Inf or is NaN, and on an empty store.
func TestMinSqMatchesMinDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	within := func(t *testing.T, flat *Points, q Vector, dist float64) {
		t.Helper()
		for _, r := range []float64{dist, math.Nextafter(dist, 0), math.Nextafter(dist, math.Inf(1)), 4 * dist, 0, math.Inf(1), math.NaN()} {
			if got, want := flat.AnyWithin(q, r), !(dist > r); got != want {
				t.Fatalf("dim %d: AnyWithin(r=%v) = %v, nearest row at %v", len(q), r, got, dist)
			}
		}
	}
	for _, dim := range []int{1, 2, 3, 8, 13, 16, 128} {
		rows := randRows(rng, 40, dim)
		// Duplicate a few rows so ties are exercised.
		rows = append(rows, rows[3].Clone(), rows[7].Clone(), rows[3].Clone())
		flat, _ := FlattenVectors(rows)
		for trial := 0; trial < 30; trial++ {
			q := rows[rng.Intn(len(rows))]
			if trial%2 == 0 {
				q = randRows(rng, 1, dim)[0]
			}
			gotSq, gotIdx := flat.MinSq(q)
			wantDist, wantIdx := MinDistance(q, rows, Euclidean)
			if gotIdx != wantIdx {
				t.Fatalf("dim %d: MinSq index %d, MinDistance index %d", dim, gotIdx, wantIdx)
			}
			if math.Float64bits(math.Sqrt(gotSq)) != math.Float64bits(wantDist) {
				t.Fatalf("dim %d: sqrt(MinSq) %v != MinDistance %v", dim, math.Sqrt(gotSq), wantDist)
			}
			within(t, &flat, q, wantDist)
		}
	}
	var empty Points
	if sq, idx := empty.MinSq([]float64{1}); !math.IsInf(sq, 1) || idx != -1 {
		t.Fatalf("empty MinSq = (%v, %d), want (+Inf, -1)", sq, idx)
	}
	within(t, &empty, Vector{1}, math.Inf(1))
	var far Points
	far.Append([]float64{1e200, math.NaN()})
	far.Append([]float64{-1e200, 0})
	for _, q := range []Vector{{1e200, 0}, {-1e200, 0}, {0, 0}} {
		dist, _ := MinDistance(q, []Vector{far.Vector(0), far.Vector(1)}, Euclidean)
		within(t, &far, q, dist)
	}
}

// TestRelaxMinSqRangeMatchesScalar compares one relaxation pass of the
// batched kernel with a scalar reimplementation of the generic GMM inner
// loop run on squared distances. The reference draws its candidate
// squares from SqBetween — the active tier's per-pair value, which is
// SquaredEuclidean bit for bit below BlockedMinDim — so what this test
// pins at every dimension is the relaxation bookkeeping (min, assign,
// running argmax) against the exact values the kernel consumes; the
// tier's value contract itself is pinned by TestSqDistMatchesCanonicalOrder
// and the envelope harness.
func TestRelaxMinSqRangeMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dim := range []int{1, 2, 3, 4, 8, 12, 32} {
		rows := randRows(rng, 64, dim)
		rows = append(rows, rows[0].Clone(), rows[5].Clone()) // exact ties
		n := len(rows)
		flat, _ := FlattenVectors(rows)
		for trial := 0; trial < 10; trial++ {
			c := rng.Intn(n)
			sel := trial
			minSqA := make([]float64, n)
			minSqB := make([]float64, n)
			assignA := make([]int, n)
			assignB := make([]int, n)
			for i := range minSqA {
				v := math.Inf(1)
				if rng.Intn(2) == 0 {
					v = SquaredEuclidean(rows[rng.Intn(n)], rows[i])
				}
				minSqA[i], minSqB[i] = v, v
			}
			gotNext, gotSq := flat.RelaxMinSqRange(0, n, c, sel, minSqA, assignA, c, math.Inf(-1))
			wantNext, wantSq := c, math.Inf(-1)
			for i := 0; i < n; i++ {
				if sq := flat.SqBetween(c, i); sq < minSqB[i] {
					minSqB[i] = sq
					assignB[i] = sel
				}
				if minSqB[i] > wantSq {
					wantNext, wantSq = i, minSqB[i]
				}
			}
			if gotNext != wantNext || math.Float64bits(gotSq) != math.Float64bits(wantSq) {
				t.Fatalf("dim %d: relax returned (%d, %v), want (%d, %v)", dim, gotNext, gotSq, wantNext, wantSq)
			}
			for i := 0; i < n; i++ {
				if math.Float64bits(minSqA[i]) != math.Float64bits(minSqB[i]) || assignA[i] != assignB[i] {
					t.Fatalf("dim %d: point %d relaxed to (%v, %d), want (%v, %d)",
						dim, i, minSqA[i], assignA[i], minSqB[i], assignB[i])
				}
			}
		}
	}
}

func TestIsEuclidean(t *testing.T) {
	if !IsEuclidean[Vector](Euclidean) {
		t.Fatal("Euclidean not recognized")
	}
	var rebound Distance[Vector] = Euclidean
	if !IsEuclidean(rebound) {
		t.Fatal("rebound Euclidean not recognized")
	}
	wrapped := func(a, b Vector) float64 { return Euclidean(a, b) }
	if IsEuclidean[Vector](wrapped) {
		t.Fatal("wrapper closure falsely recognized")
	}
	if IsEuclidean[Vector](Manhattan) {
		t.Fatal("Manhattan falsely recognized")
	}
	if IsEuclidean[Vector](nil) {
		t.Fatal("nil falsely recognized")
	}
	if IsEuclidean[Set](JaccardDistance) {
		t.Fatal("Jaccard falsely recognized")
	}
	c := NewCounter(Euclidean)
	if IsEuclidean(c.Distance()) {
		t.Fatal("counting wrapper falsely recognized (would skip instrumentation)")
	}
}

// TestMatchRows: a row matches a row of the other store holding the
// same coordinate bits — the first of duplicates — so +0 and −0 differ,
// a NaN matches the same NaN, and nothing matches across dimensions.
func TestMatchRows(t *testing.T) {
	negZero := math.Copysign(0, -1)
	q, _ := FlattenVectors([]Vector{{1, 2}, {3, 4}, {1, 2}, {0, 5}, {math.NaN(), 1}})
	p, _ := FlattenVectors([]Vector{{3, 4}, {1, 2}, {negZero, 5}, {0, 5}, {9, 9}, {math.NaN(), 1}, {1, 2}})
	got := p.MatchRows(&q)
	want := []int{1, 0, -1, 3, -1, 4, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MatchRows = %v, want %v", got, want)
		}
	}
	other, _ := FlattenVectors([]Vector{{1, 2, 0}})
	for i, o := range other.MatchRows(&q) {
		if o != -1 {
			t.Fatalf("row %d of a 3-dimensional store matched row %d of a 2-dimensional one", i, o)
		}
	}
	var empty Points
	if got := p.MatchRows(&empty); len(got) != p.Len() || got[0] != -1 {
		t.Fatalf("MatchRows against an empty store = %v", got)
	}
}
