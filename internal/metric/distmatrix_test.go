package metric

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"divmax/internal/testutil"
)

// mustMatchTier asserts that a batched-kernel square equals the scalar
// canonical square under the active tier's contract: bit-identical
// below BlockedMinDim, within the documented blocked envelope at and
// above it (where integer-valued inputs still come out bit-identical —
// the envelope merely caps reassociation error on continuous data).
func mustMatchTier(t *testing.T, p *Points, i, j int, got, want float64, ctx string) {
	t.Helper()
	if p.Dim() < BlockedMinDim {
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: (%d,%d) = %v, want %v bit-identical", ctx, i, j, got, want)
		}
		return
	}
	bound := testutil.SqDistBound(p.Dim(), sqNorm(p.Row(i)), sqNorm(p.Row(j)))
	if !testutil.WithinAbs(got, want, bound) {
		t.Fatalf("%s: (%d,%d) = %v, want %v within envelope %v (|diff| %v)",
			ctx, i, j, got, want, bound, math.Abs(got-want))
	}
}

// fillPoints builds a flat store of n random rows (or tie-heavy integer
// rows when ties is set, the regime where bit-identity matters).
func fillPoints(rng *rand.Rand, n, dim int, ties bool) *Points {
	var p Points
	row := make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := range row {
			if ties {
				row[j] = float64(rng.Intn(3))
			} else {
				row[j] = rng.Float64() * 10
			}
		}
		p.Append(row)
	}
	return &p
}

// TestDistMatrixMatchesSquaredEuclidean pins every cell to the scalar
// canonical square — bit-identical, symmetric, zero diagonal — across
// dimensions (covering every specialized kernel case) and worker counts
// (including more workers than rows).
func TestDistMatrixMatchesSquaredEuclidean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 2, 3, 4, 8, 9, 32} {
		for _, n := range []int{0, 1, 2, 17, 130} {
			p := fillPoints(rng, n, dim, n%2 == 0)
			for _, workers := range []int{1, 3, 64} {
				m := NewDistMatrix(p, workers)
				if m.Len() != n {
					t.Fatalf("dim=%d n=%d: Len() = %d", dim, n, m.Len())
				}
				if m.Bytes() != int64(n*n)*8 {
					t.Fatalf("dim=%d n=%d: Bytes() = %d", dim, n, m.Bytes())
				}
				for i := 0; i < n; i++ {
					row := m.SqRow(i)
					for j := 0; j < n; j++ {
						want := SquaredEuclidean(p.Vector(i), p.Vector(j))
						mustMatchTier(t, p, i, j, row[j], want, "SqAt vs SquaredEuclidean")
						// Symmetry holds bitwise in both tiers: the
						// difference form squares commute per
						// coordinate, and the blocked form's norm sum
						// and per-lane products commute too.
						if math.Float64bits(m.SqAt(i, j)) != math.Float64bits(m.SqAt(j, i)) {
							t.Fatalf("dim=%d n=%d: matrix not symmetric at (%d,%d)", dim, n, i, j)
						}
						if dim < BlockedMinDim && math.Float64bits(math.Sqrt(row[j])) != math.Float64bits(Euclidean(p.Vector(i), p.Vector(j))) {
							t.Fatalf("dim=%d n=%d: root of cell (%d,%d) differs from Euclidean", dim, n, i, j)
						}
					}
					if row[i] != 0 {
						t.Fatalf("dim=%d n=%d: diagonal (%d,%d) = %v", dim, n, i, i, row[i])
					}
				}
			}
		}
	}
}

// TestFillSqRowsMatchesMatrix pins the range kernel under the tiled
// solve engine: any [lo, hi) block it writes must be bit-identical to
// the corresponding rows of a full NewDistMatrix build, for every
// worker count, including empty and single-row blocks.
func TestFillSqRowsMatchesMatrix(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{1, 2, 3, 8, 11} {
		for _, n := range []int{1, 2, 29, 150} {
			p := fillPoints(rng, n, dim, dim%2 == 0)
			want := NewDistMatrix(p, 1)
			for _, blk := range [][2]int{{0, n}, {0, 1}, {n - 1, n}, {n / 3, 2 * n / 3}, {n / 2, n / 2}} {
				lo, hi := blk[0], blk[1]
				rows := hi - lo
				if rows < 0 {
					continue
				}
				for _, workers := range []int{1, 3, 64} {
					dst := make([]float64, rows*n)
					p.FillSqRows(lo, hi, dst, workers)
					for i := lo; i < hi; i++ {
						for j := 0; j < n; j++ {
							if math.Float64bits(dst[(i-lo)*n+j]) != math.Float64bits(want.SqAt(i, j)) {
								t.Fatalf("dim=%d n=%d block [%d,%d) workers=%d: row %d col %d differs",
									dim, n, lo, hi, workers, i, j)
							}
						}
					}
				}
			}
		}
	}
}

// TestIncrementalFillRowsMatchesBulkBuild: a matrix assembled through
// NewDistMatrixEmpty + FillRows over arbitrary row ranges must equal
// the one-shot NewDistMatrix build cell for cell.
func TestIncrementalFillRowsMatchesBulkBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const n, dim = 97, 3
	p := fillPoints(rng, n, dim, false)
	want := NewDistMatrix(p, 2)
	got := NewDistMatrixEmpty(n)
	for lo := 0; lo < n; {
		hi := lo + 1 + rng.Intn(17)
		if hi > n {
			hi = n
		}
		got.FillRows(p, lo, hi, 1+rng.Intn(4))
		lo = hi
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if math.Float64bits(got.SqAt(i, j)) != math.Float64bits(want.SqAt(i, j)) {
				t.Fatalf("incremental build differs at (%d,%d)", i, j)
			}
		}
	}
	// Validation: a mismatched store and an out-of-range block must panic.
	for _, fn := range []func(){
		func() { got.FillRows(fillPoints(rng, n-1, dim, false), 0, 1, 1) },
		func() { got.FillRows(p, 0, n+1, 1) },
		func() { p.FillSqRows(0, 2, make([]float64, n), 1) },
		func() { p.FillSqRows(2, 1, make([]float64, 2*n), 1) },
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
}

// TestRelaxMinSqParallelMatchesSequential: the sharded relax must return
// exactly the sequential pass's (next, nextSq) and leave identical
// minSq/assign buffers, for every worker count — including on tie-heavy
// inputs where the lowest-index reduce is what's under test.
func TestRelaxMinSqParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, dim := range []int{2, 3, 8, 5} {
			n := 700 + rng.Intn(800)
			p := fillPoints(rng, n, dim, seed%2 == 0)
			seqMin := make([]float64, n)
			parMin := make([]float64, n)
			seqAssign := make([]int, n)
			parAssign := make([]int, n)
			for i := range seqMin {
				seqMin[i] = math.Inf(1)
				parMin[i] = math.Inf(1)
			}
			// Several relax passes from different centers, as a traversal
			// would issue them.
			for sel := 0; sel < 6; sel++ {
				c := rng.Intn(n)
				wantIdx, wantSq := p.RelaxMinSqRange(0, n, c, sel, seqMin, seqAssign, 0, math.Inf(-1))
				for _, workers := range []int{1, 2, 5, 16} {
					scratchMin := append([]float64(nil), parMin...)
					scratchAssign := append([]int(nil), parAssign...)
					gotIdx, gotSq := p.RelaxMinSqParallel(c, sel, workers, scratchMin, scratchAssign)
					if gotIdx != wantIdx || math.Float64bits(gotSq) != math.Float64bits(wantSq) {
						t.Fatalf("seed=%d dim=%d sel=%d workers=%d: parallel relax (%d, %v), sequential (%d, %v)",
							seed, dim, sel, workers, gotIdx, gotSq, wantIdx, wantSq)
					}
					for i := range scratchMin {
						if math.Float64bits(scratchMin[i]) != math.Float64bits(seqMin[i]) || scratchAssign[i] != seqAssign[i] {
							t.Fatalf("seed=%d dim=%d sel=%d workers=%d: buffers diverge at row %d",
								seed, dim, sel, workers, i)
						}
					}
				}
				// Advance the reference state for the next pass.
				p.RelaxMinSqRange(0, n, c, sel, parMin, parAssign, 0, math.Inf(-1))
			}
		}
	}
}

// TestRelaxMinSqParallelEmptyAndValidation covers the empty-store
// sentinel and the short-buffer panic.
func TestRelaxMinSqParallelEmptyAndValidation(t *testing.T) {
	var empty Points
	if idx, sq := empty.RelaxMinSqParallel(0, 0, 4, nil, nil); idx != -1 || sq != -1 {
		t.Fatalf("empty store: got (%d, %v), want (-1, -1)", idx, sq)
	}
	p := fillPoints(rand.New(rand.NewSource(1)), 8, 2, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short buffers")
		}
	}()
	p.RelaxMinSqParallel(0, 0, 2, make([]float64, 3), make([]int, 8))
}

// TestDistMatrixAndRelaxConcurrency exercises the parallel fill and the
// parallel relax under concurrent invocations — the -race CI job turns
// this into a data-race detector for the worker sharding.
func TestDistMatrixAndRelaxConcurrency(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n, dim = 3000, 8
	p := fillPoints(rng, n, dim, false)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m := NewDistMatrix(p, 8)
			if m.Len() != n {
				t.Errorf("goroutine %d: Len() = %d", g, m.Len())
			}
			minSq := make([]float64, n)
			assign := make([]int, n)
			for i := range minSq {
				minSq[i] = math.Inf(1)
			}
			for sel := 0; sel < 4; sel++ {
				p.RelaxMinSqParallel(sel*37, sel, 8, minSq, assign)
			}
		}(g)
	}
	wg.Wait()
}

// TestFillSqRowsRangeMatchesFullRows pins the column-offset fill — the
// kernel under the triangular tiled farthest-partner pass — to the
// full-row fill: for any (row, column) window, every entry must be the
// bit-identical canonical square of the same pair, across the
// dimension-specialized kernels (the d=8 unroll included, at offsets
// that misalign its four-rows-per-step grouping) and worker counts.
func TestFillSqRowsRangeMatchesFullRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Dims 32 and 128 run the blocked tier, whose entries are
	// position-independent: sub-range fills stay bit-identical to the
	// full-row fill even though both differ from the scalar form.
	for _, dim := range []int{1, 2, 3, 4, 8, 9, 32, 128} {
		for _, n := range []int{1, 2, 13, 70} {
			p := fillPoints(rng, n, dim, n%2 == 0)
			full := make([]float64, n*n)
			p.FillSqRows(0, n, full, 1)
			for _, win := range [][4]int{
				{0, n, 0, n},
				{0, n, n / 2, n},
				{n / 3, n, 1, n - n/3},
				{n - 1, n, n - 1, n},
				{0, 1, 0, n},
				{2 % n, n, 3 % n, n},
				{0, 0, 0, n},         // empty row range
				{0, n, 5 % n, 5 % n}, // empty column range
			} {
				lo, hi, clo, chi := win[0], win[1], win[2], win[3]
				if clo > chi {
					clo, chi = chi, clo
				}
				w := chi - clo
				for _, workers := range []int{1, 4} {
					dst := make([]float64, (hi-lo)*w)
					for i := range dst {
						dst[i] = math.NaN()
					}
					p.FillSqRowsRange(lo, hi, clo, chi, dst, workers)
					for i := lo; i < hi; i++ {
						for j := clo; j < chi; j++ {
							got := dst[(i-lo)*w+(j-clo)]
							want := full[i*n+j]
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("dim=%d n=%d window=%v workers=%d: entry (%d,%d) = %v, want %v",
									dim, n, win, workers, i, j, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// TestFillSqRowsRangeValidation covers the bounds panics, pinning the
// message text: the row check reports the row bound, the column check
// reports the column bound (historically it misreported "row store" for
// a column violation).
func TestFillSqRowsRangeValidation(t *testing.T) {
	p := fillPoints(rand.New(rand.NewSource(1)), 4, 2, false)
	for name, tc := range map[string]struct {
		fn   func()
		want string
	}{
		"rows": {func() { p.FillSqRowsRange(0, 5, 0, 4, make([]float64, 20), 1) },
			"metric: FillSqRowsRange range [0, 5) outside a 4-row store"},
		"columns": {func() { p.FillSqRowsRange(0, 4, 2, 5, make([]float64, 20), 1) },
			"metric: FillSqRowsRange columns [2, 5) outside a 4-column store"},
		"dst": {func() { p.FillSqRowsRange(0, 4, 0, 4, make([]float64, 15), 1) },
			"metric: FillSqRowsRange destination of 15 values for 4 rows of 4"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s: expected panic", name)
				}
				if msg, ok := r.(string); !ok || msg != tc.want {
					t.Fatalf("%s: panicked with %q, want %q", name, r, tc.want)
				}
			}()
			tc.fn()
		}()
	}
}

// TestDistMatrixGrownMatchesBulkBuild is the incremental-extension
// contract: growing a prefix matrix to cover appended rows — reusing
// the old cells, kernel-filling the new rows, symmetry-copying the
// old×new stripe — must reproduce the from-scratch matrix cell for
// cell, through chained growths (exercising both the shared-capacity
// and the reallocate-and-copy paths) and stride caps.
func TestDistMatrixGrownMatchesBulkBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Dims 32 and 128 cover the blocked tier: growth stripes are filled
	// by the same position-independent kernel as bulk builds, so the
	// cell-for-cell bitwise comparison holds there too.
	for _, dim := range []int{1, 2, 3, 8, 5, 32, 128} {
		for _, steps := range [][]int{
			{2, 3},       // grow within / past capacity from a tiny matrix
			{1, 1, 1, 1}, // repeated single-point appends
			{7, 0, 12},   // an empty growth step in the chain
			{2, 30},      // one large jump past double capacity
		} {
			for _, strideCap := range []int{0, 64} {
				ties := dim%2 == 0
				var p Points
				total := 0
				for _, step := range steps {
					total += step
				}
				all := fillPoints(rng, total, dim, ties)
				grown := 0
				var m *DistMatrix
				for _, step := range steps {
					for i := 0; i < step; i++ {
						p.Append(all.Row(grown))
						grown++
					}
					if m == nil {
						m = NewDistMatrix(&p, 1)
					} else {
						m = m.Grown(&p, strideCap, 2)
					}
					want := NewDistMatrix(&p, 1)
					if m.Len() != want.Len() {
						t.Fatalf("dim=%d steps=%v: grown Len %d want %d", dim, steps, m.Len(), want.Len())
					}
					for i := 0; i < m.Len(); i++ {
						for j := 0; j < m.Len(); j++ {
							if math.Float64bits(m.SqAt(i, j)) != math.Float64bits(want.SqAt(i, j)) {
								t.Fatalf("dim=%d steps=%v cap=%d after %d rows: cell (%d,%d) = %v, want %v",
									dim, steps, strideCap, grown, i, j, m.SqAt(i, j), want.SqAt(i, j))
							}
						}
					}
				}
			}
		}
	}
}

// TestDistMatrixGrownPreservesReaders pins the copy-safety contract:
// after a growth, every cell of the ORIGINAL matrix header still reads
// exactly what it read before — whether the buffer was shared (spare
// capacity) or reallocated — so solves running on the original are
// undisturbed.
func TestDistMatrixGrownPreservesReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	var p Points
	all := fillPoints(rng, 20, 3, false)
	for i := 0; i < 8; i++ {
		p.Append(all.Row(i))
	}
	m := NewDistMatrix(&p, 1)
	before := make([]float64, 8*8)
	for i := 0; i < 8; i++ {
		copy(before[i*8:i*8+8], m.SqRow(i))
	}
	cur := m
	for grown := 8; grown < 20; grown += 3 {
		hi := grown + 3
		if hi > 20 {
			hi = 20
		}
		for i := grown; i < hi; i++ {
			p.Append(all.Row(i))
		}
		cur = cur.Grown(&p, 0, 1)
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if math.Float64bits(m.SqAt(i, j)) != math.Float64bits(before[i*8+j]) {
					t.Fatalf("growth to %d rows disturbed original cell (%d,%d)", cur.Len(), i, j)
				}
			}
		}
		if m.Len() != 8 {
			t.Fatalf("original Len changed to %d", m.Len())
		}
	}
}
