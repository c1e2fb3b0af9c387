package metric

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// DistMatrix is a flat, row-major buffer of the n×n pairwise squared
// Euclidean distances: sq[i*stride+j] = SqDist(row i, row j). It is the
// substrate of the round-2 solve fast path (internal/sequential): the
// sequential α-approximation algorithms run on the merged core-set
// union are Ω(n²) in distance evaluations, so materializing every pair
// once — in parallel, on the canonical four-lane kernel — turns them
// from distance-bound to memory-bound. Because every entry is the
// canonical four-lane square (kernel.go), math.Sqrt of an entry is
// bit-identical to Euclidean on the same rows, and solvers that take
// that root make exactly the same comparisons as the generic callback
// path.
//
// A DistMatrix is immutable after NewDistMatrix returns and safe for
// concurrent reads, which is what lets the divmaxd query cache share
// one matrix across queries. Grown extends a matrix to cover appended
// points without invalidating readers of the original: the returned
// matrix is a new header, and when the backing buffer has spare
// capacity (stride > n) the new rows and column stripes land in cells
// no reader of the original can see.
type DistMatrix struct {
	sq []float64
	n  int
	// stride is the row stride of sq — the point capacity of the
	// backing buffer, which holds stride² cells. NewDistMatrix lays a
	// matrix out at stride n. Grown over-allocates by a quarter, the
	// default delta budget of a patch, so the next patches reuse the
	// buffer instead of recopying n² entries each time, and
	// NewDistMatrixRemapped keeps the stride of the spare buffer it
	// writes into, so a rebuild inherits the headroom of the patches
	// before it. No cell outside the n×n view is read before Grown
	// writes it.
	stride int
}

// distMatrixMinRows is the minimum number of rows a fill worker must
// have before another goroutine is worth spawning; below it the spawn
// and join overhead exceeds the row work.
const distMatrixMinRows = 32

// NewDistMatrix materializes the pairwise squared-distance matrix of p,
// filling row ranges in parallel across worker goroutines (workers ≤ 0
// means runtime.NumCPU(); the count is clamped so every worker owns at
// least distMatrixMinRows rows). Each worker computes full rows of the
// canonical four-lane square sqDist, so writes are strictly sequential
// and disjoint across workers; the symmetric cell (j,i) is computed
// independently from the same coordinates and is bit-identical because
// (a−b)² = (b−a)² exactly in IEEE arithmetic.
func NewDistMatrix(p *Points, workers int) *DistMatrix {
	m := NewDistMatrixEmpty(p.Len())
	m.FillRows(p, 0, m.n, workers)
	return m
}

// NewDistMatrixEmpty allocates an unfilled n×n matrix for incremental
// construction: callers stream row ranges in with FillRows (the divmaxd
// cache's incremental-maintenance path, and any builder that wants to
// overlap filling with other work). The matrix is only safe to read
// once every row has been filled.
func NewDistMatrixEmpty(n int) *DistMatrix {
	return &DistMatrix{sq: make([]float64, n*n), n: n, stride: n}
}

// FillRows computes rows [lo, hi) of the matrix from p, sharding the
// range across worker goroutines. p must be the store the matrix was
// sized for; distinct row ranges write to disjoint memory, so
// concurrent FillRows calls on non-overlapping ranges are safe.
func (m *DistMatrix) FillRows(p *Points, lo, hi, workers int) {
	if p.Len() != m.n {
		panic(fmt.Sprintf("metric: FillRows from a %d-row store into a %d-point matrix", p.Len(), m.n))
	}
	if lo < 0 || hi > m.n || lo > hi {
		panic(fmt.Sprintf("metric: FillRows range [%d, %d) outside matrix of %d rows", lo, hi, m.n))
	}
	if m.stride == m.n {
		p.FillSqRows(lo, hi, m.sq[lo*m.n:hi*m.n], workers)
		return
	}
	// Over-allocated (grown) matrix: rows are not contiguous, so fill
	// row by row at the stride, sharded like FillSqRows.
	parallelRowRange(lo, hi, workers, func(flo, fhi int) {
		for i := flo; i < fhi; i++ {
			p.sqDistRowsInto(i, m.sq[i*m.stride:i*m.stride+m.n])
		}
	})
}

// Grown returns a matrix extended to cover every row of p, whose first
// m.Len() rows must be the points m was built over. Existing entries
// are reused, the new rows are computed on the canonical kernels, and
// the old×new column stripe is copied through matrix symmetry
// ((a−b)² = (b−a)² exactly in IEEE arithmetic), so every cell is
// bit-identical to what NewDistMatrix over all of p would produce.
//
// Readers of m stay valid: when the backing buffer has spare capacity
// the new cells occupy memory outside every existing reader's view and
// the buffer is shared; otherwise a fresh buffer is allocated and the
// old rows copied. Its stride is a quarter above the old one, or p.Len()
// when that is more, clamped to strideCap points when strideCap > 0:
// a patch of the merge cache adds at most its delta budget, by default
// a quarter of the union, so one patch fits while growth stays
// geometric, and the new buffer holds about 1.56× the cells of m's
// rows instead of the 4× a doubled stride costs. Because forks of one
// buffer write to the same spare cells, only the latest matrix of a
// Grown chain may be grown again — the divmaxd cache serializes its
// patches exactly this way. workers bounds the fill/copy goroutines
// (≤ 0 means runtime.NumCPU()).
func (m *DistMatrix) Grown(p *Points, strideCap, workers int) *DistMatrix {
	newN := p.Len()
	if newN < m.n {
		panic(fmt.Sprintf("metric: Grown from a %d-row store below the %d-point matrix", newN, m.n))
	}
	oldN := m.n
	g := &DistMatrix{sq: m.sq, n: newN, stride: m.stride}
	if newN > m.stride {
		stride := m.stride + m.stride/4
		if strideCap > 0 && stride > strideCap {
			stride = strideCap
		}
		if stride < newN {
			stride = newN
		}
		g = &DistMatrix{sq: make([]float64, stride*stride), n: newN, stride: stride}
		parallelRowRange(0, oldN, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				copy(g.sq[i*g.stride:i*g.stride+oldN], m.sq[i*m.stride:i*m.stride+oldN])
			}
		})
	}
	if newN == oldN {
		return g
	}
	// New rows: full kernel rows over the grown store.
	parallelRowRange(oldN, newN, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p.sqDistRowsInto(i, g.sq[i*g.stride:i*g.stride+newN])
		}
	})
	// Old×new column stripe, read from the just-filled rows through
	// symmetry: the new rows stay resident while each old row's short
	// stripe is written contiguously.
	parallelRowRange(0, oldN, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			dst := g.sq[i*g.stride : i*g.stride+newN]
			for j := oldN; j < newN; j++ {
				dst[j] = g.sq[j*g.stride+i]
			}
		}
	})
	return g
}

// NewDistMatrixRemapped returns NewDistMatrix(p, workers), reusing the
// cells of prev, a matrix over the store q: every cell whose two points
// both have a row in q with the same coordinate bits is copied from
// prev, and only the rows of the other points go to the kernels. Their
// cells in the copied rows are then read through symmetry, as in
// Grown. In both kernel tiers an entry is a position-independent
// function of its two rows' values (blocked.go), and p and q share a
// dimension and so a tier, so every cell is bit-identical to a fresh
// fill; duplicate points are interchangeable for the same reason.
// Columns whose q rows are consecutive copy as one run, which is most of
// a merged union: its parts' core-sets keep their order across a
// rebuild.
//
// spare, when non-nil, is a retired matrix that no reader will touch
// again: when its stride is at least p.Len() and its buffer is not
// prev's, the result is written into that buffer at that stride
// instead of into a new one at stride p.Len(). A caller that rebuilds
// over and over then keeps two buffers instead of feeding the garbage
// collector one per rebuild, and the headroom a patch chain's Grown
// left in spare lets the patches after this rebuild extend the result
// in place. The cells outside the result's n×n view keep spare's stale
// values until Grown overwrites them. It panics when q is not prev's
// store or the dimensions differ. workers bounds the fill and copy
// goroutines (≤ 0 means runtime.NumCPU()).
//
// It also returns the row mapping it remapped by, p.MatchRows(q), so a
// caller that carries other per-row state across the remap matches the
// rows only once.
func NewDistMatrixRemapped(p, q *Points, prev, spare *DistMatrix, workers int) (*DistMatrix, []int) {
	if q.n != prev.n || q.dim != p.dim {
		panic(fmt.Sprintf("metric: remapping a %d-point matrix over a %d-row, %d-dimensional store into a %d-dimensional one",
			prev.n, q.n, q.dim, p.dim))
	}
	n := p.n
	old := p.MatchRows(q)
	// runs are the maximal column ranges [j, j+l) whose q rows are
	// oj, oj+1, ...; fresh lists the unmatched points.
	type run struct{ j, oj, l int }
	var runs []run
	var fresh []int
	for j, o := range old {
		if o < 0 {
			fresh = append(fresh, j)
			continue
		}
		if k := len(runs) - 1; k >= 0 && runs[k].j+runs[k].l == j && runs[k].oj+runs[k].l == o {
			runs[k].l++
			continue
		}
		runs = append(runs, run{j: j, oj: o, l: 1})
	}
	var m *DistMatrix
	if spare != nil && spare.stride >= n && &spare.sq[:1][0] != &prev.sq[:1][0] {
		m = &DistMatrix{sq: spare.sq, n: n, stride: spare.stride}
	} else {
		m = NewDistMatrixEmpty(n)
	}
	// Every cell is written below. Fresh rows first, on the kernels:
	// consecutive ones as one range fill, which tiles the columns in the
	// blocked tier.
	parallelRowRange(0, len(fresh), workers, func(lo, hi int) {
		for t := lo; t < hi; {
			u := t + 1
			for u < hi && fresh[u] == fresh[u-1]+1 {
				u++
			}
			m.FillRows(p, fresh[t], fresh[u-1]+1, 1)
			t = u
		}
	})
	// Then every matched row: its matched columns from prev, its fresh
	// columns from the fresh rows through symmetry.
	parallelRowRange(0, n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			o := old[i]
			if o < 0 {
				continue
			}
			row := m.sq[i*m.stride : i*m.stride+n]
			src := prev.sq[o*prev.stride : o*prev.stride+prev.n]
			for _, r := range runs {
				copy(row[r.j:r.j+r.l], src[r.oj:r.oj+r.l])
			}
			for _, j := range fresh {
				row[j] = m.sq[j*m.stride+i]
			}
		}
	})
	return m, old
}

// parallelRowRange shards rows [lo, hi) across worker goroutines
// (≤ 0 means runtime.NumCPU(); clamped so every worker owns at least
// distMatrixMinRows rows), invoking fn once per contiguous sub-range.
func parallelRowRange(lo, hi, workers int, fn func(lo, hi int)) {
	rows := hi - lo
	if rows <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if maxw := (rows + distMatrixMinRows - 1) / distMatrixMinRows; workers > maxw {
		workers = maxw
	}
	if workers <= 1 {
		fn(lo, hi)
		return
	}
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for flo := lo; flo < hi; flo += chunk {
		fhi := flo + chunk
		if fhi > hi {
			fhi = hi
		}
		wg.Add(1)
		go func(flo, fhi int) {
			defer wg.Done()
			fn(flo, fhi)
		}(flo, fhi)
	}
	wg.Wait()
}

// FillSqRows writes rows [lo, hi) of the virtual pairwise
// squared-distance matrix into dst — (hi−lo)·n entries, row-major, row
// lo first — sharding the rows across worker goroutines (≤ 0 means
// runtime.NumCPU(); the count is clamped so every worker owns at least
// distMatrixMinRows rows). It is the range kernel under NewDistMatrix
// and the tiled round-2 solve engine (internal/sequential), which
// streams row-blocks through this call instead of materializing the
// full 8·n² buffer. Every entry is the canonical four-lane square of
// sqDistRowsInto, so math.Sqrt of it is bit-identical to Euclidean on
// the same rows. dst must hold at least (hi−lo)·n values.
func (p *Points) FillSqRows(lo, hi int, dst []float64, workers int) {
	p.FillSqRowsRange(lo, hi, 0, p.n, dst, workers)
}

// FillSqRowsRange is FillSqRows restricted to a column range: for each
// row i in [lo, hi) it writes the squared distances to points
// [colLo, colHi) — (hi−lo)·(colHi−colLo) entries, row-major, row lo
// first. It is what lets the tiled farthest-partner pass walk only the
// upper triangle (n²/2 kernel evaluations instead of n²): each entry is
// the same canonical four-lane square FillSqRows produces for that
// (row, column) pair, bit for bit, just restricted to the columns the
// triangular walk needs. Sharding across workers matches FillSqRows.
func (p *Points) FillSqRowsRange(lo, hi, colLo, colHi int, dst []float64, workers int) {
	n := p.n
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("metric: FillSqRowsRange range [%d, %d) outside a %d-row store", lo, hi, n))
	}
	if colLo < 0 || colHi > n || colLo > colHi {
		// The column bound is the store's point count — the same n that
		// bounds rows, but reported as the column capacity it is here,
		// not as a row count.
		panic(fmt.Sprintf("metric: FillSqRowsRange columns [%d, %d) outside a %d-column store", colLo, colHi, n))
	}
	rows, w := hi-lo, colHi-colLo
	if rows == 0 || w == 0 {
		return
	}
	if len(dst) < rows*w {
		panic(fmt.Sprintf("metric: FillSqRowsRange destination of %d values for %d rows of %d", len(dst), rows, w))
	}
	parallelRowRange(lo, hi, workers, func(flo, fhi int) {
		if p.dim >= BlockedMinDim {
			p.blockedFillRows(flo, fhi, colLo, colHi, lo, w, dst)
			return
		}
		for i := flo; i < fhi; i++ {
			p.sqDistRangeInto(i, colLo, colHi, dst[(i-lo)*w:(i-lo)*w+w])
		}
	})
}

// sqDistRowsInto writes the squared distances from row c to every row
// into out (len ≥ n): one DistMatrix row. It is RelaxMinSqRange's
// traversal without the min/assign bookkeeping — the same
// dimension-specialized kernels (two/three-coordinate direct forms, the
// 8-dimensional four-rows-per-step unroll), the same canonical four-lane
// summation order, so every value is bit-identical to sqDist on the same
// rows.
func (p *Points) sqDistRowsInto(c int, out []float64) {
	p.sqDistRangeInto(c, 0, p.n, out)
}

// sqDistRangeInto is sqDistRowsInto restricted to rows [jlo, jhi),
// writing jhi−jlo entries starting at out[0]. Every entry's value is
// computed by the same self-contained per-entry formula as the full
// row — the d=8 four-rows-per-step unroll only interleaves independent
// entries — so out[j−jlo] is bit-identical to the full row's entry j
// regardless of where the range starts.
func (p *Points) sqDistRangeInto(c, jlo, jhi int, out []float64) {
	n := jhi - jlo
	if n == 0 {
		return
	}
	d := p.dim
	data := p.data
	_ = out[n-1]
	switch d {
	case 2:
		c0, c1 := data[2*c], data[2*c+1]
		for i := jlo; i < jhi; i++ {
			d0 := c0 - data[2*i]
			d1 := c1 - data[2*i+1]
			out[i-jlo] = d0*d0 + d1*d1
		}
	case 3:
		c0, c1, c2 := data[3*c], data[3*c+1], data[3*c+2]
		for i := jlo; i < jhi; i++ {
			row := data[3*i : 3*i+3]
			d0 := c0 - row[0]
			d1 := c1 - row[1]
			d2 := c2 - row[2]
			out[i-jlo] = d0*d0 + d1*d1 + d2*d2
		}
	case 8:
		center := data[8*c : 8*c+8]
		c0, c1, c2, c3 := center[0], center[1], center[2], center[3]
		c4, c5, c6, c7 := center[4], center[5], center[6], center[7]
		i := jlo
		for ; i+4 <= jhi; i += 4 {
			row := data[8*i : 8*i+32]
			d0 := c0 - row[0]
			d1 := c1 - row[1]
			d2 := c2 - row[2]
			d3 := c3 - row[3]
			s0 := d0 * d0
			s1 := d1 * d1
			s2 := d2 * d2
			s3 := d3 * d3
			d4 := c4 - row[4]
			d5 := c5 - row[5]
			d6 := c6 - row[6]
			d7 := c7 - row[7]
			s0 += d4 * d4
			s1 += d5 * d5
			s2 += d6 * d6
			s3 += d7 * d7
			out[i-jlo] = (s0 + s1) + (s2 + s3)
			d0 = c0 - row[8]
			d1 = c1 - row[9]
			d2 = c2 - row[10]
			d3 = c3 - row[11]
			s0 = d0 * d0
			s1 = d1 * d1
			s2 = d2 * d2
			s3 = d3 * d3
			d4 = c4 - row[12]
			d5 = c5 - row[13]
			d6 = c6 - row[14]
			d7 = c7 - row[15]
			s0 += d4 * d4
			s1 += d5 * d5
			s2 += d6 * d6
			s3 += d7 * d7
			out[i-jlo+1] = (s0 + s1) + (s2 + s3)
			d0 = c0 - row[16]
			d1 = c1 - row[17]
			d2 = c2 - row[18]
			d3 = c3 - row[19]
			s0 = d0 * d0
			s1 = d1 * d1
			s2 = d2 * d2
			s3 = d3 * d3
			d4 = c4 - row[20]
			d5 = c5 - row[21]
			d6 = c6 - row[22]
			d7 = c7 - row[23]
			s0 += d4 * d4
			s1 += d5 * d5
			s2 += d6 * d6
			s3 += d7 * d7
			out[i-jlo+2] = (s0 + s1) + (s2 + s3)
			d0 = c0 - row[24]
			d1 = c1 - row[25]
			d2 = c2 - row[26]
			d3 = c3 - row[27]
			s0 = d0 * d0
			s1 = d1 * d1
			s2 = d2 * d2
			s3 = d3 * d3
			d4 = c4 - row[28]
			d5 = c5 - row[29]
			d6 = c6 - row[30]
			d7 = c7 - row[31]
			s0 += d4 * d4
			s1 += d5 * d5
			s2 += d6 * d6
			s3 += d7 * d7
			out[i-jlo+3] = (s0 + s1) + (s2 + s3)
		}
		for ; i < jhi; i++ {
			out[i-jlo] = sqDist(center, data[8*i:8*i+8])
		}
	default:
		if d >= BlockedMinDim {
			p.blockedRangeInto(c, jlo, jhi, out)
			return
		}
		center := data[c*d : c*d+d]
		for i := jlo; i < jhi; i++ {
			out[i-jlo] = sqDist(center, data[i*d:i*d+d])
		}
	}
}

// Len returns the number of points the matrix was built over.
func (m *DistMatrix) Len() int { return m.n }

// Bytes returns the size of the backing buffer in bytes (monitoring).
func (m *DistMatrix) Bytes() int64 { return int64(len(m.sq)) * 8 }

// SqAt returns the squared distance between points i and j,
// bit-identical to SquaredEuclidean on the underlying rows.
func (m *DistMatrix) SqAt(i, j int) float64 { return m.sq[i*m.stride+j] }

// SqRow returns row i of the matrix as a slice view: SqRow(i)[j] is the
// squared distance between points i and j. Solver inner loops scan rows
// through this view so the bounds check hoists out of the loop.
func (m *DistMatrix) SqRow(i int) []float64 { return m.sq[i*m.stride : i*m.stride+m.n] }

// RelaxMinSqParallel is RelaxMinSqRange over all rows, sharded across
// worker goroutines: contiguous row ranges relax independently (their
// minSq/assign writes are disjoint) and the per-shard maxima are reduced
// with ties toward the lowest index — exactly the bookkeeping of a
// single ascending strict-'>' scan, so the result is independent of the
// worker count and identical to RelaxMinSqRange(0, n, ...) seeded with
// (next, nextSq) = (first row, -Inf). It returns (-1, -1) on an empty
// store; workers ≤ 0 means runtime.NumCPU(), and the count is clamped
// so every shard owns at least relaxMinRows rows. It is the engine of
// GMMParallel's flat fast path.
func (p *Points) RelaxMinSqParallel(c, sel, workers int, minSq []float64, assign []int) (int, float64) {
	return p.relaxParallel(workers, minSq, assign, func(lo, hi int) (int, float64) {
		return p.RelaxMinSqRange(lo, hi, c, sel, minSq, assign, lo, math.Inf(-1))
	})
}

// relaxParallel is the shard-and-reduce skeleton shared by
// RelaxMinSqParallel and RelaxMinSqPrunedParallel: pass relaxes one
// contiguous row range seeded with (lo, -Inf) and returns its running
// maximum; the per-shard maxima are reduced with ties toward the lowest
// index, which is exactly the bookkeeping of a single ascending
// strict-'>' scan, so the result is independent of the worker count.
func (p *Points) relaxParallel(workers int, minSq []float64, assign []int, pass func(lo, hi int) (int, float64)) (int, float64) {
	n := p.n
	if n == 0 {
		return -1, -1
	}
	if len(minSq) < n || len(assign) < n {
		panic(fmt.Sprintf("metric: RelaxMinSqParallel buffers of %d and %d rows for a %d-row store", len(minSq), len(assign), n))
	}
	const relaxMinRows = 512
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if maxw := (n + relaxMinRows - 1) / relaxMinRows; workers > maxw {
		workers = maxw
	}
	if workers <= 1 {
		return pass(0, n)
	}
	type shardMax struct {
		idx int
		sq  float64
	}
	chunk := (n + workers - 1) / workers
	maxes := make([]shardMax, workers)
	var wg sync.WaitGroup
	for s := 0; s < workers; s++ {
		lo := s * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			maxes[s] = shardMax{idx: -1, sq: -1}
			continue
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			idx, sq := pass(lo, hi)
			maxes[s] = shardMax{idx: idx, sq: sq}
		}(s, lo, hi)
	}
	wg.Wait()
	next := shardMax{idx: -1, sq: math.Inf(-1)}
	for _, sm := range maxes {
		if sm.idx >= 0 && (next.idx < 0 || sm.sq > next.sq || (sm.sq == next.sq && sm.idx < next.idx)) {
			next = sm
		}
	}
	return next.idx, next.sq
}
