package metric

import (
	"fmt"
	"math"
)

// Points is a flat, cache-friendly store of n points of a fixed
// dimension: row i occupies data[i*dim : (i+1)*dim] of a single
// row-major []float64 backing array. Scanning rows touches memory
// strictly sequentially, so the hardware prefetcher streams the whole
// store — unlike a []Vector, whose slice headers point at individually
// allocated, heap-scattered rows.
//
// Points is the substrate of the squared-Euclidean fast path used by
// the GMM and SMM hot loops (see kernel.go): construct one with
// FlattenVectors (bulk) or Append (incremental), then drive the batched
// kernels RelaxMinSqRange and MinSq.
type Points struct {
	data []float64
	n    int
	dim  int
	// norms caches ‖row i‖² in the canonical blocked-tier order
	// (sqNorm, blocked.go) for every row — maintained only when
	// dim ≥ BlockedMinDim, where the batched kernels run the norm-trick
	// blocked tier; empty below it, where the difference-form kernels
	// never read it. Kept in lockstep with data by every mutator.
	norms []float64
}

// FlattenVectors copies vs into a flat row-major store. It reports
// ok=false when the rows disagree on dimension or the dimension is zero
// — inputs the batched kernels cannot represent — in which case callers
// must keep the generic path (which surfaces the same ragged-input
// errors the flat path would otherwise mask).
func FlattenVectors(vs []Vector) (Points, bool) {
	if len(vs) == 0 {
		return Points{}, true
	}
	dim := len(vs[0])
	if dim == 0 {
		return Points{}, false
	}
	data := make([]float64, 0, len(vs)*dim)
	for _, v := range vs {
		if len(v) != dim {
			return Points{}, false
		}
		data = append(data, v...)
	}
	p := Points{data: data, n: len(vs), dim: dim}
	p.initNorms()
	return p, true
}

// Len returns the number of stored points.
func (p *Points) Len() int { return p.n }

// Dim returns the point dimension (0 until the first Append).
func (p *Points) Dim() int { return p.dim }

// Row returns the i-th point as a slice view into the backing array.
// The view stays valid until the next Append or Reset.
func (p *Points) Row(i int) []float64 {
	d := p.dim
	return p.data[i*d : i*d+d]
}

// Vector returns the i-th point as a Vector view (no copy); see Row for
// the aliasing caveat.
func (p *Points) Vector(i int) Vector { return Vector(p.Row(i)) }

// Append copies row into the store. The first Append fixes the
// dimension; it panics on a mismatched later row, mirroring the panic
// the generic path raises inside Euclidean on mixed datasets.
func (p *Points) Append(row []float64) {
	if p.n == 0 {
		p.dim = len(row)
	} else if len(row) != p.dim {
		panic(fmt.Sprintf("metric: appending a %d-dimensional point to a %d-dimensional flat store", len(row), p.dim))
	}
	p.data = append(p.data, row...)
	p.n++
	if p.dim >= BlockedMinDim {
		p.norms = append(p.norms, sqNorm(p.data[(p.n-1)*p.dim:p.n*p.dim]))
	}
}

// Reset empties the store, retaining the backing arrays for reuse.
func (p *Points) Reset() {
	p.data = p.data[:0]
	p.norms = p.norms[:0]
	p.n = 0
	p.dim = 0
}

// initNorms (re)builds the squared-norm cache for the current contents:
// one sqNorm per row at dim ≥ BlockedMinDim, empty below it. Bulk
// loaders call it once after the copy instead of growing the cache row
// by row.
func (p *Points) initNorms() {
	if p.dim < BlockedMinDim {
		p.norms = p.norms[:0]
		return
	}
	if cap(p.norms) < p.n {
		p.norms = make([]float64, p.n)
	} else {
		p.norms = p.norms[:p.n]
	}
	d := p.dim
	for i := 0; i < p.n; i++ {
		p.norms[i] = sqNorm(p.data[i*d : i*d+d])
	}
}

// MatchRows returns, for each row of p, the index of a row of q that
// holds the same coordinates bit for bit, or -1 when q has none (always
// when the dimensions differ). Of duplicate rows in q it names the
// first. Rows are found through a hash of their float64 bits, confirmed
// by comparing the bits, so +0 and −0 do not match and NaN matches the
// same NaN; a row whose hash collides with an earlier, different row of
// q is not found, which costs a caller only the recomputation it would
// do for an unmatched row.
func (p *Points) MatchRows(q *Points) []int {
	var first map[uint64]int
	if p.dim == q.dim {
		first = make(map[uint64]int, q.n)
		for j := q.n - 1; j >= 0; j-- {
			first[rowHash(q.Row(j))] = j
		}
	}
	old := make([]int, p.n)
	for i := range old {
		row := p.Row(i)
		if j, ok := first[rowHash(row)]; ok && sameBits(q.Row(j), row) {
			old[i] = j
		} else {
			old[i] = -1
		}
	}
	return old
}

// rowHash mixes a row's float64 bit patterns into 64 bits.
func rowHash(row []float64) uint64 {
	h := uint64(len(row))
	for _, x := range row {
		h ^= math.Float64bits(x)
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
	}
	return h ^ h>>32
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Fill resets the store and bulk-loads vs, reusing the backing array
// when its capacity suffices (the allocation-free path GMM's scratch
// pool depends on). Like FlattenVectors it reports ok=false — leaving
// the store empty — when the rows disagree on dimension or the
// dimension is zero.
func (p *Points) Fill(vs []Vector) bool {
	p.Reset()
	if len(vs) == 0 {
		return true
	}
	dim := len(vs[0])
	if dim == 0 {
		return false
	}
	if need := len(vs) * dim; cap(p.data) < need {
		p.data = make([]float64, 0, need)
	}
	for _, v := range vs {
		if len(v) != dim {
			p.Reset()
			return false
		}
		p.data = append(p.data, v...)
	}
	p.n = len(vs)
	p.dim = dim
	p.initNorms()
	return true
}
