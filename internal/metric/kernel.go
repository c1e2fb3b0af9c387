package metric

import (
	"fmt"
	"math"
	"reflect"
)

// Batched squared-distance kernels for the GMM and SMM hot loops.
//
// Farthest-first selection and nearest-center assignment only compare
// distances with one another, and x ↦ √x is monotone, so the inner
// loops can run entirely on squared Euclidean distances and take the
// square root once at the boundary where a real distance is reported
// (Radius, LastDist, the SMM phase thresholds). That removes one
// math.Sqrt per point/center pair — the only transcendental in the
// loop — plus the indirect Distance call and the pointer chase through
// scattered []Vector rows.
//
// All Euclidean sums in this package — Euclidean, SquaredEuclidean, and
// every batched kernel — share one canonical summation order, the
// four-lane order of sqDist: coordinate j of each aligned block of four
// feeds lane j (blocks in index order), leftover coordinates feed lane
// 0, and the total is (s0+s1) + (s2+s3). Dimensions below four reduce
// to the plain in-order sum. Go never
// reassociates floating-point arithmetic on its own, so the scalar
// functions and the dimension-specialized kernels produce bit-identical
// squares, and the fast paths built on them make exactly the same
// selections as the generic code (see the equivalence tests and fuzz
// targets in this package, internal/coreset, and internal/streamalg).
// The four independent lanes also break the floating-point add
// dependency chain, which is what lets the kernels saturate the machine
// instead of waiting ~4 cycles per coordinate.

// SqDist returns the squared Euclidean distance between two rows,
// bit-identical to SquaredEuclidean on the same coordinates (both
// evaluate the canonical four-lane sum). It panics on mismatched
// lengths with the same diagnostics as Euclidean.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metric: euclidean distance of vectors with mismatched dimensions %d and %d", len(a), len(b)))
	}
	return sqDist(a, b)
}

// sqDist is SqDist for callers that have already matched the lengths.
func sqDist(a, b []float64) float64 {
	b = b[:len(a)]
	switch len(a) {
	case 0:
		return 0
	case 1:
		d0 := a[0] - b[0]
		return d0 * d0
	case 2:
		d0 := a[0] - b[0]
		d1 := a[1] - b[1]
		return d0*d0 + d1*d1
	case 3:
		d0 := a[0] - b[0]
		d1 := a[1] - b[1]
		d2 := a[2] - b[2]
		return d0*d0 + d1*d1 + d2*d2
	default:
		var s0, s1, s2, s3 float64
		i := 0
		for ; i+4 <= len(a); i += 4 {
			d0 := a[i] - b[i]
			d1 := a[i+1] - b[i+1]
			d2 := a[i+2] - b[i+2]
			d3 := a[i+3] - b[i+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		for ; i < len(a); i++ {
			d := a[i] - b[i]
			s0 += d * d
		}
		return (s0 + s1) + (s2 + s3)
	}
}

// RelaxMinSqRange is one blocked farthest-first relaxation pass over
// rows [lo, hi): for each row i it computes the squared distance to the
// center at row c, lowers minSq[i] (recording assign[i] = sel on a
// strict improvement, so ties stay on the earliest-selected center),
// and tracks the row maximizing the relaxed minSq, scanning ascending
// with a strict '>' so ties keep the lowest index — exactly the generic
// GMM scan's bookkeeping, run on squares. next/nextSq seed the running
// maximum — callers pass the sentinel matching the generic scan they
// mirror — and the final (next, nextSq) is returned: the farthest
// remaining point (the traversal's next center) and its squared
// distance, whose square root is the clustering radius after the last
// pass.
//
// The 8-dimensional kernel additionally unrolls four rows per step:
// the independent lane sums of neighbouring rows overlap in the
// pipeline, which is worth ~20% on top of the lane split.
//
// At d ≥ BlockedMinDim the squared distances come from the norm-trick
// blocked tier (blocked.go): within the documented error envelope of
// the difference form rather than bit-identical to it, exactly 0 on
// exact duplicates, and exact (hence bit-identical) on integer-valued
// inputs. Below the threshold nothing changes.
func (p *Points) RelaxMinSqRange(lo, hi, c, sel int, minSq []float64, assign []int, next int, nextSq float64) (int, float64) {
	if lo >= hi {
		return next, nextSq
	}
	d := p.dim
	data := p.data
	_ = minSq[hi-1]
	_ = assign[hi-1]
	switch d {
	case 2:
		c0, c1 := data[2*c], data[2*c+1]
		for i := lo; i < hi; i++ {
			d0 := c0 - data[2*i]
			d1 := c1 - data[2*i+1]
			sq := d0*d0 + d1*d1
			m := minSq[i]
			if sq < m {
				m = sq
				minSq[i] = sq
				assign[i] = sel
			}
			if m > nextSq {
				next, nextSq = i, m
			}
		}
	case 3:
		c0, c1, c2 := data[3*c], data[3*c+1], data[3*c+2]
		for i := lo; i < hi; i++ {
			row := data[3*i : 3*i+3]
			d0 := c0 - row[0]
			d1 := c1 - row[1]
			d2 := c2 - row[2]
			sq := d0*d0 + d1*d1 + d2*d2
			m := minSq[i]
			if sq < m {
				m = sq
				minSq[i] = sq
				assign[i] = sel
			}
			if m > nextSq {
				next, nextSq = i, m
			}
		}
	case 8:
		center := data[8*c : 8*c+8]
		c0, c1, c2, c3 := center[0], center[1], center[2], center[3]
		c4, c5, c6, c7 := center[4], center[5], center[6], center[7]
		i := lo
		for ; i+4 <= hi; i += 4 {
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
			sqA := (s0 + s1) + (s2 + s3)
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
			sqB := (s0 + s1) + (s2 + s3)
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
			sqC := (s0 + s1) + (s2 + s3)
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
			sqD := (s0 + s1) + (s2 + s3)
			m := minSq[i]
			if sqA < m {
				m = sqA
				minSq[i] = sqA
				assign[i] = sel
			}
			if m > nextSq {
				next, nextSq = i, m
			}
			m = minSq[i+1]
			if sqB < m {
				m = sqB
				minSq[i+1] = sqB
				assign[i+1] = sel
			}
			if m > nextSq {
				next, nextSq = i+1, m
			}
			m = minSq[i+2]
			if sqC < m {
				m = sqC
				minSq[i+2] = sqC
				assign[i+2] = sel
			}
			if m > nextSq {
				next, nextSq = i+2, m
			}
			m = minSq[i+3]
			if sqD < m {
				m = sqD
				minSq[i+3] = sqD
				assign[i+3] = sel
			}
			if m > nextSq {
				next, nextSq = i+3, m
			}
		}
		for ; i < hi; i++ {
			row := data[8*i : 8*i+8]
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
			sq := (s0 + s1) + (s2 + s3)
			m := minSq[i]
			if sq < m {
				m = sq
				minSq[i] = sq
				assign[i] = sel
			}
			if m > nextSq {
				next, nextSq = i, m
			}
		}
	default:
		if d >= BlockedMinDim {
			return p.blockedRelaxRange(lo, hi, c, sel, minSq, assign, next, nextSq)
		}
		center := data[c*d : c*d+d]
		for i := lo; i < hi; i++ {
			sq := sqDist(center, data[i*d:i*d+d])
			m := minSq[i]
			if sq < m {
				m = sq
				minSq[i] = sq
				assign[i] = sel
			}
			if m > nextSq {
				next, nextSq = i, m
			}
		}
	}
	return next, nextSq
}

// MinSq returns the minimum squared distance between q and the stored
// rows, with the index of the closest row; ties break toward the lowest
// index, matching MinDistance. It returns (+Inf, -1) on an empty store
// and panics when q disagrees with the store's dimension, exactly as
// the generic scan panics inside Euclidean.
func (p *Points) MinSq(q []float64) (float64, int) {
	best := math.Inf(1)
	bestIdx := -1
	if p.n == 0 {
		return best, bestIdx
	}
	if len(q) != p.dim {
		panic(fmt.Sprintf("metric: euclidean distance of vectors with mismatched dimensions %d and %d", len(q), p.dim))
	}
	d := p.dim
	data := p.data
	for i := 0; i < p.n; i++ {
		if sq := sqDist(q, data[i*d:i*d+d]); sq < best {
			best = sq
			bestIdx = i
		}
	}
	return best, bestIdx
}

// AnyWithin reports !(math.Sqrt(MinSq(q)) > r) — whether the closest
// stored row lies within distance r of q — but stops at the first row
// whose distance is at most r. Each row's distance is math.Sqrt of the
// same four-lane square MinSq takes, and sqrt is monotone, so the answer
// is the one MinSq gives at every dimension. With no row within r the
// minimum is above r, or +Inf (no rows, or only NaN squares), which
// r = +Inf or NaN still does not exceed. It panics as MinSq does.
func (p *Points) AnyWithin(q []float64, r float64) bool {
	if p.n > 0 && len(q) != p.dim {
		panic(fmt.Sprintf("metric: euclidean distance of vectors with mismatched dimensions %d and %d", len(q), p.dim))
	}
	d := p.dim
	data := p.data
	for i := 0; i < p.n; i++ {
		if math.Sqrt(sqDist(q, data[i*d:i*d+d])) <= r {
			return true
		}
	}
	return !(math.Inf(1) > r)
}

// euclideanPC is the entry point of Euclidean, the identity the fast
// paths recognize.
var euclideanPC = reflect.ValueOf(Euclidean).Pointer()

// IsEuclidean reports whether d is this package's Euclidean function
// (possibly rebound through a Distance[Vector] variable, like the
// root package's divmax.Euclidean). Wrappers and closures — counting
// instrumentation, test shims — are deliberately not recognized, so
// they always take the generic path. Algorithms use it to dispatch to
// the squared-distance kernels; a false negative only costs speed,
// never correctness.
func IsEuclidean[P any](d Distance[P]) bool {
	return d != nil && reflect.ValueOf(d).Pointer() == euclideanPC
}
