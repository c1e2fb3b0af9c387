package streamalg

import (
	"math"

	"divmax/internal/metric"
)

// centerScanner is the nearest-center engine behind the SMM family's
// Euclidean fast path. The processors keep it as a mirror of their
// center set — Append on every accepted center, Rebuild after a merge
// or a delete rewrites the set — and route every MinDistance scan
// through it. MinDist must return exactly what metric.MinDistance(p,
// centers, Euclidean) returns: the scan runs on squared distances over
// a flat row-major buffer and takes a single square root at the end,
// which commutes with the minimum because correctly-rounded sqrt is
// monotone.
//
// Covers is the covering exit: once no center can keep another spare,
// delegate or count, a processor needs only whether its nearest center
// lies within the coverage radius, and Covers answers that at the first
// center within it instead of scanning them all.
type centerScanner[P any] interface {
	// Append mirrors appending p to the center set.
	Append(p P)
	// Rebuild mirrors wholesale replacement of the center set.
	Rebuild(centers []P)
	// MinDist returns the distance to and index of the nearest mirrored
	// center, (+Inf, -1) when none; ties break toward the lowest index.
	MinDist(p P) (float64, int)
	// Covers reports !(dist > r) for the dist MinDist(p) returns.
	Covers(p P, r float64) bool
}

// newCenterScanner returns the fast scanner when d is metric.Euclidean
// and P is metric.Vector, and nil otherwise — processors treat nil as
// "use the generic scan". Wrapped or instrumented distances are never
// recognized, so counting tests and custom metrics keep their exact
// call patterns.
func newCenterScanner[P any](d metric.Distance[P]) centerScanner[P] {
	if !metric.IsEuclidean(d) {
		return nil
	}
	sc, _ := any(&vecScanner{}).(centerScanner[P])
	return sc // nil unless P is metric.Vector
}

// vecScanner is the concrete scanner for dense Euclidean vectors: the
// centers live in one flat row-major buffer, scanned with the squared
// distance kernels of internal/metric.
type vecScanner struct {
	flat metric.Points
}

func (v *vecScanner) Append(p metric.Vector) { v.flat.Append(p) }

func (v *vecScanner) Rebuild(centers []metric.Vector) {
	v.flat.Reset()
	for _, c := range centers {
		v.flat.Append(c)
	}
}

func (v *vecScanner) MinDist(p metric.Vector) (float64, int) {
	sq, idx := v.flat.MinSq(p)
	if idx < 0 {
		return math.Inf(1), -1
	}
	return math.Sqrt(sq), idx
}

func (v *vecScanner) Covers(p metric.Vector, r float64) bool { return v.flat.AnyWithin(p, r) }
