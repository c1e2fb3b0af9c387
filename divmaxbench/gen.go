package main

import (
	"math"
	"math/rand/v2"
	"strconv"

	"divmax"
)

// Inputs. Every point is a pure function of (seed, index), so any body
// can be rebuilt byte for byte — the replay regenerates exactly what the
// servers received — and a delete can name an earlier point by index
// without the generator keeping its coordinates. Coordinates are rounded
// to 1/genScale so bodies stay short; the float64 a server parses from
// that text is the one generated, so served points compare exactly.
//
// Points 0 to initialPoints-1 are the initial data set every workload
// loads during set-up, and they are drawn from initialSeed whatever the
// run's seed: the streaming core-sets fix their threshold ladder on the
// first points they see (the doubling algorithm starts from the closest
// pair of its first k'+1 points), and an unanchored ladder leaves the
// core-sets — and every query cost with them — up to 6x larger on one
// seed than on another. The seed draws everything the measured window
// sends.
const (
	genRange      = 100 // uniform coordinates and mixture centers lie in [0, genRange)
	genClusters   = 10
	genSpread     = 0.5
	genScale      = 1e4
	initialPoints = 20_000
	initialBatch  = 2000
	initialSeed   = 0
)

// pointGen draws uniform points, or (clustered) the Gaussian mixture of
// cmd/bench's clusteredVectors: ten centers with a tight spread around
// each, the shape of real embedding data. The centers are fixed; the
// seed draws the points around them.
type pointGen struct {
	seed    uint64
	dim     int
	centers [][]float64
	pcg     *rand.PCG
	rng     *rand.Rand
}

func newPointGen(seed uint64, dim int, clustered bool) *pointGen {
	pcg := rand.NewPCG(0, 0)
	g := &pointGen{seed: seed, dim: dim, pcg: pcg, rng: rand.New(pcg)}
	if clustered {
		pcg.Seed(mix(initialSeed), mix(math.MaxUint64))
		g.centers = make([][]float64, genClusters)
		for c := range g.centers {
			v := make([]float64, dim)
			for i := range v {
				v[i] = g.rng.Float64() * genRange
			}
			g.centers[c] = v
		}
	}
	return g
}

// point returns point j.
func (g *pointGen) point(j int) divmax.Vector {
	seed := g.seed
	if j < initialPoints {
		seed = initialSeed
	}
	g.pcg.Seed(mix(seed), mix(uint64(j)))
	v := make(divmax.Vector, g.dim)
	if g.centers == nil {
		for i := range v {
			v[i] = float64(g.rng.IntN(genRange*genScale)) / genScale
		}
		return v
	}
	c := g.centers[g.rng.IntN(genClusters)]
	for i := range v {
		v[i] = math.Round((c[i]+g.rng.NormFloat64()*genSpread)*genScale) / genScale
	}
	return v
}

// body encodes the points with indices idx as an ingest or delete body
// and returns it with the points' value hashes.
func (g *pointGen) body(idx []int) ([]byte, []uint64) {
	pts := make([]divmax.Vector, len(idx))
	hs := make([]uint64, len(idx))
	for i, j := range idx {
		pts[i] = g.point(j)
		hs[i] = valueHash(pts[i])
	}
	return appendBody(nil, pts), hs
}

// indexRange returns the indices first, ..., first+n-1.
func indexRange(first, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = first + i
	}
	return idx
}

// mix is SplitMix64's finalizer, a bijection that decorrelates
// neighbouring seeds.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// valueHash identifies a point by the exact bits of its coordinates.
func valueHash(p divmax.Vector) uint64 {
	h := uint64(len(p))
	for _, x := range p {
		h = mix(h ^ math.Float64bits(x))
	}
	return h
}

// appendBody appends {"points":[[...],...]} — the body of /v1/ingest and
// /v1/delete — holding pts.
func appendBody(dst []byte, pts []divmax.Vector) []byte {
	dst = append(dst, `{"points":[`...)
	for i, p := range pts {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for j, x := range p {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendFloat(dst, x, 'f', -1, 64)
		}
		dst = append(dst, ']')
	}
	return append(dst, "]}"...)
}

// pool is a set of pre-encoded ingest bodies: the initial data set's,
// then those a workload replays in order, cycling.
type pool struct {
	bodies  [][]byte
	hashes  [][]uint64 // value hash of every point of each body
	initial int        // bodies holding the initial data set
}

// newPool encodes the initial data set in initialBatch-point bodies and
// the points points after it in batch-point bodies.
func newPool(g *pointGen, points, batch int) *pool {
	p := &pool{}
	add := func(first, n int) {
		b, hs := g.body(indexRange(first, n))
		p.bodies = append(p.bodies, b)
		p.hashes = append(p.hashes, hs)
	}
	for first := 0; first < initialPoints; first += initialBatch {
		add(first, initialBatch)
	}
	p.initial = len(p.bodies)
	for first := initialPoints; points > 0 && first+batch <= initialPoints+points; first += batch {
		add(first, batch)
	}
	return p
}

// stream returns the index of the i-th body of the replayed stream.
func (p *pool) stream(i int) int { return p.initial + i%(len(p.bodies)-p.initial) }

// roundSource draws a round workload's points: fresh ones to ingest, in
// index order, and live ones to delete. It holds only indices, so its
// memory stays small however many rounds run.
type roundSource struct {
	gen    *pointGen
	pick   *rand.Rand
	next   int            // index of the next fresh point
	live   []int          // indices ingested and not yet deleted
	slot   map[int]int    // index → its position in live
	byHash map[uint64]int // value hash → index, of live points
}

func newRoundSource(seed uint64, dim int, clustered bool) *roundSource {
	return &roundSource{
		gen:    newPointGen(seed, dim, clustered),
		pick:   rand.New(rand.NewPCG(mix(seed), mix(seed^0x5bd1e995))),
		slot:   map[int]int{},
		byHash: map[uint64]int{},
	}
}

// ingest takes the next n fresh points as live and returns their
// indices.
func (s *roundSource) ingest(n int) []int {
	idx := indexRange(s.next, n)
	for _, j := range idx {
		s.slot[j] = len(s.live)
		s.live = append(s.live, j)
		s.byHash[valueHash(s.gen.point(j))] = j
	}
	s.next += n
	return idx
}

// remove picks n live points to delete and takes them out of the live
// set: the first from prefer — indices of points earlier answers served,
// consumed front first and skipped once dead — when prefer is non-nil,
// the rest at random.
func (s *roundSource) remove(n int, prefer *[]int) []int {
	var idx []int
	for prefer != nil && len(*prefer) > 0 && len(idx) == 0 {
		j := (*prefer)[0]
		*prefer = (*prefer)[1:]
		if _, ok := s.slot[j]; ok {
			idx = append(idx, j)
			s.kill(j)
		}
	}
	for len(idx) < n && len(s.live) > 0 {
		j := s.live[s.pick.IntN(len(s.live))]
		idx = append(idx, j)
		s.kill(j)
	}
	return idx
}

func (s *roundSource) kill(j int) {
	i := s.slot[j]
	last := s.live[len(s.live)-1]
	s.live[i], s.slot[last] = last, i
	s.live = s.live[:len(s.live)-1]
	delete(s.slot, j)
	delete(s.byHash, valueHash(s.gen.point(j)))
}

// served returns the indices of the live points among hashes, the value
// hashes of an answer's points.
func (s *roundSource) served(hashes []uint64) []int {
	var idx []int
	for _, h := range hashes {
		if j, ok := s.byHash[h]; ok {
			idx = append(idx, j)
		}
	}
	return idx
}

// multiset counts live point values by hash: the benchmark's own record
// of ingested-minus-deleted, against which served answers are checked.
type multiset map[uint64]int32

func (m multiset) add(hs []uint64) {
	for _, h := range hs {
		m[h]++
	}
}

func (m multiset) remove(hs []uint64) {
	for _, h := range hs {
		if m[h] > 1 {
			m[h]--
		} else {
			delete(m, h)
		}
	}
}
