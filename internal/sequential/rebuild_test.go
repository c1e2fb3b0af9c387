package sequential

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"divmax/internal/diversity"
	"divmax/internal/metric"
)

// rebuildCases lays out, from one pool of points, a previous union and
// the new unions a merge-cache rebuild meets: points dropped, added,
// shuffled, duplicated, and rows that differ from a previous one only
// in the sign of a zero coordinate.
func rebuildCases(rng *rand.Rand, n, dim int) (prev []metric.Vector, next map[string][]metric.Vector) {
	pool := randomVectors(rng, 2*n, dim)
	for i := 0; i < len(pool); i += 7 {
		pool[i][0] = 0 // +0, so that a −0 twin below is a different row
	}
	prev = append([]metric.Vector(nil), pool[:n]...)
	prev = append(prev, prev[3], prev[n/2]) // duplicates in prev
	negZero := func(vs []metric.Vector) []metric.Vector {
		out := append([]metric.Vector(nil), vs...)
		for i := 0; i < len(out); i += 7 {
			v := append(metric.Vector(nil), out[i]...)
			v[0] = math.Copysign(0, -1)
			out[i] = v
		}
		return out
	}
	shuffled := append([]metric.Vector(nil), prev...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	var evict []metric.Vector // one point out, one promoted in, as a delete does
	evict = append(evict, prev[:n/3]...)
	evict = append(evict, pool[n])
	evict = append(evict, prev[n/3+1:]...)
	var restructured []metric.Vector // the middle third replaced by fresh points
	restructured = append(restructured, prev[:n/3]...)
	restructured = append(restructured, pool[n:n+n/3]...)
	restructured = append(restructured, prev[2*n/3:]...)
	next = map[string][]metric.Vector{
		"same":         prev,
		"evict":        evict,
		"restructured": restructured,
		"dropped":      prev[n/4 : 3*n/4],
		"added":        append(append([]metric.Vector(nil), prev...), pool[n:n+n/4]...),
		"shuffled":     shuffled,
		"duplicates":   append(append([]metric.Vector(nil), evict...), evict[1], evict[1], pool[n+1], pool[n+1]),
		"neg-zero":     negZero(prev),
		"disjoint":     pool[n:],
	}
	return prev, next
}

// TestRebuildEngineMatchesBuild is the remap contract: an engine rebuilt
// from a previous one agrees with BuildEngine over the same points cell
// for cell and solve for solve, whatever the two unions share, in both
// kernel tiers and for every worker count.
func TestRebuildEngineMatchesBuild(t *testing.T) {
	forceShardMinima(t)
	for _, dim := range []int{2, 3, 8, 16, 128} {
		rng := rand.New(rand.NewSource(int64(500 + dim)))
		prevPts, cases := rebuildCases(rng, 150, dim)
		for _, workers := range []int{1, 2, 4} {
			prev := BuildEngine(prevPts, metric.Euclidean, workers)
			for name, pts := range cases {
				label := fmt.Sprintf("d=%d/%s/w=%d", dim, name, workers)
				want := BuildEngine(pts, metric.Euclidean, workers)
				got := RebuildEngine(prev, pts, metric.Euclidean, workers)
				sameEngineCells(t, label, got, want)
				if got.MatrixBytes() != want.MatrixBytes() {
					t.Fatalf("%s: matrix of %d bytes, want %d", label, got.MatrixBytes(), want.MatrixBytes())
				}
				for _, m := range []diversity.Measure{diversity.RemoteEdge, diversity.RemoteClique} {
					gi, wi := SolveEngineIdx(m, got, 9), SolveEngineIdx(m, want, 9)
					if fmt.Sprint(gi) != fmt.Sprint(wi) {
						t.Fatalf("%s/%v: selected %v, want %v", label, m, gi, wi)
					}
				}
				sameSolution(t, label+"/clique",
					LocalSearchCliqueEngine(pts, got, 6, 0),
					LocalSearchCliqueEngine(pts, want, 6, 0))
			}
		}
	}
}

// TestRebuildEngineFallbacks: where there is no matrix to remap, or the
// new union does not get one, RebuildEngine is BuildEngine — a tiled
// prev, a prev of another dimension, no prev, a new union past
// MatrixBudget, and inputs the engine does not take.
func TestRebuildEngineFallbacks(t *testing.T) {
	forceShardMinima(t)
	rng := rand.New(rand.NewSource(61))
	pts := randomVectors(rng, 60, 8)
	check := func(label string, prev *Engine, pts []metric.Vector) {
		t.Helper()
		want := BuildEngine(pts, metric.Euclidean, 2)
		got := RebuildEngine(prev, pts, metric.Euclidean, 2)
		sameEngineCells(t, label, got, want)
		if want != nil {
			sameSolution(t, label+"/pairs",
				MaxDispersionPairsEngine(pts, got, 5),
				MaxDispersionPairsEngine(pts, want, 5))
		}
	}
	check("nil prev", nil, pts)
	check("other dimension", BuildEngine(randomVectors(rng, 40, 3), metric.Euclidean, 2), pts)
	check("one point", BuildEngine(pts[:40], metric.Euclidean, 2), pts[:1])

	prev := BuildEngine(pts[:40], metric.Euclidean, 2)
	forceMatrixBudget(t, 50*50*8) // a matrix up to 50 points
	if prev.Tiled() || !BuildEngine(pts, metric.Euclidean, 2).Tiled() {
		t.Fatal("the budget does not separate the 40-point prev from the 60-point union")
	}
	check("past the budget", prev, pts)
	check("within the budget", prev, pts[10:50])

	forceMatrixBudget(t, 8)
	tiled := BuildEngine(pts[:40], metric.Euclidean, 2)
	if !tiled.Tiled() {
		t.Fatal("prev is not tiled under an 8-byte budget")
	}
	forceMatrixBudget(t, 128<<20)
	check("tiled prev", tiled, pts)

	type alias struct{ x float64 }
	if RebuildEngine(prev, []alias{{1}, {2}}, nil, 1) != nil {
		t.Fatal("RebuildEngine built an engine over non-vector points")
	}
	if RebuildEngine(prev, pts, metric.Distance[metric.Vector](metric.Manhattan), 1) != nil {
		t.Fatal("RebuildEngine built an engine for a non-Euclidean distance")
	}
}

// FuzzRebuildEngine decodes a previous union and a new one drawn from
// one pool of rows, so they share values (duplicates, signed zeros and
// reorderings included), and asserts that the remapped engine equals
// BuildEngine over the new union cell for cell. prev answers
// remote-clique first, which publishes its farthest-partner index, so
// the rebuilt engines derive theirs from it, and an Append after the
// rebuild derives again: remote-clique must select on them as on
// BuildEngine's.
func FuzzRebuildEngine(f *testing.F) {
	f.Add(uint8(0), []byte{5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 65, 130, 194, 3, 4, 200, 7})
	f.Add(uint8(3), []byte{3, 0, 1, 0, 1, 0, 1, 0, 192, 193, 194, 192, 64, 65, 2})
	f.Add(uint8(4), []byte{9, 17, 33, 250, 8, 19, 77, 128, 255, 0, 1, 2, 3, 200, 201, 202, 203, 66, 67, 68})
	f.Add(uint8(0x25), []byte{12, 4, 8, 15, 16, 23, 42, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233})
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		if len(data) < 2 {
			return
		}
		dims := []int{1, 2, 3, 8, 16, 20}
		dim := dims[int(sel&7)%len(dims)]
		workers := 1 + int(sel>>3)%4
		// The pool's coordinates come from the bytes after the first:
		// byte 0 is +0, byte 1 is −0, others a signed value in quarter
		// units, offset by the row so that rows differ.
		size := 1 + int(data[0])%24
		body := data[1:]
		pool := make([]metric.Vector, size)
		for r := range pool {
			v := make(metric.Vector, dim)
			for c := range v {
				switch b := body[(r*dim+c)%len(body)]; b {
				case 0:
					v[c] = 0
				case 1:
					v[c] = math.Copysign(0, -1)
				default:
					v[c] = float64(int8(b))/4 + float64(r)/8
				}
			}
			pool[r] = v
		}
		// Each byte picks a pool row; its top two bits place it in the
		// previous union (0), the new one (1), or both (2, 3).
		var prevPts, pts []metric.Vector
		for _, b := range body {
			row := pool[int(b&63)%size]
			if b>>6 != 1 {
				prevPts = append(prevPts, row)
			}
			if b>>6 != 0 {
				pts = append(pts, row)
			}
		}
		prev := BuildEngine(prevPts, metric.Euclidean, workers)
		if prev != nil {
			SolveEngineIdx(diversity.RemoteClique, prev, 1)
		}
		want := BuildEngine(pts, metric.Euclidean, workers)
		label := fmt.Sprintf("d=%d w=%d prev=%d new=%d", dim, workers, len(prevPts), len(pts))
		rebuilt := RebuildEngine(prev, pts, metric.Euclidean, workers)
		sameEngineCells(t, label, rebuilt, want)
		// A spare buffer holding another matrix's cells must not leak any.
		spare := BuildEngine(append(prevPts, pts...), metric.Euclidean, workers)
		got := RebuildEngineReusing(prev, spare, pts, metric.Euclidean, workers)
		sameEngineCells(t, label+" spare", got, want)
		// The rebuilt matrix keeps the spare's stride, so the rows after it
		// go into the headroom, over the spare's stale cells.
		if got == nil {
			return
		}
		sameCliqueSelections(t, label, rebuilt, want)
		sameCliqueSelections(t, label+" spare", got, want)
		extra := make([]metric.Vector, 1+int(sel>>5))
		for i := range extra {
			extra[i] = pool[int(body[i%len(body)])%size]
		}
		if !got.Append(extra) {
			t.Fatalf("%s: Append after the spare rebuild failed", label)
		}
		wantAppended := BuildEngine(append(pts[:len(pts):len(pts)], extra...), metric.Euclidean, workers)
		sameEngineCells(t, label+" spare+append", got, wantAppended)
		sameCliqueSelections(t, label+" spare+append", got, wantAppended)
	})
}

// TestRebuildEngineReusesSpare: a spare engine's matrix buffer takes the
// rebuilt cells when its stride holds the new union and it is not
// prev's; otherwise a new buffer is allocated. A reused buffer keeps
// its stride, so an Append within the headroom a patch grew in it
// writes into the same buffer. The cells equal BuildEngine's either way.
func TestRebuildEngineReusesSpare(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	pts := randomVectors(rng, 80, 8)
	prev := BuildEngine(pts[:60], metric.Euclidean, 2)
	buf := func(e *Engine) *float64 { return &e.Matrix().SqRow(0)[0] }
	// A patched engine: 50 points grown by 10 to stride 62.
	grown := BuildEngine(pts[:50], metric.Euclidean, 1).Fork()
	if !grown.Append(pts[50:60]) {
		t.Fatal("Append to the spare failed")
	}
	for _, tc := range []struct {
		name  string
		spare *Engine
		union []metric.Vector
		reuse bool
	}{
		{"large enough", BuildEngine(pts, metric.Euclidean, 1), pts[5:65], true},
		{"exactly n²", BuildEngine(pts[20:80], metric.Euclidean, 1), pts[5:65], true},
		{"grown", grown, pts[5:65], true},
		{"too small", BuildEngine(pts[:50], metric.Euclidean, 1), pts[5:65], false},
		{"prev's own buffer", prev, pts[:50], false},
		{"no spare", nil, pts[5:65], false},
	} {
		want := BuildEngine(tc.union, metric.Euclidean, 1)
		got := RebuildEngineReusing(prev, tc.spare, tc.union, metric.Euclidean, 2)
		sameEngineCells(t, tc.name, got, want)
		reused := tc.spare != nil && buf(got) == buf(tc.spare)
		if reused != tc.reuse {
			t.Fatalf("%s: reused the spare buffer = %v, want %v", tc.name, reused, tc.reuse)
		}
		if !reused {
			if got.MatrixBytes() != want.MatrixBytes() {
				t.Fatalf("%s: a new buffer of %d bytes, want %d", tc.name, got.MatrixBytes(), want.MatrixBytes())
			}
			continue
		}
		if got.MatrixBytes() != tc.spare.MatrixBytes() {
			t.Fatalf("%s: the rebuilt matrix spans %d bytes of the spare's %d", tc.name, got.MatrixBytes(), tc.spare.MatrixBytes())
		}
		// Two more rows fit in place when the spare's stride is at least 62.
		if !got.Append(pts[65:67]) {
			t.Fatalf("%s: Append failed", tc.name)
		}
		inPlace := tc.spare.MatrixBytes() >= 62*62*8
		if kept := buf(got) == buf(tc.spare); kept != inPlace {
			t.Fatalf("%s: the Append kept the spare's buffer = %v, want %v", tc.name, kept, inPlace)
		}
		sameEngineCells(t, tc.name+"+append", got, BuildEngine(append(tc.union[:60:60], pts[65:67]...), metric.Euclidean, 1))
	}
}
