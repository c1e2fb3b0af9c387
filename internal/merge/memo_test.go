package merge

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"divmax"
	"divmax/internal/metric"
	"divmax/internal/sequential"
)

func memoVal(i int) solved {
	return solved{sol: []divmax.Vector{{float64(i)}}, val: float64(i), exact: true}
}

// TestSolutionMemoLRU pins the memo's bound and its eviction order:
// capacity is enforced, the least-recently-used entry goes first, and
// both get and put refresh recency.
func TestSolutionMemoLRU(t *testing.T) {
	m := newMemo(3)
	keys := make([]memoKey, 5)
	for i := range keys {
		keys[i] = memoKey{measure: divmax.RemoteEdge, k: i + 1}
	}
	for i := 0; i < 3; i++ {
		m.put(keys[i], memoVal(i))
	}
	if m.len() != 3 {
		t.Fatalf("memo holds %d entries, want 3", m.len())
	}
	// Touch key 0 so key 1 becomes the LRU, then overflow.
	if v, ok := m.get(keys[0]); !ok || v.val != 0 {
		t.Fatalf("get(keys[0]) = (%v, %v)", v, ok)
	}
	m.put(keys[3], memoVal(3))
	if m.len() != 3 {
		t.Fatalf("memo holds %d entries after eviction, want 3", m.len())
	}
	if _, ok := m.get(keys[1]); ok {
		t.Fatal("LRU entry (keys[1]) survived the eviction")
	}
	for _, want := range []int{0, 2, 3} {
		if v, ok := m.get(keys[want]); !ok || v.val != float64(want) {
			t.Fatalf("keys[%d] = (%v, %v), want retained", want, v, ok)
		}
	}
	// put on an existing key must refresh, not grow or evict.
	m.put(keys[2], memoVal(12))
	if v, _ := m.get(keys[2]); v.val != 12 || m.len() != 3 {
		t.Fatalf("refreshed keys[2] = %v (len %d)", v.val, m.len())
	}
	// Recency after the refresh loop above: keys[0] is now LRU (last
	// touched before 2 and 3 — get order was 0, 2, 3, then put 2).
	m.put(keys[4], memoVal(4))
	if _, ok := m.get(keys[0]); ok {
		t.Fatal("expected keys[0] to be evicted as LRU")
	}

	// A degenerate capacity still behaves (clamped to 1).
	one := newMemo(0)
	one.put(keys[0], memoVal(0))
	one.put(keys[1], memoVal(1))
	if one.len() != 1 {
		t.Fatalf("cap-1 memo holds %d entries", one.len())
	}
	if _, ok := one.get(keys[1]); !ok {
		t.Fatal("cap-1 memo lost the newest entry")
	}
}

// Unit coverage for the delta-aware memo reuse: warmStartValid must
// accept a stale farthest-first answer exactly when the cold solve over
// the patched union would reproduce it, and reject everything else.

// engineOf builds the solve engine a merged state over pts holds.
func engineOf(t *testing.T, pts []divmax.Vector) *sequential.Engine {
	t.Helper()
	e := sequential.BuildEngine(pts, divmax.Euclidean, 1)
	if e == nil {
		t.Fatalf("no engine over %d points", len(pts))
	}
	return e
}

// solveIdx runs the engine's farthest-first traversal over pts.
func solveIdx(t *testing.T, pts []divmax.Vector, k int) []int {
	t.Helper()
	return sequential.SolveEngineIdx(divmax.RemoteEdge, engineOf(t, pts), k)
}

// patchedUnion lays a union out as the patch path does: prefix solved
// stale, delta appended after it.
func patchedUnion(prefix, delta []divmax.Vector) []divmax.Vector {
	return append(prefix[:len(prefix):len(prefix)], delta...)
}

func TestWarmStartValidAcceptsOnlyColdIdenticalAnswers(t *testing.T) {
	prefix := []divmax.Vector{{0, 0}, {100, 0}, {50, 10}, {0, 90}, {70, 60}}
	const k = 3
	idx := solveIdx(t, prefix, k)

	// A middling delta point: near the centroid, never the farthest —
	// the replay must accept, and the cold solve over the patched union
	// must agree with the stale answer (the property the verification
	// certifies).
	weak := patchedUnion(prefix, []divmax.Vector{{40, 20}})
	if !warmStartValid(engineOf(t, weak), len(prefix), idx, k) {
		t.Fatal("warmStartValid rejected a delta that cannot change the selection")
	}
	if cold := solveIdx(t, weak, k); !reflect.DeepEqual(cold, idx) {
		t.Fatalf("accepted answer %v differs from the cold solve %v", idx, cold)
	}

	// A dominating delta point: farther from everything than any stale
	// pick — the cold solve picks it, so the replay must reject.
	strong := patchedUnion(prefix, []divmax.Vector{{300, 300}})
	if warmStartValid(engineOf(t, strong), len(prefix), idx, k) {
		t.Fatal("warmStartValid accepted a delta point the cold solve would pick")
	}
	if cold := solveIdx(t, strong, k); reflect.DeepEqual(cold, idx) {
		t.Fatal("test is vacuous: the dominating point did not change the cold solve")
	}

	// Mid-strength: beats the weakest stale pick but not the first — the
	// selection changes at a later step, which the replay must catch.
	// v_2 here is the squared distance of the third pick; a delta point
	// just beyond it flips only step 2.
	mid := patchedUnion(prefix, []divmax.Vector{{0, 100}})
	if valid := warmStartValid(engineOf(t, mid), len(prefix), idx, k); valid != reflect.DeepEqual(solveIdx(t, mid, k), idx) {
		t.Fatalf("warmStartValid = %v disagrees with the cold solve comparison", valid)
	}

	// An empty delta (staleLen == len(union)) is the same union: always
	// valid.
	if !warmStartValid(engineOf(t, prefix), len(prefix), idx, k) {
		t.Fatal("warmStartValid rejected the identity patch")
	}

	// At d ≥ metric.BlockedMinDim the engine solves on blocked-tier
	// values, which can order a near tie unlike metric.SquaredEuclidean's
	// four-lane form. Prefix {c, c+e₁} with c's coordinates in
	// [1000, 1001), delta q = c + u with ‖u‖² just under 1: where the
	// four-lane form puts q nearer to c than c+e₁ but the blocked tier
	// does not, the cold solve picks q, and the replay must reject.
	const dim = 16
	rng := rand.New(rand.NewSource(16))
	flips := 0
	for trial := 0; trial < 500; trial++ {
		c, c1, q := make(divmax.Vector, dim), make(divmax.Vector, dim), make(divmax.Vector, dim)
		var norm float64
		for i := range c {
			c[i] = 1000 + rng.Float64()
			q[i] = rng.NormFloat64()
			norm += q[i] * q[i]
		}
		copy(c1, c)
		c1[0]++
		scale := math.Sqrt((1 - 4e-9*rng.Float64()) / norm)
		for i := range q {
			q[i] = c[i] + scale*q[i]
		}
		prefix := []divmax.Vector{c, c1}
		union := patchedUnion(prefix, []divmax.Vector{q})
		stale := solveIdx(t, prefix, 2)
		cold := reflect.DeepEqual(solveIdx(t, union, 2), stale)
		if valid := warmStartValid(engineOf(t, union), len(prefix), stale, 2); valid != cold {
			t.Fatalf("d=%d trial %d: warmStartValid = %v, cold solve keeps the stale answer: %v", dim, trial, valid, cold)
		}
		if !cold && metric.SquaredEuclidean(q, c) < metric.SquaredEuclidean(c1, c) {
			flips++
		}
	}
	if flips == 0 {
		t.Fatalf("d=%d: no near tie that the four-lane form orders unlike the engine; the case is vacuous", dim)
	}
}

func TestWarmStartValidRejectsMalformedAnswers(t *testing.T) {
	prefix := []divmax.Vector{{0, 0}, {100, 0}, {0, 90}}
	union := patchedUnion(prefix, []divmax.Vector{{10, 10}})
	idx := solveIdx(t, prefix, 2)

	cases := []struct {
		name string
		idx  []int
		k    int
	}{
		{"nil indices (generic-path answer)", nil, 2},
		{"length mismatch", idx, 3},
		{"not starting at 0", []int{1, 0}, 2},
		{"index beyond the stale prefix", []int{0, 3}, 2},
		{"negative index", []int{0, -1}, 2},
	}
	for _, tc := range cases {
		if warmStartValid(engineOf(t, union), len(prefix), tc.idx, tc.k) {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if warmStartValid(engineOf(t, prefix), len(prefix)+1, idx, 2) {
		t.Error("staleLen beyond the union: accepted")
	}
}
