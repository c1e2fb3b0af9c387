package merge

import (
	"reflect"
	"testing"

	"divmax"
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

// solveIdx runs the engine's farthest-first traversal over pts.
func solveIdx(t *testing.T, pts []divmax.Vector, k int) []int {
	t.Helper()
	e := sequential.BuildEngine(pts, divmax.Euclidean, 1)
	if e == nil {
		t.Fatalf("no engine over %d points", len(pts))
	}
	return sequential.SolveEngineIdx(divmax.RemoteEdge, e, k)
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
	if !warmStartValid(weak, len(prefix), idx, k) {
		t.Fatal("warmStartValid rejected a delta that cannot change the selection")
	}
	if cold := solveIdx(t, weak, k); !reflect.DeepEqual(cold, idx) {
		t.Fatalf("accepted answer %v differs from the cold solve %v", idx, cold)
	}

	// A dominating delta point: farther from everything than any stale
	// pick — the cold solve picks it, so the replay must reject.
	strong := patchedUnion(prefix, []divmax.Vector{{300, 300}})
	if warmStartValid(strong, len(prefix), idx, k) {
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
	if valid := warmStartValid(mid, len(prefix), idx, k); valid != reflect.DeepEqual(solveIdx(t, mid, k), idx) {
		t.Fatalf("warmStartValid = %v disagrees with the cold solve comparison", valid)
	}

	// An empty delta (staleLen == len(union)) is the same union: always
	// valid.
	if !warmStartValid(prefix, len(prefix), idx, k) {
		t.Fatal("warmStartValid rejected the identity patch")
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
		if warmStartValid(union, len(prefix), tc.idx, tc.k) {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if warmStartValid(prefix, len(prefix)+1, idx, 2) {
		t.Error("staleLen beyond the union: accepted")
	}
}
