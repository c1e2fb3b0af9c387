package server

import (
	"fmt"
	"testing"

	"divmax"
)

// TestQueryMemoEvictionStillServes drives a live server with a memo of
// capacity 1: every (measure, k) answer evicts the previous one, and
// repeated queries must still be correct (re-solved from the cached
// merged state, which the memo bound does not touch).
func TestQueryMemoEvictionStillServes(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 4, KPrime: 8, SolutionMemo: 1})
	postIngest(t, ts.URL, []divmax.Vector{{0, 0}, {10, 0}, {0, 10}, {10, 10}, {5, 5}})
	want := make(map[int]queryResponse)
	for _, k := range []int{2, 3, 4} {
		want[k] = getQuery(t, ts.URL, k, divmax.RemoteClique)
	}
	// Cycle back over the ks: the memo (cap 1) has evicted all but the
	// last, yet answers must be identical — solved again from the same
	// cached merged state.
	for _, k := range []int{2, 3, 4, 2} {
		got := getQuery(t, ts.URL, k, divmax.RemoteClique)
		if !got.Cached {
			t.Fatalf("k=%d: query missed the snapshot cache", k)
		}
		if fmt.Sprint(got.Solution) != fmt.Sprint(want[k].Solution) {
			t.Fatalf("k=%d: solution changed across memo eviction: %v vs %v", k, got.Solution, want[k].Solution)
		}
	}
}
