package merge

import (
	"container/list"
	"math"

	"divmax"
	"divmax/internal/sequential"
)

// memoKey keys a solved answer within one merged state; the state is
// immutable, so a (measure, k) solve is a pure function of it.
type memoKey struct {
	measure divmax.Measure
	k       int
}

// solved is a memoized answer, stored response-ready (non-nil solution,
// finite value). idx holds the engine indices the solution was selected
// at — positions into the owning state's union, nil when the solve took
// the generic path — which is what lets a later patched state replay
// the selection against its delta (warmStartValid).
type solved struct {
	sol   []divmax.Vector
	idx   []int
	val   float64
	exact bool
}

// memo is a state's bounded (measure, k) answer memo: a map over a
// recency list, evicting the least-recently-used entry beyond its
// capacity. The natural key space is 6 measures × MaxK sizes, so small
// servers never evict; the bound keeps a large MaxK from letting one
// retained state accumulate answers without limit. Callers synchronize
// access under the owning family's mutex.
type memo struct {
	cap     int
	entries map[memoKey]*list.Element
	order   *list.List // front = most recently used
}

type memoEntry struct {
	key memoKey
	val solved
}

func newMemo(cap int) *memo {
	if cap < 1 {
		cap = 1
	}
	return &memo{cap: cap, entries: make(map[memoKey]*list.Element), order: list.New()}
}

// get returns the answer for key, marking it most recently used.
func (m *memo) get(key memoKey) (solved, bool) {
	el, ok := m.entries[key]
	if !ok {
		return solved{}, false
	}
	m.order.MoveToFront(el)
	return el.Value.(*memoEntry).val, true
}

// put inserts or refreshes key's answer, evicting the least recently
// used entry when the memo is over capacity.
func (m *memo) put(key memoKey, val solved) {
	if el, ok := m.entries[key]; ok {
		el.Value.(*memoEntry).val = val
		m.order.MoveToFront(el)
		return
	}
	m.entries[key] = m.order.PushFront(&memoEntry{key: key, val: val})
	if m.order.Len() > m.cap {
		oldest := m.order.Back()
		m.order.Remove(oldest)
		delete(m.entries, oldest.Value.(*memoEntry).key)
	}
}

// len returns the number of memoized answers.
func (m *memo) len() int { return m.order.Len() }

// warmStartValid reports whether a stale (non-clique) answer — selected
// by the engine's farthest-first traversal over its first staleLen
// points at the indices idx — is exactly what a cold solve over all of
// e's points would select, by replaying the traversal's decisions
// against the delta points [staleLen, e.Len()).
//
// The traversal starts at index 0 and at each step picks the point
// maximizing the squared distance to the chosen set, scanning ascending
// with a strict '>' so ties keep the lowest index. The patch appended
// the delta after the stale prefix, so the prefix indices and the
// stale answer's candidate order are unchanged; the cold solve diverges
// if and only if, at some step t, a delta point's distance to the
// already-chosen set strictly exceeds v_t, the squared distance at which
// the stale answer picked idx[t] (a delta point that merely ties loses
// to the lower prefix index). The replay therefore walks the stale picks
// in order, keeping each delta point's min squared distance to the
// chosen set, and rejects on the first step a delta point would have
// won. It reads every distance through e.SqAt, the values the cold solve
// compares: at and above metric.BlockedMinDim those are the blocked
// tier's, which metric.SquaredEuclidean on the rows can miss by a few
// ulps — enough to flip a near tie.
//
// It rejects conservatively, never falsely accepting: answers without
// engine indices (generic-path solves), answers whose length is not k
// (the stale union was smaller than k, and a bigger one picks more), and
// any out-of-range index.
func warmStartValid(e *sequential.Engine, staleLen int, idx []int, k int) bool {
	n, l := e.Len(), staleLen
	if l < 1 || l > n || len(idx) != k || k < 1 || idx[0] != 0 {
		return false
	}
	for _, i := range idx {
		if i < 0 || i >= l {
			return false
		}
	}
	if l == n {
		return true // no delta points: same union, the answer carries as is
	}
	// dmin[j] tracks delta point l+j's min squared distance to the chosen
	// set.
	dmin := make([]float64, n-l)
	for j := range dmin {
		dmin[j] = e.SqAt(l+j, idx[0])
	}
	for t := 1; t < k; t++ {
		p := idx[t]
		// v is the squared distance at which the stale traversal picked
		// idx[t]: its min squared distance to the t points chosen so far.
		v := math.Inf(1)
		for _, u := range idx[:t] {
			if d := e.SqAt(p, u); d < v {
				v = d
			}
		}
		for j := range dmin {
			if dmin[j] > v {
				return false // this delta point would have been picked instead
			}
			if d := e.SqAt(l+j, p); d < dmin[j] {
				dmin[j] = d
			}
		}
	}
	return true
}
