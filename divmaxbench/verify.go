package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"divmax"
	"divmax/internal/api"
)

// mergeHow is how a query's merged state was obtained, as the answer's
// cached/patched flags report it.
type mergeHow uint8

const (
	howHit mergeHow = iota
	howPatched
	howRebuilt
)

var howNames = [...]string{"cached", "patched", "rebuilt"}

func (h mergeHow) String() string { return howNames[h] }

// digest is what the benchmark keeps of a served answer: enough for the
// replay to show it reproduced the answer and the cache decision.
type digest struct {
	value float64
	sol   uint64 // hash of the solution's points, in order
	how   mergeHow
}

func solutionHash(sol []divmax.Vector) uint64 {
	h := uint64(len(sol))
	for _, p := range sol {
		h = mix(h ^ valueHash(p))
	}
	return h
}

// finite reports a diversity value the way divmaxd puts it on the wire:
// min-based measures are +Inf on fewer than two points, which JSON
// cannot carry, so they read 0.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

// checked is what the benchmark keeps of an answer that passed its
// checks.
type checked struct {
	digest
	union int             // size of the core-set it was solved on
	sol   []uint64        // value hashes of its points
	pts   []divmax.Vector // its points
}

// checkAnswer is the correctness gate for one served answer to the
// query (m, k). The answer must not be degraded; it must hold k points
// whenever the merged core-set holds at least k; its value must equal
// divmax.Evaluate over its own points; and every point must be live in
// the benchmark's record of ingested-minus-deleted values.
func checkAnswer(body []byte, m divmax.Measure, k int, live multiset) (checked, error) {
	var r api.QueryResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return checked{}, fmt.Errorf("decoding the answer: %w", err)
	}
	switch {
	case r.Degraded:
		return checked{}, errors.New("degraded answer")
	case r.Measure != m.String() || r.K != k:
		return checked{}, fmt.Errorf("answer is for %s k=%d", r.Measure, r.K)
	case r.CoresetSize >= k && len(r.Solution) != k:
		return checked{}, fmt.Errorf("%d points from a core-set of %d", len(r.Solution), r.CoresetSize)
	}
	val, _ := divmax.Evaluate(m, r.Solution, divmax.Euclidean)
	if val = finite(val); val != r.Value {
		return checked{}, fmt.Errorf("value %v, but its points evaluate to %v", r.Value, val)
	}
	sol := make([]uint64, len(r.Solution))
	for i, p := range r.Solution {
		if sol[i] = valueHash(p); live[sol[i]] == 0 {
			return checked{}, fmt.Errorf("point %d of the answer was never ingested or was deleted", i)
		}
	}
	how := howRebuilt
	switch {
	case r.Cached:
		how = howHit
	case r.Patched:
		how = howPatched
	}
	return checked{digest: digest{value: r.Value, sol: solutionHash(r.Solution), how: how}, union: r.CoresetSize, sol: sol, pts: r.Solution}, nil
}
