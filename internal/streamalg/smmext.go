package streamalg

import (
	"divmax/internal/coreset"
	"divmax/internal/metric"
)

// SMMExt is the SMM variant for the four injective-proxy problems
// (remote-clique, -star, -bipartition, -tree): alongside the center set T
// it maintains, for each center t, a delegate set E_t of at most k points
// close to t (including t itself). On a merge, a removed center hands its
// delegates over to the surviving center that covers it, up to the cap k;
// on an update, a point within 4·d_i of its nearest center t joins E_t if
// there is room. The output is T′ = ∪_t E_t (Theorem 2), of size ≤ k·|T|.
type SMMExt[P any] struct {
	core[P]
	// appendLog records both new centers and accepted delegates —
	// everything that joins T′ between restructurings.
	appendLog[P]

	delegates [][]P // delegates[i] belongs to centers[i]; contains the center
	merged    []P   // delegate sets dropped by merges, flattened, current phase
}

// NewSMMExt returns a streaming core-set processor for the
// injective-proxy problems. Lemma 4: k′ = (64/ε′)^D·k yields a
// (1+ε)-core-set of O(k′·k) points in doubling dimension D. The append
// log's default cap is (k′+1)·(k+1).
func NewSMMExt[P any](k, kprime int, d metric.Distance[P]) *SMMExt[P] {
	s := &SMMExt[P]{appendLog: newAppendLog[P]((kprime + 1) * (k + 1))}
	s.core = newCore[P]("NewSMMExt", k, kprime, d, s)
	return s
}

// newPhase restarts the dropped delegates and the append log: a phase
// restructures the core-set.
func (s *SMMExt[P]) newPhase() {
	s.bumpGen()
	s.merged = s.merged[:0]
}

// add gives a new center its singleton delegate set and logs it.
func (s *SMMExt[P]) add(p P) {
	s.delegates = append(s.delegates, []P{p})
	s.logAppend(p)
}

func (s *SMMExt[P]) room(i int) bool { return len(s.delegates[i]) < s.k }

// absorb adds p to E_i, and to the append log, when E_i has room.
func (s *SMMExt[P]) absorb(i int, p P, _ float64) bool {
	if !s.room(i) {
		return false
	}
	s.delegates[i] = append(s.delegates[i], p)
	s.logAppend(p)
	return !s.room(i)
}

// mergeAway lets the surviving center t2 that covers removed center t1
// inherit min(|E_t1|, k−|E_t2|) of its delegates (the paper prints
// "max", which cannot exceed |E_t1| nor keep |E_t2| ≤ k; min is the
// reading consistent with the proof of Lemma 4). Delegates that cannot
// be inherited are retained for the phase so Result can top the output
// up to k points.
func (s *SMMExt[P]) mergeAway(i int) {
	j := s.survivor(i)
	if j < 0 {
		return
	}
	take := min(len(s.delegates[i]), s.k-len(s.delegates[j]))
	s.delegates[j] = append(s.delegates[j], s.delegates[i][:take]...)
	s.merged = append(s.merged, s.delegates[i][take:]...)
}

func (s *SMMExt[P]) retain(keep []int) { s.delegates = compact(s.delegates, keep) }

// Result returns T′ = ∪_t E_t, topped up from the phase's dropped
// delegates when fewer than k points survive.
func (s *SMMExt[P]) Result() []P {
	var out []P
	for _, set := range s.delegates {
		out = append(out, set...)
	}
	for i := 0; len(out) < s.k && i < len(s.merged); i++ {
		out = append(out, s.merged[i])
	}
	return out
}

// Centers returns the current kernel T (not the delegates).
func (s *SMMExt[P]) Centers() []P {
	out := make([]P, len(s.centers))
	copy(out, s.centers)
	return out
}

// StoredPoints returns the number of points currently in memory:
// all delegate sets plus retained merge drops, O(k′·k).
func (s *SMMExt[P]) StoredPoints() int {
	total := len(s.merged)
	for _, set := range s.delegates {
		total += len(set)
	}
	return total
}

// SMMGen is the count-based variant used by the 2-pass streaming
// algorithm (Theorem 9): it runs exactly like SMMExt but stores only the
// number of delegates each center stands for, producing a generalized
// core-set of size |T| with expanded size ≤ k·|T| and memory O(k′). It
// keeps no append log.
type SMMGen[P any] struct {
	core[P]
	counts []int // counts[i] belongs to centers[i]
}

// NewSMMGen returns the generalized-core-set streaming processor.
func NewSMMGen[P any](k, kprime int, d metric.Distance[P]) *SMMGen[P] {
	s := &SMMGen[P]{}
	s.core = newCore[P]("NewSMMGen", k, kprime, d, s)
	return s
}

func (s *SMMGen[P]) newPhase() {}

// add gives a new center the count 1.
func (s *SMMGen[P]) add(P) { s.counts = append(s.counts, 1) }

func (s *SMMGen[P]) room(i int) bool { return s.counts[i] < s.k }

// absorb counts p toward center i while its count is below k.
func (s *SMMGen[P]) absorb(i int, _ P, _ float64) bool {
	if !s.room(i) {
		return false
	}
	s.counts[i]++
	return !s.room(i)
}

// mergeAway adds a removed center's count to the surviving center that
// covers it, up to k (see SMMExt.mergeAway).
func (s *SMMGen[P]) mergeAway(i int) {
	if j := s.survivor(i); j >= 0 {
		s.counts[j] += min(s.counts[i], s.k-s.counts[j])
	}
}

func (s *SMMGen[P]) retain(keep []int) { s.counts = compact(s.counts, keep) }

// Result returns the generalized core-set (center, count) pairs.
func (s *SMMGen[P]) Result() coreset.Generalized[P] {
	out := make(coreset.Generalized[P], len(s.centers))
	for i, c := range s.centers {
		out[i] = coreset.Weighted[P]{Point: c, Mult: s.counts[i]}
	}
	return out
}

// StoredPoints returns the number of points in memory, O(k′).
func (s *SMMGen[P]) StoredPoints() int { return len(s.centers) }
