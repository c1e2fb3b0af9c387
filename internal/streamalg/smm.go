// Package streamalg implements the paper's one-pass streaming core-set
// constructions (Section 4): SMM (a variant of the Charikar et al.
// doubling algorithm for k-center, a (1+ε)-core-set for remote-edge and
// remote-cycle, Theorem 1), SMM-EXT (per-center delegate sets, a
// (1+ε)-core-set for remote-clique, -star, -bipartition, and -tree,
// Theorem 2), SMM-GEN (per-center counts, the generalized core-set of the
// 2-pass algorithm, Theorem 9), and the end-to-end streaming drivers.
//
// The three processors run one doubling algorithm (core.go) and differ
// only in what each center carries: spares, a delegate set, or a count.
// All consume points one at a time via Process and use memory
// independent of the stream length: O(k′) points for SMM and SMM-GEN,
// O(k′·k) for SMM-EXT.
package streamalg

import "divmax/internal/metric"

// SMM is the streaming core-set processor for remote-edge and
// remote-cycle: the doubling algorithm (see core), whose center set T is
// the core-set. Its centers carry nothing unless spare retention is on.
type SMM[P any] struct {
	core[P]
	appendLog[P]

	merged []P // M: points removed by merge steps of the current phase

	// Spare retention for deletions (delete.go): when spareCap > 0,
	// spares[i] holds up to spareCap points absorbed by centers[i],
	// parallel to centers — promotion candidates for when that center is
	// deleted. Spares never appear in Result and are best-effort: a
	// merge drops the spares of removed centers. spareCap = 0 (the
	// NewSMM default) retains nothing and keeps the paper-exact
	// 2(k′+1)-point memory bound.
	spareCap int
	spares   [][]P
}

// NewSMM returns a streaming core-set processor for the remote-edge and
// remote-cycle problems. k is the solution size the core-set must
// support, k′ ≥ k controls the core-set size and accuracy (Lemma 3:
// k′ = (32/ε′)^D·k yields a (1+ε)-core-set in doubling dimension D).
// The append log's default cap is k′+2.
func NewSMM[P any](k, kprime int, d metric.Distance[P]) *SMM[P] {
	s := &SMM[P]{appendLog: newAppendLog[P](kprime + 2)}
	s.core = newCore[P]("NewSMM", k, kprime, d, s)
	return s
}

// SetSpareCap sets the per-center spare retention for deletions: each
// center keeps up to cap absorbed points as promotion candidates for
// its own removal (see Delete). cap ≤ 0 disables retention and drops
// any spares already held. Raising the cap mid-stream is allowed; only
// points absorbed afterwards are retained.
func (s *SMM[P]) SetSpareCap(cap int) {
	if cap <= 0 {
		s.spareCap, s.spares = 0, nil
	} else {
		s.spareCap = cap
		if s.spares == nil {
			s.spares = make([][]P, len(s.centers))
		}
	}
	s.countOpen()
}

// SpareCap returns the per-center spare retention.
func (s *SMM[P]) SpareCap() int { return s.spareCap }

// newPhase restarts M and the append log: a phase restructures the
// core-set.
func (s *SMM[P]) newPhase() {
	s.bumpGen()
	s.merged = s.merged[:0]
}

// add gives a new center an empty spare list when retention is on and
// logs it.
func (s *SMM[P]) add(p P) {
	if s.spareCap > 0 {
		s.spares = append(s.spares, nil)
	}
	s.logAppend(p)
}

func (s *SMM[P]) room(i int) bool { return s.spareCap > 0 && len(s.spares[i]) < s.spareCap }

// absorb keeps p as a spare of center i when retention is on and the
// list has room. Duplicates of a center (distance 0) are skipped —
// promoting one after that center's deletion would resurface the
// deleted value.
func (s *SMM[P]) absorb(i int, p P, dist float64) bool {
	if dist > 0 && s.room(i) {
		s.spares[i] = append(s.spares[i], p)
		return len(s.spares[i]) == s.spareCap
	}
	return false
}

// mergeAway moves a removed center into M and drops its spares.
func (s *SMM[P]) mergeAway(i int) { s.merged = append(s.merged, s.centers[i]) }

func (s *SMM[P]) retain(keep []int) {
	if s.spareCap > 0 {
		s.spares = compact(s.spares, keep)
	}
}

// Result returns the core-set after the stream ends. If fewer than k
// centers survived the final merges, arbitrary points removed during the
// current phase top the set back up to k (the paper's fix; M ∪ T always
// holds at least min(k, distinct points) elements). The processor remains
// usable: more points may be processed and Result called again.
func (s *SMM[P]) Result() []P {
	out := make([]P, len(s.centers))
	copy(out, s.centers)
	for i := 0; len(out) < s.k && i < len(s.merged); i++ {
		out = append(out, s.merged[i])
	}
	return out
}

// StoredPoints returns the number of points currently held in memory
// (centers, the retained merge removals, and any deletion spares); it
// never exceeds 2(k′+1) with spare retention off, (2+SpareCap)(k′+1)
// with it on.
func (s *SMM[P]) StoredPoints() int {
	total := len(s.centers) + len(s.merged)
	for _, sp := range s.spares {
		total += len(sp)
	}
	return total
}
