// Package streamalg implements the paper's one-pass streaming core-set
// constructions (Section 4): SMM (a variant of the Charikar et al.
// doubling algorithm for k-center, a (1+ε)-core-set for remote-edge and
// remote-cycle, Theorem 1), SMM-EXT (per-center delegate sets, a
// (1+ε)-core-set for remote-clique, -star, -bipartition, and -tree,
// Theorem 2), SMM-GEN (per-center counts, the generalized core-set of the
// 2-pass algorithm, Theorem 9), and the end-to-end streaming drivers.
//
// All processors consume points one at a time via Process and use memory
// independent of the stream length: O(k′) points for SMM and SMM-GEN,
// O(k′·k) for SMM-EXT.
package streamalg

import (
	"fmt"
	"math"

	"divmax/internal/metric"
)

// SMM is the streaming doubling algorithm. Each phase i holds a threshold
// d_i and maintains the invariants (Section 4): every processed point is
// within 2·d_i of the center set T at the start of the phase, and centers
// are pairwise at distance ≥ d_i. A merge step (maximal independent set at
// threshold 2·d_i) shrinks T; the update step accepts a new point only at
// distance > 4·d_i from T and ends the phase when T reaches k′+1 points.
//
// Points of the initial prefix at distance zero from an existing center
// are folded into it, so streams with duplicates keep the thresholds
// positive (d_1 is the minimum distance among *distinct* prefix points).
type SMM[P any] struct {
	k, kprime int
	d         metric.Distance[P]
	scan      centerScanner[P] // flat Euclidean mirror of centers; nil on the generic path

	initialized bool
	threshold   float64 // d_i of the running phase; 0 until initialized
	phases      int
	processed   int64

	centers []P // T, capacity k'+1
	merged  []P // M: points removed by merge steps of the current phase

	// Spare retention for deletions (delete.go): when spareCap > 0,
	// spares[i] holds up to spareCap points absorbed by centers[i],
	// parallel to centers — promotion candidates for when that center is
	// deleted. Spares never appear in Result and are best-effort: a
	// merge drops the spares of removed centers. spareCap = 0 (the
	// NewSMM default) retains nothing and keeps the paper-exact
	// 2(k′+1)-point memory bound.
	spareCap int
	spares   [][]P
	// open counts the centers whose spare list is below spareCap — 0
	// whenever retention is off. While it is 0 an absorbed point changes
	// nothing but processed, which lets the fast path stop its scan at
	// the first covering center (Process). It is derived state: kept in
	// step by addCenter and the absorb step, recounted after every merge,
	// Delete, Restore and SetSpareCap, and never checkpointed.
	open int

	// Incremental-snapshot bookkeeping (Generation/AppendedSince): gen
	// counts restructurings — merge phases, where centers move or drop —
	// and appended logs every point accepted since the last one, so
	// between restructurings the core-set only ever grows by the logged
	// points. The log holds point headers already retained in centers
	// and is cleared on every restructure, so it adds no asymptotic
	// memory. logCap bounds the log within a phase: an append that
	// reaches it forces a generation bump (compaction — see
	// SetAppendLogCap); the default sits one past the transient maximum
	// (k′+2), so it never fires before the phase bump that clears the
	// log anyway.
	gen      uint64
	appended []P
	logCap   int
}

// NewSMM returns a streaming core-set processor for the remote-edge and
// remote-cycle problems. k is the solution size the core-set must
// support, k′ ≥ k controls the core-set size and accuracy (Lemma 3:
// k′ = (32/ε′)^D·k yields a (1+ε)-core-set in doubling dimension D).
func NewSMM[P any](k, kprime int, d metric.Distance[P]) *SMM[P] {
	if k < 1 || kprime < k {
		panic(fmt.Sprintf("streamalg: NewSMM requires 1 <= k <= k', got k=%d k'=%d", k, kprime))
	}
	return &SMM[P]{k: k, kprime: kprime, d: d, scan: newCenterScanner(d), logCap: kprime + 2}
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

// countOpen recounts the centers whose spare list is below the cap.
func (s *SMM[P]) countOpen() {
	s.open = 0
	for _, sp := range s.spares {
		if len(sp) < s.spareCap {
			s.open++
		}
	}
}

// SpareCap returns the per-center spare retention.
func (s *SMM[P]) SpareCap() int { return s.spareCap }

// SetAppendLogCap caps the per-generation append log at n ≥ 1 points:
// an append that reaches the cap forces a generation bump, compacting
// the log so its growth is bounded within a phase no matter how long
// the phase runs. Forcing a bump is always observationally safe — a
// later SnapshotSince simply answers with a full snapshot instead of a
// delta — it only costs downstream caches a rebuild. n < 1 restores
// the default (k′+2, one past the transient maximum, so the cap never
// fires before the phase bump that clears the log anyway).
func (s *SMM[P]) SetAppendLogCap(n int) {
	if n < 1 {
		n = s.kprime + 2
	}
	s.logCap = n
	if len(s.appended) >= s.logCap {
		s.bumpGen()
	}
}

// AppendLogCap returns the per-generation append-log cap.
func (s *SMM[P]) AppendLogCap() int { return s.logCap }

// bumpGen advances the generation and restarts the append log — every
// restructure (merge phase, eviction, log compaction) runs through it.
func (s *SMM[P]) bumpGen() {
	s.gen++
	s.appended = s.appended[:0]
}

// minDist is the nearest-center scan: the flat squared-distance kernel
// when the space is Euclidean over dense vectors, the generic loop
// otherwise. Both return identical (distance, index) pairs.
func (s *SMM[P]) minDist(p P) (float64, int) {
	if s.scan != nil {
		return s.scan.MinDist(p)
	}
	return metric.MinDistance(p, s.centers, s.d)
}

// addCenter appends p to T and keeps the fast-path mirror and the
// append log in sync.
func (s *SMM[P]) addCenter(p P) {
	s.centers = append(s.centers, p)
	if s.spareCap > 0 {
		s.spares = append(s.spares, nil)
		s.open++
	}
	s.appended = append(s.appended, p)
	if len(s.appended) >= s.logCap {
		s.bumpGen() // log compaction at the cap; see SetAppendLogCap
	}
	if s.scan != nil {
		s.scan.Append(p)
	}
}

// Process consumes the next stream point.
func (s *SMM[P]) Process(p P) {
	s.processed++
	if !s.initialized {
		// Initialization: collect the first k'+1 distinct points.
		if dist, _ := s.minDist(p); dist == 0 && len(s.centers) > 0 {
			return
		}
		s.addCenter(p)
		if len(s.centers) == s.kprime+1 {
			s.threshold = metric.Farness(s.centers, s.d)
			s.initialized = true
			s.startPhase()
		}
		return
	}
	if s.open == 0 && s.scan != nil {
		// The covering exit: no center can keep p as a spare, so only
		// whether some center covers p matters, not which one is nearest.
		if !s.scan.Covers(p, 4*s.threshold) {
			s.accept(p)
		}
		return
	}
	dist, nearest := s.minDist(p)
	if dist > 4*s.threshold {
		s.accept(p)
		return
	}
	// Absorbed: retain as a spare for the covering center when spare
	// retention is on. Duplicates of a center (distance 0) are skipped —
	// promoting one after that center's deletion would resurface the
	// deleted value. No center is nearest (index -1) when every distance
	// overflowed to +Inf under a threshold that did too; p is then
	// covered but kept by none.
	if s.spareCap > 0 && dist > 0 && nearest >= 0 && len(s.spares[nearest]) < s.spareCap {
		s.spares[nearest] = append(s.spares[nearest], p)
		if len(s.spares[nearest]) == s.spareCap {
			s.open--
		}
	}
}

// accept adds p, which no center covers, to T, and starts a new phase
// when T reaches k′+1 points.
func (s *SMM[P]) accept(p P) {
	s.addCenter(p)
	if len(s.centers) == s.kprime+1 {
		s.threshold *= 2
		s.startPhase()
	}
}

// ProcessBatch consumes a slice of stream points, equivalent to calling
// Process on each in order. Batch ingestion keeps the center set hot in
// cache across the whole slice and is the natural feed for callers that
// already receive points in chunks (the divmaxd shards). On the
// Euclidean fast path most points of a long stream take the covering
// exit (Process): the scan stops at the first center within 4·d_i.
func (s *SMM[P]) ProcessBatch(batch []P) {
	for _, p := range batch {
		s.Process(p)
	}
}

// startPhase begins a new phase: it resets M and runs merge steps,
// doubling the threshold as long as the merge fails to bring T back to
// at most k′ points (a merge that removes nothing is a phase whose update
// step accepts no points). A phase restructures the core-set, so it
// bumps the generation and restarts the append log.
func (s *SMM[P]) startPhase() {
	s.bumpGen()
	s.merged = s.merged[:0]
	for {
		s.phases++
		s.merge()
		if len(s.centers) <= s.kprime {
			return
		}
		s.threshold *= 2
	}
}

// merge replaces T with a maximal independent set of the graph connecting
// centers at distance ≤ 2·d_i, scanning in insertion order (deterministic)
// and retaining the removed points in M for the duration of the phase.
func (s *SMM[P]) merge() {
	kept := s.centers[:0:len(s.centers)]
	var keptSpares [][]P
	if s.spareCap > 0 {
		keptSpares = s.spares[:0:len(s.spares)]
	}
	var removed []P
	for ci, c := range s.centers {
		independent := true
		for _, u := range kept {
			if s.d(u, c) <= 2*s.threshold {
				independent = false
				break
			}
		}
		if independent {
			kept = append(kept, c)
			if s.spareCap > 0 {
				keptSpares = append(keptSpares, s.spares[ci])
			}
		} else {
			removed = append(removed, c)
		}
	}
	s.centers = kept
	if s.spareCap > 0 {
		s.spares = keptSpares
	}
	s.countOpen()
	if s.scan != nil {
		s.scan.Rebuild(s.centers)
	}
	s.merged = append(s.merged, removed...)
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

// Threshold returns the running phase threshold d_i (0 while the
// initialization prefix is still being collected).
func (s *SMM[P]) Threshold() float64 { return s.threshold }

// CoverageRadius returns 4·d_i, the upper bound on the distance from any
// processed point to the current center set T guaranteed by the phase
// invariants (r_T ≤ 4·d_ℓ in the proof of Lemma 3). During initialization
// it is 0: T contains every distinct processed point.
func (s *SMM[P]) CoverageRadius() float64 { return 4 * s.threshold }

// Phases returns the number of merge phases run so far.
func (s *SMM[P]) Phases() int { return s.phases }

// Generation counts the restructurings of the core-set (merge phases:
// cluster merges and the threshold doublings they run under). While it
// is unchanged, the point set underlying Result only grows, by exactly
// the points AppendedSince reports — the contract divmaxd's
// delta-patched query cache is built on.
func (s *SMM[P]) Generation() uint64 { return s.gen }

// AppendLogLen returns the length of the current generation's append
// log — the position to pass to a later AppendedSince.
func (s *SMM[P]) AppendLogLen() int { return len(s.appended) }

// AppendedSince returns a copy of the points accepted into the core-set
// since append-log position pos of the current generation (0 ≤ pos ≤
// AppendLogLen; the log restarts empty at each Generation bump).
func (s *SMM[P]) AppendedSince(pos int) []P {
	out := make([]P, len(s.appended)-pos)
	copy(out, s.appended[pos:])
	return out
}

// Processed returns the number of stream points consumed.
func (s *SMM[P]) Processed() int64 { return s.processed }

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

// invariantPairwise returns the minimum pairwise distance of the current
// centers; exported to tests via export_test.go.
func (s *SMM[P]) invariantPairwise() float64 {
	if len(s.centers) < 2 {
		return math.Inf(1)
	}
	return metric.Farness(s.centers, s.d)
}
