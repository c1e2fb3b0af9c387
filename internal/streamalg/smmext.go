package streamalg

import (
	"fmt"

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
	k, kprime int
	d         metric.Distance[P]
	scan      centerScanner[P] // flat Euclidean mirror of centers; nil on the generic path

	initialized bool
	threshold   float64
	phases      int
	processed   int64

	centers   []P
	delegates [][]P // delegates[i] belongs to centers[i]; contains the center
	merged    []P   // delegate sets dropped by merges, flattened, current phase
	// open counts the centers whose delegate set is below k: derived
	// state for the covering exit, as SMM.open.
	open int

	// Incremental-snapshot bookkeeping; see SMM. For SMM-EXT the append
	// log records both new centers and accepted delegates — everything
	// that joins T′ between restructurings. logCap bounds the log within
	// a phase (see SMM.SetAppendLogCap); the default, (k′+1)·(k+1), sits
	// above any reachable log length, so it never fires on its own.
	gen      uint64
	appended []P
	logCap   int
}

// NewSMMExt returns a streaming core-set processor for the
// injective-proxy problems. Lemma 4: k′ = (64/ε′)^D·k yields a
// (1+ε)-core-set of O(k′·k) points in doubling dimension D.
func NewSMMExt[P any](k, kprime int, d metric.Distance[P]) *SMMExt[P] {
	if k < 1 || kprime < k {
		panic(fmt.Sprintf("streamalg: NewSMMExt requires 1 <= k <= k', got k=%d k'=%d", k, kprime))
	}
	return &SMMExt[P]{k: k, kprime: kprime, d: d, scan: newCenterScanner(d), logCap: (kprime + 1) * (k + 1)}
}

// SetAppendLogCap caps the per-generation append log at n ≥ 1 points,
// forcing a generation bump at the cap; see SMM.SetAppendLogCap. n < 1
// restores the default, (k′+1)·(k+1).
func (s *SMMExt[P]) SetAppendLogCap(n int) {
	if n < 1 {
		n = (s.kprime + 1) * (s.k + 1)
	}
	s.logCap = n
	if len(s.appended) >= s.logCap {
		s.bumpGen()
	}
}

// AppendLogCap returns the per-generation append-log cap.
func (s *SMMExt[P]) AppendLogCap() int { return s.logCap }

// bumpGen advances the generation and restarts the append log; every
// restructure (merge phase, eviction, log compaction) runs through it.
func (s *SMMExt[P]) bumpGen() {
	s.gen++
	s.appended = s.appended[:0]
}

// logAppend records a point that joined T′, compacting the log when it
// reaches the cap.
func (s *SMMExt[P]) logAppend(p P) {
	s.appended = append(s.appended, p)
	if len(s.appended) >= s.logCap {
		s.bumpGen()
	}
}

// minDist is the nearest-center scan; see SMM.minDist.
func (s *SMMExt[P]) minDist(p P) (float64, int) {
	if s.scan != nil {
		return s.scan.MinDist(p)
	}
	return metric.MinDistance(p, s.centers, s.d)
}

// countOpen recounts the centers whose delegate set is below k.
func (s *SMMExt[P]) countOpen() {
	s.open = 0
	for _, set := range s.delegates {
		if len(set) < s.k {
			s.open++
		}
	}
}

// addCenter appends a new center with its singleton delegate set and
// keeps the fast-path mirror in sync.
func (s *SMMExt[P]) addCenter(p P) {
	s.centers = append(s.centers, p)
	s.delegates = append(s.delegates, []P{p})
	if 1 < s.k {
		s.open++
	}
	s.logAppend(p)
	if s.scan != nil {
		s.scan.Append(p)
	}
}

// Process consumes the next stream point.
func (s *SMMExt[P]) Process(p P) {
	s.processed++
	if !s.initialized {
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
		// The covering exit (see SMM.Process): every delegate set is full.
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
	if nearest >= 0 && len(s.delegates[nearest]) < s.k { // -1: see SMM.Process
		s.delegates[nearest] = append(s.delegates[nearest], p)
		s.logAppend(p)
		if len(s.delegates[nearest]) == s.k {
			s.open--
		}
	}
}

// accept adds p as a center; see SMM.accept.
func (s *SMMExt[P]) accept(p P) {
	s.addCenter(p)
	if len(s.centers) == s.kprime+1 {
		s.threshold *= 2
		s.startPhase()
	}
}

// ProcessBatch consumes a slice of stream points, equivalent to calling
// Process on each in order; see SMM.ProcessBatch.
func (s *SMMExt[P]) ProcessBatch(batch []P) {
	for _, p := range batch {
		s.Process(p)
	}
}

func (s *SMMExt[P]) startPhase() {
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

// merge computes the maximal independent set at threshold 2·d_i and lets
// each surviving center inherit min(|E_t1|, k−|E_t2|) delegates from each
// removed center t1 it covers (the paper prints "max", which cannot
// exceed |E_t1| nor keep |E_t2| ≤ k; min is the reading consistent with
// the proof of Lemma 4). Delegates that cannot be inherited are retained
// for the phase so Result can top the output up to k points.
func (s *SMMExt[P]) merge() {
	n := len(s.centers)
	keepIdx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		independent := true
		for _, j := range keepIdx {
			if s.d(s.centers[j], s.centers[i]) <= 2*s.threshold {
				independent = false
				break
			}
		}
		if independent {
			keepIdx = append(keepIdx, i)
		}
	}
	inMIS := make([]bool, n)
	for _, j := range keepIdx {
		inMIS[j] = true
	}
	// Removed centers hand over delegates to a covering survivor.
	for i := 0; i < n; i++ {
		if inMIS[i] {
			continue
		}
		for _, j := range keepIdx {
			if s.d(s.centers[j], s.centers[i]) <= 2*s.threshold {
				room := s.k - len(s.delegates[j])
				take := len(s.delegates[i])
				if take > room {
					take = room
				}
				s.delegates[j] = append(s.delegates[j], s.delegates[i][:take]...)
				s.merged = append(s.merged, s.delegates[i][take:]...)
				break
			}
		}
	}
	newCenters := make([]P, len(keepIdx))
	newDelegates := make([][]P, len(keepIdx))
	for out, j := range keepIdx {
		newCenters[out] = s.centers[j]
		newDelegates[out] = s.delegates[j]
	}
	s.centers = newCenters
	s.delegates = newDelegates
	s.countOpen()
	if s.scan != nil {
		s.scan.Rebuild(s.centers)
	}
}

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

// Threshold returns the running phase threshold d_i.
func (s *SMMExt[P]) Threshold() float64 { return s.threshold }

// CoverageRadius returns 4·d_i, the bound on the distance from any
// processed point to the kernel (see SMM.CoverageRadius).
func (s *SMMExt[P]) CoverageRadius() float64 { return 4 * s.threshold }

// Phases returns the number of merge phases run so far.
func (s *SMMExt[P]) Phases() int { return s.phases }

// Generation counts the restructurings of the core-set; see
// SMM.Generation. Between bumps the union of the delegate sets only
// grows, by exactly the points AppendedSince reports (new centers and
// accepted delegates).
func (s *SMMExt[P]) Generation() uint64 { return s.gen }

// AppendLogLen returns the length of the current generation's append
// log; see SMM.AppendLogLen.
func (s *SMMExt[P]) AppendLogLen() int { return len(s.appended) }

// AppendedSince returns a copy of the points that joined the core-set
// since append-log position pos of the current generation; see
// SMM.AppendedSince.
func (s *SMMExt[P]) AppendedSince(pos int) []P {
	out := make([]P, len(s.appended)-pos)
	copy(out, s.appended[pos:])
	return out
}

// Processed returns the number of stream points consumed.
func (s *SMMExt[P]) Processed() int64 { return s.processed }

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
// core-set of size |T| with expanded size ≤ k·|T| and memory O(k′).
type SMMGen[P any] struct {
	k, kprime int
	d         metric.Distance[P]
	scan      centerScanner[P] // flat Euclidean mirror of centers; nil on the generic path

	initialized bool
	threshold   float64
	phases      int
	processed   int64

	centers []P
	counts  []int
	// open counts the centers whose count is below k: derived state for
	// the covering exit, as SMM.open.
	open int
}

// NewSMMGen returns the generalized-core-set streaming processor.
func NewSMMGen[P any](k, kprime int, d metric.Distance[P]) *SMMGen[P] {
	if k < 1 || kprime < k {
		panic(fmt.Sprintf("streamalg: NewSMMGen requires 1 <= k <= k', got k=%d k'=%d", k, kprime))
	}
	return &SMMGen[P]{k: k, kprime: kprime, d: d, scan: newCenterScanner(d)}
}

// minDist is the nearest-center scan; see SMM.minDist.
func (s *SMMGen[P]) minDist(p P) (float64, int) {
	if s.scan != nil {
		return s.scan.MinDist(p)
	}
	return metric.MinDistance(p, s.centers, s.d)
}

// countOpen recounts the centers whose count is below k.
func (s *SMMGen[P]) countOpen() {
	s.open = 0
	for _, c := range s.counts {
		if c < s.k {
			s.open++
		}
	}
}

// addCenter appends a new unit-count center and keeps the fast-path
// mirror in sync.
func (s *SMMGen[P]) addCenter(p P) {
	s.centers = append(s.centers, p)
	s.counts = append(s.counts, 1)
	if 1 < s.k {
		s.open++
	}
	if s.scan != nil {
		s.scan.Append(p)
	}
}

// Process consumes the next stream point.
func (s *SMMGen[P]) Process(p P) {
	s.processed++
	if !s.initialized {
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
		// The covering exit (see SMM.Process): every count is at k.
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
	if nearest >= 0 && s.counts[nearest] < s.k { // -1: see SMM.Process
		s.counts[nearest]++
		if s.counts[nearest] == s.k {
			s.open--
		}
	}
}

// accept adds p as a center; see SMM.accept.
func (s *SMMGen[P]) accept(p P) {
	s.addCenter(p)
	if len(s.centers) == s.kprime+1 {
		s.threshold *= 2
		s.startPhase()
	}
}

// ProcessBatch consumes a slice of stream points, equivalent to calling
// Process on each in order; see SMM.ProcessBatch.
func (s *SMMGen[P]) ProcessBatch(batch []P) {
	for _, p := range batch {
		s.Process(p)
	}
}

func (s *SMMGen[P]) startPhase() {
	for {
		s.phases++
		s.merge()
		if len(s.centers) <= s.kprime {
			return
		}
		s.threshold *= 2
	}
}

func (s *SMMGen[P]) merge() {
	n := len(s.centers)
	keepIdx := make([]int, 0, n)
	for i := 0; i < n; i++ {
		independent := true
		for _, j := range keepIdx {
			if s.d(s.centers[j], s.centers[i]) <= 2*s.threshold {
				independent = false
				break
			}
		}
		if independent {
			keepIdx = append(keepIdx, i)
		}
	}
	inMIS := make([]bool, n)
	for _, j := range keepIdx {
		inMIS[j] = true
	}
	for i := 0; i < n; i++ {
		if inMIS[i] {
			continue
		}
		for _, j := range keepIdx {
			if s.d(s.centers[j], s.centers[i]) <= 2*s.threshold {
				take := s.counts[i]
				if room := s.k - s.counts[j]; take > room {
					take = room
				}
				s.counts[j] += take
				break
			}
		}
	}
	newCenters := make([]P, len(keepIdx))
	newCounts := make([]int, len(keepIdx))
	for out, j := range keepIdx {
		newCenters[out] = s.centers[j]
		newCounts[out] = s.counts[j]
	}
	s.centers = newCenters
	s.counts = newCounts
	s.countOpen()
	if s.scan != nil {
		s.scan.Rebuild(s.centers)
	}
}

// Result returns the generalized core-set (center, count) pairs.
func (s *SMMGen[P]) Result() coreset.Generalized[P] {
	out := make(coreset.Generalized[P], len(s.centers))
	for i, c := range s.centers {
		out[i] = coreset.Weighted[P]{Point: c, Mult: s.counts[i]}
	}
	return out
}

// Threshold returns the running phase threshold d_i.
func (s *SMMGen[P]) Threshold() float64 { return s.threshold }

// CoverageRadius returns 4·d_i, the δ used by the second pass to
// instantiate delegates (r_T ≤ 4·d_ℓ, proof of Theorem 9).
func (s *SMMGen[P]) CoverageRadius() float64 { return 4 * s.threshold }

// Phases returns the number of merge phases run so far.
func (s *SMMGen[P]) Phases() int { return s.phases }

// Processed returns the number of stream points consumed.
func (s *SMMGen[P]) Processed() int64 { return s.processed }

// StoredPoints returns the number of points in memory, O(k′).
func (s *SMMGen[P]) StoredPoints() int { return len(s.centers) }
