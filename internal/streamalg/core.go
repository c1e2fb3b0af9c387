package streamalg

import (
	"fmt"
	"math"

	"divmax/internal/metric"
)

// core is the doubling algorithm SMM, SMM-EXT and SMM-GEN share
// (Section 4). Each phase i holds a threshold d_i and maintains the
// invariants: every processed point is within 2·d_i of the center set T
// at the start of the phase, and centers are pairwise at distance ≥ d_i.
// A merge step (maximal independent set at threshold 2·d_i) shrinks T;
// the update step accepts a new point only at distance > 4·d_i from T
// and ends the phase when T reaches k′+1 points.
//
// Points of the initial prefix at distance zero from an existing center
// are folded into it, so streams with duplicates keep the thresholds
// positive (d_1 is the minimum distance among *distinct* prefix points).
//
// The three processors differ only in what a center carries — SMM's
// spares, SMM-EXT's delegate set, SMM-GEN's count — which the core
// reaches through pay.
type core[P any] struct {
	k, kprime int
	d         metric.Distance[P]
	scan      centerScanner[P] // flat Euclidean mirror of centers; nil on the generic path
	pay       payload[P]

	initialized bool
	threshold   float64 // d_i of the running phase; 0 until initialized
	phases      int
	processed   int64

	centers []P // T, capacity k'+1
	// open counts the centers whose payload can keep another absorbed
	// point. While it is 0 an absorbed point changes nothing but
	// processed, which lets the fast path stop its scan at the first
	// covering center (Process). It is derived state: kept in step by
	// addCenter and the absorb step, recounted after every merge,
	// Delete, Restore and SetSpareCap, and never checkpointed.
	open int
	keep []int // the indices of the centers a merge keeps, ascending
}

// payload is what a processor's centers carry, kept parallel to the
// core's centers. The core calls it at each step where the processors
// differ.
type payload[P any] interface {
	// newPhase runs when a phase begins, before its merges.
	newPhase()
	// add appends the payload of new center p.
	add(p P)
	// room reports whether center i can keep another absorbed point.
	room(i int) bool
	// absorb offers p, covered by its nearest center i at distance
	// dist, to that center, and reports whether keeping p used up the
	// center's room.
	absorb(i int, p P, dist float64) (filled bool)
	// mergeAway disposes of the payload of center i, which the running
	// merge removes; j is the first kept center that covers it.
	mergeAway(i, j int)
	// retain keeps the payloads of the centers at the ascending indices
	// keep, in that order, and drops the rest.
	retain(keep []int)
}

func newCore[P any](name string, k, kprime int, d metric.Distance[P], pay payload[P]) core[P] {
	if k < 1 || kprime < k {
		panic(fmt.Sprintf("streamalg: %s requires 1 <= k <= k', got k=%d k'=%d", name, k, kprime))
	}
	return core[P]{k: k, kprime: kprime, d: d, scan: newCenterScanner(d), pay: pay}
}

// minDist is the nearest-center scan: the flat squared-distance kernel
// when the space is Euclidean over dense vectors, the generic loop
// otherwise. Both return identical (distance, index) pairs.
func (c *core[P]) minDist(p P) (float64, int) {
	if c.scan != nil {
		return c.scan.MinDist(p)
	}
	return metric.MinDistance(p, c.centers, c.d)
}

// addCenter appends p to T with its payload and keeps the open count
// and the fast-path mirror in step.
func (c *core[P]) addCenter(p P) {
	c.centers = append(c.centers, p)
	c.pay.add(p)
	if c.pay.room(len(c.centers) - 1) {
		c.open++
	}
	if c.scan != nil {
		c.scan.Append(p)
	}
}

// countOpen recounts the centers whose payload has room.
func (c *core[P]) countOpen() {
	c.open = 0
	for i := range c.centers {
		if c.pay.room(i) {
			c.open++
		}
	}
}

// Process consumes the next stream point.
func (c *core[P]) Process(p P) {
	c.processed++
	if !c.initialized {
		// Initialization: collect the first k'+1 distinct points.
		if dist, _ := c.minDist(p); dist == 0 && len(c.centers) > 0 {
			return
		}
		c.addCenter(p)
		if len(c.centers) == c.kprime+1 {
			c.threshold = metric.Farness(c.centers, c.d)
			c.initialized = true
			c.startPhase()
		}
		return
	}
	if c.open == 0 && c.scan != nil {
		// The covering exit: no center can keep p, so only whether some
		// center covers p matters, not which one is nearest.
		if !c.scan.Covers(p, 4*c.threshold) {
			c.accept(p)
		}
		return
	}
	dist, nearest := c.minDist(p)
	if dist > 4*c.threshold {
		c.accept(p)
		return
	}
	// Absorbed: kept only by a center with room, so not at all while
	// open is 0. No center is nearest (index -1) when every distance
	// overflowed to +Inf under a threshold that did too; p is then
	// covered but kept by none.
	if c.open > 0 && nearest >= 0 && c.pay.absorb(nearest, p, dist) {
		c.open--
	}
}

// accept adds p, which no center covers, to T, and starts a new phase
// when T reaches k′+1 points.
func (c *core[P]) accept(p P) {
	c.addCenter(p)
	if len(c.centers) == c.kprime+1 {
		c.threshold *= 2
		c.startPhase()
	}
}

// ProcessBatch consumes a slice of stream points, equivalent to calling
// Process on each in order. Batch ingestion keeps the center set hot in
// cache across the whole slice and is the natural feed for callers that
// already receive points in chunks (the divmaxd shards). On the
// Euclidean fast path most points of a long stream take the covering
// exit (Process): the scan stops at the first center within 4·d_i.
func (c *core[P]) ProcessBatch(batch []P) {
	for _, p := range batch {
		c.Process(p)
	}
}

// startPhase begins a new phase and runs merge steps, doubling the
// threshold as long as the merge fails to bring T back to at most k′
// points (a merge that removes nothing is a phase whose update step
// accepts no points).
func (c *core[P]) startPhase() {
	c.pay.newPhase()
	for {
		c.phases++
		c.merge()
		if len(c.centers) <= c.kprime {
			return
		}
		c.threshold *= 2
	}
}

// merge replaces T with a maximal independent set of the graph
// connecting centers at distance ≤ 2·d_i, scanning in insertion order
// (deterministic). Each removed center's payload goes where its
// processor's mergeAway sends it, as soon as the scan finds the center
// that covers it: mergeAway reads no center, and every center kept
// later comes after the one found.
func (c *core[P]) merge() {
	c.keep = c.keep[:0]
	for i := range c.centers {
		if j := c.survivor(i); j >= 0 {
			c.pay.mergeAway(i, j)
		} else {
			c.keep = append(c.keep, i)
		}
	}
	c.pay.retain(c.keep)
	c.centers = compact(c.centers, c.keep)
	c.countOpen()
	if c.scan != nil {
		c.scan.Rebuild(c.centers)
	}
}

// survivor returns the first center the running merge has kept so far
// that lies within 2·d_i of center i, or -1 when none does.
func (c *core[P]) survivor(i int) int {
	for _, j := range c.keep {
		if c.d(c.centers[j], c.centers[i]) <= 2*c.threshold {
			return j
		}
	}
	return -1
}

// compact moves s[keep[0]], s[keep[1]], … to the front of s, in place,
// and returns that prefix; keep is ascending.
func compact[T any](s []T, keep []int) []T {
	for out, i := range keep {
		s[out] = s[i]
	}
	clear(s[len(keep):])
	return s[:len(keep)]
}

// Threshold returns the running phase threshold d_i (0 while the
// initialization prefix is still being collected).
func (c *core[P]) Threshold() float64 { return c.threshold }

// CoverageRadius returns 4·d_i, the upper bound on the distance from any
// processed point to the current center set T guaranteed by the phase
// invariants (r_T ≤ 4·d_ℓ in the proofs of Lemma 3 and Theorem 9; the
// second pass of TwoPass instantiates delegates within it). During
// initialization it is 0: T contains every distinct processed point.
func (c *core[P]) CoverageRadius() float64 { return 4 * c.threshold }

// Phases returns the number of merge phases run so far.
func (c *core[P]) Phases() int { return c.phases }

// Processed returns the number of stream points consumed.
func (c *core[P]) Processed() int64 { return c.processed }

// invariantPairwise returns the minimum pairwise distance of the current
// centers, for the tests' separation checks.
func (c *core[P]) invariantPairwise() float64 {
	if len(c.centers) < 2 {
		return math.Inf(1)
	}
	return metric.Farness(c.centers, c.d)
}

// appendLog is the incremental-snapshot bookkeeping of SMM and SMM-EXT
// (Generation/AppendedSince): gen counts restructurings — merge phases,
// where centers move or drop, evicting deletes and log compactions —
// and appended logs every point that joined the core-set since the last
// one, so between restructurings the core-set only ever grows by the
// logged points. The log holds point headers the processor already
// retains and is cleared on every restructure, so it adds no asymptotic
// memory. logCap bounds the log within a phase (SetAppendLogCap).
type appendLog[P any] struct {
	gen           uint64
	appended      []P
	logCap        int
	defaultLogCap int
}

func newAppendLog[P any](defaultCap int) appendLog[P] {
	return appendLog[P]{logCap: defaultCap, defaultLogCap: defaultCap}
}

// SetAppendLogCap caps the per-generation append log at n ≥ 1 points:
// an append that reaches the cap forces a generation bump, compacting
// the log so its growth is bounded within a phase no matter how long
// the phase runs. Forcing a bump is always observationally safe — a
// later SnapshotSince simply answers with a full snapshot instead of a
// delta — it only costs downstream caches a rebuild. n < 1 restores the
// default: k′+2 for SMM, one past the transient maximum, and (k′+1)(k+1)
// for SMM-EXT, above any reachable log length, so neither fires before
// the phase bump that clears the log anyway.
func (l *appendLog[P]) SetAppendLogCap(n int) {
	if n < 1 {
		n = l.defaultLogCap
	}
	l.logCap = n
	if len(l.appended) >= l.logCap {
		l.bumpGen()
	}
}

// AppendLogCap returns the per-generation append-log cap.
func (l *appendLog[P]) AppendLogCap() int { return l.logCap }

// bumpGen advances the generation and restarts the append log — every
// restructure (merge phase, eviction, log compaction) runs through it.
func (l *appendLog[P]) bumpGen() {
	l.gen++
	l.appended = l.appended[:0]
}

// logAppend records a point that joined the core-set, compacting the
// log when it reaches the cap.
func (l *appendLog[P]) logAppend(p P) {
	l.appended = append(l.appended, p)
	if len(l.appended) >= l.logCap {
		l.bumpGen()
	}
}

// Generation counts the restructurings of the core-set (merge phases:
// cluster merges and the threshold doublings they run under; evicting
// deletes). While it is unchanged, the point set underlying Result only
// grows, by exactly the points AppendedSince reports — the contract
// divmaxd's delta-patched query cache is built on.
func (l *appendLog[P]) Generation() uint64 { return l.gen }

// AppendLogLen returns the length of the current generation's append
// log — the position to pass to a later AppendedSince.
func (l *appendLog[P]) AppendLogLen() int { return len(l.appended) }

// AppendedSince returns a copy of the points that joined the core-set
// since append-log position pos of the current generation (0 ≤ pos ≤
// AppendLogLen; the log restarts empty at each Generation bump): new
// centers, and for SMM-EXT accepted delegates.
func (l *appendLog[P]) AppendedSince(pos int) []P {
	out := make([]P, len(l.appended)-pos)
	copy(out, l.appended[pos:])
	return out
}
