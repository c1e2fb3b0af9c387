package streamalg

import "divmax/internal/metric"

// Deletion support for the streaming core-set processors (the dynamic
// variant of the insert-only Section 4 constructions, after the
// fully-dynamic template of Pellizzoni–Pietracaprina–Pucci, arXiv
// 2302.07771).
//
// Deletion is by value: Delete(p) removes every retained point at
// metric distance 0 from p, so callers need no handles into processor
// state and duplicates are swept in one call. Three things can happen,
// ordered by how much cached state they invalidate:
//
//   - Absent: no retained copy existed. The point was either never
//     processed or was absorbed without being retained — a tombstone.
//     The core-set is untouched and, crucially for the divmaxd query
//     cache, the generation counter does not move: snapshots taken
//     before the delete remain patchable by pure deltas.
//   - Spare: only spare points were removed (SMM's per-center backup
//     lists, never part of Result). The core-set output is unchanged,
//     so this too leaves the generation alone.
//   - Evicted: a core-set point — a center, a delegate, or a retained
//     merge removal — was removed. The processor re-covers locally
//     (center deletion promotes a spare or a surviving delegate) and
//     bumps the generation, because earlier snapshots may hold the
//     deleted point: SnapshotSince answers them with a full snapshot
//     and downstream caches rebuild from deleted-free state.
//
// The generation contract that makes the non-evicting cases free is the
// PR 5 invariant restated for deletions: between two generation bumps
// the retained point set only ever grows, so a cached union patched
// only with append-log deltas can never contain a point whose deletion
// was non-evicting.
type DeleteOutcome int

const (
	// DeleteAbsent: nothing retained matched — a pure tombstone.
	DeleteAbsent DeleteOutcome = iota
	// DeleteSpare: only spare (backup) points were removed; the
	// core-set output and generation are unchanged.
	DeleteSpare
	// DeleteEvicted: a core-set point was removed; the processor
	// re-covered locally and bumped its generation.
	DeleteEvicted
)

// String returns the wire name divmaxd reports for the outcome.
func (o DeleteOutcome) String() string {
	switch o {
	case DeleteSpare:
		return "spare"
	case DeleteEvicted:
		return "evicted"
	default:
		return "absent"
	}
}

// removeMatches filters every element at metric distance 0 from p out
// of *pts in place, preserving order, and reports how many were
// removed.
func removeMatches[P any](pts *[]P, p P, d metric.Distance[P]) int {
	kept := (*pts)[:0]
	removed := 0
	for _, q := range *pts {
		if d(q, p) == 0 {
			removed++
			continue
		}
		kept = append(kept, q)
	}
	*pts = kept
	return removed
}

// Delete removes every retained copy of p (metric distance 0) from the
// processor. Spares are swept first so a promotion can never resurface
// the deleted value; a deleted center is replaced by its first spare
// when one is retained (coverage degrades from 4·d_i to at most 8·d_i —
// the spare was within the coverage radius of the center it replaces)
// and dropped otherwise. Any eviction bumps the generation and restarts
// the append log, forcing downstream snapshot caches to rebuild from
// deleted-free state.
func (s *SMM[P]) Delete(p P) DeleteOutcome {
	out := DeleteAbsent
	for i := range s.spares {
		if removeMatches(&s.spares[i], p, s.d) > 0 {
			out = DeleteSpare
		}
	}
	evicted := removeMatches(&s.merged, p, s.d) > 0
	// Centers are pairwise distinct (duplicates fold during init and are
	// absorbed after), so at most one center can match.
	for i, c := range s.centers {
		if s.d(c, p) != 0 {
			continue
		}
		if len(s.spares) > i && len(s.spares[i]) > 0 {
			s.centers[i] = s.spares[i][0]
			s.spares[i] = append(s.spares[i][:0], s.spares[i][1:]...)
		} else {
			s.centers = append(s.centers[:i], s.centers[i+1:]...)
			if len(s.spares) > i {
				s.spares = append(s.spares[:i], s.spares[i+1:]...)
			}
		}
		if s.scan != nil {
			s.scan.Rebuild(s.centers)
		}
		evicted = true
		break
	}
	s.countOpen()
	if evicted {
		s.bumpGen()
		return DeleteEvicted
	}
	return out
}

// Delete removes every retained copy of p (metric distance 0) from the
// processor's delegate sets and retained merge drops. Removing any
// delegate is an eviction — delegates are part of the core-set output —
// and a deleted center is replaced by its first surviving delegate
// (within 4·d_i of it, so coverage degrades to at most 8·d_i) or, when
// the delete emptied its delegate set, dropped with its cluster. Any
// eviction bumps the generation and restarts the append log.
func (s *SMMExt[P]) Delete(p P) DeleteOutcome {
	evicted := removeMatches(&s.merged, p, s.d) > 0
	restructured := false
	for i := 0; i < len(s.centers); i++ {
		if removeMatches(&s.delegates[i], p, s.d) == 0 {
			continue
		}
		evicted = true
		if s.d(s.centers[i], p) != 0 {
			continue
		}
		// The center itself matched (its own delegate entry was removed
		// above): promote the first surviving delegate, or drop the
		// cluster when none survived.
		if len(s.delegates[i]) > 0 {
			s.centers[i] = s.delegates[i][0]
		} else {
			s.centers = append(s.centers[:i], s.centers[i+1:]...)
			s.delegates = append(s.delegates[:i], s.delegates[i+1:]...)
			i--
		}
		restructured = true
	}
	if restructured && s.scan != nil {
		s.scan.Rebuild(s.centers)
	}
	s.countOpen()
	if evicted {
		s.bumpGen()
		return DeleteEvicted
	}
	return DeleteAbsent
}
