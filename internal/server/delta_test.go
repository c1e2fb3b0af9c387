package server

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"divmax"
	"divmax/internal/sequential"
)

// Interleaving fuzz/equivalence harness for the delta-patched query
// cache.
//
// Every schedule drives the same interleaving of /ingest batches,
// /delete broadcasts, and /query calls against two servers: one
// patching (extending the cached union and solve engine with per-shard
// core-set deltas, and serving replay-verified stale answers as warm
// starts) and one in reference mode (DisableDeltaPatch: identical
// patch/fallback decisions and identical union layouts, every engine
// built from scratch and every stale query cold-solved — warm starts
// are pinned bit for bit against genuine re-solves). At every query
// the two must agree bit for bit — solution vectors, diversity value,
// processed count, core-set size — and their retained engines must
// agree on mode (matrix/tiled/none); at every delete the two must
// classify every point identically (the outcome is a pure function of
// the shard core-sets, which see the same stream). The cached/patched/
// warm_started response flags are NOT compared: patching and memo
// carry-over legitimately diverge between the modes. Schedules include
// restructure-heavy streams (tiny coordinate grids full of duplicates
// and exact ties, expanding scales that force radius doublings and
// cluster merges) and delete mixes (re-deleting ingested values —
// spares and evictions — alongside never-seen tombstones) so the
// generation-bump fallback, the delta-budget fallback, deletion
// eviction, and budget-crossing engine appends are all exercised.

// deltaSchedule decodes fuzz bytes into a server configuration and an
// op stream, runs it against the patched and reference servers, and
// asserts equivalence after every query. It returns the patched
// server's final stats so callers can assert path coverage.
func runDeltaSchedule(t *testing.T, data []byte) statsResponse {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}

	// Global knobs from the prefix: engine-mode boundary and patch
	// budget, shared by both servers.
	origBudget := sequential.MatrixBudget
	switch next() % 3 {
	case 1:
		sequential.MatrixBudget = 8 * 12 * 12 // matrix only up to 12 points
	case 2:
		sequential.MatrixBudget = 8 // everything tiled
	}
	defer func() { sequential.MatrixBudget = origBudget }()
	deltaBudget := []float64{0.5, 2, 16}[next()%3]
	maxK := 3 + int(next()%3)
	cfg := Config{
		Shards:      1 + int(next()%3),
		MaxK:        maxK,
		KPrime:      maxK + int(next()%6),
		DeltaBudget: deltaBudget,
		Spares:      []int{-1, 1, 2}[next()%3],
	}
	refCfg := cfg
	refCfg.DisableDeltaPatch = true
	patched, patchedTS := newTestServer(t, cfg)
	reference, referenceTS := newTestServer(t, refCfg)

	// Coordinate styles: tiny integer grids (duplicates and exact ties
	// everywhere, constant restructuring at a tiny radius), a wide
	// continuous-ish spread, an expanding scale (radius doublings), and
	// a near-degenerate two-value stream.
	style := next() % 4
	coordCount := 0
	coord := func(b byte) float64 {
		coordCount++
		switch style {
		case 0:
			return float64(b % 5)
		case 1:
			return float64(b) * 97
		case 2:
			return float64(b%7) * float64(int64(1)<<(coordCount/16%24))
		default:
			return float64(b % 2)
		}
	}

	// pool tracks ingested values so deletes mostly target points the
	// shards have actually seen (spares and evictions, not just
	// tombstones).
	var pool []divmax.Vector
	queries := 0
	for ops := 0; ops < 48 && len(data) > 0; ops++ {
		switch next() % 6 {
		case 0, 1, 2: // ingest a small batch
			cnt := 1 + int(next()%6)
			pts := make([]divmax.Vector, cnt)
			for i := range pts {
				pts[i] = divmax.Vector{coord(next()), coord(next())}
			}
			if len(pool) < 96 {
				pool = append(pool, pts...)
			}
			pa := postIngest(t, patchedTS.URL, pts)
			pb := postIngest(t, referenceTS.URL, pts)
			if pa.Accepted != pb.Accepted {
				t.Fatalf("ingest accepted %d vs %d", pa.Accepted, pb.Accepted)
			}
		case 3: // delete a few points, mostly previously ingested values
			cnt := 1 + int(next()%3)
			pts := make([]divmax.Vector, cnt)
			for i := range pts {
				if b := next(); len(pool) > 0 && b%4 != 0 {
					pts[i] = pool[int(b)%len(pool)]
				} else {
					pts[i] = divmax.Vector{coord(next()), coord(next())}
				}
			}
			da := postDelete(t, patchedTS.URL, pts)
			db := postDelete(t, referenceTS.URL, pts)
			if !reflect.DeepEqual(da, db) {
				t.Fatalf("delete outcomes diverge: patched %+v vs reference %+v", da, db)
			}
		default: // query
			m := divmax.Measures[int(next())%len(divmax.Measures)]
			k := 1 + int(next())%maxK
			qa := getQuery(t, patchedTS.URL, k, m)
			qb := getQuery(t, referenceTS.URL, k, m)
			queries++
			if !reflect.DeepEqual(qa.Solution, qb.Solution) {
				t.Fatalf("query %d (%v, k=%d): patched solution %v differs from reference %v",
					queries, m, k, qa.Solution, qb.Solution)
			}
			if math.Float64bits(qa.Value) != math.Float64bits(qb.Value) || qa.Exact != qb.Exact {
				t.Fatalf("query %d (%v, k=%d): value %v/%v vs %v/%v",
					queries, m, k, qa.Value, qa.Exact, qb.Value, qb.Exact)
			}
			if qa.Processed != qb.Processed || qa.CoresetSize != qb.CoresetSize {
				t.Fatalf("query %d (%v, k=%d): processed/coreset %d/%d vs %d/%d",
					queries, m, k, qa.Processed, qa.CoresetSize, qb.Processed, qb.CoresetSize)
			}
			proxy := m.NeedsInjectiveProxy()
			if ma, mb := engineMode(patched, proxy), engineMode(reference, proxy); ma != mb {
				t.Fatalf("query %d (%v, k=%d): engine mode %q vs %q", queries, m, k, ma, mb)
			}
		}
	}
	// The counter invariant: every miss resolved as a patch or a full
	// rebuild, on both servers; the reference server never patched an
	// engine.
	for _, st := range []statsResponse{getStats(t, patchedTS.URL), getStats(t, referenceTS.URL)} {
		if st.CacheMisses != st.MissesCold+st.MissesInvalidated {
			t.Fatalf("misses %d ≠ cold %d + invalidated %d", st.CacheMisses, st.MissesCold, st.MissesInvalidated)
		}
		if st.CacheMisses != st.DeltaPatches+st.FullRebuilds {
			t.Fatalf("misses %d ≠ patches %d + rebuilds %d", st.CacheMisses, st.DeltaPatches, st.FullRebuilds)
		}
		if st.DeletesRequested != st.DeletesEvicting+st.DeletesSpares+st.DeletesTombstoned {
			t.Fatalf("deletes %d ≠ evicting %d + spares %d + tombstoned %d",
				st.DeletesRequested, st.DeletesEvicting, st.DeletesSpares, st.DeletesTombstoned)
		}
	}
	if st := getStats(t, referenceTS.URL); st.DeltaPatches != 0 || st.MemoWarmStarts != 0 {
		t.Fatalf("reference server reported %d delta patches, %d warm starts", st.DeltaPatches, st.MemoWarmStarts)
	}
	return getStats(t, patchedTS.URL)
}

// engineMode reports the cached engine's mode for a family —
// "matrix", "tiled", or "none" (no state or a sub-2-point union).
func engineMode(s *Server, proxy bool) string {
	f := 0
	if proxy {
		f = 1
	}
	switch e := s.cache.Engine(f); {
	case e == nil:
		return "none"
	case e.Tiled():
		return "tiled"
	default:
		return "matrix"
	}
}

func FuzzDeltaInterleaving(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte("ingest-query-ingest-query-ingest-query-ingest-query"))
	f.Add([]byte{1, 2, 1, 0, 2, 0, 3, 9, 0, 1, 200, 3, 0, 7, 7, 7, 3, 0, 3, 1, 0, 4, 4, 4, 3, 2})
	f.Add([]byte{2, 0, 2, 2, 1, 3, 255, 1, 128, 3, 2, 64, 3, 5, 32, 3, 1, 16, 3, 4, 8, 3, 0, 4, 3, 3})
	// Delete-heavy: ingest/delete/query alternation with pool re-deletes
	// (op byte 3 mod 6 selects delete; the trailing bytes pick targets).
	f.Add([]byte{1, 1, 1, 0, 1, 2, 0, 3, 7, 7, 9, 9, 3, 2, 1, 5, 5, 4, 0, 3, 0, 2, 2, 3, 1, 9, 4, 1, 3, 2, 2, 8, 3, 1, 1, 4, 2, 0, 2, 6, 6, 3, 3, 3, 2, 10, 4, 5})
	// Restructure-heavy: long alternation on the tiniest grid.
	heavy := make([]byte, 120)
	for i := range heavy {
		heavy[i] = byte(i*7 + i%3)
	}
	f.Add(heavy)
	f.Fuzz(func(t *testing.T, data []byte) {
		runDeltaSchedule(t, data)
	})
}

// TestDeltaInterleavingSchedules runs the fuzz harness over fixed
// pseudo-random schedules — long ones, at every coordinate style — so
// the equivalence check runs in full on every plain `go test`, not only
// under -fuzz.
func TestDeltaInterleavingSchedules(t *testing.T) {
	var patches, rebuilds, invalidated, deletes, removed int64
	for seed := 0; seed < 8; seed++ {
		data := make([]byte, 160)
		x := uint32(seed*2654435761 + 1)
		for i := range data {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			data[i] = byte(x)
		}
		data[0] = byte(seed) // engine-mode boundary selector
		data[5] = byte(seed >> 1)
		st := runDeltaSchedule(t, data)
		patches += st.DeltaPatches
		rebuilds += st.FullRebuilds
		invalidated += st.MissesInvalidated
		deletes += st.DeletesRequested
		removed += st.DeletesEvicting + st.DeletesSpares
	}
	// The schedule set must exercise both resolutions of a stale query:
	// incremental patches and generation-bump/budget fallbacks (full
	// rebuilds beyond the unavoidable cold ones happen only on
	// invalidated misses) — and, with the fully dynamic op stream, both
	// flavors of deletion (pure tombstones are implied by deletes >
	// removed over random targets).
	if patches == 0 {
		t.Fatal("no schedule exercised the delta-patch path")
	}
	if rebuilds == 0 || invalidated == 0 {
		t.Fatalf("schedules exercised %d full rebuilds over %d invalidated misses; want both > 0", rebuilds, invalidated)
	}
	if deletes == 0 || removed == 0 {
		t.Fatalf("schedules exercised %d deletes removing %d retained points; want both > 0", deletes, removed)
	}
}

// TestDeltaPatchConcurrentChurn is the shrunk -race schedule: one
// patched server, concurrent ingesters and queriers, a tiny matrix
// budget so patches cross between matrix and tiled engines while older
// engine forks are still serving solves. It asserts well-formedness
// (every response valid, counters consistent) — the interleaving is
// nondeterministic, so bit-equivalence is pinned by the deterministic
// harness above, and this test exists to let the race detector watch
// the shared matrix buffers, flat stores, and cache installs under
// genuine concurrency.
func TestDeltaPatchConcurrentChurn(t *testing.T) {
	origBudget := sequential.MatrixBudget
	sequential.MatrixBudget = 8 * 24 * 24
	defer func() { sequential.MatrixBudget = origBudget }()
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 4, KPrime: 10, DeltaBudget: 16})

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			x := uint32(g*977 + 13)
			for i := 0; i < 30; i++ {
				pts := make([]divmax.Vector, 1+i%4)
				for j := range pts {
					x = x*1664525 + 1013904223
					pts[j] = divmax.Vector{float64(x % 50), float64((x >> 8) % 50)}
				}
				if _, err := tryIngest(ts.URL, pts); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				m := divmax.Measures[(g+i)%len(divmax.Measures)]
				q, err := tryQuery(ts.URL, 1+i%4, m)
				if err != nil {
					errs <- err
					return
				}
				if len(q.Solution) > 4 {
					errs <- errTooMany
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := getStats(t, ts.URL)
	if st.CacheMisses != st.DeltaPatches+st.FullRebuilds {
		t.Fatalf("misses %d ≠ patches %d + rebuilds %d", st.CacheMisses, st.DeltaPatches, st.FullRebuilds)
	}
}

var errTooMany = errOversized{}

type errOversized struct{}

func (errOversized) Error() string { return "solution larger than k" }
