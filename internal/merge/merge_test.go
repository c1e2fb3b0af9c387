package merge

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"divmax"
	"divmax/internal/api"
)

// fakeCursor locates a fake part's view: its generation and how many of
// its points the view held.
type fakeCursor struct{ gen, n int }

// fakeSource is a Source over in-memory parts. A part's view grows by
// appends, which a cursor of the same generation gets as a pure delta;
// restructure bumps the generation, after which only a full view is
// served. Fetch calls are counted per part.
type fakeSource struct {
	mu      sync.Mutex
	gens    []int
	pts     [][]divmax.Vector
	errs    []error
	fetches []int
	// never makes Current always false, as on the coordinator; always
	// makes it true.
	never, always bool
	// entered and gate, when non-nil, are signalled and waited on by
	// every Fetch, to hold a round open.
	entered chan struct{}
	gate    chan struct{}
}

func newFakeSource(parts ...[]divmax.Vector) *fakeSource {
	return &fakeSource{
		gens:    make([]int, len(parts)),
		pts:     parts,
		errs:    make([]error, len(parts)),
		fetches: make([]int, len(parts)),
	}
}

func (s *fakeSource) Parts() int { return len(s.pts) }

func (s *fakeSource) Current(cursors []fakeCursor) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range cursors {
		if s.never || !s.always && c != (fakeCursor{s.gens[i], len(s.pts[i])}) {
			return false
		}
	}
	return true
}

func (s *fakeSource) Fetch(ctx context.Context, part, f int, cur *fakeCursor) (Reply[fakeCursor], error) {
	if s.entered != nil {
		s.entered <- struct{}{}
		<-s.gate
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fetches[part]++
	if err := s.errs[part]; err != nil {
		return Reply[fakeCursor]{}, err
	}
	pts := s.pts[part]
	r := Reply[fakeCursor]{Points: pts, Processed: int64(len(pts)), Cursor: fakeCursor{s.gens[part], len(pts)}}
	if cur != nil && cur.gen == s.gens[part] {
		r.Partial, r.Points = true, pts[cur.n:]
	}
	return r, nil
}

func (s *fakeSource) add(part int, pts ...divmax.Vector) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pts[part] = append(s.pts[part][:len(s.pts[part]):len(s.pts[part])], pts...)
}

func (s *fakeSource) restructure(part int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gens[part]++
}

// calls returns the Fetch calls per part so far.
func (s *fakeSource) calls() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.fetches...)
}

func testConfig() Config {
	return Config{SolveWorkers: 1, Memo: 16, DeltaBudget: 0.25, Quorum: 1}
}

func grid(x0 float64, n int) []divmax.Vector {
	out := make([]divmax.Vector, n)
	for i := range out {
		out[i] = divmax.Vector{x0 + float64(i*i), float64(7 * i)}
	}
	return out
}

func stats[C any](c *Cache[C]) api.StatsResponse {
	var st api.StatsResponse
	c.FillStats(&st)
	return st
}

func query[C any](t *testing.T, c *Cache[C], m divmax.Measure, k int) api.QueryResponse {
	t.Helper()
	resp, err := c.Query(context.Background(), m, k, nil)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestCurrentHitSkipsRound: while the Source reports the cached state
// current, a query fetches nothing.
func TestCurrentHitSkipsRound(t *testing.T) {
	src := newFakeSource(grid(0, 6), grid(1000, 6))
	c := New(src, testConfig())
	cold := query(t, c, divmax.RemoteEdge, 3)
	if cold.Cached || cold.Patched || !reflect.DeepEqual(src.calls(), []int{1, 1}) {
		t.Fatalf("cold query: cached=%v patched=%v fetches %v", cold.Cached, cold.Patched, src.calls())
	}
	again := query(t, c, divmax.RemoteEdge, 2)
	if !again.Cached || !reflect.DeepEqual(src.calls(), []int{1, 1}) {
		t.Fatalf("current state: cached=%v, fetches %v, want no new fetch", again.Cached, src.calls())
	}
	if st := stats(c); st.CacheHits != 1 || st.CacheMisses != 1 || st.FullRebuilds != 1 {
		t.Fatalf("hits/misses/rebuilds = %d/%d/%d, want 1/1/1", st.CacheHits, st.CacheMisses, st.FullRebuilds)
	}
}

// TestUnchangedRoundLabel: a round in which every part answers an empty
// delta carries the state over, answers included, and is a patch — or,
// with UnchangedHit, a hit that counts no miss.
func TestUnchangedRoundLabel(t *testing.T) {
	for _, unchangedHit := range []bool{false, true} {
		src := newFakeSource(grid(0, 6), grid(1000, 6))
		src.never = true
		cfg := testConfig()
		cfg.UnchangedHit = unchangedHit
		c := New(src, cfg)
		cold := query(t, c, divmax.RemoteEdge, 3)
		again := query(t, c, divmax.RemoteEdge, 3)
		if !reflect.DeepEqual(src.calls(), []int{2, 2}) {
			t.Fatalf("unchangedHit=%v: fetches %v, want one round per query", unchangedHit, src.calls())
		}
		if again.Cached != unchangedHit || again.Patched == unchangedHit {
			t.Fatalf("unchangedHit=%v: cached=%v patched=%v", unchangedHit, again.Cached, again.Patched)
		}
		if !reflect.DeepEqual(again.Solution, cold.Solution) || again.MergeMillis != 0 {
			t.Fatalf("unchangedHit=%v: answer not carried over (merge_ms %v)", unchangedHit, again.MergeMillis)
		}
		st := stats(c)
		want := [4]int64{0, 1, 1, 1} // hits, patches, misses, merges
		if unchangedHit {
			want = [4]int64{1, 0, 0, 1}
		}
		if got := [4]int64{st.CacheHits, st.DeltaPatches, st.MissesInvalidated, st.Merges}; got != want {
			t.Fatalf("unchangedHit=%v: hits, patches, invalidated misses, merges = %v, want %v", unchangedHit, got, want)
		}
	}
}

// TestRebuildRefetchesOnlyDeltaParts: when a round cannot patch, only
// the parts that answered with a delta are fetched again in full; a
// part whose reply was already full is not asked twice.
func TestRebuildRefetchesOnlyDeltaParts(t *testing.T) {
	src := newFakeSource(grid(0, 8), grid(1000, 8), grid(2000, 8))
	c := New(src, testConfig())
	query(t, c, divmax.RemoteEdge, 3)

	// Mixed: part 0 restructured (full reply), part 1 grew, part 2 did
	// not (an empty delta).
	src.restructure(0)
	src.add(1, divmax.Vector{1000.5, 3})
	mixed := query(t, c, divmax.RemoteEdge, 3)
	if got := src.calls(); !reflect.DeepEqual(got, []int{2, 3, 3}) {
		t.Fatalf("mixed round: fetches %v, want [2 3 3]", got)
	}
	if mixed.Cached || mixed.Patched || mixed.CoresetSize != 25 {
		t.Fatalf("mixed round: cached=%v patched=%v union %d, want a rebuild over 25 points", mixed.Cached, mixed.Patched, mixed.CoresetSize)
	}

	// Over budget: every part answers a delta, 7 points against a
	// budget of 0.25 × 25.
	src.add(2, grid(3000, 7)...)
	over := query(t, c, divmax.RemoteEdge, 3)
	if got := src.calls(); !reflect.DeepEqual(got, []int{4, 5, 5}) {
		t.Fatalf("over-budget round: fetches %v, want [4 5 5]", got)
	}
	if over.Cached || over.Patched || over.CoresetSize != 32 {
		t.Fatalf("over-budget round: cached=%v patched=%v union %d, want a rebuild over 32 points", over.Cached, over.Patched, over.CoresetSize)
	}
	if st := stats(c); st.FullRebuilds != 3 || st.DeltaPatches != 0 || st.CacheMisses != 3 {
		t.Fatalf("rebuilds/patches/misses = %d/%d/%d, want 3/0/3", st.FullRebuilds, st.DeltaPatches, st.CacheMisses)
	}
}

// TestReferenceModeNeverWarmStarts drives a patching cache and a
// reference one through the same stream: the answers are identical, the
// patching cache serves a verified stale answer warm, and the reference
// cache builds every engine and solves every stale query cold.
func TestReferenceModeNeverWarmStarts(t *testing.T) {
	base := []divmax.Vector{{0, 0}, {100, 0}, {0, 90}, {60, 70}}
	srcA := newFakeSource(append([]divmax.Vector(nil), base...))
	srcB := newFakeSource(append([]divmax.Vector(nil), base...))
	refCfg := testConfig()
	refCfg.Reference = true
	patching, reference := New(srcA, testConfig()), New(srcB, refCfg)

	warm := false
	for r := range 4 {
		if r > 0 {
			// A point next to the first pick joins the core-set without
			// changing the farthest-first selection.
			p := divmax.Vector{1 + float64(r), 1}
			srcA.add(0, p)
			srcB.add(0, p)
		}
		a := query(t, patching, divmax.RemoteEdge, 2)
		b := query(t, reference, divmax.RemoteEdge, 2)
		if !reflect.DeepEqual(a.Solution, b.Solution) || a.Value != b.Value {
			t.Fatalf("round %d: patching %v (%v), reference %v (%v)", r, a.Solution, a.Value, b.Solution, b.Value)
		}
		if b.WarmStarted || (r > 0 && (b.Patched || a.Cached || !a.Patched)) {
			t.Fatalf("round %d: patching patched=%v, reference patched=%v warm=%v", r, a.Patched, b.Patched, b.WarmStarted)
		}
		warm = warm || a.WarmStarted
	}
	if !warm {
		t.Fatal("the patching cache never warm-started")
	}
	if st := stats(reference); st.MemoWarmStarts != 0 || st.DeltaPatches != 0 || st.FullRebuilds != 4 || st.Merges != 4 {
		t.Fatalf("reference: warm starts %d, patches %d, rebuilds %d, merges %d; want 0, 0, 4, 4",
			st.MemoWarmStarts, st.DeltaPatches, st.FullRebuilds, st.Merges)
	}
	if st := stats(patching); st.MemoWarmStarts == 0 || st.DeltaPatches != 3 {
		t.Fatalf("patching: warm starts %d, patches %d", st.MemoWarmStarts, st.DeltaPatches)
	}
}

// TestDegradedQuorum: a degraded answer merges the parts that answered,
// in part order; below Quorum it returns the first part's error and
// counts nothing.
func TestDegradedQuorum(t *testing.T) {
	errDown := errors.New("part down")
	src := newFakeSource(grid(0, 4), grid(1000, 4), grid(2000, 4))
	src.errs[1], src.errs[2] = errDown, errors.New("also down")
	cfg := testConfig()
	cfg.Quorum = 2
	c := New(src, cfg)
	if _, err := c.Query(context.Background(), divmax.RemoteEdge, 2, nil); !errors.Is(err, errDown) {
		t.Fatalf("healthy query over failing parts: %v, want the first part's error", err)
	}
	_, missing, err := c.Degraded(context.Background(), divmax.RemoteEdge, 2, nil)
	if !errors.Is(err, errDown) || missing != 2 {
		t.Fatalf("below quorum: missing %d, err %v; want 2 and the first part's error", missing, err)
	}
	if st := stats(c); !reflect.DeepEqual(st, api.StatsResponse{SolveWorkers: 1}) {
		t.Fatalf("failed queries counted: %+v", st)
	}

	src.errs[2] = nil
	resp, missing, err := c.Degraded(context.Background(), divmax.RemoteEdge, 2, nil)
	if err != nil || missing != 1 || !resp.Degraded || resp.CoresetSize != 8 || resp.Processed != 8 {
		t.Fatalf("at quorum: %+v, missing %d, err %v", resp, missing, err)
	}
	if st := stats(c); st.DegradedQueries != 1 || st.Queries != 1 || st.CacheMisses != 0 || st.CachedCoresetPoints != 0 {
		t.Fatalf("degraded answer counted %+v", st)
	}
}

// TestConcurrentMissesRunOneRound: queries that miss together wait for
// the one round the first of them runs, and are served by it.
func TestConcurrentMissesRunOneRound(t *testing.T) {
	const n = 8
	src := newFakeSource(grid(0, 6), grid(1000, 6))
	// Room for every fetch a wrong cache could make, so that it fails
	// instead of hanging.
	src.entered, src.gate = make(chan struct{}, 2*n), make(chan struct{})
	c := New(src, testConfig())
	resps := make([]api.QueryResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			resps[i], errs[i] = c.Query(context.Background(), divmax.RemoteEdge, 3, nil)
		}()
		if i == 0 {
			<-src.entered // the first query's round is open
		}
	}
	<-src.entered
	close(src.gate)
	wg.Wait()
	if got := src.calls(); !reflect.DeepEqual(got, []int{1, 1}) {
		t.Fatalf("fetches %v, want one round", got)
	}
	for i := range n {
		if errs[i] != nil || !reflect.DeepEqual(resps[i].Solution, resps[0].Solution) {
			t.Fatalf("query %d: %v, %v", i, resps[i].Solution, errs[i])
		}
	}
	if st := stats(c); st.CacheMisses != 1 || st.CacheHits != n-1 {
		t.Fatalf("misses/hits = %d/%d, want 1/%d", st.CacheMisses, st.CacheHits, n-1)
	}
}

// TestHitDoesNotWaitForRound: the currency check runs before the rebuild
// semaphore, so a query whose state is current is served while another
// query's round still holds it.
func TestHitDoesNotWaitForRound(t *testing.T) {
	src := newFakeSource(grid(0, 6))
	c := New(src, testConfig())
	query(t, c, divmax.RemoteEdge, 3)
	src.add(0, divmax.Vector{500, 500})
	src.entered, src.gate = make(chan struct{}, 4), make(chan struct{})
	stale := make(chan error, 1)
	go func() {
		_, err := c.Query(context.Background(), divmax.RemoteEdge, 3, nil)
		stale <- err
	}()
	<-src.entered // the stale query's round is open
	src.mu.Lock()
	src.always = true
	src.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := c.Query(ctx, divmax.RemoteEdge, 2, nil)
	close(src.gate)
	if err != nil || !resp.Cached {
		t.Fatalf("current query during an open round: cached=%v, err %v", resp.Cached, err)
	}
	if err := <-stale; err != nil {
		t.Fatal(err)
	}
}
