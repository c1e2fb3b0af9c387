package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"divmax"
	"divmax/internal/api"
	"divmax/internal/cluster"
	"divmax/internal/server"
)

func TestPatchRule(t *testing.T) {
	for _, c := range []struct {
		name      string
		cached    int
		partial   []bool
		sizes     []int
		patch     bool
		wantTotal int
	}{
		{"deltas within the budget", 100, []bool{true, true}, []int{10, 15}, true, 25},
		{"deltas one past the budget", 100, []bool{true, true}, []int{10, 16}, false, 26},
		{"no new points", 100, []bool{true, true}, []int{0, 0}, true, 0},
		{"a part restructured", 100, []bool{true, false}, []int{1, 40}, false, 0},
		{"an empty cache takes no delta", 0, []bool{true, true}, []int{1, 0}, false, 1},
	} {
		patch, total := patchRule(c.cached, c.partial, c.sizes)
		if patch != c.patch || (patch && total != c.wantTotal) {
			t.Errorf("%s: patchRule = %v, %d; want %v, %d", c.name, patch, total, c.patch, c.wantTotal)
		}
	}
}

// A workload step: an ingest or delete body, or the j-th query of the
// rotation.
type step struct {
	kind           opKind
	body           []byte
	added, removed []uint64
	j              int
}

// churnSteps is a small churn: a preload, then rounds of ingest, delete
// and query. Rounds that only re-ingest absorbed points make the empty
// deltas on which the tiers label their answers differently.
func churnSteps(seed uint64, rounds int) []step {
	src := newRoundSource(seed, 8, false)
	var steps []step
	add := func(kind opKind, idx []int) {
		s := step{kind: kind}
		if kind == opIngest {
			s.body, s.added = src.gen.body(idx)
		} else {
			s.body, s.removed = src.gen.body(idx)
		}
		steps = append(steps, s)
	}
	for range 2 {
		add(opIngest, src.ingest(400))
	}
	for r := range rounds {
		add(opIngest, src.ingest(10))
		if r%3 == 0 {
			add(opDelete, src.remove(2, nil))
		}
		steps = append(steps, step{kind: opQuery, j: r}, step{kind: opQuery, j: r})
	}
	return steps
}

// compareReplay drives steps through a served divmaxd tier and through
// r, and requires equal answers and cache decisions at every query.
func compareReplay(t *testing.T, served *conn, r replayer, steps []step) {
	t.Helper()
	live := multiset{}
	paths := map[opKind]string{opIngest: "/v1/ingest", opDelete: "/v1/delete"}
	for i, s := range steps {
		if s.kind != opQuery {
			live.add(s.added)
			live.remove(s.removed)
			if _, ok := served.do(http.MethodPost, paths[s.kind], s.body); !ok {
				t.Fatalf("step %d: served %s failed", i, kindNames[s.kind])
			}
			var err error
			if s.kind == opIngest {
				err = r.ingest(s.body)
			} else {
				err = r.remove(s.body)
			}
			if err != nil {
				t.Fatalf("step %d: replay %s: %v", i, kindNames[s.kind], err)
			}
			continue
		}
		m, k := rotate(s.j)
		body, ok := served.do(http.MethodGet, queryPath(s.j), nil)
		if !ok {
			t.Fatalf("step %d: served query failed", i)
		}
		a, err := checkAnswer(body, m, k, live)
		if err != nil {
			t.Fatalf("step %d: served answer: %v", i, err)
		}
		want := a.digest
		got, err := r.query(m, k)
		if err != nil {
			t.Fatalf("step %d: replay query: %v", i, err)
		}
		if got != want {
			t.Fatalf("step %d (%s k=%d): replay %+v, served %+v", i, m, k, got, want)
		}
	}
}

func newServer(t *testing.T, shards int) *httptest.Server {
	t.Helper()
	srv, err := server.New(server.Config{Shards: shards, MaxK: maxK, KPrime: kPrime, Spares: spares, DeltaBudget: deltaBudget})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

func newCoordinator(t *testing.T) (*httptest.Server, []string) {
	t.Helper()
	var urls []string
	for range 2 {
		urls = append(urls, newServer(t, 1).URL)
	}
	co, err := cluster.New(cluster.Config{Workers: urls, MaxK: maxK, DeltaBudget: deltaBudget, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(func() {
		ts.Close()
		co.Close()
	})
	return ts, urls
}

func TestLocalReplayMatchesServer(t *testing.T) {
	served := newConn(newServer(t, 2).URL)
	defer served.close()
	res := &replayOut{measuring: true}
	r, err := newLocalReplay(newTracer(true), res, "", "")
	if err != nil {
		t.Fatal(err)
	}
	compareReplay(t, served, r, churnSteps(3, 60))
	st, err := served.stats()
	if err != nil {
		t.Fatal(err)
	}
	if res.hits != st.CacheHits || res.patches != st.DeltaPatches || res.rebuilds != st.FullRebuilds {
		t.Errorf("replay %d/%d/%d cached/patched/rebuilt; server %d/%d/%d",
			res.hits, res.patches, res.rebuilds, st.CacheHits, st.DeltaPatches, st.FullRebuilds)
	}
	if res.patches == 0 || res.rebuilds == 0 || res.hits == 0 {
		t.Errorf("the steps exercised too little: %d/%d/%d cached/patched/rebuilt", res.hits, res.patches, res.rebuilds)
	}
}

func TestClusterReplayMatchesCoordinator(t *testing.T) {
	coord, _ := newCoordinator(t)
	served := newConn(coord.URL)
	defer served.close()
	replayCoord, workers := newCoordinator(t)
	res := &replayOut{measuring: true}
	r := newClusterReplay(newTracer(true), res, replayCoord.URL, workers)
	defer r.close()
	compareReplay(t, served, r, churnSteps(4, 60))
	st, err := served.stats()
	if err != nil {
		t.Fatal(err)
	}
	if res.hits != st.CacheHits || res.patches != st.DeltaPatches || res.rebuilds != st.FullRebuilds {
		t.Errorf("replay %d/%d/%d cached/patched/rebuilt; coordinator %d/%d/%d",
			res.hits, res.patches, res.rebuilds, st.CacheHits, st.DeltaPatches, st.FullRebuilds)
	}
	if res.snapCalls == 0 {
		t.Error("no snapshot RPC was recorded")
	}
}

func TestBodiesRoundTrip(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		a, b := newRoundSource(9, 16, clustered), newRoundSource(9, 16, clustered)
		a.ingest(initialPoints)
		b.ingest(initialPoints)
		for i := range 20 {
			ia, ib := a.ingest(5), b.ingest(5)
			ba, ha := a.gen.body(ia)
			bb, _ := b.gen.body(ib)
			if !bytes.Equal(ba, bb) {
				t.Fatalf("round %d: two sources with one seed made different bodies", i)
			}
			// The points a server parses from a body are the generated ones.
			var req api.IngestRequest
			if err := json.Unmarshal(ba, &req); err != nil {
				t.Fatal(err)
			}
			for j, p := range req.Points {
				if valueHash(p) != ha[j] {
					t.Fatalf("round %d point %d does not round-trip through JSON", i, j)
				}
			}
			if da, db := a.remove(2, nil), b.remove(2, nil); !slices.Equal(da, db) || len(da) != 2 {
				t.Fatalf("round %d: deletes %v and %v differ or are short", i, da, db)
			}
		}
	}
	// The initial data set is the same whatever the seed; what follows
	// is not.
	g1, g2 := newPointGen(1, 4, false), newPointGen(2, 4, false)
	if !slices.Equal(g1.point(initialPoints-1), g2.point(initialPoints-1)) || slices.Equal(g1.point(initialPoints), g2.point(initialPoints)) {
		t.Error("the initial data set depends on the seed, or the stream after it does not")
	}

	// Deletes name only live points, each once, preferring served ones.
	s := newRoundSource(1, 2, false)
	live := multiset{}
	_, hs := s.gen.body(s.ingest(4))
	live.add(hs)
	prefer := s.served(hs[2:3])
	if !slices.Equal(prefer, []int{2}) {
		t.Fatalf("served = %v, want [2]", prefer)
	}
	if rm := s.remove(1, &prefer); !slices.Equal(rm, []int{2}) || len(prefer) != 0 {
		t.Fatalf("remove preferred %v, want the served point", rm)
	}
	live.remove(hs[2:3])
	if got := s.served(hs[2:3]); len(got) != 0 {
		t.Errorf("a deleted point is still served: %v", got)
	}
	for range 3 {
		_, rm := s.gen.body(s.remove(1, nil))
		if live[rm[0]] == 0 {
			t.Fatal("a delete named a point that is not live")
		}
		live.remove(rm)
	}
	if rm := s.remove(1, nil); len(rm) != 0 || len(live) != 0 {
		t.Errorf("removing from an empty live set named %d points", len(rm))
	}
	var pts []divmax.Vector
	if err := json.Unmarshal([]byte(`[[1,2],[3,4]]`), &pts); err != nil || string(appendBody(nil, pts)) != `{"points":[[1,2],[3,4]]}` {
		t.Errorf("appendBody = %s", appendBody(nil, pts))
	}
}
