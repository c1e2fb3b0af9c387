package server

import (
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"divmax"
	"divmax/internal/metric"
)

// highDimClusters draws embedding-shaped data: well-separated cluster
// centers in dim dimensions with tight Gaussian spread, the regime
// -project-dim is for.
func highDimClusters(rng *rand.Rand, n, dim, clusters int) []divmax.Vector {
	centers := make([]divmax.Vector, clusters)
	for c := range centers {
		v := make(divmax.Vector, dim)
		for j := range v {
			v[j] = rng.Float64() * 100
		}
		centers[c] = v
	}
	pts := make([]divmax.Vector, n)
	for i := range pts {
		c := centers[i%clusters]
		v := make(divmax.Vector, dim)
		for j := range v {
			v[j] = c[j] + rng.NormFloat64()*0.5
		}
		pts[i] = v
	}
	return pts
}

// isIngested reports whether p is byte-for-byte one of pts.
func isIngested(p divmax.Vector, pts []divmax.Vector) bool {
	for _, q := range pts {
		if len(q) != len(p) {
			continue
		}
		same := true
		for j := range q {
			if math.Float64bits(q[j]) != math.Float64bits(p[j]) {
				same = false
				break
			}
		}
		if same {
			return true
		}
	}
	return false
}

// distortionRatio computes the per-instance JL distortion envelope of
// the server's deterministic projector over every pair of pts: the
// ratio of the smallest to the largest projected/original distance
// ratio. Any solver achieving value V in the projected space achieves
// at least (ρmin/ρmax)·V′ relative to what it would achieve on the true
// distances, for the max-min and sum-of-distances measures alike.
func distortionRatio(t *testing.T, pts []divmax.Vector, outDim int) float64 {
	t.Helper()
	pr := metric.NewProjector(len(pts[0]), outDim, projectSeed)
	if pr == nil {
		t.Fatal("test shape is non-reducing")
	}
	proj := pr.ProjectAll(pts)
	rmin, rmax := math.Inf(1), math.Inf(-1)
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			orig := metric.Euclidean(pts[i], pts[j])
			if orig == 0 {
				continue
			}
			r := metric.Euclidean(proj[i], proj[j]) / orig
			rmin, rmax = math.Min(rmin, r), math.Max(rmax, r)
		}
	}
	if !(rmin > 0) || math.IsInf(rmax, 0) {
		t.Fatalf("degenerate distortion envelope [%v, %v]", rmin, rmax)
	}
	return rmin / rmax
}

// TestProjectionStatsByteIdenticalWhenOff pins the opt-in contract: a
// server without ProjectDim serves /v1/stats bodies with no projection
// fields at all, before and after traffic.
func TestProjectionStatsByteIdenticalWhenOff(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	check := func(stage string) {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(body), "project") {
			t.Fatalf("%s: projection fields leaked into unprojected stats: %s", stage, body)
		}
	}
	check("cold")
	rng := rand.New(rand.NewSource(1))
	postIngest(t, ts.URL, highDimClusters(rng, 40, 32, 4))
	getQuery(t, ts.URL, 3, divmax.RemoteEdge)
	check("after traffic")
}

// TestProjectionTrueSpaceReporting: with projection on, solutions are
// original ingested points (byte-identical membership) and the reported
// value is exactly the true-space evaluation of the returned set —
// never the projected-space objective the solver optimized.
func TestProjectionTrueSpaceReporting(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 3, MaxK: 8, ProjectDim: 12})
	rng := rand.New(rand.NewSource(7))
	pts := highDimClusters(rng, 240, 64, 8)
	postIngest(t, ts.URL, pts)
	for _, m := range []divmax.Measure{divmax.RemoteEdge, divmax.RemoteClique, divmax.RemoteStar} {
		q := getQuery(t, ts.URL, 6, m)
		if len(q.Solution) == 0 {
			t.Fatalf("%s: empty solution", m)
		}
		for i, p := range q.Solution {
			if len(p) != 64 {
				t.Fatalf("%s: solution point %d has dimension %d, want the original 64", m, i, len(p))
			}
			if !isIngested(p, pts) {
				t.Fatalf("%s: solution point %d is not an ingested original", m, i)
			}
		}
		want, _ := divmax.Evaluate(m, q.Solution, divmax.Euclidean)
		if q.Value != want {
			t.Fatalf("%s: reported value %v, true-space evaluation of the returned set %v", m, q.Value, want)
		}
	}
	st := getStats(t, ts.URL)
	if st.ProjectDim != 12 || st.ProjectedPoints != 240 {
		t.Fatalf("stats report project_dim=%d projected_points=%d, want 12 and 240",
			st.ProjectDim, st.ProjectedPoints)
	}
	if !srv.projecting() {
		t.Fatal("server did not build a projector for 64→12")
	}
}

// TestProjectionQualityEnvelope is the quality pin against brute force:
// on well-separated clusters, the projected pipeline's true-space value
// must stay within the measured per-instance distortion envelope of the
// exact optimum — the end-to-end form of the JL guarantee, with the
// pipeline's own approximation factor (2 for remote-edge) as slack.
func TestProjectionQualityEnvelope(t *testing.T) {
	const n, dim, outDim, k = 25, 48, 8, 4
	rng := rand.New(rand.NewSource(11))
	pts := highDimClusters(rng, n, dim, k)
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 8, ProjectDim: outDim})
	postIngest(t, ts.URL, pts)
	q := getQuery(t, ts.URL, k, divmax.RemoteEdge)
	_, opt, _ := divmax.Exact(divmax.RemoteEdge, pts, k, divmax.Euclidean)
	ratio := distortionRatio(t, pts, outDim)
	// Pipeline guarantee without projection: ≥ opt/2 (SequentialAlpha,
	// plus the composable core-set ε). Solving in ρ-distorted space
	// degrades any achieved value by at most ρmin/ρmax once mapped back.
	bound := 0.4 * ratio * opt
	if q.Value < bound {
		t.Fatalf("projected value %v below the distortion envelope %v (opt %v, ratio %v)",
			q.Value, bound, opt, ratio)
	}
	if q.Value > opt*(1+1e-9) {
		t.Fatalf("projected value %v exceeds the exact optimum %v", q.Value, opt)
	}
}

// TestProjectionDeleteByOriginalValue: deletes arrive in original
// coordinates and must chase the projected copies out of the shards —
// the deleted point never reappears in a solution, and re-ingesting it
// restores it.
func TestProjectionDeleteByOriginalValue(t *testing.T) {
	const dim, outDim = 32, 6
	rng := rand.New(rand.NewSource(13))
	pts := highDimClusters(rng, 40, dim, 4)
	// A far-away outlier every remote-edge solution must include.
	outlier := make(divmax.Vector, dim)
	for j := range outlier {
		outlier[j] = 1e4
	}
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 4, ProjectDim: outDim})
	postIngest(t, ts.URL, append(append([]divmax.Vector{}, pts...), outlier))
	if q := getQuery(t, ts.URL, 3, divmax.RemoteEdge); !isIngested(outlier, q.Solution) {
		t.Fatal("outlier missing from the pre-delete solution")
	}
	del := postDelete(t, ts.URL, []divmax.Vector{outlier})
	if del.Evicted+del.Spares == 0 {
		t.Fatalf("deleting a retained point matched nothing: %+v", del)
	}
	if q := getQuery(t, ts.URL, 3, divmax.RemoteEdge); isIngested(outlier, q.Solution) {
		t.Fatal("deleted outlier still in the solution")
	}
	postIngest(t, ts.URL, []divmax.Vector{outlier})
	if q := getQuery(t, ts.URL, 3, divmax.RemoteEdge); !isIngested(outlier, q.Solution) {
		t.Fatal("re-ingested outlier missing from the solution")
	}
}

// TestProjectionPassThroughBelowDim: datasets at or below ProjectDim
// flow through untouched — no projector, no projected-points counter,
// solutions straight from the shards.
func TestProjectionPassThroughBelowDim(t *testing.T) {
	srv, ts := newTestServer(t, Config{Shards: 2, MaxK: 4, ProjectDim: 8})
	rng := rand.New(rand.NewSource(17))
	pts := highDimClusters(rng, 30, 4, 3)
	postIngest(t, ts.URL, pts)
	q := getQuery(t, ts.URL, 3, divmax.RemoteEdge)
	for i, p := range q.Solution {
		if !isIngested(p, pts) {
			t.Fatalf("pass-through solution point %d is not an ingested original", i)
		}
	}
	if srv.projecting() {
		t.Fatal("projector built for a non-reducing dataset")
	}
	if st := getStats(t, ts.URL); st.ProjectedPoints != 0 {
		t.Fatalf("pass-through counted %d projected points", st.ProjectedPoints)
	}
}

// TestProjectionRejectsDataDir: the in-memory-only contract is enforced
// at construction.
func TestProjectionRejectsDataDir(t *testing.T) {
	if _, err := New(Config{ProjectDim: 8, DataDir: t.TempDir()}); err == nil {
		t.Fatal("New accepted ProjectDim together with DataDir")
	}
}

// FuzzJLSelectionQuality drives the projected pipeline with arbitrary
// quantized high-dimensional points and checks the exact end-to-end
// invariants: every solution point is an ingested original, the
// reported value is the true-space evaluation of the returned set, and
// it never exceeds the brute-force optimum for the same k.
func FuzzJLSelectionQuality(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 9, 9, 9}, uint8(2))
	f.Add([]byte{255, 0, 255, 0, 1, 1}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		if len(data) == 0 {
			return
		}
		const dim, outDim = 24, 5
		n := 2 + len(data)%7
		pts := make([]divmax.Vector, n)
		for i := range pts {
			v := make(divmax.Vector, dim)
			for j := range v {
				v[j] = float64(data[(i*dim+j)%len(data)])
			}
			pts[i] = v
		}
		k := 1 + int(kRaw)%3
		srv, err := New(Config{Shards: 2, MaxK: 4, ProjectDim: outDim})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			ts.Close()
			srv.Close()
		}()
		postIngest(t, ts.URL, pts)
		q := getQuery(t, ts.URL, k, divmax.RemoteEdge)
		for i, p := range q.Solution {
			if !isIngested(p, pts) {
				t.Fatalf("solution point %d is not an ingested original", i)
			}
		}
		want, _ := divmax.Evaluate(divmax.RemoteEdge, q.Solution, divmax.Euclidean)
		if w := finite(want); q.Value != w {
			t.Fatalf("reported value %v, true-space evaluation %v", q.Value, w)
		}
		_, opt, _ := divmax.Exact(divmax.RemoteEdge, pts, k, divmax.Euclidean)
		optV := finite(opt)
		if q.Value > optV*(1+1e-9)+1e-12 {
			t.Fatalf("value %v exceeds the brute-force optimum %v", q.Value, optV)
		}
	})
}

// finite is a diversity value as the wire reports it: min-based measures
// evaluate to +Inf on fewer than 2 points, which JSON cannot carry, so
// they read 0.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}
