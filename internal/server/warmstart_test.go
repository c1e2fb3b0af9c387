package server

import (
	"math"
	"reflect"
	"testing"

	"divmax"
)

// TestQueryReportsWarmStarted drives the HTTP surface until a stale
// memo answer is served warm, checking it against a reference server
// (DisableDeltaPatch — identical union layout, every stale query
// cold-solved, never warm-started) at every step. The stream uses the
// SMM-EXT family (remote-star): feeding points near existing centers
// lands them in delegate sets — genuine core-set joins, so the deltas
// are non-empty — while keeping them well inside the current selection
// radius, so the replay verification accepts and the memo carries warm.
func TestQueryReportsWarmStarted(t *testing.T) {
	cfg := Config{Shards: 1, MaxK: 3, KPrime: 6, DeltaBudget: 16}
	refCfg := cfg
	refCfg.DisableDeltaPatch = true
	_, ts := newTestServer(t, cfg)
	_, ref := newTestServer(t, refCfg)

	// Irregular spacings — no two inter-point distances tie, so the
	// init merge is far from any knife-edge comparison.
	base := []divmax.Vector{
		{0, 0}, {100000, 3000}, {4000, 97000}, {96000, 94000},
		{52000, 41000}, {23000, 71000}, {69000, 18000},
	}
	postIngest(t, ts.URL, base)
	postIngest(t, ref.URL, base)
	getQuery(t, ts.URL, 2, divmax.RemoteStar)
	getQuery(t, ref.URL, 2, divmax.RemoteStar)

	warmSeen := false
	targets := []divmax.Vector{{52000, 41000}, {0, 0}}
	for r := 0; r < 12; r++ {
		tgt := targets[r%len(targets)]
		p := divmax.Vector{tgt[0] + float64(3+2*r), tgt[1] + float64(5+3*r)}
		postIngest(t, ts.URL, []divmax.Vector{p})
		postIngest(t, ref.URL, []divmax.Vector{p})
		qa := getQuery(t, ts.URL, 2, divmax.RemoteStar)
		qb := getQuery(t, ref.URL, 2, divmax.RemoteStar)
		if !reflect.DeepEqual(qa.Solution, qb.Solution) || math.Float64bits(qa.Value) != math.Float64bits(qb.Value) {
			t.Fatalf("round %d: warm-start-capable server answered %v (%v), reference %v (%v)",
				r, qa.Solution, qa.Value, qb.Solution, qb.Value)
		}
		if qb.WarmStarted {
			t.Fatal("reference server reported a warm start")
		}
		warmSeen = warmSeen || qa.WarmStarted
	}
	if !warmSeen {
		t.Fatalf("no query was served warm across the churn (stats: %+v)", getStats(t, ts.URL))
	}
	if st := getStats(t, ts.URL); st.MemoWarmStarts < 1 {
		t.Fatalf("memo_warm_starts = %d, want >= 1", st.MemoWarmStarts)
	}
	if st := getStats(t, ref.URL); st.MemoWarmStarts != 0 {
		t.Fatalf("reference memo_warm_starts = %d, want 0", st.MemoWarmStarts)
	}
}
