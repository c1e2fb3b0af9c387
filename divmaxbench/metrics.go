package main

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"divmax/internal/api"
)

// value is one metric as the result line prints it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eMetrics computes the end-to-end metrics of a run.
func e2eMetrics(out *outcome) map[string]value {
	il, ql := sortedCopy(out.ingestLat), sortedCopy(out.queryLat)
	v := map[string]float64{
		"setup_s":          median(out.setups),
		"ingest_pts_per_s": out.ptsPerSec,
		"ingest_p50_ms":    percentile(il, 0.5),
		"ingest_p95_ms":    percentile(il, 0.95),
		"query_p50_ms":     percentile(ql, 0.5),
		"query_p95_ms":     percentile(ql, 0.95),
		"rss_peak_mb":      out.rssMB,
	}
	m := make(map[string]value, len(endToEnd))
	for _, s := range endToEnd {
		m[s.Name] = value{v[s.Name], s.Unit}
	}
	return m
}

// layerMetrics computes the per-layer metrics from the end-to-end run
// and the replay's two passes, traced and plain.
func layerMetrics(out *outcome, traced, plain *replayOut) map[string]value {
	v := map[string]float64{}
	wall := float64(traced.wall)
	agg := aggregate(traced.spans)
	var covered int64
	for _, name := range spanNames {
		a := agg[name]
		if a == nil {
			continue
		}
		covered += a.self
		v[name+".calls"] = float64(a.calls)
		v[name+".self_ms"] = float64(a.self) / 1e6
		v[name+".p50_us"] = percentile(a.durs, 0.5)
		v[name+".p99_us"] = percentile(a.durs, 0.99)
		if wall > 0 {
			v[name+".share"] = float64(a.self) / wall
		}
	}

	// Server counters: the single server's, or the sum over the
	// coordinator's workers; the coordinator's own cache counters stay
	// apart, as it labels an empty delta cached where a server says
	// patched.
	servers := []api.StatsResponse{out.stats}
	if out.cluster {
		servers = out.workerStats
		v["cluster.delta_patches"] = float64(out.stats.DeltaPatches)
		v["cluster.full_rebuilds"] = float64(out.stats.FullRebuilds)
		v["cluster.cache_hits"] = float64(out.stats.CacheHits)
		for _, w := range out.stats.Workers {
			v["cluster.hedged_requests"] += float64(w.HedgedRequests)
			v["cluster.retries"] += float64(w.Retries)
		}
	}
	for i := range servers {
		for name, x := range serverCounts(&servers[i]) {
			v["server."+name] += x
		}
	}
	if base := v["server.delta_patches"] + v["server.full_rebuilds"]; base > 0 {
		v["server.patch_base"] = base
		v["server.patch_ratio"] = v["server.delta_patches"] / base
	}
	if traced.walPts > 0 {
		v["server.wal_bytes_per_pt"] = float64(traced.walBytes) / float64(traced.walPts)
	}
	v["server.idle_rtt_us"] = float64(out.idleRTT) / 1e3
	v["server.unattributed_ms_per_ingest"] = meanMS(out.ingestLat) - perOpMS(plain, opIngest)
	v["server.unattributed_ms_per_query"] = meanMS(out.queryLat) - perOpMS(plain, opQuery)
	if traced.snapCalls > 0 {
		v["cluster.snapshot_bytes_per_call"] = float64(traced.snapBytes) / float64(traced.snapCalls)
	}
	v["sequential.union_pts_p50"] = percentile(sortedCopy(out.unions), 0.5)
	v["sequential.matrix_bytes_end"] = float64(out.stats.CachedMatrixBytes)
	v["metric.fill_pairs"] = float64(traced.fillPairs)
	v["metric.fill_bytes"] = float64(traced.fillBytes)
	if plain.wall > 0 {
		v["trace.overhead_pct"] = 100 * (float64(traced.wall) - float64(plain.wall)) / float64(plain.wall)
	}
	if wall > 0 {
		v["trace.coverage"] = float64(covered) / wall
	}
	v["trace.wall_ms"] = ms(traced.wall)
	v["trace.replayed_ops"] = float64(traced.replayed)
	v["gen.late_max_ms"] = ms(out.lateMax)
	v["gen.drain_ms"] = ms(out.drain)

	m := map[string]value{}
	for _, l := range perLayer() {
		m[l.Name] = value{v[l.Name], l.Unit}
	}
	return m
}

// serverCounts reads the /v1/stats counters the server.* metrics report.
func serverCounts(st *api.StatsResponse) map[string]float64 {
	var stored int64
	for _, sh := range st.Shards {
		stored += sh.Stored
	}
	return map[string]float64{
		"delta_patches":    float64(st.DeltaPatches),
		"full_rebuilds":    float64(st.FullRebuilds),
		"memo_warm_starts": float64(st.MemoWarmStarts),
		"cache_hits":       float64(st.CacheHits),
		"ingest_sheds":     float64(st.IngestSheds),
		"query_sheds":      float64(st.QuerySheds),
		"stored_pts":       float64(stored),
	}
}

func meanMS(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func perOpMS(r *replayOut, k opKind) float64 {
	if r.opCount[k] == 0 {
		return 0
	}
	return ms(r.opTime[k]) / float64(r.opCount[k])
}

// printE2E writes the end-to-end metrics with their sample counts.
func printE2E(w io.Writer, out *outcome, m map[string]value) {
	detail := map[string]string{
		"setup_s":          fmt.Sprintf("median of %d set-ups", len(out.setups)),
		"ingest_pts_per_s": out.note,
		"ingest_p50_ms":    samples(len(out.ingestLat)),
		"ingest_p95_ms":    samples(len(out.ingestLat)),
		"query_p50_ms":     samples(len(out.queryLat)),
		"query_p95_ms":     samples(len(out.queryLat)),
		"rss_peak_mb":      "summed peak RSS of the divmaxd processes",
	}
	for _, s := range endToEnd {
		fmt.Fprintf(w, "  %-20s %14.6g %-6s %s\n", s.Name, m[s.Name].Value, s.Unit, detail[s.Name])
	}
	for k := range numKinds {
		if out.tally.attempted[k] > 0 {
			fmt.Fprintf(w, "  %-20s %d failed of %d attempted\n", kindNames[k]+" ops", out.tally.failed[k], out.tally.attempted[k])
		}
	}
	fmt.Fprintf(w, "  %-20s %14.6g ms     %-s\n", "gen.late_max_ms", ms(out.lateMax), "how far behind schedule the generator sent at worst")
	fmt.Fprintf(w, "  %-20s %14.6g ms     %-s\n", "gen.drain_ms", ms(out.drain), "last response to every acked point folded")
	if out.walFsync != "" {
		fmt.Fprintf(w, "  wal: fsync=%s wal_on_tmpfs=%v\n", out.walFsync, out.walOnTmpfs)
	}
}

// samples describes a latency sample's size against the percentile
// rule: the tail percentile reported needs ten samples beyond it.
func samples(n int) string {
	p, ok := tailPercentile(n)
	switch {
	case !ok:
		return fmt.Sprintf("n=%d, too few samples for any percentile", n)
	case p < 0.95:
		return fmt.Sprintf("n=%d, below the 200 p95 needs; highest supported p%g", n, 100*p)
	default:
		return fmt.Sprintf("n=%d", n)
	}
}

// printLayers writes the per-layer metrics, a span's on one line.
func printLayers(w io.Writer, m map[string]value) {
	printed := map[string]bool{}
	for _, s := range spanNames {
		var parts []string
		for _, l := range perLayer() {
			if rest, ok := strings.CutPrefix(l.Name, s+"."); ok {
				parts = append(parts, fmt.Sprintf("%s=%.6g", rest, m[l.Name].Value))
				printed[l.Name] = true
			}
		}
		fmt.Fprintf(w, "  %-22s %s\n", s, strings.Join(parts, " "))
	}
	var rest []string
	for _, l := range perLayer() {
		if !printed[l.Name] {
			rest = append(rest, l.Name)
		}
	}
	slices.Sort(rest)
	for _, name := range rest {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
}
