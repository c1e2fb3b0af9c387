package main

// The benchmark's contract: its workloads, its end-to-end metrics with
// their regression bounds, and its per-layer metrics. BENCHMARK.json at
// the root of the repository states the same tables for tools that do
// not read Go; spec_test.go keeps the two identical.

// metricSpec is one end-to-end metric. Bound is the share of the
// baseline median by which the metric may worsen before a change counts
// as a regression; Floor, when set, is an absolute allowance in the
// metric's unit that applies instead when it is larger (set-up time is
// tens of milliseconds on some workloads, where a share alone would
// flag scheduling noise).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Floor  float64
}

// endToEnd lists the metrics a user of divmaxd would see, measured with
// tracing off. Every workload reports every one of them.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.05},
	{Name: "ingest_pts_per_s", Unit: "pts/s", Better: "higher", Bound: 0.25},
	{Name: "ingest_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ingest_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// workloadSpec names a workload and says why it exists.
type workloadSpec struct {
	Name string
	Why  string
	run  func(e *env) (*outcome, error)
}

var workloads = []workloadSpec{
	{Name: "ingest_d8", run: runIngestD8,
		Why: "Bulk load: decode and fold do almost all the work and no query runs during the load, so a query-side change must leave its ingest metrics unchanged."},
	{Name: "mixed_d8_wal", run: runMixedD8WAL,
		Why: "Writes beside reads on a schedule: each query patches a stale cache while WAL appends and folds compete for the cores. The only workload that runs the WAL."},
	{Name: "churn_d128", run: runChurnD128,
		Why: "Dynamic steady state on embedding-shaped data: delete broadcasts, delta snapshots, engine appends through the blocked d>=16 kernels, and warm starts."},
	{Name: "cluster_d8", run: runClusterD8,
		Why: "The coordinator tier: each query sends snapshot RPCs to both workers and merges on the coordinator, where large d=8 unions make rebuilds and memory cost most."},
}

// spanNames are the layer boundaries the traced replay records, one span
// per call, named layer.operation.
var spanNames = []string{
	"api.decode",
	"dataset.validate",
	"wal.append",
	"streamalg.fold_edge",
	"streamalg.fold_proxy",
	"streamalg.delete",
	"streamalg.snapshot",
	"sequential.build",
	"sequential.append",
	"sequential.solve",
	"diversity.evaluate",
	"api.encode",
	"cluster.snapshot_rpc",
	"cluster.write_rpc",
}

// timedSpans are the spans every workload's measured window runs. Only
// they get per-call times (self_ms, p50_us, p99_us): a layer a workload
// bypasses — the WAL outside mixed_d8_wal, the solver once mixed_d8_wal's
// core-sets saturate and every query carries its answers over — would
// otherwise report a time that reads 0 on every run. Every span gets
// calls and share (self time over trace.wall_ms), which read 0 where
// the layer is bypassed.
var timedSpans = map[string]bool{
	"api.decode": true,
	"api.encode": true,
}

// layerMetric is one per-layer metric: a name, its unit, and which
// direction is better.
type layerMetric struct {
	Name   string
	Unit   string
	Better string
}

// perLayer lists the metrics the traced run prints, in order.
func perLayer() []layerMetric {
	var out []layerMetric
	add := func(name, unit, better string) { out = append(out, layerMetric{name, unit, better}) }
	for _, s := range spanNames {
		add(s+".calls", "count", "lower")
		if timedSpans[s] {
			add(s+".self_ms", "ms", "lower")
			add(s+".p50_us", "us", "lower")
			add(s+".p99_us", "us", "lower")
		}
		add(s+".share", "fraction", "lower")
	}
	add("server.delta_patches", "count", "higher")
	add("server.full_rebuilds", "count", "lower")
	add("server.memo_warm_starts", "count", "higher")
	add("server.cache_hits", "count", "higher")
	add("server.patch_ratio", "fraction", "higher")
	add("server.patch_base", "count", "lower")
	add("server.ingest_sheds", "count", "lower")
	add("server.query_sheds", "count", "lower")
	add("server.stored_pts", "count", "lower")
	add("server.wal_bytes_per_pt", "B/pt", "lower")
	add("server.idle_rtt_us", "us", "lower")
	add("server.unattributed_ms_per_ingest", "ms", "lower")
	add("server.unattributed_ms_per_query", "ms", "lower")
	add("cluster.delta_patches", "count", "higher")
	add("cluster.full_rebuilds", "count", "lower")
	add("cluster.cache_hits", "count", "higher")
	add("cluster.hedged_requests", "count", "lower")
	add("cluster.retries", "count", "lower")
	add("cluster.snapshot_bytes_per_call", "B", "lower")
	add("sequential.union_pts_p50", "count", "lower")
	add("sequential.matrix_bytes_end", "B", "lower")
	add("metric.fill_pairs", "count", "lower")
	add("metric.fill_bytes", "B", "lower")
	add("trace.wall_ms", "ms", "lower")
	add("trace.overhead_pct", "%", "lower")
	add("trace.coverage", "fraction", "higher")
	add("trace.replayed_ops", "count", "higher")
	add("gen.late_max_ms", "ms", "lower")
	add("gen.drain_ms", "ms", "lower")
	return out
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func findMetric(name string) (metricSpec, bool) {
	for _, m := range endToEnd {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
