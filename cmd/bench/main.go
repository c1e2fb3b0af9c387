// Command bench runs the repository's performance-trajectory benchmarks
// and writes the results as JSON (BENCH_PR10.json in the repo root, via
// `make bench-json`), so successive PRs have a committed baseline to
// compare against.
//
// The suites cover the layers the flat-buffer distance engine and the
// round-2 solve engine touch:
//
//   - gmm: one farthest-first core-set construction (k′ = 64), fast
//     path versus the pre-PR-2 generic path, over n ∈ {10k, 100k} and
//     d ∈ {2, 8, 32}. The generic baseline runs GMM through a wrapper
//     distance implementing the pre-PR-2 Euclidean (plain in-order
//     sum plus a sqrt per pair, indirect call, scattered rows), which
//     the fast-path dispatcher deliberately does not recognize. The
//     high-dimensional rows (d ∈ {128, 512}, clustered embedding-shaped
//     data) instead baseline against the four-lane scalar kernel — the
//     same math as metric.Euclidean behind an unrecognized wrapper — so
//     their speedup isolates what the blocked norm-trick tier plus the
//     triangle-inequality pruned relax buy over the scalar code. The
//     n = 100k, d = 128 row is the PR 10 acceptance gate (>= 2x).
//   - smm_ingest: streaming SMM core-set ingestion (k = 16, k′ = 64),
//     batched fast path versus the same pre-PR-2 generic baseline.
//   - solve: the round-2 solvers on merged-core-set-sized unions —
//     MaxDispersionPairs, LocalSearchClique, and SolveCoresets — on a
//     matrix-mode solve engine (including its parallel matrix fill)
//     versus the generic callback path, which a wrapper around
//     metric.Euclidean keeps on the pre-PR-3 code.
//   - query_cache: divmaxd /query against an unchanged stream — the
//     first query after an ingest (cold: snapshot + merge + matrix
//     fill + solve) versus a repeated one (cached).
//   - solve_parallel: the sharded O(n²) farthest-partner scan across a
//     worker sweep — matrix mode at n = 4096 (solve against a prebuilt
//     matrix), tiled mode at n = 16384 (streamed row-blocks, past the
//     memory budget where the pre-PR-4 cap bailed to callbacks) — each
//     worker count against the 1-worker engine baseline, plus the
//     generic callback path for reference.
//   - dynamic_churn: the fully dynamic steady state — every round is a
//     small /v1/ingest, a couple of /v1/delete calls against random
//     earlier stream values (almost all absorbed, so the deletes are
//     tombstone broadcasts that leave the core-set generations alone),
//     and one /v1/query. Delta-patched cache versus forced full
//     rebuilds, plus the delete-outcome split and the warm-start count;
//     the acceptance gate requires delta patches to outnumber full
//     rebuilds across the churn.
//   - overload: concurrent writers hammering a deliberately slow
//     single shard (a fault-injected per-fold delay, tiny queue) with
//     load shedding on versus off. Shedding bounds the worst-case
//     ingest latency near the configured shed wait and turns the
//     excess into fast 429s; the blocking configuration accepts
//     everything but lets tail latency grow with the backlog. The gate
//     requires shedding to actually shed and to keep the max latency
//     under the blocking run's.
//   - durability: what the per-shard write-ahead log costs and what the
//     checkpoints buy. Ingest throughput with -data-dir at each fsync
//     policy (off, interval, always) against the in-memory server on
//     the identical stream, then recovery: reopening a cleanly closed
//     directory (final checkpoint, zero replay) versus an abruptly
//     closed one (no checkpoint, every record replayed from seq 1). The
//     gate requires checkpoint recovery to beat the from-zero replay at
//     n = 100k.
//   - cluster: the multi-node coordinator tier end to end — three real
//     workers behind loopback HTTP fronted by the coordinator, a bulk
//     ingest through the consistent-hash ring, then steady-state churn
//     rounds (a one-point ingest, then a query whose round-1 snapshot
//     fan re-reads every worker). Scenarios: all links healthy versus
//     worker 1 with a flaky snapshot link (every other request
//     delayed — the regime request hedging is built for), each with
//     hedging off and on. The gate requires hedging to cut the flaky
//     link's worst-round query latency.
//
// Every suite drives its servers through the cluster worker client
// (internal/cluster.Client), so the retry/backoff/typed-decode policy
// the coordinator tier runs on is exercised by every benchmark run.
//
// Every measurement interleaves the contending paths rep by rep and
// reports the per-path minimum, so slow-neighbour noise on shared
// machines cancels instead of biasing one side.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"divmax"
	"divmax/internal/api"
	"divmax/internal/cluster"
	"divmax/internal/coreset"
	"divmax/internal/faults"
	"divmax/internal/metric"
	"divmax/internal/sequential"
	"divmax/internal/server"
	"divmax/internal/streamalg"
	"divmax/internal/wal"
)

// prePREuclidean reproduces the Euclidean distance exactly as it was
// before the flat-buffer engine landed: a single in-order accumulator
// and a square root on every call. Being a distinct function, it is
// never recognized by the fast-path dispatcher, so driving an algorithm
// with it measures the pre-PR generic path.
func prePREuclidean(a, b metric.Vector) float64 {
	var sum float64
	for i := range a {
		diff := a[i] - b[i]
		sum += diff * diff
	}
	return math.Sqrt(sum)
}

type gmmCase struct {
	N      int `json:"n"`
	Dim    int `json:"dim"`
	KPrime int `json:"kprime"`
	// Data is "" for the uniform rows and "clustered" for the
	// embedding-shaped high-dimensional rows; Baseline is "" where the
	// generic contender is the pre-PR-2 Euclidean and "scalar-4lane"
	// where it is the four-lane scalar kernel (the honest baseline for
	// the blocked-tier rows).
	Data      string  `json:"data,omitempty"`
	Baseline  string  `json:"baseline,omitempty"`
	FastMS    float64 `json:"fast_ms"`
	GenericMS float64 `json:"generic_ms"`
	Speedup   float64 `json:"speedup"`
	FastPtsS  float64 `json:"fast_points_per_sec"`
}

type smmCase struct {
	N         int     `json:"n"`
	Dim       int     `json:"dim"`
	K         int     `json:"k"`
	KPrime    int     `json:"kprime"`
	FastMS    float64 `json:"fast_ms"`
	GenericMS float64 `json:"generic_ms"`
	Speedup   float64 `json:"speedup"`
	FastPtsS  float64 `json:"fast_points_per_sec"`
}

type solveCase struct {
	Algo string `json:"algo"`
	N    int    `json:"n"`
	Dim  int    `json:"dim"`
	K    int    `json:"k"`
	// FillMS is the one-time engine build (its parallel matrix fill);
	// MatrixMS is the solver on the built engine — the steady-state
	// cost once the fill is amortized (divmaxd's merge cache) or run
	// wide across cores. Speedup compares MatrixMS to GenericMS;
	// ColdSpeedup charges the fill to a single one-shot solve
	// (fill+solve vs generic), the worst case for the matrix path.
	FillMS      float64 `json:"fill_ms"`
	MatrixMS    float64 `json:"matrix_ms"`
	GenericMS   float64 `json:"generic_ms"`
	Speedup     float64 `json:"speedup"`
	ColdSpeedup float64 `json:"cold_speedup"`
}

type solveParallelCase struct {
	Algo string `json:"algo"`
	N    int    `json:"n"`
	Dim  int    `json:"dim"`
	K    int    `json:"k"`
	// Mode is "matrix" (solve against a prebuilt DistMatrix) or "tiled"
	// (no n² buffer: the scan streams row-blocks, fill fused with the
	// sharded scan — the mode that lifts the old 4096-point cap).
	Mode    string  `json:"mode"`
	Workers int     `json:"workers"`
	MS      float64 `json:"ms"`
	// SeqMS is the 1-worker engine baseline of the same mode; Speedup is
	// SeqMS/MS (the multi-worker win on the O(n²) pass). GenericMS, on
	// the 1-worker rows, is the pre-engine per-pair callback path.
	SeqMS     float64 `json:"seq_ms"`
	Speedup   float64 `json:"speedup"`
	GenericMS float64 `json:"generic_ms,omitempty"`
}

type queryCacheCase struct {
	N           int     `json:"n"`
	Dim         int     `json:"dim"`
	Shards      int     `json:"shards"`
	Measure     string  `json:"measure"`
	K           int     `json:"k"`
	CoresetSize int     `json:"coreset_size"`
	ColdMS      float64 `json:"cold_ms"`
	CachedMS    float64 `json:"cached_ms"`
	Speedup     float64 `json:"speedup"`
}

type incrementalCase struct {
	N          int    `json:"n_ingested"`
	Dim        int    `json:"dim"`
	Shards     int    `json:"shards"`
	MaxK       int    `json:"maxk"`
	KPrime     int    `json:"kprime"`
	Rounds     int    `json:"rounds"`
	RoundBatch int    `json:"round_batch"`
	UnionSize  int    `json:"coreset_union"`
	Mode       string `json:"engine_mode"`
	// A round is one small /ingest followed by one remote-clique /query
	// — the steady-state churn of a live service. Patched rounds run
	// against the default delta-patching cache (empty-delta rounds reuse
	// everything; grown rounds append matrix rows instead of refilling);
	// Rebuild rounds run the same stream with -delta-budget -1, the
	// pre-PR-5 invalidate-and-refill behavior. Min is the best round
	// (for patching, typically an absorbed batch), Avg the mean over all
	// rounds including generation-bump fallbacks.
	PatchedMinMS float64 `json:"patched_min_ms"`
	PatchedAvgMS float64 `json:"patched_avg_ms"`
	RebuildMinMS float64 `json:"rebuild_min_ms"`
	RebuildAvgMS float64 `json:"rebuild_avg_ms"`
	SpeedupMin   float64 `json:"speedup_min"`
	SpeedupAvg   float64 `json:"speedup_avg"`
	DeltaPatches int64   `json:"delta_patches"`
	FullRebuilds int64   `json:"full_rebuilds"`
}

type dynamicChurnCase struct {
	N          int    `json:"n_ingested"`
	Dim        int    `json:"dim"`
	Shards     int    `json:"shards"`
	MaxK       int    `json:"maxk"`
	KPrime     int    `json:"kprime"`
	Rounds     int    `json:"rounds"`
	RoundBatch int    `json:"round_batch"`
	Deletes    int    `json:"deletes_per_round"`
	Measure    string `json:"measure"`
	// A round is one small /v1/ingest, Deletes /v1/delete calls against
	// random earlier stream values, and one /v1/query. Patched rounds
	// run the default delta-patching cache; Rebuild rounds run the same
	// schedule with -delta-budget -1. The delete split shows the churn
	// is tombstone-dominated (non-evicting, so the patched server keeps
	// patching); WarmStarts counts queries served from a replayed stale
	// memo instead of a fresh solve.
	PatchedMinMS float64 `json:"patched_min_ms"`
	PatchedAvgMS float64 `json:"patched_avg_ms"`
	RebuildMinMS float64 `json:"rebuild_min_ms"`
	RebuildAvgMS float64 `json:"rebuild_avg_ms"`
	SpeedupAvg   float64 `json:"speedup_avg"`
	DeltaPatches int64   `json:"delta_patches"`
	FullRebuilds int64   `json:"full_rebuilds"`
	Evicting     int64   `json:"deletes_evicting"`
	Spares       int64   `json:"deletes_spares"`
	Tombstoned   int64   `json:"deletes_tombstoned"`
	WarmStarts   int64   `json:"memo_warm_starts"`
}

type overloadCase struct {
	Writers   int     `json:"writers"`
	Requests  int     `json:"requests_per_writer"`
	BatchSize int     `json:"batch_size"`
	Dim       int     `json:"dim"`
	Buffer    int     `json:"buffer"`
	FoldMS    float64 `json:"fold_delay_ms"`
	ShedMS    float64 `json:"shed_wait_ms"`
	// Both rows run the same write storm against a single shard whose
	// every fold is slowed by FoldMS through the fault injector, so the
	// queue (Buffer batches) is perpetually full. The Shed row sheds
	// after ShedMS (429 overloaded); the Block row runs ShedWait < 0,
	// the pre-robustness unbounded blocking backpressure. Latencies are
	// per-request wall times over all requests, shed or accepted.
	ShedAccepted  int64   `json:"shed_accepted"`
	ShedRejected  int64   `json:"shed_rejected"`
	ShedMaxMS     float64 `json:"shed_max_ms"`
	ShedAvgMS     float64 `json:"shed_avg_ms"`
	BlockAccepted int64   `json:"block_accepted"`
	BlockMaxMS    float64 `json:"block_max_ms"`
	BlockAvgMS    float64 `json:"block_avg_ms"`
	IngestSheds   int64   `json:"ingest_sheds"`
}

type durabilityCase struct {
	N      int `json:"n"`
	Dim    int `json:"dim"`
	Shards int `json:"shards"`
	Batch  int `json:"batch"`
	// Fsync is the WAL policy of the row — "in-memory" is the no-WAL
	// baseline server on the identical stream; "off" leaves syncing to
	// the OS, "interval" batches fsyncs on the default 100ms flusher,
	// "always" fsyncs every record before acknowledging. OverheadX is
	// this row's ingest time over the in-memory row's (1.0 = free).
	Fsync      string  `json:"fsync"`
	IngestMS   float64 `json:"ingest_ms"`
	IngestPtsS float64 `json:"ingest_points_per_sec"`
	OverheadX  float64 `json:"overhead_vs_memory,omitempty"`
	WALBytes   int64   `json:"wal_bytes,omitempty"`
}

type durabilityRecoveryCase struct {
	N      int `json:"n"`
	Dim    int `json:"dim"`
	Shards int `json:"shards"`
	// CheckpointMS reopens a cleanly closed data directory: the final
	// checkpoints restore the core-sets and zero records replay.
	// ReplayMS reopens the same stream's directory after an abrupt
	// close with checkpoints disabled: every record replays from seq 1
	// (the pre-checkpoint worst case). Both are one-shot wall times of
	// server.New through Ready (a second reopen of the replay directory
	// would hit the post-recovery checkpoint and stop being a cold
	// replay). Speedup is ReplayMS/CheckpointMS — what checkpoints buy.
	CheckpointMS   float64 `json:"recover_checkpoint_ms"`
	ReplayMS       float64 `json:"recover_replay_ms"`
	ReplayedPoints int64   `json:"replayed_points"`
	Speedup        float64 `json:"speedup"`
}

type clusterCase struct {
	Workers  int    `json:"workers"`
	N        int    `json:"n_ingested"`
	Dim      int    `json:"dim"`
	MaxK     int    `json:"maxk"`
	Rounds   int    `json:"rounds"`
	Scenario string `json:"scenario"`
	// HedgeMS is the coordinator's fixed hedge delay (-1 = hedging
	// disabled). A round is a one-point /v1/ingest through the ring
	// followed by one remote-clique /v1/query; the coordinator's
	// round-1 snapshot fan re-reads every worker on every query, so a
	// flaky snapshot link shows up directly in query latency — and
	// bounding that is hedging's job. Max/Avg are per-round query wall
	// times; Hedged and Retries sum the coordinator's per-worker
	// counters over the run.
	HedgeMS    float64 `json:"hedge_after_ms"`
	IngestMS   float64 `json:"ingest_ms"`
	IngestPtsS float64 `json:"ingest_points_per_sec"`
	QueryMaxMS float64 `json:"query_max_ms"`
	QueryAvgMS float64 `json:"query_avg_ms"`
	Hedged     int64   `json:"hedged_requests"`
	Retries    int64   `json:"retries"`
}

type report struct {
	PR            int                      `json:"pr"`
	Date          string                   `json:"date"`
	Go            string                   `json:"go"`
	GOOS          string                   `json:"goos"`
	GOARCH        string                   `json:"goarch"`
	CPUs          int                      `json:"cpus"`
	Reps          int                      `json:"reps"`
	GMMReps       int                      `json:"gmm_reps"` // the cheap GMM cells run 3× the base reps
	GMM           []gmmCase                `json:"gmm"`
	SMM           []smmCase                `json:"smm_ingest"`
	Solve         []solveCase              `json:"solve"`
	QueryCache    []queryCacheCase         `json:"query_cache"`
	SolveParallel []solveParallelCase      `json:"solve_parallel"`
	Incremental   []incrementalCase        `json:"incremental_ingest"`
	DynamicChurn  []dynamicChurnCase       `json:"dynamic_churn"`
	Overload      []overloadCase           `json:"overload"`
	Durability    []durabilityCase         `json:"durability"`
	DurabilityRec []durabilityRecoveryCase `json:"durability_recovery"`
	Cluster       []clusterCase            `json:"cluster"`
}

// bclient wraps a test server in the cluster worker client, the shared
// retry/typed-decode layer every suite drives its HTTP through.
func bclient(ts *httptest.Server, cfg cluster.ClientConfig) *cluster.Client {
	cfg.BaseURL = ts.URL
	cfg.HTTPClient = ts.Client()
	return cluster.NewClient(cfg)
}

func randomVectors(rng *rand.Rand, n, dim int) []metric.Vector {
	pts := make([]metric.Vector, n)
	for i := range pts {
		v := make(metric.Vector, dim)
		for j := range v {
			v[j] = rng.Float64() * 10
		}
		pts[i] = v
	}
	return pts
}

// clusteredVectors draws embedding-shaped high-dimensional data: a
// Gaussian mixture over ten well-separated cluster centers with a tight
// spread around each. Uniform data in high dimension concentrates every
// pairwise distance into a narrow band — a triangle-inequality bound
// can rule nothing out there, and farthest-first degenerates into
// near-ties among interchangeable points (sprinkling uniform outliers
// has the same effect: the outlier-seeking traversal selects only
// those, every point keeps a huge min-distance, and pruning never
// fires). Real embedding workloads are clustered, and that is the
// regime the d >= 128 rows measure.
func clusteredVectors(rng *rand.Rand, n, dim int) []metric.Vector {
	const clusters = 10
	centers := make([]metric.Vector, clusters)
	for c := range centers {
		v := make(metric.Vector, dim)
		for j := range v {
			v[j] = rng.Float64() * 100
		}
		centers[c] = v
	}
	pts := make([]metric.Vector, n)
	for i := range pts {
		c := centers[rng.Intn(clusters)]
		v := make(metric.Vector, dim)
		for j := range v {
			v[j] = c[j] + rng.NormFloat64()*0.5
		}
		pts[i] = v
	}
	return pts
}

// minTime runs fn reps times and returns the fastest wall time.
func minTime(reps int, fn func()) time.Duration {
	best := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		start := time.Now()
		fn()
		if el := time.Since(start); el < best {
			best = el
		}
	}
	return best
}

// minTime2 interleaves two contenders rep by rep, alternating which
// goes first, so machine-load drift hits both symmetrically; it returns
// each one's minimum.
func minTime2(reps int, a, b func()) (time.Duration, time.Duration) {
	bestA := time.Duration(math.MaxInt64)
	bestB := time.Duration(math.MaxInt64)
	for r := 0; r < reps; r++ {
		first, second := a, b
		if r%2 == 1 {
			first, second = b, a
		}
		t0 := time.Now()
		first()
		t1 := time.Now()
		second()
		t2 := time.Now()
		elA, elB := t1.Sub(t0), t2.Sub(t1)
		if r%2 == 1 {
			elA, elB = elB, elA
		}
		if elA < bestA {
			bestA = elA
		}
		if elB < bestB {
			bestB = elB
		}
	}
	return bestA, bestB
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// genericEuclid has the same semantics as metric.Euclidean but is a
// distinct function the matrix dispatcher does not recognize, so
// algorithms driven by it run the pre-PR-3 generic callback path (which
// already includes the PR-2 four-lane Euclidean) — the honest baseline
// for the round-2 solve suite.
func genericEuclid(a, b metric.Vector) float64 { return metric.Euclidean(a, b) }

// mustEqualSolutions aborts the run when two solver paths diverge; the
// committed numbers are only meaningful if the contenders do identical
// work.
func mustEqualSolutions(label string, a, b []metric.Vector) {
	ok := len(a) == len(b)
	for i := 0; ok && i < len(a); i++ {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				ok = false
				break
			}
		}
	}
	if !ok {
		fmt.Fprintf(os.Stderr, "bench: %s: matrix/generic solutions diverge\n", label)
		os.Exit(1)
	}
}

// minTimeN generalizes minTime2 to any number of contenders: every rep
// runs them all, rotating which goes first, and each one's minimum is
// reported.
func minTimeN(reps int, fns ...func()) []time.Duration {
	best := make([]time.Duration, len(fns))
	for i := range best {
		best[i] = time.Duration(math.MaxInt64)
	}
	for r := 0; r < reps; r++ {
		for o := 0; o < len(fns); o++ {
			i := (r + o) % len(fns)
			start := time.Now()
			fns[i]()
			if el := time.Since(start); el < best[i] {
				best[i] = el
			}
		}
	}
	return best
}

func main() {
	out := flag.String("out", "BENCH_PR10.json", "output JSON path")
	reps := flag.Int("reps", 5, "repetitions per measurement (minimum is reported)")
	flag.Parse()

	ctx := context.Background()
	sizes := []int{10000, 100000}
	dims := []int{2, 8, 32}
	rep := report{
		PR:      10,
		Date:    time.Now().UTC().Format(time.RFC3339),
		Go:      runtime.Version(),
		GOOS:    runtime.GOOS,
		GOARCH:  runtime.GOARCH,
		CPUs:    runtime.NumCPU(),
		Reps:    *reps,
		GMMReps: 3 * *reps,
	}
	generic := metric.Distance[metric.Vector](prePREuclidean)

	// Suite 1: GMM construction, fast vs pre-PR generic.
	const kprime = 64
	for _, n := range sizes {
		for _, dim := range dims {
			rng := rand.New(rand.NewSource(int64(n + dim)))
			pts := randomVectors(rng, n, dim)
			fastRes := coreset.GMM(pts, kprime, 0, metric.Euclidean)
			genRes := coreset.GMM(pts, kprime, 0, generic)
			for i := range fastRes.Indices {
				if fastRes.Indices[i] != genRes.Indices[i] {
					fmt.Fprintf(os.Stderr, "bench: fast/generic GMM selections diverge at n=%d d=%d\n", n, dim)
					os.Exit(1)
				}
			}
			// The GMM cells are cheap relative to the rest of the run;
			// triple the reps so the minimum has a fair shot at a quiet
			// scheduling window on busy machines.
			fast, gen := minTime2(3**reps,
				func() { coreset.GMM(pts, kprime, 0, metric.Euclidean) },
				func() { coreset.GMM(pts, kprime, 0, generic) })
			rep.GMM = append(rep.GMM, gmmCase{
				N: n, Dim: dim, KPrime: kprime,
				FastMS:    ms(fast),
				GenericMS: ms(gen),
				Speedup:   float64(gen) / float64(fast),
				FastPtsS:  float64(n) / fast.Seconds(),
			})
			fmt.Printf("gmm     n=%-7d d=%-3d fast %8.2fms  generic %8.2fms  speedup %.2fx\n",
				n, dim, ms(fast), ms(gen), float64(gen)/float64(fast))
		}
	}

	// The high-dimensional GMM rows (PR 10): the blocked norm-trick
	// kernels plus the triangle-inequality pruned relax, against the
	// four-lane scalar kernel behind an unrecognized wrapper — the same
	// math per pair, so the speedup is purely the blocked tier's. The
	// data is clustered (see clusteredVectors): uniform high-dimensional
	// data concentrates distances and defeats the pruning, which is not
	// the workload -project-dim and the blocked tier exist for. The
	// selections are validated identical before timing, and the n=100k
	// d=128 row must clear 2x — the PR 10 acceptance gate, enforced
	// here so a regression kills the run before the JSON is written.
	scalar4 := metric.Distance[metric.Vector](genericEuclid)
	for _, hc := range []struct{ n, dim int }{
		{10000, 128}, {100000, 128}, {10000, 512},
	} {
		rng := rand.New(rand.NewSource(int64(hc.n + 31*hc.dim)))
		pts := clusteredVectors(rng, hc.n, hc.dim)
		fastRes := coreset.GMM(pts, kprime, 0, metric.Euclidean)
		scalRes := coreset.GMM(pts, kprime, 0, scalar4)
		for i := range fastRes.Indices {
			if fastRes.Indices[i] != scalRes.Indices[i] {
				fmt.Fprintf(os.Stderr, "bench: blocked/scalar GMM selections diverge at n=%d d=%d\n", hc.n, hc.dim)
				os.Exit(1)
			}
		}
		fast, gen := minTime2(*reps,
			func() { coreset.GMM(pts, kprime, 0, metric.Euclidean) },
			func() { coreset.GMM(pts, kprime, 0, scalar4) })
		speedup := float64(gen) / float64(fast)
		rep.GMM = append(rep.GMM, gmmCase{
			N: hc.n, Dim: hc.dim, KPrime: kprime,
			Data: "clustered", Baseline: "scalar-4lane",
			FastMS:    ms(fast),
			GenericMS: ms(gen),
			Speedup:   speedup,
			FastPtsS:  float64(hc.n) / fast.Seconds(),
		})
		fmt.Printf("gmm     n=%-7d d=%-3d blocked %8.2fms  scalar %8.2fms  speedup %.2fx\n",
			hc.n, hc.dim, ms(fast), ms(gen), speedup)
		if hc.n == 100000 && hc.dim == 128 && speedup < 2 {
			fmt.Fprintf(os.Stderr, "bench: PR 10 gate failed: blocked GMM %.2fx over the scalar kernel at n=100k d=128 (target >= 2.0x)\n", speedup)
			os.Exit(1)
		}
	}

	// Suite 2: SMM streaming ingest, batched fast vs pre-PR generic.
	const k, smmKPrime, batchSize = 16, 64, 1024
	for _, n := range sizes {
		for _, dim := range dims {
			rng := rand.New(rand.NewSource(int64(2*n + dim)))
			pts := randomVectors(rng, n, dim)
			ingestFast := func() {
				s := streamalg.NewSMM(k, smmKPrime, metric.Euclidean)
				for lo := 0; lo < n; lo += batchSize {
					hi := min(lo+batchSize, n)
					s.ProcessBatch(pts[lo:hi])
				}
			}
			ingestGeneric := func() {
				s := streamalg.NewSMM(k, smmKPrime, generic)
				for lo := 0; lo < n; lo += batchSize {
					hi := min(lo+batchSize, n)
					s.ProcessBatch(pts[lo:hi])
				}
			}
			fast, gen := minTime2(*reps, ingestFast, ingestGeneric)
			rep.SMM = append(rep.SMM, smmCase{
				N: n, Dim: dim, K: k, KPrime: smmKPrime,
				FastMS:    ms(fast),
				GenericMS: ms(gen),
				Speedup:   float64(gen) / float64(fast),
				FastPtsS:  float64(n) / fast.Seconds(),
			})
			fmt.Printf("smm     n=%-7d d=%-3d fast %8.2fms  generic %8.2fms  speedup %.2fx\n",
				n, dim, ms(fast), ms(gen), float64(gen)/float64(fast))
		}
	}

	// Points per request of the HTTP suites' bulk ingests.
	const ingestBatch = 2000

	// Suite 3: the round-2 solvers on merged-core-set-sized unions, on
	// a matrix-mode solve engine versus the generic callback path, which
	// a wrapper around metric.Euclidean keeps on the pre-PR-3 code. The
	// engine contenders run the engine the divmaxd cache and
	// mrdiv.SolveCoresets build, with the one-time build timed
	// separately from the solver it feeds. No union exceeds 4096 points,
	// exactly the default MatrixBudget, so every engine holds a matrix.
	// d = 8 matches the acceptance gate.
	generic3 := metric.Distance[metric.Vector](genericEuclid)
	const solveDim, solveK = 8, 16
	solveBench := func(algo string, pts []metric.Vector, k int,
		engineSolve func(e *sequential.Engine) []metric.Vector,
		genericSolve func() []metric.Vector) {
		e := sequential.BuildEngine(pts, metric.Euclidean, 0)
		if e == nil || e.Tiled() {
			fmt.Fprintf(os.Stderr, "bench: %s: no matrix-mode engine for n=%d\n", algo, len(pts))
			os.Exit(1)
		}
		mustEqualSolutions(algo, engineSolve(e), genericSolve())
		// Flush garbage from earlier suites (the GMM and SMM rows leave
		// their point sets behind, ~100MB for the 100k-point d=128 row):
		// on one core a major GC landing inside the first timed fill
		// would otherwise dominate it.
		runtime.GC()
		fill := minTime(*reps, func() { sequential.BuildEngine(pts, metric.Euclidean, 0) })
		runtime.GC()
		// Each rep solves on a copy of e that holds no farthest-partner
		// index (WithWorkers), so remote-clique runs its full pass every
		// rep instead of reusing the index the first rep published.
		mat, gen := minTime2(*reps,
			func() { engineSolve(e.WithWorkers(e.Workers())) },
			func() { genericSolve() })
		rep.Solve = append(rep.Solve, solveCase{
			Algo: algo, N: len(pts), Dim: solveDim, K: k,
			FillMS: ms(fill), MatrixMS: ms(mat), GenericMS: ms(gen),
			Speedup:     float64(gen) / float64(mat),
			ColdSpeedup: float64(gen) / float64(fill+mat),
		})
		fmt.Printf("solve   %-22s n=%-6d d=%-3d fill %8.2fms  matrix %8.2fms  generic %8.2fms  speedup %.2fx (cold %.2fx)\n",
			algo, len(pts), solveDim, ms(fill), ms(mat), ms(gen),
			float64(gen)/float64(mat), float64(gen)/float64(fill+mat))
	}
	{
		rng := rand.New(rand.NewSource(101))
		pts := randomVectors(rng, 4096, solveDim)
		solveBench("max_dispersion_pairs", pts, solveK,
			func(e *sequential.Engine) []metric.Vector {
				return sequential.MaxDispersionPairsEngine(pts, e, solveK)
			},
			func() []metric.Vector { return sequential.MaxDispersionPairs(pts, solveK, generic3) })
	}
	{
		rng := rand.New(rand.NewSource(102))
		pts := randomVectors(rng, 2048, solveDim)
		const lsK, lsSweeps = 24, 16
		solveBench("local_search_clique", pts, lsK,
			func(e *sequential.Engine) []metric.Vector {
				return sequential.LocalSearchCliqueEngine(pts, e, lsK, lsSweeps)
			},
			func() []metric.Vector { return sequential.LocalSearchClique(pts, lsK, lsSweeps, generic3) })
	}
	{
		// Round 2 as the service runs it: four shard-sized remote-clique
		// core-sets whose union is the solver's input. The generic
		// contender is the full pre-PR-3 SolveCoresets round.
		rng := rand.New(rand.NewSource(103))
		cores := make([][]metric.Vector, 4)
		var union []metric.Vector
		for i := range cores {
			cores[i] = randomVectors(rng, 1024, solveDim)
			union = append(union, cores[i]...)
		}
		solveBench("solve_coresets", union, solveK,
			func(e *sequential.Engine) []metric.Vector {
				return sequential.SolveEngine(divmax.RemoteClique, union, e, solveK)
			},
			func() []metric.Vector {
				sol, err := divmax.MapReduceSolveCoresets(divmax.RemoteClique, cores, solveK, divmax.MRConfig{}, generic3)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					os.Exit(1)
				}
				return sol
			})
	}

	// Suite 4: /query against an unchanged stream, cold (first query
	// after an ingest: snapshot + merge + matrix fill + solve) versus
	// cached (every later one). A one-point ingest before each cold rep
	// invalidates the cache without meaningfully changing the stream.
	{
		const n, dim, shards, k = 50000, 8, 4, 16
		rng := rand.New(rand.NewSource(104))
		pts := randomVectors(rng, n, dim)
		// Patching disabled so "cold" keeps meaning a full snapshot +
		// merge + fill; the incremental_ingest suite measures the
		// patched path explicitly.
		srv, err := server.New(server.Config{Shards: shards, MaxK: k, DeltaBudget: -1})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		ts := httptest.NewServer(srv.Handler())
		c := bclient(ts, cluster.ClientConfig{})
		ingest := func(batch []metric.Vector) {
			if _, err := c.Ingest(ctx, batch); err != nil {
				fmt.Fprintln(os.Stderr, "bench: ingest failed:", err)
				os.Exit(1)
			}
		}
		for lo := 0; lo < n; lo += ingestBatch {
			ingest(pts[lo:min(lo+ingestBatch, n)])
		}
		var size int
		query := func(wantCached bool) time.Duration {
			start := time.Now()
			qr, err := c.Query(ctx, "remote-clique", 16)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: query failed:", err)
				os.Exit(1)
			}
			elapsed := time.Since(start)
			if qr.Cached != wantCached {
				fmt.Fprintf(os.Stderr, "bench: query cached=%v, want %v\n", qr.Cached, wantCached)
				os.Exit(1)
			}
			size = qr.CoresetSize
			return elapsed
		}
		cold := time.Duration(math.MaxInt64)
		cached := time.Duration(math.MaxInt64)
		for r := 0; r < *reps; r++ {
			i := rng.Intn(n - 1)
			ingest(pts[i : i+1]) // a one-point batch invalidates the cache
			if el := query(false); el < cold {
				cold = el
			}
			for i := 0; i < 3; i++ {
				if el := query(true); el < cached {
					cached = el
				}
			}
		}
		ts.Close()
		srv.Close()
		rep.QueryCache = append(rep.QueryCache, queryCacheCase{
			N: n, Dim: dim, Shards: shards, Measure: "remote-clique", K: k,
			CoresetSize: size,
			ColdMS:      ms(cold), CachedMS: ms(cached),
			Speedup: float64(cold) / float64(cached),
		})
		fmt.Printf("query   cache n=%-6d d=%-3d coreset=%-5d cold %8.2fms  cached %8.4fms  speedup %.1fx\n",
			n, dim, size, ms(cold), ms(cached), float64(cold)/float64(cached))
	}

	// Suite 5: the sharded O(n²) farthest-partner scan across a worker
	// sweep. n = 4096 sits exactly at the matrix budget, so the engine
	// solves against a prebuilt matrix (the fill is excluded, as in the
	// divmaxd cache's steady state); larger n is past it — so the engine
	// streams row-block tiles, fill fused with the sharded scan (before
	// PR 4 those sizes silently fell back to the per-pair callback path,
	// timed here as generic_ms). The high-dimensional rows (clustered
	// data, d >= 128) route the fill through the blocked kernel tier: in
	// tiled mode the fill is fused into every timed scan, so those rows
	// measure the blocked tier directly, while the matrix-mode d=512 row
	// shows the scan itself is dimension-free once the matrix is built.
	// Every worker count is validated bit-identical before timing.
	{
		const spK = 16
		sweep := []int{1, 2, 4}
		if nc := runtime.NumCPU(); nc > 4 {
			sweep = append(sweep, nc)
		}
		for _, sp := range []struct{ n, dim int }{
			{4096, 8}, {16384, 8}, {8192, 128}, {4096, 512},
		} {
			n, spDim := sp.n, sp.dim
			rng := rand.New(rand.NewSource(int64(200 + n + spDim)))
			var pts []metric.Vector
			if spDim >= metric.BlockedMinDim {
				pts = clusteredVectors(rng, n, spDim)
			} else {
				pts = randomVectors(rng, n, spDim)
			}
			base := sequential.BuildEngine(pts, metric.Euclidean, sweep[0])
			if base == nil {
				fmt.Fprintf(os.Stderr, "bench: solve_parallel: BuildEngine rejected n=%d\n", n)
				os.Exit(1)
			}
			// One fill, shared across the sweep: the per-worker engines
			// differ only in their scan sharding.
			engines := make([]*sequential.Engine, len(sweep))
			for i, w := range sweep {
				engines[i] = base.WithWorkers(w)
			}
			mode := "matrix"
			if engines[0].Tiled() {
				mode = "tiled"
			}
			if wantTiled := n > 4096; engines[0].Tiled() != wantTiled {
				fmt.Fprintf(os.Stderr, "bench: solve_parallel: n=%d built %s mode\n", n, mode)
				os.Exit(1)
			}
			want := sequential.MaxDispersionPairs(pts, spK, generic3)
			for i := range engines {
				mustEqualSolutions("solve_parallel", sequential.MaxDispersionPairsEngine(pts, engines[i], spK), want)
			}
			spReps := *reps
			if n*spDim > 65536 && spReps > 3 {
				spReps = 3 // the tiled and high-d cells run whole-seconds each
			}
			// Each rep solves on an unindexed copy, so it times the
			// sharded pass rather than the index the check above published.
			fns := make([]func(), 0, len(sweep)+1)
			for i := range engines {
				e := engines[i]
				fns = append(fns, func() { sequential.MaxDispersionPairsEngine(pts, e.WithWorkers(e.Workers()), spK) })
			}
			fns = append(fns, func() { sequential.MaxDispersionPairs(pts, spK, generic3) })
			runtime.GC()
			times := minTimeN(spReps, fns...)
			seq, genericTime := times[0], times[len(times)-1]
			for i, w := range sweep {
				c := solveParallelCase{
					Algo: "max_dispersion_pairs", N: n, Dim: spDim, K: spK,
					Mode: mode, Workers: w,
					MS:    ms(times[i]),
					SeqMS: ms(seq), Speedup: float64(seq) / float64(times[i]),
				}
				if w == 1 {
					c.GenericMS = ms(genericTime)
				}
				rep.SolveParallel = append(rep.SolveParallel, c)
				fmt.Printf("solvepar %-6s n=%-6d w=%-2d scan %8.2fms  seq %8.2fms  speedup %.2fx\n",
					mode, n, w, ms(times[i]), ms(seq), float64(seq)/float64(times[i]))
			}
			fmt.Printf("solvepar %-6s n=%-6d generic(callback) %8.2fms\n", mode, n, ms(genericTime))
		}
	}

	// Suite 6: incremental_ingest — ingest-then-query churn against a
	// live service, delta-patched cache versus forced full rebuilds.
	// Each round is one small /ingest followed by one remote-clique
	// /query; both servers see the identical stream. The SMM-EXT union
	// sizes with MaxK·KPrime, so the small config solves matrix-mode
	// within the default budget and the large one crosses into tiled.
	for _, cc := range []struct {
		maxK, kprime, n int
	}{
		// Small config: the union fits the matrix budget. Large config:
		// the union crosses into tiled mode, and the longer initial
		// stream saturates the delegate sets so churn rounds include
		// absorbed batches (empty deltas — the steady state of a
		// long-lived service, where a patch also carries the answer
		// memo over).
		{16, 64, 12000},
		{32, 128, 40000},
	} {
		n := cc.n
		const (
			dim        = 8
			shards     = 2
			rounds     = 10
			roundBatch = 100
		)
		churn := func(deltaBudget float64) (minRound, avgRound time.Duration, st api.StatsResponse, union int) {
			rng := rand.New(rand.NewSource(int64(7000 + cc.maxK)))
			pts := randomVectors(rng, n+rounds*roundBatch, dim)
			srv, err := server.New(server.Config{
				Shards: shards, MaxK: cc.maxK, KPrime: cc.kprime, DeltaBudget: deltaBudget,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Close() }()
			c := bclient(ts, cluster.ClientConfig{})
			ingest := func(batch []metric.Vector) {
				if _, err := c.Ingest(ctx, batch); err != nil {
					fmt.Fprintln(os.Stderr, "bench: ingest failed:", err)
					os.Exit(1)
				}
			}
			for lo := 0; lo < n; lo += ingestBatch {
				ingest(pts[lo:min(lo+ingestBatch, n)])
			}
			query := func() int {
				qr, err := c.Query(ctx, "remote-clique", cc.maxK)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench: query failed:", err)
					os.Exit(1)
				}
				return qr.CoresetSize
			}
			query() // build the initial cached state outside the timed rounds
			minRound = time.Duration(math.MaxInt64)
			var sum time.Duration
			for r := 0; r < rounds; r++ {
				lo := n + r*roundBatch
				start := time.Now()
				ingest(pts[lo : lo+roundBatch])
				union = query()
				el := time.Since(start)
				sum += el
				if el < minRound {
					minRound = el
				}
			}
			avgRound = sum / rounds
			if st, err = c.Stats(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "bench: stats failed:", err)
				os.Exit(1)
			}
			return minRound, avgRound, st, union
		}
		patchedMin, patchedAvg, patchedStats, union := churn(0) // 0 = the default budget
		rebuildMin, rebuildAvg, _, _ := churn(-1)               // patching disabled
		if patchedStats.DeltaPatches == 0 {
			fmt.Fprintln(os.Stderr, "bench: incremental_ingest churn performed no delta patches")
			os.Exit(1)
		}
		mode := "matrix"
		if patchedStats.TiledSolves > 0 {
			mode = "tiled"
		}
		rep.Incremental = append(rep.Incremental, incrementalCase{
			N: n + rounds*roundBatch, Dim: dim, Shards: shards,
			MaxK: cc.maxK, KPrime: cc.kprime,
			Rounds: rounds, RoundBatch: roundBatch,
			UnionSize: union, Mode: mode,
			PatchedMinMS: ms(patchedMin), PatchedAvgMS: ms(patchedAvg),
			RebuildMinMS: ms(rebuildMin), RebuildAvgMS: ms(rebuildAvg),
			SpeedupMin:   float64(rebuildMin) / float64(patchedMin),
			SpeedupAvg:   float64(rebuildAvg) / float64(patchedAvg),
			DeltaPatches: patchedStats.DeltaPatches,
			FullRebuilds: patchedStats.FullRebuilds,
		})
		fmt.Printf("incr    %-6s n=%-6d union=%-5d patched %8.2f/%8.2fms  rebuild %8.2f/%8.2fms  speedup %.1f/%.1fx  patches=%d\n",
			mode, n+rounds*roundBatch, union,
			ms(patchedMin), ms(patchedAvg), ms(rebuildMin), ms(rebuildAvg),
			float64(rebuildMin)/float64(patchedMin), float64(rebuildAvg)/float64(patchedAvg),
			patchedStats.DeltaPatches)
	}

	// Suite 7: dynamic_churn — insert/delete/query interleave against the
	// typed /v1 API. The deletes target random earlier stream values:
	// with k′ = 64 almost everything in the stream is absorbed, so the
	// churn is tombstone-dominated and the patched server must keep
	// resolving stale queries as delta patches (the PR 6 acceptance
	// gate), with the occasional retained-point delete exercising the
	// eviction → rebuild fallback on the same schedule. The
	// high-dimensional rows run the identical interleave on clustered
	// embedding-shaped data, so every patched round's grown-matrix
	// stripe and every rebuild's full fill go through the blocked
	// kernel tier.
	for _, ch := range []struct{ n, dim int }{
		{12000, 8}, {8000, 128}, {4000, 512},
	} {
		chN, chDim := ch.n, ch.dim
		const (
			chShards          = 2
			chMaxK, chKPrime  = 16, 64
			chRounds, chBatch = 20, 50
			chDeletes         = 2
			chMeasure         = "remote-edge"
		)
		churn := func(deltaBudget float64) (minRound, avgRound time.Duration, st api.StatsResponse) {
			rng := rand.New(rand.NewSource(int64(9001 + chN + chDim)))
			var pts []metric.Vector
			if chDim >= metric.BlockedMinDim {
				pts = clusteredVectors(rng, chN+chRounds*chBatch, chDim)
			} else {
				pts = randomVectors(rng, chN+chRounds*chBatch, chDim)
			}
			srv, err := server.New(server.Config{
				Shards: chShards, MaxK: chMaxK, KPrime: chKPrime, DeltaBudget: deltaBudget,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Close() }()
			c := bclient(ts, cluster.ClientConfig{})
			ingest := func(batch []metric.Vector) {
				if _, err := c.Ingest(ctx, batch); err != nil {
					fmt.Fprintln(os.Stderr, "bench: ingest failed:", err)
					os.Exit(1)
				}
			}
			for lo := 0; lo < chN; lo += ingestBatch {
				ingest(pts[lo:min(lo+ingestBatch, chN)])
			}
			query := func() {
				if _, err := c.Query(ctx, chMeasure, chMaxK); err != nil {
					fmt.Fprintln(os.Stderr, "bench: query failed:", err)
					os.Exit(1)
				}
			}
			query() // build the initial cached state outside the timed rounds
			minRound = time.Duration(math.MaxInt64)
			var sum time.Duration
			for r := 0; r < chRounds; r++ {
				lo := chN + r*chBatch
				dels := make([]metric.Vector, chDeletes)
				for i := range dels {
					dels[i] = pts[rng.Intn(lo)]
				}
				start := time.Now()
				ingest(pts[lo : lo+chBatch])
				if _, err := c.Delete(ctx, dels, false); err != nil {
					fmt.Fprintln(os.Stderr, "bench: delete failed:", err)
					os.Exit(1)
				}
				query()
				el := time.Since(start)
				sum += el
				if el < minRound {
					minRound = el
				}
			}
			avgRound = sum / chRounds
			if st, err = c.Stats(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "bench: stats failed:", err)
				os.Exit(1)
			}
			return minRound, avgRound, st
		}
		patchedMin, patchedAvg, patchedStats := churn(0) // 0 = the default budget
		rebuildMin, rebuildAvg, _ := churn(-1)           // patching disabled
		if patchedStats.DeltaPatches <= patchedStats.FullRebuilds {
			fmt.Fprintf(os.Stderr, "bench: dynamic_churn d=%d: delta patches (%d) did not outnumber full rebuilds (%d)\n",
				chDim, patchedStats.DeltaPatches, patchedStats.FullRebuilds)
			os.Exit(1)
		}
		rep.DynamicChurn = append(rep.DynamicChurn, dynamicChurnCase{
			N: chN + chRounds*chBatch, Dim: chDim, Shards: chShards,
			MaxK: chMaxK, KPrime: chKPrime,
			Rounds: chRounds, RoundBatch: chBatch, Deletes: chDeletes,
			Measure:      chMeasure,
			PatchedMinMS: ms(patchedMin), PatchedAvgMS: ms(patchedAvg),
			RebuildMinMS: ms(rebuildMin), RebuildAvgMS: ms(rebuildAvg),
			SpeedupAvg:   float64(rebuildAvg) / float64(patchedAvg),
			DeltaPatches: patchedStats.DeltaPatches,
			FullRebuilds: patchedStats.FullRebuilds,
			Evicting:     patchedStats.DeletesEvicting,
			Spares:       patchedStats.DeletesSpares,
			Tombstoned:   patchedStats.DeletesTombstoned,
			WarmStarts:   patchedStats.MemoWarmStarts,
		})
		fmt.Printf("churn   n=%-6d d=%-3d patched %8.2f/%8.2fms  rebuild %8.2f/%8.2fms  patches=%d rebuilds=%d dels=%d/%d/%d warm=%d\n",
			chN+chRounds*chBatch, chDim,
			ms(patchedMin), ms(patchedAvg), ms(rebuildMin), ms(rebuildAvg),
			patchedStats.DeltaPatches, patchedStats.FullRebuilds,
			patchedStats.DeletesEvicting, patchedStats.DeletesSpares, patchedStats.DeletesTombstoned,
			patchedStats.MemoWarmStarts)
	}

	// Suite 8: overload — the PR 7 load-shedding trade-off, measured.
	// Concurrent writers blast ingest batches at a single shard whose
	// every fold is slowed through the fault injector, so the tiny
	// queue is full for the whole storm. With shedding on, a request
	// waits at most the shed wait before a fast 429 bounds its latency;
	// with shedding off (the pre-PR behaviour) every request eventually
	// lands but the tail waits behind the whole backlog.
	{
		const (
			ovWriters  = 8
			ovRequests = 12 // ingest calls per writer
			ovBatch    = 20 // points per call
			ovDim      = 4
			ovBuffer   = 2
			ovFold     = 4 * time.Millisecond
			ovShed     = 4 * time.Millisecond
		)
		storm := func(shedWait time.Duration) (accepted, rejected int64, maxLat, avgLat time.Duration, st api.StatsResponse) {
			inj := faults.New()
			inj.OnBatch(faults.SlowBatch(0, ovFold))
			srv, err := server.New(server.Config{
				Shards: 1, MaxK: 8, KPrime: 32, Buffer: ovBuffer,
				ShedWait: shedWait, Faults: inj,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Close() }()
			// Retries disabled: the suite counts every raw 429 the shedder
			// returns, so the client must surface them instead of backing
			// off and retrying into an eventual accept.
			c := bclient(ts, cluster.ClientConfig{MaxRetries: -1})
			rng := rand.New(rand.NewSource(77))
			pts := randomVectors(rng, ovWriters*ovRequests*ovBatch, ovDim)
			var acc, rej, unexpected, maxNS, sumNS atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < ovWriters; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for r := 0; r < ovRequests; r++ {
						lo := (w*ovRequests + r) * ovBatch
						body, err := json.Marshal(api.IngestRequest{Points: pts[lo : lo+ovBatch]})
						if err != nil {
							unexpected.Add(1)
							return
						}
						start := time.Now()
						_, err = c.IngestBody(ctx, body)
						el := int64(time.Since(start))
						var he *cluster.HTTPError
						switch {
						case err == nil:
							acc.Add(1)
						case errors.As(err, &he) && he.Status == http.StatusTooManyRequests:
							rej.Add(1)
						default:
							unexpected.Add(1)
						}
						sumNS.Add(el)
						for {
							cur := maxNS.Load()
							if el <= cur || maxNS.CompareAndSwap(cur, el) {
								break
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if unexpected.Load() != 0 {
				fmt.Fprintf(os.Stderr, "bench: overload: %d requests failed outright (shed_wait=%v)\n", unexpected.Load(), shedWait)
				os.Exit(1)
			}
			if st, err = c.Stats(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "bench: overload stats failed:", err)
				os.Exit(1)
			}
			total := acc.Load() + rej.Load()
			return acc.Load(), rej.Load(), time.Duration(maxNS.Load()), time.Duration(sumNS.Load() / total), st
		}
		shedAcc, shedRej, shedMax, shedAvg, shedStats := storm(ovShed)
		blockAcc, blockRej, blockMax, blockAvg, _ := storm(-1)
		total := int64(ovWriters * ovRequests)
		if shedRej == 0 || shedStats.IngestSheds == 0 {
			fmt.Fprintf(os.Stderr, "bench: overload: shedding config shed nothing (rejected=%d ingest_sheds=%d)\n", shedRej, shedStats.IngestSheds)
			os.Exit(1)
		}
		if blockRej != 0 || blockAcc != total {
			fmt.Fprintf(os.Stderr, "bench: overload: blocking config dropped requests (accepted=%d/%d rejected=%d)\n", blockAcc, total, blockRej)
			os.Exit(1)
		}
		if shedMax >= blockMax {
			fmt.Fprintf(os.Stderr, "bench: overload: shedding max latency %v not under blocking max %v\n", shedMax, blockMax)
			os.Exit(1)
		}
		rep.Overload = append(rep.Overload, overloadCase{
			Writers: ovWriters, Requests: ovRequests, BatchSize: ovBatch, Dim: ovDim,
			Buffer: ovBuffer, FoldMS: ms(ovFold), ShedMS: ms(ovShed),
			ShedAccepted: shedAcc, ShedRejected: shedRej,
			ShedMaxMS: ms(shedMax), ShedAvgMS: ms(shedAvg),
			BlockAccepted: blockAcc,
			BlockMaxMS:    ms(blockMax), BlockAvgMS: ms(blockAvg),
			IngestSheds: shedStats.IngestSheds,
		})
		fmt.Printf("overload %dx%d shed  acc=%-3d rej=%-3d max %8.2fms avg %8.2fms   block acc=%-3d max %8.2fms avg %8.2fms\n",
			ovWriters, ovRequests, shedAcc, shedRej, ms(shedMax), ms(shedAvg),
			blockAcc, ms(blockMax), ms(blockAvg))
	}

	// Suite 9: durability — the WAL's ingest overhead at each fsync
	// policy against the in-memory server, then recovery time: a cleanly
	// closed directory (checkpoint restore, zero replay) versus an
	// abruptly closed one with checkpoints disabled (every record
	// replayed from seq 1). The interval-policy directory doubles as the
	// checkpoint-recovery input; the off-policy one, closed abruptly, as
	// the cold-replay input — both hold the identical stream.
	{
		const duShards, duDim, duMaxK = 4, 8, 16
		for _, n := range sizes {
			rng := rand.New(rand.NewSource(int64(5*n + duDim)))
			pts := randomVectors(rng, n, duDim)
			bodies := make([][]byte, 0, (n+ingestBatch-1)/ingestBatch)
			for lo := 0; lo < n; lo += ingestBatch {
				hi := min(lo+ingestBatch, n)
				body, err := json.Marshal(api.IngestRequest{Points: pts[lo:hi]})
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					os.Exit(1)
				}
				bodies = append(bodies, body)
			}
			duStats := func(srv *server.Server) api.StatsResponse {
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()
				st, err := bclient(ts, cluster.ClientConfig{}).Stats(ctx)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench: durability stats failed:", err)
					os.Exit(1)
				}
				return st
			}
			// ingestRun streams the whole prebuilt body set into a fresh
			// server and returns the wall time plus the still-open server
			// (the caller chooses how to close it).
			ingestRun := func(cfg server.Config) (time.Duration, *server.Server) {
				srv, err := server.New(cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					os.Exit(1)
				}
				for !srv.Ready() {
					time.Sleep(100 * time.Microsecond)
				}
				ts := httptest.NewServer(srv.Handler())
				c := bclient(ts, cluster.ClientConfig{})
				start := time.Now()
				for _, body := range bodies {
					if _, err := c.IngestBody(ctx, body); err != nil {
						fmt.Fprintln(os.Stderr, "bench: durable ingest failed:", err)
						os.Exit(1)
					}
				}
				el := time.Since(start)
				ts.Close()
				return el, srv
			}
			var memMS float64
			var ckptDir, replayDir string
			for _, mode := range []string{"in-memory", "off", "interval", "always"} {
				cfg := server.Config{Shards: duShards, MaxK: duMaxK, CheckpointEvery: -time.Second}
				if mode != "in-memory" {
					dir, err := os.MkdirTemp("", "divmax-bench-wal-")
					if err != nil {
						fmt.Fprintln(os.Stderr, "bench:", err)
						os.Exit(1)
					}
					defer os.RemoveAll(dir)
					cfg.DataDir = dir
					policy, err := wal.ParseSyncPolicy(mode)
					if err != nil {
						fmt.Fprintln(os.Stderr, "bench:", err)
						os.Exit(1)
					}
					cfg.Fsync = policy
				}
				el, srv := ingestRun(cfg)
				c := durabilityCase{
					N: n, Dim: duDim, Shards: duShards, Batch: ingestBatch,
					Fsync:      mode,
					IngestMS:   ms(el),
					IngestPtsS: float64(n) / el.Seconds(),
				}
				if mode == "in-memory" {
					memMS = c.IngestMS
					srv.Close()
				} else {
					c.OverheadX = c.IngestMS / memMS
					for _, sh := range duStats(srv).Shards {
						c.WALBytes += sh.WALBytes
					}
					switch mode {
					case "interval":
						// A clean close writes the final checkpoints: this
						// directory becomes the checkpoint-recovery input.
						ckptDir = cfg.DataDir
						srv.Close()
					case "off":
						// An abrupt close with the ticker disabled leaves no
						// checkpoint at all: the cold-replay input.
						replayDir = cfg.DataDir
						srv.CloseAbrupt()
					default:
						srv.Close()
					}
				}
				rep.Durability = append(rep.Durability, c)
				fmt.Printf("durable n=%-7d d=%-3d fsync=%-9s ingest %8.2fms (%.0f pts/s)  overhead %.2fx\n",
					n, duDim, mode, c.IngestMS, c.IngestPtsS, c.OverheadX)
			}
			// Recovery: one-shot reopen of each directory, timed through
			// Ready. The replay reopen writes post-recovery checkpoints, so
			// it is only a cold replay once — measured first and exactly
			// once.
			reopen := func(dir string) (time.Duration, int64, int64) {
				start := time.Now()
				srv, err := server.New(server.Config{Shards: duShards, MaxK: duMaxK, DataDir: dir})
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					os.Exit(1)
				}
				for !srv.Ready() {
					time.Sleep(100 * time.Microsecond)
				}
				el := time.Since(start)
				st := duStats(srv)
				var replayed int64
				for _, sh := range st.Shards {
					replayed += sh.ReplayedPoints
				}
				srv.Close()
				return el, replayed, st.IngestedTotal
			}
			replayEl, replayedCold, totalCold := reopen(replayDir)
			ckptEl, replayedCkpt, totalCkpt := reopen(ckptDir)
			if replayedCold != int64(n) || replayedCkpt != 0 || totalCold != int64(n) || totalCkpt != int64(n) {
				fmt.Fprintf(os.Stderr, "bench: durability recovery shapes wrong: cold replayed %d/%d, checkpoint replayed %d (want %d/%d, 0)\n",
					replayedCold, totalCold, replayedCkpt, n, n)
				os.Exit(1)
			}
			rc := durabilityRecoveryCase{
				N: n, Dim: duDim, Shards: duShards,
				CheckpointMS:   ms(ckptEl),
				ReplayMS:       ms(replayEl),
				ReplayedPoints: replayedCold,
				Speedup:        float64(replayEl) / float64(ckptEl),
			}
			rep.DurabilityRec = append(rep.DurabilityRec, rc)
			fmt.Printf("recover n=%-7d d=%-3d checkpoint %8.2fms  cold replay %8.2fms  speedup %.1fx\n",
				n, duDim, rc.CheckpointMS, rc.ReplayMS, rc.Speedup)
			if n == 100000 && rc.CheckpointMS >= rc.ReplayMS {
				fmt.Fprintf(os.Stderr, "bench: durability: checkpoint recovery (%.2fms) not faster than cold replay (%.2fms) at n=100k\n",
					rc.CheckpointMS, rc.ReplayMS)
				os.Exit(1)
			}
		}
	}

	// Suite 10: cluster — the multi-node coordinator tier end to end, on
	// the in-process harness the chaos tests run on: three real workers
	// behind loopback HTTP, fronted by the coordinator. One bulk ingest
	// through the consistent-hash ring, then churn rounds of a one-point
	// ingest followed by a remote-clique query. Every query's round-1
	// snapshot fan re-reads all three workers, so worker 1's flaky
	// snapshot link (every other request delayed by clSlow) puts the
	// delay straight into query latency — unless hedging launches the
	// second attempt, which FlakyDelay lets through fast.
	{
		const (
			clWorkers = 3
			clShards  = 2
			clN       = 9000
			clDim     = 8
			clMaxK    = 16
			clRounds  = 8
			clSlow    = 60 * time.Millisecond
			clHedge   = 10 * time.Millisecond
		)
		run := func(scenario string, flaky bool, hedge time.Duration) clusterCase {
			var inj *faults.Injector
			if flaky {
				inj = faults.New()
				inj.OnHTTP(faults.FlakyDelay(1, "/snapshot", clSlow))
			}
			h, err := cluster.StartCluster(cluster.HarnessOptions{
				Workers: clWorkers,
				Worker:  server.Config{Shards: clShards, MaxK: clMaxK},
				Coordinator: cluster.Config{
					MaxK:          clMaxK,
					ProbeInterval: -1, // membership is not under test here
					HedgeAfter:    hedge,
				},
				Injector: inj,
			})
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			defer h.Close()
			c := cluster.NewClient(cluster.ClientConfig{
				BaseURL:    h.CoordServer.URL,
				HTTPClient: h.CoordServer.Client(),
			})
			rng := rand.New(rand.NewSource(1100))
			pts := randomVectors(rng, clN+clRounds, clDim)
			start := time.Now()
			for lo := 0; lo < clN; lo += ingestBatch {
				if _, err := c.Ingest(ctx, pts[lo:min(lo+ingestBatch, clN)]); err != nil {
					fmt.Fprintln(os.Stderr, "bench: cluster ingest failed:", err)
					os.Exit(1)
				}
			}
			ingestEl := time.Since(start)
			// Build the initial merged state outside the timed rounds.
			if _, err := c.Query(ctx, "remote-clique", clMaxK); err != nil {
				fmt.Fprintln(os.Stderr, "bench: cluster query failed:", err)
				os.Exit(1)
			}
			var maxQ, sumQ time.Duration
			for r := 0; r < clRounds; r++ {
				if _, err := c.Ingest(ctx, pts[clN+r:clN+r+1]); err != nil {
					fmt.Fprintln(os.Stderr, "bench: cluster ingest failed:", err)
					os.Exit(1)
				}
				start := time.Now()
				qr, err := c.Query(ctx, "remote-clique", clMaxK)
				el := time.Since(start)
				if err != nil || qr.Degraded {
					fmt.Fprintf(os.Stderr, "bench: cluster query failed: %v (degraded=%v)\n", err, qr.Degraded)
					os.Exit(1)
				}
				sumQ += el
				if el > maxQ {
					maxQ = el
				}
			}
			st, err := c.Stats(ctx)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: cluster stats failed:", err)
				os.Exit(1)
			}
			var hedged, retries int64
			for _, w := range st.Workers {
				hedged += w.HedgedRequests
				retries += w.Retries
			}
			hedgeMS, hedgeLabel := -1.0, "off"
			if hedge > 0 {
				hedgeMS, hedgeLabel = ms(hedge), hedge.String()
			}
			cl := clusterCase{
				Workers: clWorkers, N: clN, Dim: clDim, MaxK: clMaxK,
				Rounds: clRounds, Scenario: scenario,
				HedgeMS:    hedgeMS,
				IngestMS:   ms(ingestEl),
				IngestPtsS: float64(clN) / ingestEl.Seconds(),
				QueryMaxMS: ms(maxQ),
				QueryAvgMS: ms(sumQ / clRounds),
				Hedged:     hedged,
				Retries:    retries,
			}
			rep.Cluster = append(rep.Cluster, cl)
			fmt.Printf("cluster %-10s hedge=%-4s ingest %8.2fms (%.0f pts/s)  query max %8.2fms avg %8.2fms  hedged=%d\n",
				scenario, hedgeLabel, cl.IngestMS, cl.IngestPtsS, cl.QueryMaxMS, cl.QueryAvgMS, hedged)
			return cl
		}
		run("healthy", false, -1)
		run("healthy", false, clHedge)
		noHedge := run("flaky-link", true, -1)
		withHedge := run("flaky-link", true, clHedge)
		if withHedge.Hedged == 0 {
			fmt.Fprintln(os.Stderr, "bench: cluster: the flaky-link run with hedging enabled launched no hedges")
			os.Exit(1)
		}
		if withHedge.QueryMaxMS >= noHedge.QueryMaxMS {
			fmt.Fprintf(os.Stderr, "bench: cluster: hedging did not cut the flaky-link worst round (%.2fms vs %.2fms)\n",
				withHedge.QueryMaxMS, noHedge.QueryMaxMS)
			os.Exit(1)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)

	// The acceptance gates, surfaced loudly so a regression is visible
	// in CI logs without parsing the JSON: PR 2's (flat GMM ≥ 2× at
	// n=100k d=8) and PR 3's (matrix MaxDispersionPairs ≥ 2× at n=4096
	// d=8; cached /query ≥ 5× cold).
	for _, c := range rep.GMM {
		if c.N == 100000 && c.Dim == 8 {
			fmt.Printf("acceptance: GMM n=100k d=8 speedup %.2fx (target >= 2.0x)\n", c.Speedup)
		}
		if c.N == 100000 && c.Dim == 128 {
			fmt.Printf("acceptance: GMM n=100k d=128 blocked vs scalar kernel speedup %.2fx (target >= 2.0x)\n", c.Speedup)
		}
	}
	for _, c := range rep.Solve {
		if c.Algo == "max_dispersion_pairs" && c.N == 4096 && c.Dim == 8 {
			fmt.Printf("acceptance: MaxDispersionPairs n=4096 d=8 speedup %.2fx (target >= 2.0x)\n", c.Speedup)
		}
	}
	for _, c := range rep.QueryCache {
		fmt.Printf("acceptance: cached /query speedup %.1fx (target >= 5.0x)\n", c.Speedup)
	}
	for _, c := range rep.Incremental {
		fmt.Printf("acceptance: incremental_ingest %s n=%d patched vs rebuild %.1fx min / %.1fx avg (target: patched faster at n>=10k)\n",
			c.Mode, c.N, c.SpeedupMin, c.SpeedupAvg)
	}
	for _, c := range rep.DynamicChurn {
		fmt.Printf("acceptance: dynamic_churn delta_patches=%d > full_rebuilds=%d with deletes %d evicting / %d spares / %d tombstoned (target: patches outnumber rebuilds)\n",
			c.DeltaPatches, c.FullRebuilds, c.Evicting, c.Spares, c.Tombstoned)
	}
	for _, c := range rep.SolveParallel {
		if c.Workers > 1 && c.Workers <= runtime.NumCPU() {
			fmt.Printf("acceptance: solve_parallel %s n=%d w=%d speedup %.2fx over 1-worker\n",
				c.Mode, c.N, c.Workers, c.Speedup)
		}
		if c.Mode == "tiled" && c.Workers == 1 {
			fmt.Printf("acceptance: tiled n=%d solved without the n² buffer (%.2fms; callback path %.2fms)\n",
				c.N, c.MS, c.GenericMS)
		}
	}
	for _, c := range rep.DurabilityRec {
		fmt.Printf("acceptance: durability n=%d checkpoint recovery %.1fms vs cold replay %.1fms (%.1fx; target: checkpoint faster at n=100k)\n",
			c.N, c.CheckpointMS, c.ReplayMS, c.Speedup)
	}
	for _, c := range rep.Cluster {
		if c.Scenario == "flaky-link" {
			fmt.Printf("acceptance: cluster flaky-link hedge=%.0fms query max %.2fms avg %.2fms hedged=%d (target: hedging cuts the no-hedge max)\n",
				c.HedgeMS, c.QueryMaxMS, c.QueryAvgMS, c.Hedged)
		}
	}
}
