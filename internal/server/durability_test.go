package server

import (
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"divmax"
	"divmax/internal/faults"
	"divmax/internal/wal"
)

// durableConfig is the base durable test configuration: small enough
// that recoveries are instant, deterministic round-robin dealing.
// DIVMAX_TEST_FSYNC overrides the WAL fsync policy (the `make
// durability` target forces "always" so the crash-recovery contract is
// exercised with a real fsync per record).
func durableConfig(dir string) Config {
	cfg := Config{Shards: 2, MaxK: 4, KPrime: 8, DataDir: dir}
	if v := os.Getenv("DIVMAX_TEST_FSYNC"); v != "" {
		p, err := wal.ParseSyncPolicy(v)
		if err != nil {
			panic(err)
		}
		cfg.Fsync = p
	}
	return cfg
}

func waitReady(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !srv.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func durableTestVecs(seed int64, n, d int) []divmax.Vector {
	rng := rand.New(rand.NewSource(seed))
	out := make([]divmax.Vector, n)
	for i := range out {
		v := make(divmax.Vector, d)
		for j := range v {
			v[j] = rng.NormFloat64() * 50
		}
		out[i] = v
	}
	return out
}

// assertSameAnswers compares the full query surface of two servers, for
// both core-set families, bit for bit — the crash-recovery equivalence
// the durability layer promises.
func assertSameAnswers(t *testing.T, what, urlA, urlB string, k int) {
	t.Helper()
	for _, m := range []divmax.Measure{divmax.RemoteEdge, divmax.RemoteClique} {
		qa := getQuery(t, urlA, k, m)
		qb := getQuery(t, urlB, k, m)
		if qa.Processed != qb.Processed {
			t.Fatalf("%s/%s: processed %d vs %d", what, m, qa.Processed, qb.Processed)
		}
		if qa.CoresetSize != qb.CoresetSize {
			t.Fatalf("%s/%s: coreset_size %d vs %d", what, m, qa.CoresetSize, qb.CoresetSize)
		}
		if math.Float64bits(qa.Value) != math.Float64bits(qb.Value) {
			t.Fatalf("%s/%s: value bits %x vs %x", what, m, math.Float64bits(qa.Value), math.Float64bits(qb.Value))
		}
		if len(qa.Solution) != len(qb.Solution) {
			t.Fatalf("%s/%s: solution sizes %d vs %d", what, m, len(qa.Solution), len(qb.Solution))
		}
		for i := range qa.Solution {
			for j := range qa.Solution[i] {
				if math.Float64bits(qa.Solution[i][j]) != math.Float64bits(qb.Solution[i][j]) {
					t.Fatalf("%s/%s: solution[%d][%d] bits differ", what, m, i, j)
				}
			}
		}
	}
}

// TestGracefulShutdownReplaysZero: a clean Close writes final per-shard
// checkpoints, so reopening the same data directory restores everything
// from the checkpoints and replays zero records — while answering the
// exact same queries.
func TestGracefulShutdownReplaysZero(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, durableConfig(dir))
	waitReady(t, srv)

	pts := durableTestVecs(1, 120, 3)
	postIngest(t, ts.URL, pts[:80])
	postIngest(t, ts.URL, pts[80:])
	postDelete(t, ts.URL, []divmax.Vector{pts[3], pts[40]})
	before := map[divmax.Measure]queryResponse{}
	for _, m := range []divmax.Measure{divmax.RemoteEdge, divmax.RemoteClique} {
		before[m] = getQuery(t, ts.URL, 4, m)
	}
	ts.Close()
	srv.Close()

	srv2, ts2 := newTestServer(t, durableConfig(dir))
	waitReady(t, srv2)
	st := getStats(t, ts2.URL)
	if st.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2 (one per shard)", st.Recoveries)
	}
	for _, sh := range st.Shards {
		if sh.ReplayedPoints != 0 {
			t.Fatalf("shard %d replayed %d points after a clean shutdown, want 0", sh.ID, sh.ReplayedPoints)
		}
		if sh.CheckpointAgeMS <= 0 {
			t.Fatalf("shard %d has no checkpoint age after restoring one", sh.ID)
		}
	}
	for _, m := range []divmax.Measure{divmax.RemoteEdge, divmax.RemoteClique} {
		after := getQuery(t, ts2.URL, 4, m)
		if after.Processed != before[m].Processed ||
			math.Float64bits(after.Value) != math.Float64bits(before[m].Value) {
			t.Fatalf("%s: recovered answer (processed=%d value=%x) differs from pre-shutdown (processed=%d value=%x)",
				m, after.Processed, math.Float64bits(after.Value), before[m].Processed, math.Float64bits(before[m].Value))
		}
	}
	// The recovered dimension pin still rejects mismatched ingests.
	if _, err := tryIngest(ts2.URL, []divmax.Vector{{1, 2}}); err == nil {
		t.Fatal("dimension-2 ingest accepted after recovering a dimension-3 stream")
	}
}

// TestAbruptCloseRecoversByReplay: CloseAbrupt skips the final
// checkpoint (the crash shape); reopening replays the log tail, and the
// recovered server answers bit-identically to an uninterrupted
// in-memory twin fed the same stream.
func TestAbruptCloseRecoversByReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.CheckpointEvery = -time.Second // every record stays in the tail
	srv, ts := newTestServer(t, cfg)
	waitReady(t, srv)
	pts := durableTestVecs(2, 150, 4)
	postIngest(t, ts.URL, pts[:50])
	postIngest(t, ts.URL, pts[50:])
	postDelete(t, ts.URL, []divmax.Vector{pts[7]})
	ts.Close()
	srv.CloseAbrupt()

	srv2, ts2 := newTestServer(t, durableConfig(dir))
	waitReady(t, srv2)
	st := getStats(t, ts2.URL)
	if st.Recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2", st.Recoveries)
	}
	var replayed int64
	for _, sh := range st.Shards {
		replayed += sh.ReplayedPoints
	}
	if replayed != 152 { // 150 ingested + the delete broadcast to 2 shards
		t.Fatalf("replayed_points total = %d, want 152", replayed)
	}

	_, twin := newTestServer(t, Config{Shards: cfg.Shards, MaxK: cfg.MaxK, KPrime: cfg.KPrime})
	postIngest(t, twin.URL, pts[:50])
	postIngest(t, twin.URL, pts[50:])
	postDelete(t, twin.URL, []divmax.Vector{pts[7]})
	assertSameAnswers(t, "abrupt-close recovery", ts2.URL, twin.URL, 4)
}

// TestDurableReconfiguredRestartFailsClosed: a restart under another
// k and k′ cannot restore the checkpoint and falls back to replaying
// the whole log, but compaction already dropped the records the
// checkpoint covered. The shard must fail closed through its
// supervisor (unready, refusing writes) instead of serving the
// surviving tail as if it were the whole stream.
func TestDurableReconfiguredRestartFailsClosed(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Shards, cfg.SegmentBytes = 1, 512
	for run := int64(0); run < 2; run++ {
		srv, ts := newTestServer(t, cfg)
		waitReady(t, srv)
		pts := durableTestVecs(20+run, 1000, 2)
		for i := 0; i < len(pts); i += 50 {
			postIngest(t, ts.URL, pts[i:i+50])
		}
		// An ingest is acknowledged once its batch is queued, not once
		// the shard has folded it, so wait for the count.
		deadline := time.Now().Add(10 * time.Second)
		for got := getStats(t, ts.URL).IngestedTotal; got != 1000*(run+1); got = getStats(t, ts.URL).IngestedTotal {
			if time.Now().After(deadline) {
				t.Fatalf("run %d: ingested_total %d, want %d", run, got, 1000*(run+1))
			}
			time.Sleep(5 * time.Millisecond)
		}
		ts.Close()
		srv.Close()
	}

	cfg.MaxK, cfg.KPrime = 5, 10
	srv, ts := newTestServer(t, cfg)
	deadline := time.Now().Add(10 * time.Second)
	for getStats(t, ts.URL).Shards[0].Health != "failed" {
		if time.Now().After(deadline) {
			st := getStats(t, ts.URL)
			t.Fatalf("shard never failed: health %q, ready %v, ingested_total %d",
				st.Shards[0].Health, srv.Ready(), st.IngestedTotal)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Ready() {
		t.Fatal("server reports ready after its only shard failed recovery")
	}
	resp, err := http.Get(ts.URL + "/v1/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/v1/readyz status %d, want 503", resp.StatusCode)
	}
	if _, err := tryIngest(ts.URL, durableTestVecs(22, 5, 2)); err == nil {
		t.Fatal("ingest accepted by a shard that failed recovery")
	}
}

// TestDurableBootFailureKeepsReady: a shard that fails permanently
// during boot recovery is done recovering, so /v1/readyz judges it by
// the rule for a shard that fails after boot — not ready only when more
// than half the shards failed — instead of waiting for it forever.
// Only shard 0 loses its checkpoint, so only its replay starts at
// records the second run's segment rotations compacted.
func TestDurableBootFailureKeepsReady(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Shards, cfg.SegmentBytes = 4, 512
	for run := int64(0); run < 2; run++ {
		srv, ts := newTestServer(t, cfg)
		waitReady(t, srv)
		pts := durableTestVecs(30+run, 1000, 2)
		for i := 0; i < len(pts); i += 50 {
			postIngest(t, ts.URL, pts[i:i+50])
		}
		ts.Close()
		srv.Close()
	}
	if err := os.Remove(filepath.Join(dir, "shard-000", "checkpoint.ckpt")); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, cfg)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/v1/readyz still %d after shard 0's boot recovery: %s", resp.StatusCode, body)
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := getStats(t, ts.URL)
	for i, sh := range st.Shards {
		want := "healthy"
		if i == 0 {
			want = "failed"
		}
		if sh.Health != want {
			t.Fatalf("shard %d health %q, want %q", i, sh.Health, want)
		}
	}
}

// TestDurablePanicRestartLosesNothing: the in-memory contract is that a
// panicked batch dies with its incarnation; with a WAL the restart
// replays the shard's own log — including the record of the batch whose
// fold panicked — so nothing is lost, and the recovered server matches
// a never-faulted twin bit for bit.
func TestDurablePanicRestartLosesNothing(t *testing.T) {
	dir := t.TempDir()
	inj := faults.New()
	inj.OnBatch(faults.PanicOnBatch(0, 1))
	cfg := durableConfig(dir)
	cfg.Faults = inj
	srv, ts := newTestServer(t, cfg)
	waitReady(t, srv)

	batches := [][]divmax.Vector{
		durableTestVecs(3, 40, 3),
		durableTestVecs(4, 10, 3), // shard 0's slice of this panics mid-fold
		durableTestVecs(5, 30, 3),
	}
	total := 0
	for _, b := range batches {
		postIngest(t, ts.URL, b)
		total += len(b)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStats(t, ts.URL)
		if st.ShardRestarts == 1 && st.IngestedTotal == int64(total) {
			if st.Shards[0].Panics != 1 || st.Shards[0].Health != "healthy" {
				t.Fatalf("shard 0: panics=%d health=%q, want 1/healthy", st.Shards[0].Panics, st.Shards[0].Health)
			}
			if st.Recoveries < 1 {
				t.Fatalf("recoveries = %d, want >= 1 (the replay-restart)", st.Recoveries)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restart never became lossless: restarts=%d ingested=%d (want 1/%d)",
				st.ShardRestarts, st.IngestedTotal, total)
		}
		time.Sleep(5 * time.Millisecond)
	}

	_, twin := newTestServer(t, Config{Shards: cfg.Shards, MaxK: cfg.MaxK, KPrime: cfg.KPrime})
	for _, b := range batches {
		postIngest(t, twin.URL, b)
	}
	assertSameAnswers(t, "replay-restart", ts.URL, twin.URL, 4)
}

// TestDurableStatsAndInMemoryOmission: durable servers surface
// wal_bytes / wal_segments / checkpoint_age_ms / replayed_points and
// recoveries; in-memory servers must not emit those keys at all (the
// byte-compat discipline of /v1/stats).
func TestDurableStatsAndInMemoryOmission(t *testing.T) {
	srv, ts := newTestServer(t, durableConfig(t.TempDir()))
	waitReady(t, srv)
	postIngest(t, ts.URL, durableTestVecs(6, 20, 2))
	st := getStats(t, ts.URL)
	for _, sh := range st.Shards {
		if sh.WALBytes <= 0 || sh.WALSegments < 1 {
			t.Fatalf("shard %d: wal_bytes=%d wal_segments=%d, want positive", sh.ID, sh.WALBytes, sh.WALSegments)
		}
	}

	_, mem := newTestServer(t, Config{Shards: 2, MaxK: 4})
	postIngest(t, mem.URL, durableTestVecs(6, 20, 2))
	resp, err := http.Get(mem.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"wal_bytes", "wal_segments", "checkpoint_age_ms", "replayed_points", "recoveries"} {
		if strings.Contains(string(raw), key) {
			t.Fatalf("in-memory /v1/stats leaks durability key %q: %s", key, raw)
		}
	}
}

// TestCheckpointTickerBoundsReplay: with a fast checkpoint ticker the
// log tail folds into checkpoints while the server runs, so even an
// abrupt close replays only the records after the last checkpoint — and
// the recovered answers still match an uninterrupted twin.
func TestCheckpointTickerBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.CheckpointEvery = 20 * time.Millisecond
	srv, ts := newTestServer(t, cfg)
	waitReady(t, srv)
	pts := durableTestVecs(7, 100, 3)
	postIngest(t, ts.URL, pts)
	// Wait for the ticker to checkpoint both shards.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := getStats(t, ts.URL)
		aged := 0
		for _, sh := range st.Shards {
			if sh.CheckpointAgeMS > 0 {
				aged++
			}
		}
		if aged == len(st.Shards) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint ticker never checkpointed every shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	tail := durableTestVecs(8, 10, 3) // a post-checkpoint tail
	postIngest(t, ts.URL, tail)
	ts.Close()
	srv.CloseAbrupt()

	srv2, ts2 := newTestServer(t, durableConfig(dir))
	waitReady(t, srv2)
	var replayed int64
	for _, sh := range getStats(t, ts2.URL).Shards {
		replayed += sh.ReplayedPoints
	}
	if replayed >= 110 {
		t.Fatalf("replayed %d of 110 points: checkpoints did not bound the replay", replayed)
	}

	_, twin := newTestServer(t, Config{Shards: cfg.Shards, MaxK: cfg.MaxK, KPrime: cfg.KPrime})
	postIngest(t, twin.URL, pts)
	postIngest(t, twin.URL, tail)
	assertSameAnswers(t, "checkpoint+tail recovery", ts2.URL, twin.URL, 4)
}

// TestCloseTimeoutCompletes pins the CloseTimeout contract on the happy
// path (drain + final checkpoints within the budget) and that the whole
// durable lifecycle leaks no goroutines — the WAL flushers and the
// checkpoint ticker all stop.
func TestCloseTimeoutCompletes(t *testing.T) {
	before := runtime.NumGoroutine()
	dir := t.TempDir()
	srv, ts := newTestServer(t, durableConfig(dir))
	waitReady(t, srv)
	postIngest(t, ts.URL, durableTestVecs(9, 50, 2))
	ts.Close()
	if !srv.CloseTimeout(10 * time.Second) {
		t.Fatal("drain did not complete within a generous deadline")
	}
	http.DefaultClient.CloseIdleConnections()
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(leakDeadline) {
			t.Fatalf("goroutine leak: %d before, %d after CloseTimeout", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The final checkpoint landed: reopening replays nothing.
	srv2, ts2 := newTestServer(t, durableConfig(dir))
	waitReady(t, srv2)
	for _, sh := range getStats(t, ts2.URL).Shards {
		if sh.ReplayedPoints != 0 {
			t.Fatalf("shard %d replayed %d points after CloseTimeout drain, want 0", sh.ID, sh.ReplayedPoints)
		}
	}
}
