package main

import (
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"divmax"
	"divmax/internal/api"
)

// env is one workload run's settings.
type env struct {
	work string // this run's working directory, under buildDir
	bin  string // the divmaxd binary under test
	seed uint64
	secs float64 // length of the measured window
}

func (e *env) window() time.Duration { return time.Duration(e.secs * float64(time.Second)) }

// outcome is what an end-to-end run measured and kept for the replay.
type outcome struct {
	tally     tally
	setups    []float64 // seconds, one per set-up
	ingestLat []float64 // ms
	queryLat  []float64 // ms
	ptsPerSec float64
	rssMB     float64
	lateMax   time.Duration
	drain     time.Duration
	idleRTT   time.Duration
	note      string // how ptsPerSec was measured

	cluster     bool
	stats       api.StatsResponse   // the entry process's final /v1/stats
	workerStats []api.StatsResponse // the coordinator's workers', cluster only
	unions      []float64           // coreset_size of every checked answer
	walFsync    string              // the WAL's fsync policy; "" without a WAL
	walOnTmpfs  bool

	problems []string // failed correctness checks
	seq      *sequence
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// op is one request of a workload, as the replay re-issues it.
type op struct {
	kind   opKind
	body   int    // index of a pre-encoded body in sequence.pool, or -1
	points []int  // without a pre-encoded body: the indices of the body's points
	raw    []byte // or the body itself, when the run built it from an answer
	m      divmax.Measure
	k      int
	setup  bool  // sent during set-up: replayed untraced, in no metric
	ans    int32 // index of the served answer in sequence.answers, -1 for none
}

// sequence is a workload's requests in the order the servers saw them,
// with the answers they served.
type sequence struct {
	ops      []op
	answers  []digest
	readback int // first op of the read-back phase, which the replay's time cap spares; len(ops) when none
	fidelity bool
	pool     *pool     // the pre-encoded bodies
	gen      *pointGen // the generator of the other bodies' points
}

func (s *sequence) add(o op) { s.ops = append(s.ops, o) }

// body returns the body of ingest or delete op o.
func (s *sequence) body(o op) []byte {
	switch {
	case o.body >= 0:
		return s.pool.bodies[o.body]
	case o.raw != nil:
		return o.raw
	}
	b, _ := s.gen.body(o.points)
	return b
}

// query adds a query op with its served answer resp (nil when the
// request failed or its answer was not kept), checked against live; a failed check is recorded on
// out. It returns what it kept of the answer, zero when the check failed.
func (s *sequence) query(out *outcome, resp []byte, m divmax.Measure, k int, setup bool, live multiset) checked {
	o := op{kind: opQuery, body: -1, m: m, k: k, setup: setup, ans: -1}
	var a checked
	if resp != nil {
		var err error
		if a, err = checkAnswer(resp, m, k, live); err != nil {
			out.problem("%s k=%d: %v", m, k, err)
		} else {
			o.ans = int32(len(s.answers))
			s.answers = append(s.answers, a.digest)
			out.unions = append(out.unions, float64(a.union))
		}
	}
	s.add(o)
	return a
}

// The query rotation every workload cycles through.
var (
	rotation   = []divmax.Measure{divmax.RemoteEdge, divmax.RemoteClique, divmax.RemoteTree, divmax.RemoteStar}
	rotationKs = []int{8, 16}
	queryPaths []string
)

func init() {
	for j := range len(rotation) * len(rotationKs) {
		m, k := rotate(j)
		queryPaths = append(queryPaths, "/v1/query?k="+strconv.Itoa(k)+"&measure="+m.String())
	}
}

// rotate returns the j-th query of the rotation.
func rotate(j int) (divmax.Measure, int) {
	return rotation[j%len(rotation)], rotationKs[j/len(rotation)%len(rotationKs)]
}

func queryPath(j int) string { return queryPaths[j%len(queryPaths)] }

const setupReps = 5

// setUp starts the workload's processes setupReps times — each time
// followed by prepare, which loads the initial data set and warms up —
// and keeps the last set: set-up time is reported as the median over
// the repetitions. prepare records what it sends only when keep is true.
func setUp(e *env, out *outcome, start func() (*topology, error), prepare func(t *topology, keep bool) error) (*topology, error) {
	for rep := range setupReps {
		t0 := time.Now()
		top, err := start()
		if err != nil {
			return nil, err
		}
		rtt, err := idleRTT(top.entry.url)
		keep := rep == setupReps-1
		if err == nil {
			err = prepare(top, keep)
		}
		if err != nil {
			top.stop()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, time.Since(t0).Seconds())
		if keep {
			out.idleRTT = rtt
			return top, nil
		}
		top.stop()
	}
	panic("unreachable")
}

// warmup keeps what the kept set-up sent — initial bodies and warm-up
// queries with their answers — so that it enters the sequence, checked,
// once set-up time has been measured.
type warmup struct {
	events []warmEvent
}

type warmEvent struct {
	body int    // the initial body sent, or -1 for a query
	j    int    // a query's rotation entry
	resp []byte // a query's answer
}

// load sends bodies [from, to) of p on c, then one query of each
// rotation entry; with keep, it records them.
func (w *warmup) load(c *conn, p *pool, from, to int, keep bool) error {
	for b := from; b < to; b++ {
		if _, ok := c.do(http.MethodPost, "/v1/ingest", p.bodies[b]); !ok {
			return fmt.Errorf("preload failed")
		}
		if keep {
			w.events = append(w.events, warmEvent{body: b})
		}
	}
	for j := range queryPaths {
		resp, ok := c.do(http.MethodGet, queryPath(j), nil)
		if !ok {
			return fmt.Errorf("warm-up query failed")
		}
		if keep {
			w.events = append(w.events, warmEvent{body: -1, j: j, resp: bytes.Clone(resp)})
		}
	}
	return nil
}

// record adds the kept set-up's requests to seq as set-up ops, checking
// the answers against live as it grows, and returns the value hashes of
// the answers' points, latest first.
func (w *warmup) record(out *outcome, seq *sequence, live multiset) (served []uint64) {
	for _, ev := range w.events {
		if ev.body >= 0 {
			live.add(seq.pool.hashes[ev.body])
			seq.add(op{kind: opIngest, body: ev.body, setup: true, ans: -1})
			continue
		}
		m, k := rotate(ev.j)
		served = append(seq.query(out, ev.resp, m, k, true, live).sol, served...)
	}
	return served
}

// drain polls /v1/stats until the folded point count reaches want and
// returns when it did; a count past want, or no progress in time, is an
// error. For a coordinator it reads its workers: they are where points
// are folded.
func drain(top *topology, want int64) (time.Time, error) {
	ps := top.workers
	if ps == nil {
		ps = []*proc{top.entry}
	}
	conns := make([]*conn, len(ps))
	for i, p := range ps {
		conns[i] = newConn(p.url)
		defer conns[i].close()
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		var total int64
		for _, c := range conns {
			st, err := c.stats()
			if err != nil {
				return time.Time{}, err
			}
			total += st.IngestedTotal
		}
		now := time.Now()
		switch {
		case total == want:
			return now, nil
		case total > want:
			return now, fmt.Errorf("ingested_total %d exceeds the %d acked points", total, want)
		case now.After(deadline):
			return now, fmt.Errorf("ingested_total %d of %d acked points after 30s", total, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// finish reads the final counters and peak memory of the processes.
func finish(out *outcome, top *topology) error {
	c := newConn(top.entry.url)
	defer c.close()
	var err error
	if out.stats, err = c.stats(); err != nil {
		return err
	}
	for _, w := range top.workers {
		wc := newConn(w.url)
		st, err := wc.stats()
		wc.close()
		if err != nil {
			return err
		}
		out.workerStats = append(out.workerStats, st)
	}
	out.rssMB, err = top.peakRSSMB()
	return err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const (
	ingestPoolPoints = 500_000
	ingestBatch      = 2000
	// readbackRounds rounds per second of window follow the load.
	readbackRounds = 40
)

// runIngestD8: one connection POSTs 2000-point bodies back to back for
// the window, replaying a 500k-point pool in order. (A second connection
// adds 50% throughput but, by saturating the shard queues, makes the
// tail a queueing artefact whose spread across seeds reached 24%.)
// Throughput counts folded points: the clock stops when /v1/stats
// reports every acked point folded, not when the last request is acked.
//
// The query metrics come from a read-back after the load, on the same
// connection, over the rotation's injective-proxy entries (remote-clique,
// -tree and -star). Each round deletes the first point of the previous
// answer, ingests it back once per shard, and queries: the point was in
// a shard's core-set, so the delete moves that shard's generation and
// the query rebuilds the merged core-set, about a thousand points, and
// solves it cold; the point's return refills its slot, so the core-set
// keeps its size from round to round. Untouched, the loaded server
// answers from its cache in about 40 µs, which measured how fast a vCPU
// wakes up more than divmaxd: the median moved by a quarter between
// runs. (remote-edge is left out: its family's core-set holds under 70
// points and rebuilds in 0.1–0.2 ms, which put the median between two
// modes.)
func runIngestD8(e *env) (*outcome, error) {
	pl := newPool(newPointGen(e.seed, 8, false), ingestPoolPoints, ingestBatch)
	seq := &sequence{pool: pl}
	out := &outcome{seq: seq}
	var w warmup
	top, err := setUp(e, out, func() (*topology, error) { return startSingle(e) }, func(t *topology, keep bool) error {
		c := newConn(t.entry.url)
		defer c.close()
		return w.load(c, pl, 0, pl.initial, keep)
	})
	if err != nil {
		return nil, err
	}
	defer top.stop()
	live := multiset{}
	w.record(out, seq, live)

	c := newConn(top.entry.url)
	defer c.close()
	var acked int64
	var prev time.Time
	start := time.Now()
	deadline := start.Add(e.window())
	for i := 0; ; i++ {
		at := time.Now()
		if !at.Before(deadline) {
			break
		}
		if !prev.IsZero() {
			out.lateMax = max(out.lateMax, at.Sub(prev))
		}
		b := pl.stream(i)
		_, ok := c.do(http.MethodPost, "/v1/ingest", pl.bodies[b])
		prev = time.Now()
		out.tally.record(opIngest, ok)
		out.ingestLat = append(out.ingestLat, ms(prev.Sub(at)))
		if ok {
			acked += int64(len(pl.hashes[b]))
		}
		seq.add(op{kind: opIngest, body: b, ans: -1})
	}
	for _, o := range seq.ops {
		if !o.setup {
			live.add(pl.hashes[o.body])
		}
	}
	drained, err := drain(top, initialPoints+acked)
	if err != nil {
		out.problem("drain: %v", err)
	}
	out.ptsPerSec = float64(acked) / drained.Sub(start).Seconds()
	out.drain = drained.Sub(prev)
	out.note = fmt.Sprintf("%d points acked and folded in %.3f s", acked, drained.Sub(start).Seconds())

	seq.readback = len(seq.ops)
	var entries []int // the rotation's proxy-family entries
	for j := range queryPaths {
		if m, _ := rotate(j); family(m) == 1 {
			entries = append(entries, j)
		}
	}
	var last divmax.Vector // the first point of the latest answer
	for r := range max(1, int(readbackRounds*e.secs)) {
		j := entries[r%len(entries)]
		m, k := rotate(j)
		if last != nil {
			h := valueHash(last)
			del := appendBody(nil, []divmax.Vector{last})
			_, ok := c.do(http.MethodPost, "/v1/delete", del)
			out.tally.record(opDelete, ok)
			live.remove([]uint64{h})
			seq.add(op{kind: opDelete, body: -1, raw: del, ans: -1})
			// Round-robin dealing puts one copy on each shard.
			ing := appendBody(nil, []divmax.Vector{last, last})
			_, ok = c.do(http.MethodPost, "/v1/ingest", ing)
			out.tally.record(opIngest, ok)
			if ok {
				acked += 2
			}
			live.add([]uint64{h, h})
			seq.add(op{kind: opIngest, body: -1, raw: ing, ans: -1})
		}
		t0 := time.Now()
		resp, ok := c.do(http.MethodGet, queryPath(j), nil)
		out.queryLat = append(out.queryLat, ms(time.Since(t0)))
		out.tally.record(opQuery, ok)
		if !ok {
			resp = nil
		}
		last = nil
		if a := seq.query(out, resp, m, k, false, live); len(a.pts) > 0 {
			last = a.pts[0]
		}
	}
	if _, err := drain(top, initialPoints+acked); err != nil {
		out.problem("drain: %v", err)
	}
	return out, finish(out, top)
}

const (
	mixedPoolPoints = 500_000
	mixedBatch      = 200
	mixedIngestRate = 250 // requests/s
	mixedQueryRate  = 200 // queries/s
	// walFsync is the WAL policy of mixed_d8_wal: the OS paces
	// write-back, so the WAL's framing and write path are measured while
	// the disk's fsync latency — which varies run to run on shared
	// virtual disks — is not.
	walFsync = "off"
	// walCheckpoints turns the periodic checkpoint off (shards still
	// checkpoint after restructures): at the default 15 s period a
	// checkpoint fell at an arbitrary point of the window and stalled
	// queries for 50–180 ms.
	walCheckpoints = "-1s"
)

// runMixedD8WAL: an open loop of one ingest sender (500 req/s × 500
// points) and one query sender (200 q/s, the rotation) against a
// durable server, each request timed from when it was due. The senders
// keep fixed periods: with Poisson arrivals at the same rates, bursts
// made p99 a measure of each seed's queueing luck (spread 19–32% over
// six seeds, against 4–9% on fixed periods). Set-up loads the initial
// data set in two halves, each followed by the rotation, so the second
// half's queries extend the engines the first half's built.
func runMixedD8WAL(e *env) (*outcome, error) {
	pl := newPool(newPointGen(e.seed, 8, false), mixedPoolPoints, mixedBatch)
	seq := &sequence{pool: pl}
	out := &outcome{seq: seq, walFsync: walFsync}
	var w warmup
	reps := 0
	start := func() (*topology, error) {
		dir := filepath.Join(e.work, fmt.Sprintf("wal%d", reps))
		reps++
		return startSingle(e, "-data-dir", dir, "-fsync", walFsync, "-checkpoint-every", walCheckpoints)
	}
	top, err := setUp(e, out, start, func(t *topology, keep bool) error {
		c := newConn(t.entry.url)
		defer c.close()
		half := pl.initial / 2
		if err := w.load(c, pl, 0, half, keep); err != nil {
			return err
		}
		return w.load(c, pl, half, pl.initial, keep)
	})
	if err != nil {
		return nil, err
	}
	defer top.stop()
	out.walOnTmpfs = onTmpfs(e.work)
	live := multiset{}
	w.record(out, seq, live)

	nI := max(1, int(mixedIngestRate*e.secs))
	nQ := max(1, int(mixedQueryRate*e.secs))
	begin := time.Now().Add(5 * time.Millisecond)
	var ingests, queries []sent
	var lateI, lateQ time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newConn(top.entry.url)
		defer c.close()
		ingests, lateI = openLoop(wallClock{}, begin, time.Second/mixedIngestRate, nI, func(i int) (bool, []byte) {
			_, ok := c.do(http.MethodPost, "/v1/ingest", pl.bodies[pl.stream(i)])
			return ok, nil
		})
	}()
	go func() {
		defer wg.Done()
		c := newConn(top.entry.url)
		defer c.close()
		queries, lateQ = openLoop(wallClock{}, begin, time.Second/mixedQueryRate, nQ, func(i int) (bool, []byte) {
			resp, ok := c.do(http.MethodGet, queryPath(i), nil)
			if !ok {
				return false, nil
			}
			return true, bytes.Clone(resp)
		})
	}()
	wg.Wait()
	lastDone := time.Now()

	var acked int64
	for _, s := range ingests {
		out.tally.record(opIngest, s.ok)
		out.ingestLat = append(out.ingestLat, ms(s.latency))
		if s.ok {
			acked += mixedBatch
		}
	}
	for _, s := range queries {
		out.tally.record(opQuery, s.ok)
		out.queryLat = append(out.queryLat, ms(s.latency))
	}
	drained, err := drain(top, initialPoints+acked)
	if err != nil {
		out.problem("drain: %v", err)
	}
	out.ptsPerSec = float64(acked) / drained.Sub(begin).Seconds()
	out.drain = drained.Sub(lastDone)
	out.lateMax = max(lateI, lateQ)
	out.note = fmt.Sprintf("%d points acked and folded in %.3f s (offered %d pts/s)", acked, drained.Sub(begin).Seconds(), mixedIngestRate*mixedBatch)

	// The server saw the two senders' requests interleaved by send time;
	// the replay re-issues them in that order, and an answer is checked
	// against the points sent before its query.
	qi := 0
	addQueries := func(before time.Time) {
		for ; qi < len(queries) && (before.IsZero() || queries[qi].send.Before(before)); qi++ {
			m, k := rotate(queries[qi].i)
			seq.query(out, queries[qi].resp, m, k, false, live)
		}
	}
	for _, s := range ingests {
		addQueries(s.send)
		b := pl.stream(s.i)
		live.add(pl.hashes[b])
		seq.add(op{kind: opIngest, body: b, ans: -1})
	}
	addQueries(time.Time{})
	seq.readback = len(seq.ops)
	return out, finish(out, top)
}

const (
	roundBatch   = 50
	roundDeletes = 2
	// Every evictEvery-th round, the first point deleted is one an
	// earlier answer served — a core-set point, so the delete evicts and
	// the next queries rebuild. Random deletes alone rarely hit the
	// core-set, which leaves rebuilds at about 1% of queries: right at
	// p99, which then jumps between the patch and the rebuild latency
	// from run to run.
	evictEvery = 10
	// chunkRounds rounds are generated, sent, then checked at a time, so
	// neither generation nor checking runs inside the measured window.
	chunkRounds = 250
)

// A round workload runs a fixed number of rounds per second of window —
// about one window of work on a 2-core machine — rather than stopping at
// a deadline, so that every count it reports is exact per seed.
func runChurnD128(e *env) (*outcome, error) { return runRounds(e, 128, true, false, 450) }

func runClusterD8(e *env) (*outcome, error) { return runRounds(e, 8, false, true, 400) }

// runRounds is the closed loop of churn_d128 and cluster_d8 on one
// connection: after preloading the initial data set, each round ingests
// 50 fresh points, deletes 2 earlier live ones, and runs the next query
// of the rotation.
func runRounds(e *env, dim int, clustered, cluster bool, roundsPerSec float64) (*outcome, error) {
	src := newRoundSource(e.seed, dim, clustered)
	src.ingest(initialPoints)
	pl := newPool(src.gen, 0, 0)
	seq := &sequence{fidelity: true, pool: pl, gen: src.gen}
	out := &outcome{seq: seq, cluster: cluster}
	var w warmup
	start := func() (*topology, error) { return startSingle(e) }
	if cluster {
		start = func() (*topology, error) { return startCluster(e) }
	}
	top, err := setUp(e, out, start, func(t *topology, keep bool) error {
		c := newConn(t.entry.url)
		defer c.close()
		return w.load(c, pl, 0, pl.initial, keep)
	})
	if err != nil {
		return nil, err
	}
	defer top.stop()
	live := multiset{}
	prefer := src.served(w.record(out, seq, live))

	c := newConn(top.entry.url)
	defer c.close()
	rounds := max(1, int(roundsPerSec*e.secs))
	acked := int64(initialPoints)
	var window time.Duration
	var lastDone time.Time
	// round is one round's requests, generated before its chunk is sent,
	// and its answer.
	type round struct {
		ing, del         []int // point indices
		ingBody, delBody []byte
		added, removed   []uint64 // value hashes
		answer           []byte
	}
	chunk := make([]round, chunkRounds)
	for done := 0; done < rounds; {
		n := min(chunkRounds, rounds-done)
		for r := range chunk[:n] {
			rd := &chunk[r]
			rd.ing = src.ingest(roundBatch)
			var pref *[]int
			if (done+r)%evictEvery == 0 {
				pref = &prefer
			}
			rd.del = src.remove(roundDeletes, pref)
			rd.ingBody, rd.added = src.gen.body(rd.ing)
			rd.delBody, rd.removed = src.gen.body(rd.del)
		}
		var prev time.Time
		t0 := time.Now()
		for r := range chunk[:n] {
			rd := &chunk[r]
			at := time.Now()
			if !prev.IsZero() {
				out.lateMax = max(out.lateMax, at.Sub(prev))
			}
			_, ok := c.do(http.MethodPost, "/v1/ingest", rd.ingBody)
			t1 := time.Now()
			out.tally.record(opIngest, ok)
			out.ingestLat = append(out.ingestLat, ms(t1.Sub(at)))
			if ok {
				acked += roundBatch
			}
			_, ok = c.do(http.MethodPost, "/v1/delete", rd.delBody)
			t2 := time.Now()
			out.tally.record(opDelete, ok)
			resp, ok := c.do(http.MethodGet, queryPath(done+r), nil)
			prev = time.Now()
			out.tally.record(opQuery, ok)
			out.queryLat = append(out.queryLat, ms(prev.Sub(t2)))
			rd.answer = nil
			if ok {
				rd.answer = bytes.Clone(resp)
			}
		}
		window += time.Since(t0)
		lastDone = time.Now()
		var served []uint64
		for r, rd := range chunk[:n] {
			live.add(rd.added)
			live.remove(rd.removed)
			seq.add(op{kind: opIngest, body: -1, points: rd.ing, ans: -1})
			seq.add(op{kind: opDelete, body: -1, points: rd.del, ans: -1})
			m, k := rotate(done + r)
			served = append(seq.query(out, rd.answer, m, k, false, live).sol, served...)
		}
		prefer = src.served(served)
		done += n
	}
	seq.readback = len(seq.ops)
	drained, err := drain(top, acked)
	if err != nil {
		out.problem("drain: %v", err)
	}
	out.drain = drained.Sub(lastDone)
	timedAcked := acked - initialPoints
	out.ptsPerSec = float64(timedAcked) / window.Seconds()
	out.note = fmt.Sprintf("%d rounds (%.1f rounds/s) in %.3f s", rounds, float64(rounds)/window.Seconds(), window.Seconds())
	return out, finish(out, top)
}
