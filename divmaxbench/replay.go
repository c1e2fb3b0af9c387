package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"divmax"
	"divmax/internal/api"
	"divmax/internal/dataset"
	"divmax/internal/sequential"
	"divmax/internal/wal"
)

// The traced replay re-issues a workload's exact request sequence
// in-process, composing the layers' public functions the way
// internal/server and internal/cluster compose them, and times every
// call into a layer as a span. It solves every stale (measure, k)
// cold: divmaxd's warm starts serve answers identical to cold solves,
// so the answers still match.

// replayOut is what one replay pass measured.
type replayOut struct {
	spans    []span
	wall     time.Duration // summed time of the measured ops replayed
	opTime   [numKinds]time.Duration
	opCount  [numKinds]int
	replayed int // measured ops replayed

	// Decisions over the whole pass, set-up included, as /v1/stats
	// counts them.
	hits, patches, rebuilds int64

	// Measured ops only, but for the WAL, whose size covers every op.
	fillPairs, fillBytes int64
	walBytes, walPts     int64
	snapBytes, snapCalls int64

	measuring bool // the op in progress is a measured one
}

// replayer re-issues one kind of request.
type replayer interface {
	ingest(body []byte) error
	remove(body []byte) error
	query(m divmax.Measure, k int) (digest, error)
}

// patchRule is divmaxd's merge-cache rule for a stale family: patch the
// cached union when every part (shard or worker) answered with a pure
// delta and the deltas total at most deltaBudget × the cached union;
// rebuild otherwise.
func patchRule(cached int, partial []bool, sizes []int) (patch bool, total int) {
	for i, p := range partial {
		if !p {
			return false, 0
		}
		total += sizes[i]
	}
	return float64(total) <= deltaBudget*float64(cached), total
}

// memoKey and answer are the per-state (measure, k) answer memo.
type memoKey struct {
	m divmax.Measure
	k int
}

type answer struct {
	sol   []divmax.Vector
	val   float64
	exact bool
}

// merged is one family's merged view: the union of the parts' core-sets,
// its solve engine and its answers. cursors locate each part's view for
// the next delta: (gens, poss) per shard, or a worker's snapshot cursor.
type merged struct {
	epochs    []uint64
	gens      []uint64
	poss      []int
	cursors   []api.SnapshotCursor
	union     []divmax.Vector
	engine    *sequential.Engine
	processed int64
	memo      map[memoKey]answer
}

// solver holds what the local and cluster replays share: the tracer,
// the pass's results, and the solve, evaluate and encode steps.
type solver struct {
	tr      *tracer
	res     *replayOut
	fams    [2]*merged
	workers int
	buf     bytes.Buffer
}

func family(m divmax.Measure) int {
	if m.NeedsInjectiveProxy() {
		return 1
	}
	return 0
}

// build gives st a fresh engine over its union.
func (s *solver) build(st *merged) {
	sp := s.tr.begin("sequential.build")
	st.engine = sequential.BuildEngine(st.union, divmax.Euclidean, s.workers)
	s.tr.end(sp)
	if n := int64(len(st.union)); s.res.measuring && st.engine != nil && !st.engine.Tiled() {
		s.res.fillPairs += n * n
		s.res.fillBytes += 8 * n * n
	}
}

// extend gives st, whose union is prev's plus delta, prev's engine
// extended by delta.
func (s *solver) extend(st, prev *merged, delta []divmax.Vector) {
	if prev.engine == nil {
		s.build(st)
		return
	}
	sp := s.tr.begin("sequential.append")
	eng := prev.engine.Fork()
	if !sequential.AppendEngine(eng, delta) {
		eng = sequential.BuildEngine(st.union, divmax.Euclidean, s.workers)
	}
	st.engine = eng
	s.tr.end(sp)
	if n, d := int64(len(prev.union)), int64(len(delta)); s.res.measuring && !eng.Tiled() {
		s.res.fillPairs += d * (n + d)
		s.res.fillBytes += 8 * (2*n*d + d*d)
	}
}

// answer solves (m, k) on st, or returns the memoized answer.
func (s *solver) answer(st *merged, m divmax.Measure, k int) answer {
	key := memoKey{m, k}
	if a, ok := st.memo[key]; ok {
		return a
	}
	var sol []divmax.Vector
	if len(st.union) > 0 {
		sp := s.tr.begin("sequential.solve")
		if st.engine != nil {
			for _, i := range sequential.SolveEngineIdx(m, st.engine, k) {
				sol = append(sol, st.union[i])
			}
		} else {
			sol = sequential.Solve(m, st.union, k, divmax.Euclidean)
		}
		s.tr.end(sp)
	}
	sp := s.tr.begin("diversity.evaluate")
	val, exact := divmax.Evaluate(m, sol, divmax.Euclidean)
	s.tr.end(sp)
	if v := finite(val); v != val {
		val, exact = v, false
	}
	if sol == nil {
		sol = []divmax.Vector{}
	}
	a := answer{sol: sol, val: val, exact: exact}
	st.memo[key] = a
	return a
}

// respond encodes the answer as divmaxd writes it and returns its digest.
func (s *solver) respond(st *merged, a answer, m divmax.Measure, k int, how mergeHow) (digest, error) {
	sp := s.tr.begin("api.encode")
	s.buf.Reset()
	err := json.NewEncoder(&s.buf).Encode(api.QueryResponse{
		Measure: m.String(), K: k, Solution: a.sol, Value: a.val, Exact: a.exact,
		CoresetSize: len(st.union), Processed: st.processed,
		Cached: how == howHit, Patched: how == howPatched,
	})
	s.tr.end(sp)
	return digest{value: a.val, sol: solutionHash(a.sol), how: how}, err
}

// decodeBatch decodes an ingest or delete body and validates its points,
// as divmaxd's handlers do.
func (s *solver) decodeBatch(body []byte) ([]divmax.Vector, error) {
	sp := s.tr.begin("api.decode")
	var req api.IngestRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	s.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = s.tr.begin("dataset.validate")
	err = dataset.ValidateVectors(req.Points)
	s.tr.end(sp)
	return req.Points, err
}

// localReplay is the single divmaxd: two shards fed round-robin, each
// folding every point into both core-set families, optionally behind a
// write-ahead log per shard.
type localReplay struct {
	solver
	shards []*replayShard
	next   int
	logs   []*wal.Log
}

type replayShard struct {
	edge, proxy divmax.StreamCoreset[divmax.Vector]
	epoch       uint64 // batches and deletes delivered
}

func newLocalReplay(tr *tracer, res *replayOut, walDir, fsync string) (*localReplay, error) {
	r := &localReplay{solver: solver{tr: tr, res: res, workers: runtime.GOMAXPROCS(0)}}
	for range 2 {
		r.shards = append(r.shards, &replayShard{
			edge:  divmax.NewDynamicStreamCoreset(divmax.RemoteEdge, maxK, kPrime, spares, divmax.Euclidean),
			proxy: divmax.NewDynamicStreamCoreset(divmax.RemoteClique, maxK, kPrime, spares, divmax.Euclidean),
		})
	}
	if walDir == "" {
		return r, nil
	}
	policy, err := wal.ParseSyncPolicy(fsync)
	if err != nil {
		return nil, err
	}
	for i := range r.shards {
		l, err := wal.Open(wal.Options{Dir: filepath.Join(walDir, fmt.Sprintf("shard-%03d", i)), Sync: policy})
		if err != nil {
			r.close()
			return nil, err
		}
		r.logs = append(r.logs, l)
	}
	return r, nil
}

// close closes the logs, first adding their size to the results.
func (r *localReplay) close() error {
	var errs []error
	for _, l := range r.logs {
		b, _ := l.Stats()
		r.res.walBytes += b
		errs = append(errs, l.Close(false))
	}
	return errors.Join(errs...)
}

func (r *localReplay) logAppend(i int, kind wal.Kind, pts []divmax.Vector) error {
	if r.logs == nil {
		return nil
	}
	sp := r.tr.begin("wal.append")
	_, err := r.logs[i].Append(kind, pts, nil)
	r.tr.end(sp)
	// Set-up points count too: the log's size covers them.
	r.res.walPts += int64(len(pts))
	return err
}

func (r *localReplay) ingest(body []byte) error {
	root := r.tr.begin("server.ingest")
	defer r.tr.end(root)
	pts, err := r.decodeBatch(body)
	if err != nil {
		return err
	}
	batches := make([][]divmax.Vector, len(r.shards))
	for i, p := range pts {
		sh := (r.next + i) % len(r.shards)
		batches[sh] = append(batches[sh], p)
	}
	r.next += len(pts)
	for i, b := range batches {
		if len(b) == 0 {
			continue
		}
		sh := r.shards[i]
		sh.epoch++
		if err := r.logAppend(i, wal.KindIngest, b); err != nil {
			return err
		}
		sp := r.tr.begin("streamalg.fold_edge")
		sh.edge.ProcessBatch(b)
		r.tr.end(sp)
		sp = r.tr.begin("streamalg.fold_proxy")
		sh.proxy.ProcessBatch(b)
		r.tr.end(sp)
	}
	return nil
}

func (r *localReplay) remove(body []byte) error {
	root := r.tr.begin("server.delete")
	defer r.tr.end(root)
	pts, err := r.decodeBatch(body)
	if err != nil || len(pts) == 0 {
		return err
	}
	for i, sh := range r.shards {
		sh.epoch++
		if err := r.logAppend(i, wal.KindDelete, pts); err != nil {
			return err
		}
		sp := r.tr.begin("streamalg.delete")
		for _, p := range pts {
			sh.edge.Delete(p)
			sh.proxy.Delete(p)
		}
		r.tr.end(sp)
	}
	return nil
}

// snapshots asks every shard for its view of family f since prev's, or
// a full one when prev is nil.
func (r *localReplay) snapshots(f int, prev *merged) []divmax.CoresetDelta[divmax.Vector] {
	out := make([]divmax.CoresetDelta[divmax.Vector], len(r.shards))
	for i, sh := range r.shards {
		gen, pos := uint64(0), -1
		if prev != nil {
			gen, pos = prev.gens[i], prev.poss[i]
		}
		c := sh.edge
		if f == 1 {
			c = sh.proxy
		}
		sp := r.tr.begin("streamalg.snapshot")
		out[i] = c.SnapshotSince(gen, pos)
		r.tr.end(sp)
	}
	return out
}

func (r *localReplay) query(m divmax.Measure, k int) (digest, error) {
	root := r.tr.begin("server.query")
	defer r.tr.end(root)
	f := family(m)
	epochs := make([]uint64, len(r.shards))
	for i, sh := range r.shards {
		epochs[i] = sh.epoch
	}
	st, how := r.fams[f], howHit
	if st == nil || !slices.Equal(st.epochs, epochs) {
		st, how = r.merge(f, st)
		st.epochs = epochs
		r.fams[f] = st
	} else {
		r.res.hits++
	}
	return r.respond(st, r.answer(st, m, k), m, k, how)
}

// merge brings family f up to date: a patch of prev when the shards'
// deltas allow it — an empty delta carries prev's union, engine and
// answers over, which divmaxd counts as a patch — a rebuild otherwise.
func (r *localReplay) merge(f int, prev *merged) (*merged, mergeHow) {
	if prev != nil {
		deltas := r.snapshots(f, prev)
		partial := make([]bool, len(deltas))
		sizes := make([]int, len(deltas))
		for i, d := range deltas {
			partial[i], sizes[i] = d.Partial, len(d.Points)
		}
		if patch, total := patchRule(len(prev.union), partial, sizes); patch {
			r.res.patches++
			st := stateOf(deltas)
			if total == 0 {
				st.union, st.engine, st.memo = prev.union, prev.engine, prev.memo
				return st, howPatched
			}
			var delta []divmax.Vector
			for _, d := range deltas {
				delta = append(delta, d.Points...)
			}
			st.union = append(prev.union[:len(prev.union):len(prev.union)], delta...)
			r.extend(st, prev, delta)
			return st, howPatched
		}
	}
	r.res.rebuilds++
	deltas := r.snapshots(f, nil)
	st := stateOf(deltas)
	for _, d := range deltas {
		st.union = append(st.union, d.Points...)
	}
	r.build(st)
	return st, howRebuilt
}

func stateOf(deltas []divmax.CoresetDelta[divmax.Vector]) *merged {
	st := &merged{gens: make([]uint64, len(deltas)), poss: make([]int, len(deltas)), memo: map[memoKey]answer{}}
	for i, d := range deltas {
		st.gens[i], st.poss[i] = d.Gen, d.Pos
		st.processed += d.Processed
	}
	return st
}

// clusterReplay is the coordinator: writes go through a fresh
// coordinator process to fresh workers, so they land where the live
// tier routes them, and queries run the coordinator's merge in-process
// over snapshot RPCs to the workers, merged in worker order.
type clusterReplay struct {
	solver
	coord   *conn
	workers []*conn
}

func newClusterReplay(tr *tracer, res *replayOut, coordURL string, workerURLs []string) *clusterReplay {
	r := &clusterReplay{solver: solver{tr: tr, res: res, workers: runtime.GOMAXPROCS(0)}, coord: newConn(coordURL)}
	for _, u := range workerURLs {
		r.workers = append(r.workers, newConn(u))
	}
	return r
}

func (r *clusterReplay) close() {
	r.coord.close()
	for _, w := range r.workers {
		w.close()
	}
}

func (r *clusterReplay) write(path string, body []byte) error {
	root := r.tr.begin("cluster." + path[len("/v1/"):])
	sp := r.tr.begin("cluster.write_rpc")
	_, ok := r.coord.do(http.MethodPost, path, body)
	r.tr.end(sp)
	r.tr.end(root)
	if !ok {
		return fmt.Errorf("POST %s through the coordinator failed", path)
	}
	return nil
}

func (r *clusterReplay) ingest(body []byte) error { return r.write("/v1/ingest", body) }

func (r *clusterReplay) remove(body []byte) error { return r.write("/v1/delete", body) }

func (r *clusterReplay) snapshot(i int, fam string, cur *api.SnapshotCursor) (api.SnapshotResponse, error) {
	var resp api.SnapshotResponse
	req, err := json.Marshal(api.SnapshotRequest{Family: fam, Cursor: cur})
	if err != nil {
		return resp, err
	}
	sp := r.tr.begin("cluster.snapshot_rpc")
	body, ok := r.workers[i].do(http.MethodPost, "/v1/snapshot", req)
	if !ok {
		r.tr.end(sp)
		return resp, fmt.Errorf("snapshot RPC to worker %d failed", i)
	}
	dsp := r.tr.begin("api.decode")
	err = json.Unmarshal(body, &resp)
	r.tr.end(dsp)
	r.tr.end(sp)
	if r.res.measuring {
		r.res.snapBytes += int64(len(body))
		r.res.snapCalls++
	}
	return resp, err
}

func (r *clusterReplay) query(m divmax.Measure, k int) (digest, error) {
	root := r.tr.begin("cluster.query")
	defer r.tr.end(root)
	f := family(m)
	fam := "edge"
	if f == 1 {
		fam = "proxy"
	}
	prev := r.fams[f]
	results := make([]api.SnapshotResponse, len(r.workers))
	for i := range r.workers {
		var cur *api.SnapshotCursor
		if prev != nil {
			cur = &prev.cursors[i]
		}
		var err error
		if results[i], err = r.snapshot(i, fam, cur); err != nil {
			return digest{}, err
		}
	}
	var st *merged
	how := howRebuilt
	if prev != nil {
		partial := make([]bool, len(results))
		sizes := make([]int, len(results))
		for i, res := range results {
			partial[i], sizes[i] = res.Partial, len(res.Points)
		}
		if patch, total := patchRule(len(prev.union), partial, sizes); patch {
			st = &merged{memo: map[memoKey]answer{}}
			if total == 0 {
				// The coordinator reports an unchanged view as a cache hit.
				st.union, st.engine, st.memo = prev.union, prev.engine, prev.memo
				how = howHit
				r.res.hits++
			} else {
				var delta []divmax.Vector
				for _, res := range results {
					delta = append(delta, res.Points...)
				}
				st.union = append(prev.union[:len(prev.union):len(prev.union)], delta...)
				r.extend(st, prev, delta)
				how = howPatched
				r.res.patches++
			}
		}
	}
	if st == nil {
		// Deltas describe a view the rebuild discards: fetch them in full.
		for i := range results {
			if results[i].Partial {
				var err error
				if results[i], err = r.snapshot(i, fam, nil); err != nil {
					return digest{}, err
				}
			}
		}
		st = &merged{memo: map[memoKey]answer{}}
		for _, res := range results {
			st.union = append(st.union, res.Points...)
		}
		r.build(st)
		r.res.rebuilds++
	}
	for _, res := range results {
		st.cursors = append(st.cursors, res.Cursor)
		st.processed += res.Processed
	}
	r.fams[f] = st
	return r.respond(st, r.answer(st, m, k), m, k, how)
}

// replayPass re-issues seq's ops against r. Set-up ops run untraced and
// outside every measurement. Measured ops before the read-back phase
// stop once budget of them has run — or, with cut ≥ 0, at op cut, so a
// second pass replays exactly what the first did — and the read-back
// phase always runs. With fidelity, every answer must equal the served
// one, cache decision included. It returns the cut it applied.
func replayPass(seq *sequence, r replayer, tr *tracer, res *replayOut, budget time.Duration, cut int) (int, error) {
	traced := tr.on
	for i := 0; i < len(seq.ops); i++ {
		o := seq.ops[i]
		if i < seq.readback && !o.setup {
			if cut < 0 && res.wall >= budget {
				cut = i
			}
			if cut >= 0 && i >= cut {
				i = seq.readback - 1
				continue
			}
		}
		var body []byte
		if o.kind != opQuery {
			body = seq.body(o)
		}
		tr.on = traced && !o.setup
		res.measuring = !o.setup
		tr.request()
		t0 := time.Now()
		var d digest
		var err error
		switch o.kind {
		case opIngest:
			err = r.ingest(body)
		case opDelete:
			err = r.remove(body)
		default:
			d, err = r.query(o.m, o.k)
		}
		dt := time.Since(t0)
		if err != nil {
			return cut, fmt.Errorf("replaying op %d (%s): %w", i, kindNames[o.kind], err)
		}
		if seq.fidelity && o.kind == opQuery && o.ans >= 0 {
			if want := seq.answers[o.ans]; d != want {
				return cut, fmt.Errorf("op %d, %s k=%d: the replay %s an answer of value %v, divmaxd %s one of value %v (solutions equal: %v)",
					i, o.m, o.k, d.how, d.value, want.how, want.value, d.sol == want.sol)
			}
		}
		if !o.setup {
			res.wall += dt
			res.opTime[o.kind] += dt
			res.opCount[o.kind]++
			res.replayed++
		}
	}
	tr.on = traced
	if cut < 0 {
		cut = seq.readback
	}
	return cut, nil
}
