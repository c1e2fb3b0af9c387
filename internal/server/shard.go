package server

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"divmax"
	"divmax/internal/faults"
	"divmax/internal/wal"
)

// snapReply is a shard's answer to a snapshot request: the point-in-time
// core-set view — a pure delta of the points appended since the
// requested (generation, position), or a full snapshot when the
// core-set restructured or the request demanded one — plus the shard's
// ingest epoch at the moment the snapshot was taken, the number of
// batches folded in so far. The query cache compares cached epochs
// against the shards' accepted-batch counters to decide whether a
// previously merged core-set is still current, and uses the delta's
// generation/position to patch a stale one instead of rebuilding it.
//
// err is non-nil when the shard has failed permanently and answers
// every message with an error (degraded queries count it missing).
type snapReply struct {
	delta divmax.CoresetDelta[divmax.Vector]
	epoch uint64
	err   error
}

// deleteReply is a shard's answer to a delete broadcast: one outcome
// per requested point, or an error when the shard has failed.
type deleteReply struct {
	outs []divmax.DeleteOutcome
	err  error
}

// shardMsg is the single message type flowing over a shard's channel:
// a batch of points to ingest, a delete broadcast (delReply non-nil),
// or (when snap is non-nil) a request for a point-in-time snapshot of
// the core-set family a query needs — proxy selects SMM-EXT (the four
// delegate-based measures) over SMM (remote-edge, remote-cycle), and
// (gen, pos) request a delta relative to an earlier snapshot (pos = -1
// forces a full snapshot). Funnelling everything through one channel
// serializes it against the shard goroutine, which is what lets the
// StreamCoreset processors stay lock-free: only the shard goroutine
// ever touches them — and it is what orders a delete after every batch
// accepted before it, so a delete always sees the points it targets.
//
// batch points at a pooled slice (see pool.go): the sender fills it, the
// shard goroutine consumes it with ProcessBatch and returns it to the
// pool, so steady-state ingest allocates no batch buffers at all. del
// is shared read-only by every shard of a broadcast; the sender keeps
// it alive until all replies are in.
type shardMsg struct {
	batch    *[]divmax.Vector
	snap     chan<- snapReply
	proxy    bool
	gen      uint64
	pos      int
	del      []divmax.Vector
	delReply chan<- deleteReply
	// seq is the message's write-ahead-log sequence number (0 when the
	// server runs in memory). The shard records it as folded BEFORE
	// touching the processors, so a panic-restart replays the log up to
	// and including the record of the message that killed it.
	seq uint64
	// ckpt asks the shard to write a core-set checkpoint if records have
	// accumulated since the last one (sent by the server's checkpoint
	// ticker; rides the ordinary channel so it is serialized against
	// folds like everything else).
	ckpt bool
}

// Shard health states. A shard is healthy until a panic exhausts its
// restart budget; it then fails permanently and answers every message
// with an error until the server drains.
const (
	shardHealthy int32 = iota
	shardFailed
)

var errShardFailed = errors.New("shard failed")

// shardFailedError reports which shard a request died on; the handlers
// map it to 503 with the "unavailable" envelope code.
type shardFailedError struct{ id int }

func (e *shardFailedError) Error() string {
	return fmt.Sprintf("server: shard %d has failed permanently (restart budget exhausted)", e.id)
}

func (e *shardFailedError) Is(target error) bool { return target == errShardFailed }

// genIncarnation is the generation offset one supervisor restart adds
// to the shard's reported core-set generations. A restarted shard owns
// fresh processors whose internal generations restart at 0; offsetting
// every reported generation by the incarnation guarantees a cached
// (gen, pos) recorded before the restart can never alias a valid delta
// position of the new processors — the underlying generation would
// have to climb past 2³² between two snapshots, and it counts
// restructure events, not points.
const genIncarnation = uint64(1) << 32

// shard owns one slice of the stream. Every point it receives is folded
// into two streaming core-sets — SMM for the kernel-only measures and
// SMM-EXT for the delegate-based ones — so a query for any of the six
// measures can be answered from the matching family. Memory stays
// O(k′·k) per shard regardless of how many points have been ingested.
//
// The shard goroutine is supervised (run): a panic while processing a
// message is recovered, the shard restarts with fresh core-sets (its
// slice of the stream is lost and reported as such through the
// processed counts), and after Config.RestartBudget restarts it fails
// permanently — from then on it drains its channel answering every
// message with an error instead of leaving senders blocked.
type shard struct {
	id    int
	cfg   Config
	inj   *faults.Injector
	ch    chan shardMsg
	edge  divmax.StreamCoreset[divmax.Vector]
	proxy divmax.StreamCoreset[divmax.Vector]

	// genBase namespaces the core-set generations across restarts: the
	// shard reports gen+genBase and translates requests back. Only the
	// shard goroutine touches it.
	genBase uint64

	// health is shardHealthy or shardFailed; panics and restarts count
	// recovered panics and supervisor restarts for /stats.
	health   atomic.Int32
	panics   atomic.Int64
	restarts atomic.Int64

	// Ingest epochs. accEpoch counts batches accepted for this shard
	// (bumped by Server.send immediately before the channel send, so by
	// the time /ingest returns every accepted batch is visible to epoch
	// readers); procEpoch counts batches the shard goroutine has folded
	// in. A query-cache entry recorded at procEpoch e is current exactly
	// while accEpoch == e: nothing has been accepted that the cached
	// merge has not seen. A batch whose fold panics still counts on both
	// sides (its points are what the restart loses), and a restart bumps
	// both once more so every pre-restart cached state reads as stale.
	accEpoch  atomic.Uint64
	procEpoch atomic.Uint64

	// Monitoring counters, updated by the shard goroutine after each
	// batch or delete and read lock-free by /stats.
	ingested  atomic.Int64
	batches   atomic.Int64
	lastBatch atomic.Int64
	stored    atomic.Int64
	deleted   atomic.Int64

	// Durability (nil log = in-memory mode, all of this dormant).
	// lastSeq/ckptSeq/ckptPayload and the recovery fields are touched
	// only by the shard goroutine (and newShard, before it starts);
	// everything a request or /stats thread reads is atomic.
	log         *wal.Log
	lastSeq     uint64 // highest WAL seq recorded as folded
	ckptSeq     uint64 // first seq NOT covered by the latest checkpoint
	ckptPayload []byte // latest checkpoint body (what a panic-restart restores)
	ckptEdgeGen uint64 // processor generations at the latest checkpoint,
	ckptProxGen uint64 // for the restructure-triggered eager checkpoint
	needRecover bool   // serve() must run recovery before the message loop
	replayTo    uint64 // highest seq recovery replays (the durable end)

	// ready flips once the shard has finished boot recovery and entered
	// its message loop; /v1/readyz answers 503 until every shard is
	// ready. In-memory shards are born ready.
	ready atomic.Bool
	// abrupt (set by Server.CloseAbrupt before the channels close) makes
	// the drain skip the final checkpoint and the closing fsync — the
	// crash-shaped shutdown the recovery tests and benchmarks reopen
	// from.
	abrupt atomic.Bool
	// replayed counts points re-folded from the log across all
	// recoveries; recoveries counts shard recoveries server-wide (both
	// surfaced by /stats). srvDim points at the server's dataset
	// dimension so recovery can re-pin it before the first request.
	replayed   atomic.Int64
	lastCkptMS atomic.Int64 // wall-clock ms of the latest checkpoint, 0 = none
	recoveries *atomic.Int64
	srvDim     *atomic.Int64
}

// shardCheckpoint is the gob-encoded body of a shard's checkpoint file:
// both processors' serialized state plus the monitoring counters a
// recovery would otherwise lose (the dimension re-pins Server.dim so a
// restarted server keeps rejecting mismatched ingests).
type shardCheckpoint struct {
	Edge, Proxy                []byte
	Ingested, Batches, Deleted int64
	Dim                        int64
}

// ckptMinRecords is how many WAL records must accumulate before a
// core-set restructure triggers an eager checkpoint (the periodic
// ticker handles quiet shards); it keeps a restructure-heavy warmup
// from checkpointing on every batch.
const ckptMinRecords = 64

func newShard(id int, cfg Config, log *wal.Log, recoveries, srvDim *atomic.Int64) *shard {
	sh := &shard{
		id:         id,
		cfg:        cfg,
		inj:        cfg.Faults,
		ch:         make(chan shardMsg, cfg.Buffer),
		log:        log,
		recoveries: recoveries,
		srvDim:     srvDim,
	}
	sh.freshCoresets()
	if log == nil {
		sh.ready.Store(true)
		return sh
	}
	sh.ckptSeq = 1
	if payload, next, ok := log.Checkpoint(); ok {
		sh.ckptPayload, sh.ckptSeq = payload, next
	}
	sh.replayTo = log.RecoveredSeq()
	sh.needRecover = true
	return sh
}

// freshCoresets (re)creates the shard's two processors. RemoteEdge and
// RemoteClique are representatives of their core-set families; the
// processors serve every measure of the same family. The dynamic
// constructor retains Spares absorbed points per SMM center so center
// deletions promote instead of dropping clusters.
func (s *shard) freshCoresets() {
	s.edge = divmax.NewDynamicStreamCoreset(divmax.RemoteEdge, s.cfg.MaxK, s.cfg.KPrime, s.cfg.Spares, divmax.Euclidean)
	s.proxy = divmax.NewDynamicStreamCoreset(divmax.RemoteClique, s.cfg.MaxK, s.cfg.KPrime, s.cfg.Spares, divmax.Euclidean)
}

// failed reports whether the shard has failed permanently.
func (s *shard) failed() bool { return s.health.Load() == shardFailed }

// run is the shard supervisor: it runs serve (the message loop) and, if
// serve dies to a panic, restarts the shard with fresh core-sets — up
// to Config.RestartBudget times, after which the shard is marked failed
// and drainFailed keeps answering the channel with errors so no sender
// ever blocks on a dead shard. It returns when the channel is closed
// (Server.Close) and fully drained, so no accepted message is ever left
// behind.
func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		if s.serve() {
			s.closeLog(true) // channel closed and drained: normal exit
			return
		}
		s.panics.Add(1)
		if s.restarts.Load() >= int64(s.cfg.RestartBudget) {
			s.health.Store(shardFailed)
			logf("server: shard %d failed permanently after %d panics (restart budget %d exhausted)",
				s.id, s.panics.Load(), s.cfg.RestartBudget)
			s.drainFailed()
			s.closeLog(false) // no checkpoint: keep the tail for the next boot
			return
		}
		s.restart()
	}
}

// closeLog finishes the shard's log at exit. A clean drain (checkpoint
// true, not abrupt) writes a final checkpoint first, so a clean restart
// replays zero records; an abrupt close skips both the checkpoint and
// the closing fsync, leaving the directory exactly as a crash would.
func (s *shard) closeLog(checkpoint bool) {
	if s.log == nil {
		return
	}
	abrupt := s.abrupt.Load()
	if checkpoint && !abrupt && !s.log.Crashed() && s.lastSeq+1 > s.ckptSeq {
		if err := s.writeCheckpoint(); err != nil {
			logf("server: shard %d: final checkpoint: %v (next start replays the log tail)", s.id, err)
		}
	}
	if err := s.log.Close(!abrupt); err != nil {
		logf("server: shard %d: closing wal: %v", s.id, err)
	}
}

// restart resets the shard for a fresh incarnation: new core-sets (the
// old ones may be mid-update corrupt — their points are lost, which the
// processed counts report honestly), a generation namespace bump so no
// cached (gen, pos) can alias into the new processors' append logs, and
// one accepted+processed epoch bump so every cached merge that includes
// this shard's pre-restart core-set reads as stale and rebuilds.
func (s *shard) restart() {
	s.restarts.Add(1)
	s.genBase += genIncarnation
	s.freshCoresets()
	s.stored.Store(0)
	s.accEpoch.Add(1)
	s.procEpoch.Add(1)
	if s.log != nil && !s.log.Crashed() {
		// Durable shard: the next serve() replays checkpoint + log tail
		// up to the last message recorded as folded — including the one
		// whose fold panicked (its record hit the disk before the fold
		// ran), so a transient poison loses nothing. Genuinely poisoned
		// data re-panics during replay and exhausts the budget honestly.
		// A panic during recovery itself leaves lastSeq short of the end
		// that recovery was replaying to, so the retry keeps the later of
		// the two: a log that cannot be replayed fails the shard closed
		// instead of letting a retry serve less than was acknowledged.
		s.needRecover = true
		s.replayTo = max(s.replayTo, s.lastSeq)
		logf("server: shard %d restarted, replaying wal through seq %d (restart %d of %d)",
			s.id, s.replayTo, s.restarts.Load(), s.cfg.RestartBudget)
		return
	}
	logf("server: shard %d restarted with fresh core-sets (restart %d of %d)",
		s.id, s.restarts.Load(), s.cfg.RestartBudget)
}

// serve drains the channel until it is closed, processing batches in
// arrival order and answering snapshot requests between them. It
// reports true when the channel closed (a clean drain) and false when
// a message handler panicked — the supervisor decides what happens
// next.
func (s *shard) serve() (closed bool) {
	defer func() {
		if r := recover(); r != nil {
			logf("server: shard %d panic: %v", s.id, r)
		}
	}()
	if s.needRecover {
		s.recoverFromLog()
		s.needRecover = false
	}
	s.ready.Store(true)
	for msg := range s.ch {
		s.handle(msg)
	}
	return true
}

// recoverFromLog rebuilds the shard's processors from its checkpoint
// plus a replay of the log tail (or the whole log when no checkpoint is
// usable), runs on the shard goroutine before the message loop — at
// boot, and again after every supervised panic. Replay feeds the
// processors the exact recorded batches in the exact recorded order, so
// the recovered state is bit-identical to an uninterrupted shard's; it
// bypasses the fault injector's batch hook (an injected panic is a
// property of live traffic, not of the data) and bumps no epochs (the
// restart already invalidated every cached view of this shard).
func (s *shard) recoverFromLog() {
	from := uint64(1)
	restored := false
	s.freshCoresets()
	s.ingested.Store(0)
	s.batches.Store(0)
	s.deleted.Store(0)
	if s.ckptPayload != nil {
		var ck shardCheckpoint
		err := gob.NewDecoder(bytes.NewReader(s.ckptPayload)).Decode(&ck)
		if err == nil {
			err = s.edge.Restore(ck.Edge)
		}
		if err == nil {
			err = s.proxy.Restore(ck.Proxy)
		}
		if err != nil {
			logf("server: shard %d: checkpoint unusable (%v), replaying the full log", s.id, err)
			s.freshCoresets() // edge may have restored before proxy failed
			s.ckptPayload, s.ckptSeq = nil, 1
		} else {
			restored = true
			from = s.ckptSeq
			s.ingested.Store(ck.Ingested)
			s.batches.Store(ck.Batches)
			s.deleted.Store(ck.Deleted)
			if ck.Dim != 0 {
				s.srvDim.CompareAndSwap(0, ck.Dim)
			}
			s.ckptEdgeGen, s.ckptProxGen = generation(s.edge), generation(s.proxy)
			// The file's write time is gone; stamp the restore so
			// checkpoint_age_ms is present (and sane) once one exists.
			s.lastCkptMS.Store(time.Now().UnixMilli())
			// Only now that the checkpoint has proven restorable may
			// compaction drop the segments it covers.
			s.log.SetCompactFloor(s.ckptSeq)
		}
	}
	replayed := int64(0)
	if s.replayTo >= from {
		err := s.log.Replay(from, s.replayTo, func(r wal.Record) error {
			switch r.Kind {
			case wal.KindIngest:
				s.fold(r.Points)
			case wal.KindDelete:
				s.remove(r.Points)
			}
			if len(r.Points) > 0 {
				s.srvDim.CompareAndSwap(0, int64(len(r.Points[0])))
				replayed += int64(len(r.Points))
			}
			return nil
		})
		if err != nil {
			// The log cannot reproduce the acknowledged stream. Surface it
			// as a panic: the supervisor retries, and if the log really is
			// unusable the restart budget turns this into an honest
			// permanent failure instead of silently serving partial data.
			panic(fmt.Sprintf("shard %d: wal replay: %v", s.id, err))
		}
	}
	s.lastSeq = s.replayTo
	s.stored.Store(int64(s.edge.StoredPoints() + s.proxy.StoredPoints()))
	s.replayed.Add(replayed)
	if restored || replayed > 0 {
		s.recoveries.Add(1)
		logf("server: shard %d recovered (checkpoint: %v, %d points replayed through seq %d)",
			s.id, restored, replayed, s.replayTo)
	}
	// Fold the tail into a fresh checkpoint so the next recovery starts
	// from here instead of re-replaying the same records.
	if s.lastSeq+1 > s.ckptSeq {
		if err := s.writeCheckpoint(); err != nil {
			logf("server: shard %d: post-recovery checkpoint: %v", s.id, err)
		}
	}
}

// generationer is satisfied by both StreamCoreset families (their
// processors count restructure events); the eager-checkpoint trigger
// reads it to notice that earlier log records became redundant.
type generationer interface{ Generation() uint64 }

func generation(c divmax.StreamCoreset[divmax.Vector]) uint64 {
	if g, ok := c.(generationer); ok {
		return g.Generation()
	}
	return 0
}

// writeCheckpoint serializes both processors and the counters into the
// shard's checkpoint file, covering everything folded so far. Runs on
// the shard goroutine only; appenders keep running (WriteCheckpoint
// never takes the append mutex).
func (s *shard) writeCheckpoint() error {
	edge, err := s.edge.Checkpoint()
	if err != nil {
		return err
	}
	proxy, err := s.proxy.Checkpoint()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(shardCheckpoint{
		Edge:     edge,
		Proxy:    proxy,
		Ingested: s.ingested.Load(),
		Batches:  s.batches.Load(),
		Deleted:  s.deleted.Load(),
		Dim:      s.srvDim.Load(),
	}); err != nil {
		return err
	}
	next := s.lastSeq + 1
	if err := s.log.WriteCheckpoint(buf.Bytes(), next); err != nil {
		return err
	}
	s.ckptPayload, s.ckptSeq = buf.Bytes(), next
	s.ckptEdgeGen, s.ckptProxGen = generation(s.edge), generation(s.proxy)
	s.lastCkptMS.Store(time.Now().UnixMilli())
	return nil
}

// maybeCheckpoint is the restructure-triggered eager checkpoint: once a
// processor's generation moves (a merge phase or an evicting delete),
// the records before it can never make earlier cached views patchable
// again, so — given enough accumulated records to be worth the write —
// checkpoint now and let compaction drop the covered segments rather
// than waiting for the ticker.
func (s *shard) maybeCheckpoint() {
	if s.log == nil || s.lastSeq+1-s.ckptSeq < ckptMinRecords {
		return
	}
	if generation(s.edge) == s.ckptEdgeGen && generation(s.proxy) == s.ckptProxGen {
		return
	}
	if err := s.writeCheckpoint(); err != nil {
		logf("server: shard %d: checkpoint: %v", s.id, err)
	}
}

// handle processes one message. It may panic (a poisoned batch, a
// corrupt processor, an injected fault); serve's recover turns that
// into a supervisor event.
func (s *shard) handle(msg shardMsg) {
	if msg.ckpt {
		if s.log != nil && s.lastSeq+1 > s.ckptSeq {
			if err := s.writeCheckpoint(); err != nil {
				logf("server: shard %d: checkpoint: %v", s.id, err)
			}
		}
		return
	}
	// Record the message as folded BEFORE touching the processors: its
	// WAL record is already on disk (Append wrote it before delivering),
	// so if the fold panics the replay includes this very message and
	// the restart loses nothing.
	if msg.seq != 0 {
		s.lastSeq = msg.seq
	}
	if msg.snap != nil {
		reply := snapReply{epoch: s.procEpoch.Load()}
		// Translate the requester's generation out of this incarnation's
		// namespace: a (gen, pos) recorded before the last restart can
		// never be a valid position in the fresh processors, so it forces
		// a full snapshot.
		gen, pos := msg.gen, msg.pos
		if pos >= 0 && gen >= s.genBase {
			gen -= s.genBase
		} else {
			gen, pos = 0, -1
		}
		if msg.proxy {
			reply.delta = s.proxy.SnapshotSince(gen, pos)
		} else {
			reply.delta = s.edge.SnapshotSince(gen, pos)
		}
		reply.delta.Gen += s.genBase
		if !s.inj.Snapshot(s.id) {
			return // injected reply drop: the requester's deadline covers it
		}
		msg.snap <- reply
		return
	}
	if msg.delReply != nil {
		// Delete broadcast. The epoch bump is deferred so a panicking
		// delete still keeps accEpoch and procEpoch in lockstep
		// (deleteAll bumped the accepted side before sending).
		defer s.procEpoch.Add(1)
		outs := s.remove(msg.del)
		s.stored.Store(int64(s.edge.StoredPoints() + s.proxy.StoredPoints()))
		s.maybeCheckpoint()
		if !s.inj.Delete(s.id) {
			return // injected reply drop
		}
		msg.delReply <- deleteReply{outs: outs}
		return
	}
	batch := *msg.batch
	// Count the batch as processed even if the fold panics: the sender
	// already bumped accEpoch for it, and keeping the two counters in
	// lockstep is what lets post-restart snapshots become cacheable
	// again. The panicked batch's points are part of what the restart
	// loses.
	defer s.procEpoch.Add(1)
	s.inj.Batch(s.id, int(s.batches.Load()))
	s.fold(batch)
	s.stored.Store(int64(s.edge.StoredPoints() + s.proxy.StoredPoints()))
	s.maybeCheckpoint()
	putVecSlice(msg.batch)
}

// fold folds one batch into both core-set families and counts it; live
// ingests and WAL replay both run through it.
func (s *shard) fold(batch []divmax.Vector) {
	s.edge.ProcessBatch(batch)
	s.proxy.ProcessBatch(batch)
	s.ingested.Add(int64(len(batch)))
	s.batches.Add(1)
	s.lastBatch.Store(int64(len(batch)))
}

// remove applies a delete to BOTH families (a query for any measure
// must never see a deleted point), counts the points it removed from
// either, and returns each point's strongest outcome; live deletes and
// WAL replay both run through it.
func (s *shard) remove(pts []divmax.Vector) []divmax.DeleteOutcome {
	outs := make([]divmax.DeleteOutcome, len(pts))
	removed := 0
	for i, p := range pts {
		outs[i] = max(s.edge.Delete(p), s.proxy.Delete(p))
		if outs[i] != divmax.DeleteAbsent {
			removed++
		}
	}
	s.deleted.Add(int64(removed))
	return outs
}

// drainFailed is the permanently-failed shard's message loop: every
// queued and future message gets an immediate error reply (or, for
// batches, a silent drop — their sender already got its 200 and the
// loss is reported through the health state and processed counts), so
// ingest fan-outs, delete broadcasts, and snapshot rounds sent before
// the failure became visible never block on a dead shard.
func (s *shard) drainFailed() {
	err := &shardFailedError{id: s.id}
	for msg := range s.ch {
		switch {
		case msg.snap != nil:
			msg.snap <- snapReply{err: err}
		case msg.delReply != nil:
			msg.delReply <- deleteReply{err: err}
		case msg.batch != nil:
			putVecSlice(msg.batch)
		}
	}
}
