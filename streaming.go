package divmax

import (
	"divmax/internal/streamalg"
)

// Stream feeds points to a consumer, calling emit once per point in
// stream order. StreamingSolveTwoPass invokes its stream twice, so the
// function must replay the same logical sequence on each call.
type Stream[P any] = streamalg.Stream[P]

// SliceStream adapts an in-memory slice to a Stream.
func SliceStream[P any](pts []P) Stream[P] { return streamalg.SliceStream(pts) }

// StreamingSolve is the paper's one-pass streaming algorithm (Theorem 3):
// it builds a core-set on the fly with the SMM doubling algorithm (or
// SMM-EXT with per-center delegates for the four delegate-based
// measures), using memory independent of the stream length — O(k′)
// points, or O(k′·k) with delegates — and then runs the sequential
// α-approximation on the core-set. The end-to-end factor is α+ε for k′
// sized per Lemmas 3–4; in practice k′ a small multiple of k suffices.
func StreamingSolve[P any](m Measure, stream Stream[P], k, kprime int, d Distance[P]) []P {
	return streamalg.OnePass(m, stream, k, kprime, d)
}

// StreamingSolveTwoPass is the 2-pass, memory-reduced algorithm of
// Theorem 9 for remote-clique, -star, -bipartition, and -tree: pass 1
// builds a generalized core-set with only O(k′) memory (counts instead of
// delegates), a coherent subset of expanded size k is extracted in
// memory, and pass 2 instantiates its multiplicities with distinct points
// from the stream. It returns an error for the two measures that do not
// need it (remote-edge, remote-cycle — use StreamingSolve, already
// O(k′)).
func StreamingSolveTwoPass[P any](m Measure, stream Stream[P], k, kprime int, d Distance[P]) ([]P, error) {
	return streamalg.TwoPass(m, stream, k, kprime, d)
}

// StreamCoreset is an incremental core-set builder for callers that drive
// their own ingestion loop (sockets, files, pipelines): feed points with
// Process, read the current core-set with Coreset, and hand it to
// MaxDiversity whenever a solution is needed. Implementations are not
// safe for concurrent Process calls.
type StreamCoreset[P any] interface {
	// Process consumes the next stream point.
	Process(p P)
	// ProcessBatch consumes a slice of stream points, equivalent to
	// calling Process on each in order. Prefer it when points already
	// arrive in chunks: the scan of the center set stays hot in cache
	// across the batch, and on the Euclidean fast path (metric.Vector
	// points under the Euclidean distance) the whole batch runs on the
	// flat squared-distance kernels. On that path, once no center can
	// keep another spare or delegate, a point's scan stops at the first
	// center within the coverage radius 4·d_i (the covering exit), with
	// the same resulting state as the full nearest-center scan.
	ProcessBatch(batch []P)
	// Coreset returns the core-set of everything processed so far.
	Coreset() []P
	// Snapshot returns the core-set together with the processing
	// statistics needed to merge and monitor independent processors.
	// Like Coreset, it may be called between Process calls but not
	// concurrently with them.
	Snapshot() CoresetSnapshot[P]
	// SnapshotSince returns an incremental view relative to an earlier
	// snapshot identified by its generation and append-log position: a
	// pure delta of the points that joined the core-set since, when the
	// core-set has not restructured (Partial), or a full snapshot when
	// it has (the generation moved). Pass (0, -1) for an unconditional
	// full snapshot. Same concurrency contract as Snapshot.
	SnapshotSince(gen uint64, pos int) CoresetDelta[P]
	// Delete removes every retained point at metric distance 0 from p
	// — the fully dynamic extension (deletions alongside insertions).
	// A delete of a never-retained value is a free tombstone; deleting
	// a spare leaves the core-set output untouched; deleting a core-set
	// point evicts it, re-covers locally (a deleted center is replaced
	// by a retained spare or a surviving delegate), and bumps the
	// snapshot generation so stale cached views rebuild rather than
	// patch. Same concurrency contract as Process.
	Delete(p P) DeleteOutcome
	// StoredPoints reports current memory use in points.
	StoredPoints() int
	// Checkpoint serializes the processor's complete state — centers,
	// delegates, spares, thresholds, generation counters, append log —
	// so a durable host can persist the core-set mid-stream and resume
	// it with Restore after a crash. Float values round-trip as exact
	// bit patterns: a restored processor fed the same stream suffix is
	// bit-identical to one that was never interrupted. Same concurrency
	// contract as Snapshot.
	Checkpoint() ([]byte, error)
	// Restore replaces the processor's state with a checkpoint taken
	// from a processor with identical construction parameters (measure
	// family, k, k′); mismatched parameters are rejected with an error
	// and the processor is left unchanged — callers then rebuild by
	// replaying raw points instead. Same concurrency contract as
	// Process.
	Restore(data []byte) error
}

// DeleteOutcome reports what a StreamCoreset.Delete removed: nothing
// retained (a tombstone), only spares, or a core-set point (an
// eviction, which moves the snapshot generation).
type DeleteOutcome = streamalg.DeleteOutcome

const (
	// DeleteAbsent: no retained copy matched — a pure tombstone.
	DeleteAbsent = streamalg.DeleteAbsent
	// DeleteSpare: only spare points were removed; the core-set output
	// and the snapshot generation are unchanged.
	DeleteSpare = streamalg.DeleteSpare
	// DeleteEvicted: a core-set point was removed and the generation
	// bumped; caches built on earlier snapshots must rebuild.
	DeleteEvicted = streamalg.DeleteEvicted
)

// CoresetSnapshot is a point-in-time view of a StreamCoreset. Because the
// underlying core-sets are composable, snapshots taken from independent
// processors fed disjoint shards of a stream can be merged — hand their
// Points to MapReduceSolveCoresets (or union them and call MaxDiversity)
// for a solution over everything any shard has processed, with the same
// α+ε guarantee as a single processor over the whole stream. This is the
// paper's round-1/round-2 split kept resident and online; the divmaxd
// server is built on it. The round-2 solve over a merged snapshot union
// runs on the flat distance-matrix engine when the points are Vectors
// under Euclidean (see internal/sequential), and divmaxd additionally
// caches the merged union and its matrix across queries of an unchanged
// stream.
type CoresetSnapshot[P any] struct {
	// Points is the core-set of everything processed so far.
	Points []P
	// Radius bounds the distance from any processed point to the kernel
	// (4·d_i, see the phase invariants of Section 4). It is 0 while the
	// initialization prefix is still being collected.
	Radius float64
	// Processed counts the stream points consumed so far.
	Processed int64
	// Stored counts the points currently held in memory.
	Stored int
}

// CoresetDelta is the incremental view SnapshotSince returns. The
// underlying SMM/SMM-EXT processors restructure only during merge
// phases; between two restructurings the core-set's point set only ever
// grows, and the processors log exactly the points that join it. A
// delta therefore comes in two shapes:
//
//   - Partial: the earlier snapshot's core-set has not restructured —
//     Points holds only the points appended since (possibly none), and
//     the earlier point set united with Points is a superset of the
//     processor's current core-set that still contains every current
//     core-set point. Solving over that union keeps the full core-set
//     guarantee: it is a set of genuine stream points sandwiched
//     between the current core-set and the processed prefix.
//   - Full (!Partial): the core-set restructured (Gen moved past the
//     caller's) — Points is a complete Snapshot and the earlier view
//     must be discarded.
//
// Gen and Pos identify this view for the next SnapshotSince call. The
// divmaxd query cache uses deltas to patch its merged union and extend
// its solve engine instead of rebuilding both on every ingest.
type CoresetDelta[P any] struct {
	CoresetSnapshot[P]
	// Gen counts the processor's restructurings (cluster merges and the
	// radius doublings they run under) at snapshot time.
	Gen uint64
	// Pos is the processor's append-log position at snapshot time; pass
	// Gen and Pos back to a later SnapshotSince for the next delta.
	Pos int
	// Partial reports that Points extends the earlier view instead of
	// replacing it.
	Partial bool
}

// processor is the SMM and SMM-EXT API a StreamCoreset is built on: the
// stream, delete and checkpoint methods, the statistics a snapshot
// reports, and the restructure counter and per-generation append log
// that incremental snapshots read.
type processor[P any] interface {
	Process(p P)
	ProcessBatch(batch []P)
	Delete(p P) DeleteOutcome
	Checkpoint() ([]byte, error)
	Restore(data []byte) error
	Result() []P
	CoverageRadius() float64
	Processed() int64
	StoredPoints() int
	Generation() uint64
	AppendLogLen() int
	AppendedSince(pos int) []P
}

// adapter is the StreamCoreset over an SMM or SMM-EXT processor. It
// embeds the processor, so callers that assert for Generation (divmaxd's
// checkpoint trigger) still find it.
type adapter[P any] struct{ processor[P] }

func (a adapter[P]) Coreset() []P { return a.Result() }

func (a adapter[P]) Snapshot() CoresetSnapshot[P] { return a.view(a.Result()) }

func (a adapter[P]) SnapshotSince(gen uint64, pos int) CoresetDelta[P] {
	out := CoresetDelta[P]{Gen: a.Generation(), Pos: a.AppendLogLen()}
	if pos >= 0 && gen == out.Gen && pos <= out.Pos {
		out.Partial = true
		out.CoresetSnapshot = a.view(a.AppendedSince(pos))
	} else {
		out.CoresetSnapshot = a.Snapshot()
	}
	return out
}

// view reports pts with the processor's statistics.
func (a adapter[P]) view(pts []P) CoresetSnapshot[P] {
	return CoresetSnapshot[P]{
		Points:    pts,
		Radius:    a.CoverageRadius(),
		Processed: a.Processed(),
		Stored:    a.StoredPoints(),
	}
}

// NewStreamCoreset returns the streaming core-set processor appropriate
// for measure m: SMM for remote-edge and remote-cycle, SMM-EXT for the
// delegate-based measures. It panics if k < 1 or kprime < k.
func NewStreamCoreset[P any](m Measure, k, kprime int, d Distance[P]) StreamCoreset[P] {
	if m.NeedsInjectiveProxy() {
		return adapter[P]{streamalg.NewSMMExt(k, kprime, d)}
	}
	return adapter[P]{streamalg.NewSMM(k, kprime, d)}
}

// NewDynamicStreamCoreset is NewStreamCoreset tuned for deletion-heavy
// streams: on the SMM family it additionally retains up to spares
// absorbed points per center (promotion candidates for center
// deletions, at the cost of up to spares·(k′+1) extra points in
// memory); the SMM-EXT family's delegate sets already provide
// promotion candidates, so spares is ignored there. Delete works on
// every StreamCoreset — this constructor only improves how much of a
// cluster survives its center's deletion. spares ≤ 0 retains none
// (identical to NewStreamCoreset).
func NewDynamicStreamCoreset[P any](m Measure, k, kprime, spares int, d Distance[P]) StreamCoreset[P] {
	if m.NeedsInjectiveProxy() {
		return adapter[P]{streamalg.NewSMMExt(k, kprime, d)}
	}
	s := streamalg.NewSMM(k, kprime, d)
	s.SetSpareCap(spares)
	return adapter[P]{s}
}
