// Package wal is divmaxd's per-shard durability layer: an append-only
// write-ahead log of ingest/delete records plus an atomically-replaced
// core-set checkpoint, so recovery is checkpoint + log-tail replay
// instead of full-stream replay.
//
// Records are length-prefixed and CRC32C-framed (frame.go); the log is
// split into numbered segment files so compaction can drop whole
// segments once a checkpoint covers them. Open scans the directory,
// truncates a torn or corrupt tail at the first bad frame (keeping
// every record before the damage), and reports the durable end of the
// log so the host knows exactly what to replay.
//
// Ordering contract with the host: Append writes the full frame to the
// segment BEFORE invoking the caller's deliver callback, both under the
// log mutex, and truncates the frame back off if deliver fails. A
// record therefore exists on disk for every message a shard goroutine
// ever folds, and a sequence number acknowledged to a client is never
// ahead of the log. Checkpoints go through a separate file
// (tmp + rename), never take the append mutex, and only advance the
// compaction floor after the rename — a crash mid-checkpoint leaves the
// previous checkpoint valid.
//
// Fsync policy is configurable: SyncAlways fsyncs inside every Append
// (no acknowledged record is ever lost to a power cut), SyncInterval
// (the default) batches fsyncs on a background flusher, SyncOff leaves
// flushing to the OS. All three survive process crashes equally —
// writes are unbuffered — the policy only changes the power-failure
// window.
package wal

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy selects when appended records are fsynced to stable
// storage. The zero value is SyncInterval.
type SyncPolicy int

const (
	// SyncInterval batches fsyncs: a background flusher syncs the
	// active segment every Options.SyncEvery (default 100ms). A process
	// crash loses nothing; a power cut loses at most the last interval.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs inside every Append, before the caller is
	// acknowledged. Slowest, loses nothing even to a power cut.
	SyncAlways
	// SyncOff never fsyncs explicitly; the OS flushes when it pleases.
	// A process crash still loses nothing (writes are unbuffered).
	SyncOff
)

// ParseSyncPolicy maps the -fsync flag values onto a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "interval", "":
		return SyncInterval, nil
	case "always":
		return SyncAlways, nil
	case "off":
		return SyncOff, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or off)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncOff:
		return "off"
	default:
		return "interval"
	}
}

// ErrCrashed is reported by every mutating call after the log has hit
// an unrecoverable write error or an injected crash: the in-memory
// state may be ahead of the disk state, so further appends would tear a
// hole in the replay sequence. The host fails writes closed and leaves
// recovery to the next Open.
var ErrCrashed = errors.New("wal: log crashed, writes disabled")

// Logf is the package's logger; a variable so tests can silence or
// capture it.
var Logf = log.Printf

// Options configures Open.
type Options struct {
	// Dir is the log directory (created if missing). One Log per
	// directory.
	Dir string
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// SyncEvery is the flusher period under SyncInterval (default
	// 100ms).
	SyncEvery time.Duration
	// SegmentBytes rotates the active segment once it reaches this size
	// (default 4 MiB). Compaction removes sealed segments entirely
	// covered by the checkpoint.
	SegmentBytes int64
	// AppendHook and CheckpointHook are the crash-fault injection
	// points (internal/faults wires them per shard): given the frame
	// size about to be written they return how many bytes to actually
	// write — a value in [0, size) tears the write, persists the torn
	// prefix, and crashes the log (ErrCrashed thereafter); anything
	// else writes normally. nil hooks (production) inject nothing.
	AppendHook     func(seq uint64, size int) int
	CheckpointHook func(size int) int
}

func (o Options) withDefaults() Options {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// segment is a sealed (no longer written) segment file.
type segment struct {
	path     string
	bytes    int64
	firstSeq uint64 // 0 when the segment holds no records
	lastSeq  uint64
}

// Log is one shard's write-ahead log. Append/WriteCheckpoint/Replay/
// Stats are safe for concurrent use; the single-recoverer calls
// (Checkpoint, RecoveredSeq) read state fixed at Open.
type Log struct {
	opts Options

	mu          sync.Mutex // guards the append path and active-segment fields
	f           *os.File   // active segment, written via WriteAt(size)
	path        string
	size        int64
	segIndex    uint64
	activeFirst uint64 // first seq in the active segment, 0 if none
	sealed      []segment
	nextSeq     uint64
	dirty       bool // unsynced appends (SyncInterval)

	ckptMu sync.Mutex // guards checkpoint file writes against Close

	crashed  atomic.Bool
	bytes    atomic.Int64 // total log bytes across all segments
	segments atomic.Int64
	floor    atomic.Uint64 // first seq NOT covered by the checkpoint
	rotate   atomic.Bool   // force a rotation on the next append

	// State recovered at Open.
	recoveredSeq uint64
	ckptPayload  []byte
	ckptNext     uint64
	ckptOK       bool

	stop      chan struct{}
	flusherWG sync.WaitGroup
	closeOnce sync.Once
}

// Open creates or recovers the log in opts.Dir: segments are scanned in
// order, the first torn or corrupt frame truncates its segment and
// drops every later one (records before the damage all survive), and
// the newest valid checkpoint file is loaded. The returned log is ready
// for appends; RecoveredSeq and Checkpoint describe what to replay.
func Open(opts Options) (*Log, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{opts: opts}
	l.loadCheckpoint()
	os.Remove(filepath.Join(opts.Dir, ckptTmpName)) // stale tmp from a crashed checkpoint

	indices, err := listSegments(opts.Dir)
	if err != nil {
		return nil, err
	}
	var lastSeq uint64
	damagedAt := -1
	for i, idx := range indices {
		path := segmentPath(opts.Dir, idx)
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		want := uint64(0)
		if lastSeq != 0 {
			want = lastSeq + 1
		}
		valid, first, last, damaged, _ := walkFrames(data, want, nil)
		if damaged {
			if err := os.Truncate(path, valid); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
			Logf("wal: %s: torn or corrupt frame at offset %d: truncated (%d later segment(s) dropped)",
				path, valid, len(indices)-i-1)
			for _, late := range indices[i+1:] {
				os.Remove(segmentPath(opts.Dir, late))
			}
			damagedAt = i
			data = data[:valid]
		}
		if last != 0 {
			lastSeq = last
		}
		l.sealed = append(l.sealed, segment{path: path, bytes: int64(len(data)), firstSeq: first, lastSeq: last})
		l.segIndex = idx
		if damagedAt >= 0 {
			break
		}
	}

	// The final scanned segment becomes the active one.
	if n := len(l.sealed); n > 0 {
		active := l.sealed[n-1]
		l.sealed = l.sealed[:n-1]
		f, err := os.OpenFile(active.path, os.O_RDWR, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: %w", err)
		}
		l.f, l.path, l.size, l.activeFirst = f, active.path, active.bytes, active.firstSeq
	} else {
		l.segIndex = 1
		if err := l.createActive(); err != nil {
			return nil, err
		}
	}

	l.nextSeq = lastSeq + 1
	if l.ckptOK && l.ckptNext > l.nextSeq {
		// The log was fully compacted past its own tail: the checkpoint
		// alone carries the state.
		l.nextSeq = l.ckptNext
	}
	l.recoveredSeq = l.nextSeq - 1
	var total int64
	for _, sg := range l.sealed {
		total += sg.bytes
	}
	l.bytes.Store(total + l.size)
	l.segments.Store(int64(len(l.sealed) + 1))

	if opts.Sync == SyncInterval {
		l.stop = make(chan struct{})
		l.flusherWG.Add(1)
		go l.flusher()
	}
	return l, nil
}

// segmentPath names segment files so lexical order is numeric order.
func segmentPath(dir string, index uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", index))
}

// listSegments returns the segment indices present in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 10, 64)
		if err != nil {
			continue
		}
		out = append(out, idx)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (l *Log) createActive() error {
	path := segmentPath(l.opts.Dir, l.segIndex)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f, l.path, l.size, l.activeFirst = f, path, 0, 0
	return nil
}

// RecoveredSeq is the durable end of the log at Open time: the highest
// sequence number recovery must replay up to (0 when the log was
// empty). Appends made after Open are not included.
func (l *Log) RecoveredSeq() uint64 { return l.recoveredSeq }

// Checkpoint returns the checkpoint loaded at Open: its payload and the
// first sequence number NOT covered by it (replay starts there). ok is
// false when no valid checkpoint existed.
func (l *Log) Checkpoint() (payload []byte, nextSeq uint64, ok bool) {
	return l.ckptPayload, l.ckptNext, l.ckptOK
}

// SetCompactFloor marks every record below nextSeq as covered by
// restored state, letting rotation drop sealed segments that end below
// it. The host calls it after successfully restoring the Open-time
// checkpoint; WriteCheckpoint advances it automatically.
func (l *Log) SetCompactFloor(nextSeq uint64) {
	l.floor.Store(nextSeq)
	l.rotate.Store(true)
}

// Append frames one record, writes it to the active segment, and — with
// the frame durably in place in the file — invokes deliver with the
// record's sequence number, all under the log mutex. If deliver returns
// an error the frame is truncated back off and the error returned: the
// record never happened. This write-ahead ordering is what makes
// replay-to-last-folded exact: a shard can never fold (or panic on) a
// message whose record is not already on disk.
func (l *Log) Append(kind Kind, pts []Vector, deliver func(seq uint64) error) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed.Load() || l.f == nil {
		return 0, ErrCrashed
	}
	if l.size >= l.opts.SegmentBytes || l.rotate.Swap(false) {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	seq := l.nextSeq
	frame := appendFrame(nil, kind, seq, pts)
	if h := l.opts.AppendHook; h != nil {
		if n := h(seq, len(frame)); n >= 0 && n < len(frame) {
			// Injected torn write: persist the torn prefix exactly as a
			// real crash would and disable the log.
			l.f.WriteAt(frame[:n], l.size)
			l.f.Sync()
			l.crashed.Store(true)
			return 0, fmt.Errorf("wal: injected crash after %d of %d bytes of seq %d: %w", n, len(frame), seq, ErrCrashed)
		}
	}
	if _, err := l.f.WriteAt(frame, l.size); err != nil {
		l.crashed.Store(true)
		return 0, fmt.Errorf("wal: append: %w (%w)", err, ErrCrashed)
	}
	if deliver != nil {
		if err := deliver(seq); err != nil {
			l.f.Truncate(l.size)
			return 0, err
		}
	}
	if l.activeFirst == 0 {
		l.activeFirst = seq
	}
	l.size += int64(len(frame))
	l.bytes.Add(int64(len(frame)))
	l.nextSeq = seq + 1
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.f.Sync(); err != nil {
			l.crashed.Store(true)
			return 0, fmt.Errorf("wal: fsync: %w (%w)", err, ErrCrashed)
		}
	case SyncInterval:
		l.dirty = true
	}
	return seq, nil
}

// rotateLocked seals the active segment, compacts sealed segments fully
// covered by the checkpoint floor, and opens the next segment. Called
// with l.mu held; an empty active segment is reused as-is.
func (l *Log) rotateLocked() error {
	if l.size == 0 {
		l.compactLocked()
		return nil
	}
	if l.opts.Sync != SyncOff {
		l.f.Sync()
	}
	l.f.Close()
	l.sealed = append(l.sealed, segment{
		path: l.path, bytes: l.size, firstSeq: l.activeFirst, lastSeq: l.nextSeq - 1,
	})
	l.compactLocked()
	l.segIndex++
	if err := l.createActive(); err != nil {
		return err
	}
	l.segments.Store(int64(len(l.sealed) + 1))
	return nil
}

// compactLocked removes sealed segments whose every record is below the
// compaction floor — the checkpoint carries their contents now.
func (l *Log) compactLocked() {
	floor := l.floor.Load()
	if floor == 0 {
		return
	}
	kept := l.sealed[:0]
	for _, sg := range l.sealed {
		if sg.lastSeq != 0 && sg.lastSeq < floor {
			os.Remove(sg.path)
			l.bytes.Add(-sg.bytes)
			continue
		}
		kept = append(kept, sg)
	}
	l.sealed = kept
	l.segments.Store(int64(len(l.sealed) + 1))
}

// Sync flushes the active segment now, regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.crashed.Load() || l.f == nil {
		return ErrCrashed
	}
	l.dirty = false
	return l.f.Sync()
}

// flusher is the SyncInterval background loop.
func (l *Log) flusher() {
	defer l.flusherWG.Done()
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			l.mu.Lock()
			if l.dirty && !l.crashed.Load() {
				if err := l.f.Sync(); err != nil {
					Logf("wal: %s: background fsync: %v", l.path, err)
					l.crashed.Store(true)
				}
				l.dirty = false
			}
			l.mu.Unlock()
		case <-l.stop:
			return
		}
	}
}

// Replay streams the records with from ≤ seq ≤ to, in order, to fn,
// stopping as soon as to has been delivered. Records below from (they
// are covered by the restored checkpoint) are skipped. It is safe to
// run concurrently with appends: every record with seq ≤ to is fully
// written before the host starts recovery, and Replay stops at to
// without reading into possibly-in-flight tail frames. An error from fn
// or a damaged frame before to aborts the replay, and so does a missing
// record: when compaction has dropped from (a checkpoint covered it),
// Replay fails before delivering anything rather than passing off the
// surviving tail as the whole range.
func (l *Log) Replay(from, to uint64, fn func(Record) error) error {
	if to == 0 || from > to {
		return nil
	}
	l.mu.Lock()
	paths := make([]string, 0, len(l.sealed)+1)
	for _, sg := range l.sealed {
		if sg.lastSeq != 0 && sg.lastSeq < from {
			continue
		}
		paths = append(paths, sg.path)
	}
	paths = append(paths, l.path)
	l.mu.Unlock()

	done := false
	next := from
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		_, _, _, damaged, err := walkFrames(data, 0, func(r Record) error {
			if r.Seq < from {
				return nil
			}
			if r.Seq != next {
				return fmt.Errorf("wal: replay: found seq %d where seq %d was due: records %d through %d are no longer in the log",
					r.Seq, next, next, min(r.Seq-1, to))
			}
			if err := fn(r); err != nil {
				return err
			}
			if r.Seq == to {
				done = true
				return errStopWalk
			}
			next++
			return nil
		})
		if err != nil {
			return err
		}
		if done {
			return nil
		}
		if damaged {
			return fmt.Errorf("wal: replay: damaged frame in %s before reaching seq %d", path, to)
		}
	}
	return fmt.Errorf("wal: replay: log ends before seq %d", to)
}

// Stats reports total log bytes and segment-file count, lock-free.
func (l *Log) Stats() (bytes int64, segments int) {
	return l.bytes.Load(), int(l.segments.Load())
}

// Crashed reports whether the log has disabled writes after an error or
// an injected crash.
func (l *Log) Crashed() bool { return l.crashed.Load() }

// Close stops the flusher and closes the active segment, fsyncing it
// first when sync is true (the clean-shutdown path). A crashed log is
// never synced — its tail is intentionally left as the crash shaped it.
func (l *Log) Close(sync bool) error {
	l.closeOnce.Do(func() {
		if l.stop != nil {
			close(l.stop)
			l.flusherWG.Wait()
		}
	})
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	var err error
	if sync && !l.crashed.Load() {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
