package wal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

func init() {
	Logf = func(string, ...any) {} // recovery tests corrupt files on purpose
}

func testVecs(rng *rand.Rand, n, d int) []Vector {
	out := make([]Vector, n)
	for i := range out {
		v := make(Vector, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = v
	}
	return out
}

// collect replays the whole surviving log (no checkpoint restore).
func collect(t *testing.T, l *Log) []Record {
	t.Helper()
	var out []Record
	if l.RecoveredSeq() == 0 {
		return out
	}
	if err := l.Replay(1, l.RecoveredSeq(), func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func mustAppend(t *testing.T, l *Log, kind Kind, pts []Vector) uint64 {
	t.Helper()
	seq, err := l.Append(kind, pts, nil)
	if err != nil {
		t.Fatalf("append: %v", err)
	}
	return seq
}

func TestAppendReopenReplay(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	l, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := 0; i < 20; i++ {
		kind := KindIngest
		if i%5 == 4 {
			kind = KindDelete
		}
		pts := testVecs(rng, 1+rng.Intn(5), 3)
		seq := mustAppend(t, l, kind, pts)
		if seq != uint64(i+1) {
			t.Fatalf("seq %d, want %d", seq, i+1)
		}
		want = append(want, Record{Kind: kind, Seq: seq, Points: pts})
	}
	if err := l.Close(true); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close(false)
	if l2.RecoveredSeq() != 20 {
		t.Fatalf("RecoveredSeq %d, want 20", l2.RecoveredSeq())
	}
	if !reflect.DeepEqual(collect(t, l2), want) {
		t.Fatal("replayed records differ from appended")
	}
	// Appends continue from where the log left off.
	if seq := mustAppend(t, l2, KindIngest, want[0].Points); seq != 21 {
		t.Fatalf("post-reopen seq %d, want 21", seq)
	}
}

func TestDeliverFailureUnwritesRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	pts := []Vector{{1, 2}}
	mustAppend(t, l, KindIngest, pts)
	boom := errors.New("queue full")
	if _, err := l.Append(KindIngest, []Vector{{3, 4}}, func(uint64) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v, want the deliver error", err)
	}
	// The failed record never happened: the next append reuses its seq
	// and the file holds exactly two frames.
	if seq := mustAppend(t, l, KindDelete, pts); seq != 2 {
		t.Fatalf("seq %d, want 2 (failed append must not burn a seq)", seq)
	}
	l.Close(true)
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close(false)
	recs := collect(t, l2)
	if len(recs) != 2 || recs[1].Kind != KindDelete {
		t.Fatalf("recovered %d records, want the 2 delivered ones", len(recs))
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 11} {
		t.Run(fmt.Sprintf("cut-%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir, Sync: SyncOff})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(cut)))
			for i := 0; i < 10; i++ {
				mustAppend(t, l, KindIngest, testVecs(rng, 2, 2))
			}
			l.Close(true)

			path := segmentPath(dir, 1)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, int64(len(data)-cut)); err != nil {
				t.Fatal(err)
			}

			l2, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close(false)
			if l2.RecoveredSeq() != 9 {
				t.Fatalf("RecoveredSeq %d, want 9 (only the torn final record lost)", l2.RecoveredSeq())
			}
			if got := collect(t, l2); len(got) != 9 {
				t.Fatalf("recovered %d records, want 9", len(got))
			}
		})
	}
}

func TestCorruptMiddleDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var offsets []int64
	for i := 0; i < 10; i++ {
		mustAppend(t, l, KindIngest, testVecs(rng, 2, 2))
		offsets = append(offsets, l.size)
	}
	l.Close(true)

	// Flip one byte inside record 6 (offsets[4] is the end of record 5).
	path := segmentPath(dir, 1)
	data, _ := os.ReadFile(path)
	data[offsets[4]+frameHeader+3] ^= 0x40
	os.WriteFile(path, data, 0o644)

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close(false)
	if l2.RecoveredSeq() != 5 {
		t.Fatalf("RecoveredSeq %d, want 5 (damage in record 6 drops it and the suffix)", l2.RecoveredSeq())
	}
}

func TestRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force frequent rotation.
	l, err := Open(Options{Dir: dir, Sync: SyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 40; i++ {
		mustAppend(t, l, KindIngest, testVecs(rng, 2, 4))
	}
	_, segsBefore := l.Stats()
	if segsBefore < 3 {
		t.Fatalf("expected several segments, got %d", segsBefore)
	}
	// A checkpoint covering everything + one more append compacts all
	// sealed segments.
	if err := l.WriteCheckpoint([]byte("state"), 41); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, KindIngest, testVecs(rng, 1, 4))
	bytesAfter, segsAfter := l.Stats()
	if segsAfter != 1 {
		t.Fatalf("%d segments after full compaction, want 1", segsAfter)
	}
	l.Close(true)

	// Reopen: the checkpoint plus the single surviving record recover.
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close(false)
	payload, next, ok := l2.Checkpoint()
	if !ok || string(payload) != "state" || next != 41 {
		t.Fatalf("checkpoint (%q, %d, %v), want (state, 41, true)", payload, next, ok)
	}
	if l2.RecoveredSeq() != 41 {
		t.Fatalf("RecoveredSeq %d, want 41", l2.RecoveredSeq())
	}
	n := 0
	if err := l2.Replay(next, l2.RecoveredSeq(), func(r Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records past the checkpoint, want 1", n)
	}
	if b, _ := l2.Stats(); b <= 0 || b > bytesAfter {
		t.Fatalf("stats bytes %d out of range (0, %d]", b, bytesAfter)
	}
}

// TestReplayFailsOnCompactedRecords: once compaction has dropped the
// records a checkpoint covered, a replay that asks for them (a host
// whose checkpoint no longer restores falls back to the full range)
// fails before delivering anything, instead of delivering the
// surviving tail as if it were the whole log. A range the log still
// holds replays as before.
func TestReplayFailsOnCompactedRecords(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Sync: SyncOff, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(false)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		mustAppend(t, l, KindIngest, testVecs(rng, 2, 4))
	}
	if err := l.WriteCheckpoint([]byte("state"), 31); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, KindIngest, testVecs(rng, 2, 4)) // rotates and compacts
	delivered := 0
	count := func(Record) error { delivered++; return nil }
	for _, from := range []uint64{1, 20} {
		if err := l.Replay(from, 41, count); err == nil {
			t.Fatalf("Replay(%d, 41) on a log compacted below seq 31 succeeded", from)
		}
		if delivered != 0 {
			t.Fatalf("Replay(%d, 41) delivered %d records before failing, want 0", from, delivered)
		}
	}
	if err := l.Replay(31, 41, count); err != nil {
		t.Fatalf("Replay(31, 41): %v", err)
	}
	if delivered != 11 {
		t.Fatalf("Replay(31, 41) delivered %d records, want 11", delivered)
	}
}

func TestCheckpointCrashKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	hookArmed := false
	l, err := Open(Options{
		Dir: dir, Sync: SyncOff,
		CheckpointHook: func(size int) int {
			if hookArmed {
				return size / 2
			}
			return -1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, KindIngest, []Vector{{1}})
	if err := l.WriteCheckpoint([]byte("good"), 2); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, KindIngest, []Vector{{2}})
	hookArmed = true
	if err := l.WriteCheckpoint([]byte("never-lands"), 3); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err %v, want ErrCrashed", err)
	}
	// Crashed log: all mutations fail closed.
	if _, err := l.Append(KindIngest, []Vector{{3}}, nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("append on crashed log: %v, want ErrCrashed", err)
	}
	l.Close(false)

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close(false)
	payload, next, ok := l2.Checkpoint()
	if !ok || string(payload) != "good" || next != 2 {
		t.Fatalf("checkpoint (%q, %d, %v), want the previous (good, 2, true)", payload, next, ok)
	}
	if l2.RecoveredSeq() != 2 {
		t.Fatalf("RecoveredSeq %d, want 2", l2.RecoveredSeq())
	}
	if _, err := os.Stat(filepath.Join(dir, ckptTmpName)); !os.IsNotExist(err) {
		t.Fatal("stale checkpoint.tmp survived reopen")
	}
}

func TestAppendCrashTearsExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	l, err := Open(Options{
		Dir: dir, Sync: SyncAlways,
		AppendHook: func(seq uint64, size int) int {
			calls++
			if calls == 3 {
				return 5 // tear the third append after 5 bytes
			}
			return -1
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, KindIngest, []Vector{{1, 1}})
	mustAppend(t, l, KindIngest, []Vector{{2, 2}})
	if _, err := l.Append(KindIngest, []Vector{{3, 3}}, nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("err %v, want ErrCrashed", err)
	}
	l.Close(false)

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close(false)
	recs := collect(t, l2)
	if len(recs) != 2 {
		t.Fatalf("recovered %d records, want the 2 acknowledged ones", len(recs))
	}
	// The torn tail was truncated; appending works again after reopen.
	if seq := mustAppend(t, l2, KindIngest, []Vector{{3, 3}}); seq != 3 {
		t.Fatalf("seq %d, want 3", seq)
	}
}

func TestSyncPoliciesSmoke(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, pol := range []SyncPolicy{SyncAlways, SyncInterval, SyncOff} {
		t.Run(pol.String(), func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(Options{Dir: dir, Sync: pol, SyncEvery: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				mustAppend(t, l, KindIngest, testVecs(rng, 3, 2))
			}
			if pol == SyncInterval {
				time.Sleep(25 * time.Millisecond) // let the flusher run
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(true); err != nil {
				t.Fatal(err)
			}
			l2, err := Open(Options{Dir: dir, Sync: pol})
			if err != nil {
				t.Fatal(err)
			}
			if got := len(collect(t, l2)); got != 10 {
				t.Fatalf("recovered %d records, want 10", got)
			}
			l2.Close(false)
		})
	}
}

// TestFlusherGoroutineStops pins that Open(SyncInterval)+Close leaks no
// background flusher (the chaos suites re-check this under -race at the
// server level).
func TestFlusherGoroutineStops(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		l, err := Open(Options{Dir: t.TempDir(), Sync: SyncInterval, SyncEvery: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		mustAppend(t, l, KindIngest, []Vector{{1}})
		l.Close(true)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines %d > %d before: flusher leaked", n, before)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"always": SyncAlways, "interval": SyncInterval, "off": SyncOff, "": SyncInterval} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestRecordSpecialFloats(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncOff})
	if err != nil {
		t.Fatal(err)
	}
	// The server never ingests NaN/Inf, but the frame format must not
	// care: exact bit patterns round-trip.
	pts := []Vector{{math.Copysign(0, -1), math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-300}}
	mustAppend(t, l, KindIngest, pts)
	l.Close(true)
	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close(false)
	recs := collect(t, l2)
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	for j, x := range recs[0].Points[0] {
		if math.Float64bits(x) != math.Float64bits(pts[0][j]) {
			t.Fatalf("coordinate %d: bits %x, want %x", j, math.Float64bits(x), math.Float64bits(pts[0][j]))
		}
	}
}
