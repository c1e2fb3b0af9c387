package streamalg

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"divmax/internal/metric"
)

// Fast/generic twins for the covering exit. A fast-path processor
// (metric.Euclidean over Vector, with the flat scanner) and its generic
// twin (genericEuclid, the per-point MinDistance scan, which never takes
// the exit) are fed the same ingests, deletes, spare-cap changes and
// checkpoint restores, and must hold bit-identical state after every
// step: equal Checkpoint bytes, or for SMMGen, which has no checkpoint,
// equal fields.

// coverCounter counts the covering exits of the processor whose scanner
// it wraps.
type coverCounter struct {
	centerScanner[metric.Vector]
	exits *int
}

func (c coverCounter) Covers(p metric.Vector, r float64) bool {
	*c.exits++
	return c.centerScanner.Covers(p, r)
}

// foldTwin is one processor type's twin pair. remove, setSpareCap and
// restore do nothing on the types without Delete, SetSpareCap or
// Checkpoint.
type foldTwin interface {
	ingest(pts []metric.Vector)
	remove(t *testing.T, p metric.Vector)
	setSpareCap(n int)
	restore(t *testing.T)
	// retained lists the fast processor's retained points, candidates
	// for evicting deletes.
	retained() []metric.Vector
	// check fails t unless both processors hold the same state and each
	// one's count of open centers matches a recount.
	check(t *testing.T)
	// exitsTaken is the number of covering exits the fast processor took.
	exitsTaken() int
}

func sameCheckpoint(t *testing.T, label string, fast, slow interface{ Checkpoint() ([]byte, error) }) {
	t.Helper()
	fb, err := fast.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := slow.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, sb) {
		t.Fatalf("%s: fast and generic checkpoints differ (%d vs %d bytes)", label, len(fb), len(sb))
	}
}

func restoreInto(t *testing.T, to, from interface {
	Checkpoint() ([]byte, error)
	Restore([]byte) error
}) {
	t.Helper()
	data, err := from.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := to.Restore(data); err != nil {
		t.Fatal(err)
	}
}

func sameOutcome(t *testing.T, label string, p metric.Vector, fast, slow DeleteOutcome) {
	t.Helper()
	if fast != slow {
		t.Fatalf("%s: Delete(%v) is %v on the fast path, %v on the generic", label, p, fast, slow)
	}
}

type smmTwin struct {
	k, kprime  int
	fast, slow *SMM[metric.Vector]
	exits      int
}

func newSMMTwin(k, kprime, spares int) *smmTwin {
	w := &smmTwin{k: k, kprime: kprime}
	w.fast, w.slow = w.fresh()
	w.setSpareCap(spares)
	return w
}

func (w *smmTwin) fresh() (fast, slow *SMM[metric.Vector]) {
	fast = NewSMM(w.k, w.kprime, metric.Euclidean)
	fast.scan = coverCounter{fast.scan, &w.exits}
	return fast, NewSMM(w.k, w.kprime, metric.Distance[metric.Vector](genericEuclid))
}

func (w *smmTwin) ingest(pts []metric.Vector) {
	w.fast.ProcessBatch(pts)
	for _, p := range pts {
		w.slow.Process(p)
	}
}

func (w *smmTwin) remove(t *testing.T, p metric.Vector) {
	t.Helper()
	sameOutcome(t, "SMM", p, w.fast.Delete(p), w.slow.Delete(p))
}

func (w *smmTwin) setSpareCap(n int) {
	w.fast.SetSpareCap(n)
	w.slow.SetSpareCap(n)
}

func (w *smmTwin) restore(t *testing.T) {
	t.Helper()
	fast, slow := w.fresh()
	restoreInto(t, fast, w.fast)
	restoreInto(t, slow, w.slow)
	w.fast, w.slow = fast, slow
}

func (w *smmTwin) retained() []metric.Vector {
	out := append(append([]metric.Vector(nil), w.fast.centers...), w.fast.merged...)
	for _, sp := range w.fast.spares {
		out = append(out, sp...)
	}
	return out
}

func (w *smmTwin) check(t *testing.T) {
	t.Helper()
	sameCheckpoint(t, "SMM", w.fast, w.slow)
	for _, s := range []*SMM[metric.Vector]{w.fast, w.slow} {
		open := 0
		for _, sp := range s.spares {
			if len(sp) < s.spareCap {
				open++
			}
		}
		if s.open != open {
			t.Fatalf("SMM counts %d open centers, %d spare lists have room", s.open, open)
		}
	}
}

func (w *smmTwin) exitsTaken() int { return w.exits }

type extTwin struct {
	k, kprime  int
	fast, slow *SMMExt[metric.Vector]
	exits      int
}

func newExtTwin(k, kprime int) *extTwin {
	w := &extTwin{k: k, kprime: kprime}
	w.fast, w.slow = w.fresh()
	return w
}

func (w *extTwin) fresh() (fast, slow *SMMExt[metric.Vector]) {
	fast = NewSMMExt(w.k, w.kprime, metric.Euclidean)
	fast.scan = coverCounter{fast.scan, &w.exits}
	return fast, NewSMMExt(w.k, w.kprime, metric.Distance[metric.Vector](genericEuclid))
}

func (w *extTwin) ingest(pts []metric.Vector) {
	w.fast.ProcessBatch(pts)
	for _, p := range pts {
		w.slow.Process(p)
	}
}

func (w *extTwin) remove(t *testing.T, p metric.Vector) {
	t.Helper()
	sameOutcome(t, "SMMExt", p, w.fast.Delete(p), w.slow.Delete(p))
}

func (w *extTwin) setSpareCap(int) {}

func (w *extTwin) restore(t *testing.T) {
	t.Helper()
	fast, slow := w.fresh()
	restoreInto(t, fast, w.fast)
	restoreInto(t, slow, w.slow)
	w.fast, w.slow = fast, slow
}

func (w *extTwin) retained() []metric.Vector {
	out := append([]metric.Vector(nil), w.fast.merged...)
	for _, set := range w.fast.delegates {
		out = append(out, set...)
	}
	return out
}

func (w *extTwin) check(t *testing.T) {
	t.Helper()
	sameCheckpoint(t, "SMMExt", w.fast, w.slow)
	for _, s := range []*SMMExt[metric.Vector]{w.fast, w.slow} {
		open := 0
		for _, set := range s.delegates {
			if len(set) < s.k {
				open++
			}
		}
		if s.open != open {
			t.Fatalf("SMMExt counts %d open centers, %d delegate sets have room", s.open, open)
		}
	}
}

func (w *extTwin) exitsTaken() int { return w.exits }

type genTwin struct {
	fast, slow *SMMGen[metric.Vector]
	exits      int
}

func newGenTwin(k, kprime int) *genTwin {
	w := &genTwin{slow: NewSMMGen(k, kprime, metric.Distance[metric.Vector](genericEuclid))}
	w.fast = NewSMMGen(k, kprime, metric.Euclidean)
	w.fast.scan = coverCounter{w.fast.scan, &w.exits}
	return w
}

func (w *genTwin) ingest(pts []metric.Vector) {
	w.fast.ProcessBatch(pts)
	for _, p := range pts {
		w.slow.Process(p)
	}
}

func (w *genTwin) remove(*testing.T, metric.Vector) {}
func (w *genTwin) setSpareCap(int)                  {}
func (w *genTwin) restore(*testing.T)               {}
func (w *genTwin) retained() []metric.Vector        { return nil }

// genState encodes an SMMGen's complete state as gob encodes a
// checkpoint: float64 values by their bits.
func genState(t *testing.T, s *SMMGen[metric.Vector]) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(struct {
		Initialized bool
		Threshold   float64
		Phases      int
		Processed   int64
		Centers     []metric.Vector
		Counts      []int
	}{s.initialized, s.threshold, s.phases, s.processed, s.centers, s.counts})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (w *genTwin) check(t *testing.T) {
	t.Helper()
	if !bytes.Equal(genState(t, w.fast), genState(t, w.slow)) {
		t.Fatalf("SMMGen: fast and generic states differ")
	}
	for _, s := range []*SMMGen[metric.Vector]{w.fast, w.slow} {
		open := 0
		for _, c := range s.counts {
			if c < s.k {
				open++
			}
		}
		if s.open != open {
			t.Fatalf("SMMGen counts %d open centers, %d counts are below k", s.open, open)
		}
	}
}

func (w *genTwin) exitsTaken() int { return w.exits }

// TestInfiniteDistancesTwins feeds the 81 points of {−1e200, 0, 1e200}^4
// through all three twin pairs with divmaxd's parameters, one point at
// a time. The coordinates are finite but every distance between two
// points overflows to +Inf, and so does the threshold, so each point
// after the first phase is covered while no center is nearest to it:
// the absorb step must keep it nowhere, on both paths.
func TestInfiniteDistancesTwins(t *testing.T) {
	pts := make([]metric.Vector, 81)
	for i := range pts {
		pts[i] = make(metric.Vector, 4)
		for j, c := 0, i; j < 4; j, c = j+1, c/3 {
			pts[i][j] = float64(c%3-1) * 1e200
		}
	}
	for _, w := range []foldTwin{newSMMTwin(16, 64, 2), newExtTwin(16, 64), newGenTwin(16, 64)} {
		for _, p := range pts {
			w.ingest([]metric.Vector{p})
			w.check(t)
		}
	}
}

// gridPoints draws n points uniform in [0, 100) on divmaxbench's 1e-4
// grid.
func gridPoints(rng *rand.Rand, n, dim int) []metric.Vector {
	pts := make([]metric.Vector, n)
	for i := range pts {
		pts[i] = make(metric.Vector, dim)
		for j := range pts[i] {
			pts[i][j] = float64(rng.Intn(100*1e4)) / 1e4
		}
	}
	return pts
}

// driveDivmaxdShape runs w through a divmaxd-shaped schedule at one
// dimension: 1e-4-grid batches long enough to fill every spare list
// and delegate set, evicting deletes of retained points, spare-cap
// changes and a mid-stream restore into fresh processors, with a check
// after every step. It fails t unless the fast processor took the
// covering exit both before the restore and after it.
func driveDivmaxdShape(t *testing.T, w foldTwin, dim int) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(dim)))
	atRestore := 0
	for step := 0; step < 48; step++ {
		// Uniform batches, every fourth one tie-heavy.
		if step%4 == 3 {
			w.ingest(tieHeavyStream(rng, 200, dim))
		} else {
			w.ingest(gridPoints(rng, 400, dim))
		}
		w.check(t)
		switch step % 6 {
		case 1, 4:
			// Evicting deletes reopen spare lists and delegate sets.
			kept := w.retained()
			for range 8 {
				if len(kept) > 0 {
					w.remove(t, kept[rng.Intn(len(kept))])
					w.check(t)
				}
			}
		case 2:
			w.setSpareCap([]int{3, 1, 0, 2}[step/6%4])
			w.check(t)
		}
		if step == 23 {
			atRestore = w.exitsTaken()
			w.restore(t)
			w.check(t)
		}
	}
	if atRestore == 0 || w.exitsTaken() == atRestore {
		t.Fatalf("d=%d: %d covering exits before the restore, %d after", dim, atRestore, w.exitsTaken()-atRestore)
	}
}

// FuzzFoldTwins drives all three processors' twin pairs through an
// arbitrary sequence of ingests, deletes of retained points, spare-cap
// changes and restores into fresh processors, and checks them after
// every step. Each op byte picks the step; an ingest draws 1–16 points
// on a coarse grid, scaled by up to 2^7, so ties, duplicates and phase
// changes are all common.
func FuzzFoldTwins(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 0x21, 0x41, 6, 7, 0x0f, 0x17, 0xe0, 0xe1, 6, 0x1f}, uint8(1), uint8(3), uint8(1))
	f.Add([]byte{0x10, 0x30, 0x50, 0x70, 0x90, 0xb0, 0xd0, 0xf0, 0x0e, 0x16, 0x1e, 0x07, 0x26}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{0xf5, 0xf5, 0xf5, 0xf5, 0x0e, 0x1f, 0xf5, 0x2e, 0x37, 0xf5, 0x0f}, uint8(3), uint8(5), uint8(4))
	f.Fuzz(func(t *testing.T, ops []byte, kRaw, kpRaw, dimRaw uint8) {
		k := 1 + int(kRaw)%4
		kprime := k + int(kpRaw)%6
		dim := []int{1, 2, 3, 8, 16}[int(dimRaw)%5]
		twins := []foldTwin{newSMMTwin(k, kprime, 2), newExtTwin(k, kprime), newGenTwin(k, kprime)}
		for i, op := range ops {
			switch {
			case op%8 == 6:
				var kept []metric.Vector
				for _, w := range twins {
					kept = append(kept, w.retained()...)
				}
				if len(kept) > 0 {
					p := kept[int(op>>3)%len(kept)]
					for _, w := range twins {
						w.remove(t, p)
					}
				}
			case op%16 == 7:
				for _, w := range twins {
					w.setSpareCap(int(op>>4) % 4)
				}
			case op%16 == 15:
				for _, w := range twins {
					w.restore(t)
				}
			default:
				rng := rand.New(rand.NewSource(int64(i)<<8 | int64(op)))
				scale := float64(int(1) << (op >> 5))
				pts := make([]metric.Vector, 1+int(op>>1)%16)
				for j := range pts {
					pts[j] = make(metric.Vector, dim)
					for c := range pts[j] {
						pts[j][c] = float64(rng.Intn(8)) * scale
					}
				}
				for _, w := range twins {
					w.ingest(pts)
				}
			}
			for _, w := range twins {
				w.check(t)
			}
		}
	})
}
