package streamalg

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"divmax/internal/metric"
)

// Checkpoint goldens. testdata/*.ckpt hold the checkpoints an earlier
// build wrote after goldenPrefix of goldenStream. A durable divmaxd
// restores whatever its data directory holds, so a checkpoint written by
// one build must restore in the next: each golden must restore and then
// track an uninterrupted twin bit for bit, and today's Checkpoint of the
// same prefix must reproduce it byte for byte (gob encodes the state
// structs by type and field name, so renaming or nesting a field breaks
// both).

// goldenStream is the goldens' input: 420 points in R³ where every
// fifth point repeats an earlier one, and one delete per 7-point batch
// (drive), each of a point already streamed, so the stream runs merge
// phases, absorbs duplicates and evicts centers, delegates and spares.
func goldenStream() (pts, dels []metric.Vector) {
	rng := rand.New(rand.NewSource(2027))
	pts = randVecs(rng, 420, 3)
	for i := 5; i < len(pts); i += 5 {
		pts[i] = pts[rng.Intn(i)]
	}
	for i := 0; i < len(pts)/7; i++ {
		dels = append(dels, pts[rng.Intn(7*i+7)])
	}
	return pts, dels
}

// goldenPrefix is where the goldens were taken: 240 points and the 34
// deletes drive interleaves with them.
const goldenPrefix = 240

var goldenCases = []struct {
	file  string
	fresh func(d metric.Distance[metric.Vector]) smmLike
}{
	{"smm.ckpt", func(d metric.Distance[metric.Vector]) smmLike { return NewSMM(4, 10, d) }},
	{"smm-spares2.ckpt", func(d metric.Distance[metric.Vector]) smmLike {
		s := NewSMM(4, 10, d)
		s.SetSpareCap(2)
		return s
	}},
	{"smmext.ckpt", func(d metric.Distance[metric.Vector]) smmLike { return NewSMMExt(4, 10, d) }},
}

func TestCheckpointGolden(t *testing.T) {
	pts, dels := goldenStream()
	prefixDels := dels[:goldenPrefix/7]
	for _, tc := range goldenCases {
		t.Run(tc.file, func(t *testing.T) {
			golden, err := os.ReadFile(filepath.Join("testdata", tc.file))
			if err != nil {
				t.Fatal(err)
			}
			twin := tc.fresh(metric.Euclidean)
			drive(twin, pts[:goldenPrefix], prefixDels)
			ck, err := twin.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ck, golden) {
				t.Fatalf("checkpoint of the golden prefix differs from testdata/%s (%d vs %d bytes)", tc.file, len(ck), len(golden))
			}
			restored := tc.fresh(metric.Euclidean)
			if err := restored.Restore(golden); err != nil {
				t.Fatal(err)
			}
			assertIdentical(t, twin, restored)
			drive(twin, pts[goldenPrefix:], dels[len(prefixDels):])
			drive(restored, pts[goldenPrefix:], dels[len(prefixDels):])
			assertIdentical(t, twin, restored)
			sameCheckpoint(t, tc.file, twin, restored)
		})
	}
}

// TestGoldenDistanceCalls pins the number of distance evaluations each
// processor makes on the generic path over the whole golden stream,
// deletes included (SMM-GEN has no Delete and takes the points alone).
// The counts were taken from the build that wrote the goldens, less,
// for SMM-EXT and SMM-GEN, the second survivor scan per merged-away
// center that build made: the merge now hands mergeAway the survivor
// it found.
func TestGoldenDistanceCalls(t *testing.T) {
	pts, dels := goldenStream()
	count := func(run func(d metric.Distance[metric.Vector])) int64 {
		c := metric.NewCounter(metric.Euclidean)
		run(c.Distance())
		return c.Calls()
	}
	want := map[string]int64{"smm.ckpt": 3554, "smm-spares2.ckpt": 4064, "smmext.ckpt": 5284}
	for _, tc := range goldenCases {
		got := count(func(d metric.Distance[metric.Vector]) { drive(tc.fresh(d), pts, dels) })
		if got != want[tc.file] {
			t.Errorf("%s stream: %d distance calls, want %d", tc.file, got, want[tc.file])
		}
	}
	got := count(func(d metric.Distance[metric.Vector]) { NewSMMGen(4, 10, d).ProcessBatch(pts) })
	if want := int64(3257); got != want {
		t.Errorf("SMM-GEN: %d distance calls, want %d", got, want)
	}
}
