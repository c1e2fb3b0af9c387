package streamalg

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Checkpoint/Restore serialize the complete mutable state of the SMM and
// SMM-EXT processors, so a durable host (divmaxd's WAL layer) can
// persist a core-set mid-stream and resume it after a crash without
// replaying the whole stream. The encoding is gob over a state struct of
// exported fields: float64 values travel as exact bit patterns, so a
// restored processor fed the same suffix of the stream produces
// bit-identical results to one that was never interrupted.
//
// The construction parameters (k, k′) are recorded and validated on
// Restore: state from a differently-sized processor is rejected rather
// than silently adopted. A caller that still holds every raw point can
// rebuild under the new parameters by replaying them; divmaxd's WAL
// drops the records a checkpoint covers, so a shard whose checkpoint no
// longer restores after compaction fails closed instead. The spare cap
// and append-log cap, by contrast, are tuning knobs whose values the
// checkpoint's data shape depends on, so Restore adopts the recorded
// values — reconfiguring them takes effect from the next SetSpareCap /
// SetAppendLogCap call, exactly as it does mid-stream.

// checkpointVersion guards the state-struct layout; bump it when a field
// changes meaning so stale checkpoints are rejected instead of
// misdecoded. gob encodes the state structs by type and field name, so
// they stay flat: a shared embedded header would rename the fields, and
// checkpoints written before that change would no longer restore
// (testdata/*.ckpt pin the bytes).
const checkpointVersion = 1

// smmState is SMM's complete mutable state with exported fields for gob.
type smmState[P any] struct {
	Version     int
	K, KPrime   int
	Initialized bool
	Threshold   float64
	Phases      int
	Processed   int64
	Centers     []P
	Merged      []P
	SpareCap    int
	Spares      [][]P
	Gen         uint64
	Appended    []P
	LogCap      int
}

// Checkpoint serializes the processor's complete state. The snapshot is
// consistent only between Process/Delete calls (the usual single-writer
// contract).
func (s *SMM[P]) Checkpoint() ([]byte, error) {
	return encodeState(smmState[P]{
		Version:     checkpointVersion,
		K:           s.k,
		KPrime:      s.kprime,
		Initialized: s.initialized,
		Threshold:   s.threshold,
		Phases:      s.phases,
		Processed:   s.processed,
		Centers:     s.centers,
		Merged:      s.merged,
		SpareCap:    s.spareCap,
		Spares:      s.spares,
		Gen:         s.gen,
		Appended:    s.appended,
		LogCap:      s.logCap,
	})
}

// Restore replaces the processor's state with a checkpoint taken from a
// processor with identical construction parameters, rebuilding the
// Euclidean fast-path mirror and the count of open centers, which the
// checkpoint does not carry. On error the processor is unchanged.
func (s *SMM[P]) Restore(data []byte) error {
	var st smmState[P]
	if err := decodeState(data, &st); err != nil {
		return err
	}
	if err := s.checkState(st.Version, st.K, st.KPrime, st.LogCap); err != nil {
		return err
	}
	if st.SpareCap > 0 && st.Spares == nil {
		st.Spares = make([][]P, len(st.Centers))
	}
	if st.SpareCap > 0 && len(st.Spares) != len(st.Centers) {
		return fmt.Errorf("streamalg: restore: %d spare lists for %d centers", len(st.Spares), len(st.Centers))
	}
	s.merged, s.spareCap, s.spares = st.Merged, st.SpareCap, st.Spares
	s.gen, s.appended, s.logCap = st.Gen, st.Appended, st.LogCap
	s.restore(st.Initialized, st.Threshold, st.Phases, st.Processed, st.Centers)
	return nil
}

// smmExtState is SMMExt's complete mutable state for gob.
type smmExtState[P any] struct {
	Version     int
	K, KPrime   int
	Initialized bool
	Threshold   float64
	Phases      int
	Processed   int64
	Centers     []P
	Delegates   [][]P
	Merged      []P
	Gen         uint64
	Appended    []P
	LogCap      int
}

// Checkpoint serializes the processor's complete state; see
// SMM.Checkpoint.
func (s *SMMExt[P]) Checkpoint() ([]byte, error) {
	return encodeState(smmExtState[P]{
		Version:     checkpointVersion,
		K:           s.k,
		KPrime:      s.kprime,
		Initialized: s.initialized,
		Threshold:   s.threshold,
		Phases:      s.phases,
		Processed:   s.processed,
		Centers:     s.centers,
		Delegates:   s.delegates,
		Merged:      s.merged,
		Gen:         s.gen,
		Appended:    s.appended,
		LogCap:      s.logCap,
	})
}

// Restore replaces the processor's state with a checkpoint taken from a
// processor with identical construction parameters; see SMM.Restore.
func (s *SMMExt[P]) Restore(data []byte) error {
	var st smmExtState[P]
	if err := decodeState(data, &st); err != nil {
		return err
	}
	if err := s.checkState(st.Version, st.K, st.KPrime, st.LogCap); err != nil {
		return err
	}
	if st.Delegates == nil && len(st.Centers) > 0 {
		return fmt.Errorf("streamalg: restore: %d centers with no delegate sets", len(st.Centers))
	}
	if len(st.Delegates) != len(st.Centers) {
		return fmt.Errorf("streamalg: restore: %d delegate sets for %d centers", len(st.Delegates), len(st.Centers))
	}
	s.delegates, s.merged = st.Delegates, st.Merged
	s.gen, s.appended, s.logCap = st.Gen, st.Appended, st.LogCap
	s.restore(st.Initialized, st.Threshold, st.Phases, st.Processed, st.Centers)
	return nil
}

func encodeState(st any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("streamalg: checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeState(data []byte, st any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(st); err != nil {
		return fmt.Errorf("streamalg: restore: %w", err)
	}
	return nil
}

// checkState runs the checks every checkpoint must pass before the
// processor adopts any of it: the layout version, the construction
// parameters and a usable append-log cap.
func (c *core[P]) checkState(version, k, kprime, logCap int) error {
	if version != checkpointVersion {
		return fmt.Errorf("streamalg: restore: checkpoint version %d, want %d", version, checkpointVersion)
	}
	if k != c.k || kprime != c.kprime {
		return fmt.Errorf("streamalg: restore: checkpoint built with k=%d k'=%d, processor has k=%d k'=%d",
			k, kprime, c.k, c.kprime)
	}
	if logCap < 1 {
		return fmt.Errorf("streamalg: restore: append-log cap %d", logCap)
	}
	return nil
}

// restore adopts the core's checkpointed state and rebuilds what the
// checkpoint does not carry — the count of open centers and the
// Euclidean fast-path mirror — once the processor's payload is in place.
func (c *core[P]) restore(initialized bool, threshold float64, phases int, processed int64, centers []P) {
	c.initialized, c.threshold, c.phases, c.processed = initialized, threshold, phases, processed
	c.centers = centers
	c.countOpen()
	if c.scan != nil {
		c.scan.Rebuild(c.centers)
	}
}
