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
// than silently adopted, and the caller falls back to replaying raw
// points (which rebuilds under the new parameters). The spare cap and
// append-log cap, by contrast, are tuning knobs whose values the
// checkpoint's data shape depends on, so Restore adopts the recorded
// values — reconfiguring them takes effect from the next SetSpareCap /
// SetAppendLogCap call, exactly as it does mid-stream.

// checkpointVersion guards the state-struct layout; bump it when a field
// changes meaning so stale checkpoints are rejected instead of
// misdecoded.
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
	st := smmState[P]{
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
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("streamalg: checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore replaces the processor's state with a checkpoint taken from a
// processor with identical construction parameters, rebuilding the
// Euclidean fast-path mirror and the count of open centers, which the
// checkpoint does not carry. On error the processor is unchanged.
func (s *SMM[P]) Restore(data []byte) error {
	var st smmState[P]
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("streamalg: restore: %w", err)
	}
	if st.Version != checkpointVersion {
		return fmt.Errorf("streamalg: restore: checkpoint version %d, want %d", st.Version, checkpointVersion)
	}
	if st.K != s.k || st.KPrime != s.kprime {
		return fmt.Errorf("streamalg: restore: checkpoint built with k=%d k'=%d, processor has k=%d k'=%d",
			st.K, st.KPrime, s.k, s.kprime)
	}
	if st.SpareCap > 0 && st.Spares == nil {
		st.Spares = make([][]P, len(st.Centers))
	}
	if st.SpareCap > 0 && len(st.Spares) != len(st.Centers) {
		return fmt.Errorf("streamalg: restore: %d spare lists for %d centers", len(st.Spares), len(st.Centers))
	}
	if st.LogCap < 1 {
		return fmt.Errorf("streamalg: restore: append-log cap %d", st.LogCap)
	}
	s.initialized = st.Initialized
	s.threshold = st.Threshold
	s.phases = st.Phases
	s.processed = st.Processed
	s.centers = st.Centers
	s.merged = st.Merged
	s.spareCap = st.SpareCap
	s.spares = st.Spares
	s.gen = st.Gen
	s.appended = st.Appended
	s.logCap = st.LogCap
	s.countOpen()
	if s.scan != nil {
		s.scan.Rebuild(s.centers)
	}
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
	st := smmExtState[P]{
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
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("streamalg: checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// Restore replaces the processor's state with a checkpoint taken from a
// processor with identical construction parameters; see SMM.Restore.
func (s *SMMExt[P]) Restore(data []byte) error {
	var st smmExtState[P]
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("streamalg: restore: %w", err)
	}
	if st.Version != checkpointVersion {
		return fmt.Errorf("streamalg: restore: checkpoint version %d, want %d", st.Version, checkpointVersion)
	}
	if st.K != s.k || st.KPrime != s.kprime {
		return fmt.Errorf("streamalg: restore: checkpoint built with k=%d k'=%d, processor has k=%d k'=%d",
			st.K, st.KPrime, s.k, s.kprime)
	}
	if st.Delegates == nil && len(st.Centers) > 0 {
		return fmt.Errorf("streamalg: restore: %d centers with no delegate sets", len(st.Centers))
	}
	if len(st.Delegates) != len(st.Centers) {
		return fmt.Errorf("streamalg: restore: %d delegate sets for %d centers", len(st.Delegates), len(st.Centers))
	}
	if st.LogCap < 1 {
		return fmt.Errorf("streamalg: restore: append-log cap %d", st.LogCap)
	}
	s.initialized = st.Initialized
	s.threshold = st.Threshold
	s.phases = st.Phases
	s.processed = st.Processed
	s.centers = st.Centers
	s.delegates = st.Delegates
	s.merged = st.Merged
	s.gen = st.Gen
	s.appended = st.Appended
	s.logCap = st.LogCap
	s.countOpen()
	if s.scan != nil {
		s.scan.Rebuild(s.centers)
	}
	return nil
}
