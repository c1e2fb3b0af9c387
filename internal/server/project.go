package server

import (
	"sync"
	"unsafe"

	"divmax"
	"divmax/internal/metric"
)

// Opt-in Johnson–Lindenstrauss projection (Config.ProjectDim).
//
// When enabled and the dataset dimension exceeds ProjectDim, every
// ingested (and deleted) point is projected ONCE at the handler, and
// the shards, core-sets, caches, and solve engines all run entirely in
// the reduced space — the whole resident pipeline never sees an
// original coordinate again. Query answers are mapped back: each
// selected projected point looks up the original it came from (the
// projection is deterministic, so equal originals collapse to equal
// projected points), and the reported value is re-evaluated over the
// ORIGINALS — true-space diversity of the returned set, not the
// projected-space objective the solver optimized.
//
// The projected-bytes → original map is in-memory and grows with the
// number of distinct ingested points, which is why ProjectDim is
// rejected alongside DataDir (recovery could rebuild the shards but
// not the map) and reserved for single-process servers.

// projectSeed fixes the projector's Gaussian matrix for the process:
// deterministic per (dim, ProjectDim), so deletes always project onto
// the bytes their ingests produced. Tests rebuild the same projector
// from it to compute per-instance distortion envelopes.
const projectSeed = 0x9E3779B9

// projection is the server's projection state, created lazily when the
// first batch pins the dataset dimension.
type projection struct {
	mu sync.RWMutex
	// decided latches the pass-through decision: once the dataset
	// dimension is known, pr is built exactly once (nil when the shape
	// is non-reducing) and never revisited.
	decided bool
	pr      *metric.Projector
	// orig maps projected-point bytes to the original point that
	// produced them (first ingest wins; equal originals project
	// identically, so later duplicates change nothing).
	orig map[string]divmax.Vector
}

// projecting reports whether queries must map solutions back.
func (s *Server) projecting() bool {
	s.proj.mu.RLock()
	defer s.proj.mu.RUnlock()
	return s.proj.pr != nil
}

// projectorFor returns the projector for the (now pinned) dataset
// dimension, creating it on first use. nil means pass-through: the
// feature is off, or the dataset dimension is already at or below
// ProjectDim (NewProjector refuses non-reducing shapes).
func (s *Server) projectorFor(dim int) *metric.Projector {
	if s.cfg.ProjectDim <= 0 {
		return nil
	}
	s.proj.mu.RLock()
	pr, decided := s.proj.pr, s.proj.decided
	s.proj.mu.RUnlock()
	if decided {
		return pr
	}
	s.proj.mu.Lock()
	defer s.proj.mu.Unlock()
	if !s.proj.decided {
		s.proj.pr = metric.NewProjector(dim, s.cfg.ProjectDim, projectSeed)
		s.proj.decided = true
		if s.proj.pr != nil {
			s.proj.orig = make(map[string]divmax.Vector)
		}
	}
	return s.proj.pr
}

// vecKey is the map key of a projected point: its coordinates' raw
// bytes. The slice data is copied into the string, so the key outlives
// the vector's backing array.
func vecKey(v divmax.Vector) string {
	if len(v) == 0 {
		return ""
	}
	return string(unsafe.Slice((*byte)(unsafe.Pointer(&v[0])), 8*len(v)))
}

// projectIngest projects a validated ingest batch, recording each
// projected point's original for query-time mapping, and returns the
// batch the shards should fold. Pass-through (projection off or
// non-reducing) returns pts unchanged.
func (s *Server) projectIngest(pts []divmax.Vector) []divmax.Vector {
	pr := s.projectorFor(len(pts[0]))
	if pr == nil {
		return pts
	}
	out := make([]divmax.Vector, len(pts))
	s.proj.mu.Lock()
	for i, p := range pts {
		out[i] = metric.Vector(pr.Project(p))
		if key := vecKey(out[i]); s.proj.orig[key] == nil {
			s.proj.orig[key] = p
		}
	}
	s.proj.mu.Unlock()
	s.projectedPoints.Add(int64(len(pts)))
	return out
}

// projectDelete projects a delete batch onto the space the shards
// store. Originals stay in the map: deletion by value is idempotent
// and a re-ingested point must map back again.
func (s *Server) projectDelete(pts []divmax.Vector) []divmax.Vector {
	pr := s.projectorFor(len(pts[0]))
	if pr == nil {
		return pts
	}
	out := make([]divmax.Vector, len(pts))
	for i, p := range pts {
		out[i] = metric.Vector(pr.Project(p))
	}
	return out
}

// unproject maps a solved (projected-space) solution back to the
// original points, in place of the projected ones. A projected point
// with no recorded original — impossible for points that came through
// /ingest — is returned as-is rather than dropped, keeping the
// response shape intact.
func (s *Server) unproject(sol []divmax.Vector) []divmax.Vector {
	if !s.projecting() || len(sol) == 0 {
		return sol
	}
	out := make([]divmax.Vector, len(sol))
	s.proj.mu.RLock()
	for i, p := range sol {
		if o := s.proj.orig[vecKey(p)]; o != nil {
			out[i] = o
		} else {
			out[i] = p
		}
	}
	s.proj.mu.RUnlock()
	return out
}
