package server

import (
	"sync"

	"divmax"
)

// The /ingest hot path recycles its two kinds of point-slice buffers
// through a sync.Pool: the request decode buffer (one per in-flight
// request) and the per-shard batch slices that ride the shard channels.
// Only the outer []divmax.Vector backing arrays are reused — the batch
// decoder (api.ReadBatch) allocates every point as a Vector of its own,
// because shards retain accepted points (as SMM centers and delegates)
// indefinitely. For the same reason every buffer is cleared before going
// back to the pool: a stale Vector header would both pin the retained
// point's backing array and, if encoding/json ever decoded into it in
// place (the decoder's fallback for non-canonical bodies), corrupt a
// center already owned by a shard.

var vecSlicePool = sync.Pool{New: func() any { return new([]divmax.Vector) }}

// getVecSlice returns a pooled empty []divmax.Vector (behind its stable
// pointer) with whatever capacity a previous request left behind.
func getVecSlice() *[]divmax.Vector {
	p := vecSlicePool.Get().(*[]divmax.Vector)
	*p = (*p)[:0]
	return p
}

// putVecSlice clears the slice up to its capacity (dropping every point
// reference) and returns the backing array to the pool.
func putVecSlice(p *[]divmax.Vector) {
	s := (*p)[:cap(*p)]
	clear(s)
	*p = s[:0]
	vecSlicePool.Put(p)
}
