package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"

	"divmax"
	"divmax/internal/api"
	"divmax/internal/merge"
)

// The shards are the query cache's parts (internal/merge): shardSource
// fetches one shard's core-set view over its channel, and POST
// /v1/snapshot serves the same fan-out over the wire, so that a
// coordinator can run the round-2 merge + solve itself — the paper's
// round-1/round-2 split made literal across processes.
//
// The wire cursor holds every shard's (generation, append-log position),
// and a request carrying it back gets a pure delta — only the points
// that joined any shard's core-set since — as long as NO shard
// restructured. In a mixed round the shards that answered with a delta
// are asked again for their full view before answering: returning
// deltas beside full views would double- or under-count. A cursor of
// the wrong width (the worker restarted with a different shard count)
// is ignored rather than rejected: the caller gets a full snapshot,
// which is also how it recovers.

// shardCursor locates one shard's view: its ingest epoch, which the hit
// check compares with the accepted epoch, and its core-set generation
// and append-log position, which a delta request hands back.
type shardCursor struct {
	epoch, gen uint64
	pos        int
}

// shardSource is the server's merge.Source.
type shardSource struct{ *Server }

func (s shardSource) Parts() int { return len(s.shards) }

// Current reports whether every shard's accepted epoch still equals the
// cursor's: no batch or delete was accepted since the views were taken.
// A draining server or a failed shard is never current, so the query
// fails — or degrades — even where the cache holds a state: Close means
// no more answers, and a failed shard's slice of the stream is no
// longer served.
func (s shardSource) Current(cursors []shardCursor) bool {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	if draining || s.failedShard() != nil {
		return false
	}
	for i, c := range cursors {
		if c.epoch != s.shards[i].accEpoch.Load() {
			return false
		}
	}
	return true
}

// Fetch asks shard part for its view of family f since cur. The request
// rides the shard's channel behind every batch the shard accepted before
// it, so no lock ever guards the core-sets. It never sheds: a full
// queue, like the reply, is bounded by ctx alone, so a slow shard is a
// 504, or a missing shard in a degraded round, not a spurious 429.
func (s shardSource) Fetch(ctx context.Context, part, f int, cur *shardCursor) (merge.Reply[shardCursor], error) {
	sh := s.shards[part]
	reply := make(chan snapReply, 1)
	msg := shardMsg{snap: reply, proxy: f == 1, pos: -1}
	if cur != nil {
		msg.gen, msg.pos = cur.gen, cur.pos
	}
	// The read lock keeps Close from closing the channel mid-send.
	s.mu.RLock()
	var err error
	switch {
	case s.draining:
		err = errDraining
	case sh.failed():
		err = &shardFailedError{id: sh.id}
	default:
		err = s.deliver(ctx, sh, msg, false)
	}
	s.mu.RUnlock()
	if err != nil {
		return merge.Reply[shardCursor]{}, err
	}
	select {
	case r := <-reply:
		d := r.delta
		return merge.Reply[shardCursor]{
			Partial:   d.Partial,
			Points:    d.Points,
			Processed: d.Processed,
			Cursor:    shardCursor{epoch: r.epoch, gen: d.Gen, pos: d.Pos},
		}, r.err
	case <-ctx.Done():
		return merge.Reply[shardCursor]{}, ctx.Err()
	}
}

// maxSnapshotBody bounds a /v1/snapshot request body (cursors are tiny).
const maxSnapshotBody = 1 << 20

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		api.WriteError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req api.SnapshotRequest
	body := http.MaxBytesReader(w, r.Body, maxSnapshotBody)
	dec := json.NewDecoder(body)
	if err := dec.Decode(&req); err != nil {
		api.WriteError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	// Only whitespace may follow the value, up to the end of the body.
	rest, err := io.ReadAll(io.MultiReader(dec.Buffered(), body))
	var tooBig *http.MaxBytesError
	switch {
	case len(bytes.TrimLeft(rest, " \t\r\n")) > 0:
		api.WriteError(w, http.StatusBadRequest, "trailing data after the snapshot request")
		return
	case errors.As(err, &tooBig):
		api.WriteError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", tooBig.Limit)
		return
	case err != nil:
		api.WriteError(w, http.StatusBadRequest, "bad JSON: %v", err)
		return
	}
	// The family names the core-set, not a measure: any measure of the
	// family solves over the same snapshot.
	f := slices.Index(merge.FamilyNames[:], req.Family)
	if f < 0 {
		api.WriteError(w, http.StatusBadRequest, "unknown core-set family %q (want \"edge\" or \"proxy\")", req.Family)
		return
	}
	ctx, cancel := api.RequestContext(r, s.cfg.QueryDeadline)
	defer cancel()

	var cursors []shardCursor
	if c := req.Cursor; c != nil && len(c.Gens) == len(s.shards) && len(c.Poss) == len(s.shards) {
		cursors = make([]shardCursor, len(s.shards))
		for i := range cursors {
			cursors[i] = shardCursor{gen: c.Gens[i], pos: c.Poss[i]}
		}
	}
	src := shardSource{s}
	replies, err := merge.Round(ctx, src, f, cursors)
	partial := cursors != nil
	for _, rep := range replies {
		partial = partial && rep.Partial
	}
	if err == nil && !partial {
		err = merge.Complete(ctx, src, f, replies)
	}
	if err != nil {
		s.writeFailure(w, err)
		return
	}
	resp := api.SnapshotResponse{
		Partial: partial,
		Points:  []divmax.Vector{},
		Shards:  len(s.shards),
		Cursor: api.SnapshotCursor{
			Gens: make([]uint64, len(replies)),
			Poss: make([]int, len(replies)),
		},
	}
	for i, rep := range replies {
		resp.Cursor.Gens[i] = rep.Cursor.gen
		resp.Cursor.Poss[i] = rep.Cursor.pos
		resp.Processed += rep.Processed
		resp.Points = append(resp.Points, rep.Points...)
	}
	api.WriteSnapshot(w, &resp, func(err error) { logf("server: encoding response: %v", err) })
}
