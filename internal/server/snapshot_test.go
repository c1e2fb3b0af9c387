package server

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"

	"divmax"
	"divmax/internal/api"
)

func postSnapshot(t *testing.T, url, family string, cursor *api.SnapshotCursor) api.SnapshotResponse {
	t.Helper()
	body, err := json.Marshal(api.SnapshotRequest{Family: family, Cursor: cursor})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/snapshot", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d", resp.StatusCode)
	}
	var out api.SnapshotResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSnapshotEndpoint: the coordinator's round-1 fetch. A full round
// returns the merged per-shard core-set whose size matches what /query
// merges; handing the cursor back with nothing ingested since yields an
// empty pure delta; ingesting more yields either a delta extending the
// earlier view or a full replacement (never a mix); a stale-width
// cursor falls back to full.
func TestSnapshotEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 3, MaxK: 4})
	rng := rand.New(rand.NewSource(7))
	pts := clusterPoints(rng, []divmax.Vector{{0, 0}, {100, 0}, {0, 100}, {60, 60}}, 40, 1.0)
	postIngest(t, ts.URL, pts)

	for fam, m := range map[string]divmax.Measure{"edge": divmax.RemoteEdge, "proxy": divmax.RemoteClique} {
		full := postSnapshot(t, ts.URL, fam, nil)
		if full.Partial {
			t.Fatalf("%s: cursorless snapshot answered partial", fam)
		}
		if full.Shards != 3 || full.Processed != int64(len(pts)) {
			t.Fatalf("%s: shards=%d processed=%d, want 3, %d", fam, full.Shards, full.Processed, len(pts))
		}
		if q := getQuery(t, ts.URL, 2, m); q.CoresetSize != len(full.Points) {
			t.Fatalf("%s: snapshot has %d points, /query merged %d", fam, len(full.Points), q.CoresetSize)
		}

		same := postSnapshot(t, ts.URL, fam, &full.Cursor)
		if !same.Partial || len(same.Points) != 0 {
			t.Fatalf("%s: unchanged stream: partial=%v delta=%d, want empty pure delta", fam, same.Partial, len(same.Points))
		}
		if same.Processed != full.Processed {
			t.Fatalf("%s: delta processed %d, want %d", fam, same.Processed, full.Processed)
		}

		more := clusterPoints(rng, []divmax.Vector{{200, 200}}, 20, 1.0)
		postIngest(t, ts.URL, more)
		next := postSnapshot(t, ts.URL, fam, &full.Cursor)
		if next.Processed != int64(len(pts)+len(more)) {
			t.Fatalf("%s: post-ingest processed %d, want %d", fam, next.Processed, len(pts)+len(more))
		}
		want := len(next.Points)
		if next.Partial {
			want += len(full.Points)
		}
		if fresh := postSnapshot(t, ts.URL, fam, nil); len(fresh.Points) != want {
			t.Fatalf("%s: cursor view totals %d points, fresh snapshot has %d", fam, want, len(fresh.Points))
		}

		stale := postSnapshot(t, ts.URL, fam, &api.SnapshotCursor{Gens: []uint64{1}, Poss: []int{0}})
		if stale.Partial {
			t.Fatalf("%s: wrong-width cursor answered partial", fam)
		}
		// Reset the stream view for the next family loop? Not needed —
		// both families see the same stream; the counts above are all
		// relative to what this iteration ingested so far.
		pts = append(pts, more...)
	}
}

// TestSnapshotEndpointRejects: family, body and method validation use
// the uniform error envelope. Only whitespace may follow the request
// value, and whitespace that runs past the body limit is 413.
func TestSnapshotEndpointRejects(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2})
	valid := `{"family":"edge"}`
	for _, tc := range []struct {
		name, body string
		status     int
		code       string
	}{
		{"unknown family", `{"family":"nope"}`, http.StatusBadRequest, api.CodeBadRequest},
		{"trailing brace", valid + `}`, http.StatusBadRequest, api.CodeBadRequest},
		{"trailing bracket", valid + `]`, http.StatusBadRequest, api.CodeBadRequest},
		{"whitespace past the limit", valid + strings.Repeat(" ", maxSnapshotBody), http.StatusRequestEntityTooLarge, api.CodePayloadTooLarge},
	} {
		resp, err := http.Post(ts.URL+"/v1/snapshot", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var env api.ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != tc.status || err != nil || env.Error.Code != tc.code {
			t.Fatalf("%s: status %d envelope %+v (err %v), want %d %s", tc.name, resp.StatusCode, env, err, tc.status, tc.code)
		}
	}
	if q := postSnapshot(t, ts.URL, "edge", nil); q.Shards != 2 {
		t.Fatalf("valid request after the rejected ones: %+v", q)
	}
	get, err := http.Get(ts.URL + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status %d, want 405", get.StatusCode)
	}
}
