package server

import (
	"bytes"
	"encoding/json"
	"io"
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

// postSnapshotBody returns the raw /v1/snapshot reply body.
func postSnapshotBody(t *testing.T, url, family string, cursor *api.SnapshotCursor) []byte {
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
	out, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("snapshot: status %d, Content-Type %q, %v", resp.StatusCode, resp.Header.Get("Content-Type"), err)
	}
	return out
}

// TestSnapshotBodyMatchesEncoder: every /v1/snapshot body — empty,
// full and delta, with coordinates on and off the formatter's exact
// path — is byte for byte what json.NewEncoder(w).Encode writes for
// the reply it decodes to.
func TestSnapshotBodyMatchesEncoder(t *testing.T) {
	_, ts := newTestServer(t, Config{Shards: 2, MaxK: 4, KPrime: 64})
	golden := func(what string, body []byte) api.SnapshotResponse {
		t.Helper()
		var resp api.SnapshotResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, want.Bytes()) {
			t.Fatalf("%s: body\n%s\njson.Encoder\n%s", what, body, want.Bytes())
		}
		return resp
	}
	for _, fam := range []string{"edge", "proxy"} {
		if empty := golden(fam+" empty", postSnapshotBody(t, ts.URL, fam, nil)); len(empty.Points) != 0 {
			t.Fatalf("%s: %d points before any ingest", fam, len(empty.Points))
		}
	}
	postIngest(t, ts.URL, []divmax.Vector{
		{12.3456, -0.0001}, {1e-7, 1e21}, {0.1 + 0.2, 1.0 / 3}, {999999999999999, 1e15},
		{-5e-324, 4503599627370496.5}, {1.5e-6, -987.654321},
	})
	for _, fam := range []string{"edge", "proxy"} {
		full := golden(fam+" full", postSnapshotBody(t, ts.URL, fam, nil))
		if full.Partial || len(full.Points) == 0 {
			t.Fatalf("%s: full snapshot partial=%v with %d points", fam, full.Partial, len(full.Points))
		}
		if same := golden(fam+" empty delta", postSnapshotBody(t, ts.URL, fam, &full.Cursor)); !same.Partial || len(same.Points) != 0 {
			t.Fatalf("%s: unchanged stream answered partial=%v with %d points", fam, same.Partial, len(same.Points))
		}
	}
	cursors := map[string]api.SnapshotCursor{}
	for _, fam := range []string{"edge", "proxy"} {
		cursors[fam] = golden(fam+" full", postSnapshotBody(t, ts.URL, fam, nil)).Cursor
	}
	postIngest(t, ts.URL, []divmax.Vector{{-3000.5, 2e-6}, {7777.0625, 0.000123}})
	for _, fam := range []string{"edge", "proxy"} {
		c := cursors[fam]
		if delta := golden(fam+" delta", postSnapshotBody(t, ts.URL, fam, &c)); !delta.Partial || len(delta.Points) == 0 {
			t.Fatalf("%s: delta partial=%v with %d points", fam, delta.Partial, len(delta.Points))
		}
	}
}
