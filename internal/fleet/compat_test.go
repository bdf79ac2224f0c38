package fleet

import (
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/fault"
	"repro/internal/reconfig"
	"repro/internal/topology"
)

// These tests hold the compatibility block (compat.go) to what it
// promises: the CacheEntries fields are accepted and ignored, and no
// decision cache stands in front of the table, so MetricsDoc.Cache is
// nil and every repeat is decided again on the current engine state.

func fetchMetrics(t *testing.T, url string) MetricsDoc {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc MetricsDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestNewCacheDisabled: whatever CacheEntries says — none, negative or
// a full-size cache — the registry answers exactly as one built
// without it, and the server's metrics carry no cache section.
func TestNewCacheDisabled(t *testing.T) {
	g := topology.NewMesh(5, 4)
	art := buildArt(t, "nafta", 1, g)
	plain, err := NewRegistry(art, g, RegistryOptions{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	reqs := harvestRequests(t, art, g, nil, 200)
	for _, entries := range []int{-5, 0, 512, 65536} {
		r, err := NewRegistry(art, g, RegistryOptions{Shards: 2, CacheEntries: entries})
		if err != nil {
			t.Fatalf("CacheEntries %d: %v", entries, err)
		}
		for round := 0; round < 2; round++ { // a repeat is no different
			for i := range reqs {
				got, gotEpoch, gotErr := r.Decide(&reqs[i], nil)
				want, wantEpoch, wantErr := plain.Decide(&reqs[i], nil)
				if (gotErr == nil) != (wantErr == nil) || gotEpoch != wantEpoch || !candidatesEqual(got, want) {
					t.Fatalf("CacheEntries %d, request %+v: %+v epoch %d err %v; without: %+v epoch %d err %v",
						entries, reqs[i], got, gotEpoch, gotErr, want, wantEpoch, wantErr)
				}
			}
		}
		if n := r.Service().Metrics().Decisions; n != int64(2*len(reqs)) {
			t.Fatalf("CacheEntries %d: service decided %d of %d requests", entries, n, 2*len(reqs))
		}

		_, ts := testHTTPServer(t, Options{Shard: ShardInfo{Index: 0, Count: 1}, CacheEntries: entries})
		postJSON(t, ts, "/decide", reqs[0])
		if doc := fetchMetrics(t, ts.URL); doc.Cache != nil {
			t.Fatalf("CacheEntries %d: cache section %+v, want none", entries, doc.Cache)
		}
	}
}

// TestCacheHitMissInvalidate: the operations that used to hit, miss
// and invalidate a memo — a repeated request, a hot reload, a fault
// update — are each answered by the engine state current at the time:
// the repeat is decided again, and after a reload or a fault update
// the answer is a recompute on the new state. The metrics document
// never grows a cache section, so fleet.cache.* read 0.
func TestCacheHitMissInvalidate(t *testing.T) {
	g := topology.NewMesh(5, 4)
	srv, ts := testHTTPServer(t, Options{Shard: ShardInfo{Index: 0, Count: 1}, CacheEntries: 65536})
	r := srv.Registry()
	req := injectReq(6, 8)

	first, firstEpoch, err := r.Decide(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	again, againEpoch, err := r.Decide(&req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if againEpoch != firstEpoch || !candidatesEqual(first, again) {
		t.Fatalf("repeat answered %+v epoch %d, first %+v epoch %d", again, againEpoch, first, firstEpoch)
	}
	if n := r.Service().Metrics().Decisions; n != 2 {
		t.Fatalf("a request and its repeat made %d decisions, want 2", n)
	}

	maze := buildArt(t, "maze", 2, g)
	if _, err := r.Reload(maze); err != nil {
		t.Fatal(err)
	}
	ref, err := reconfig.NewService(maze, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	requireServes(t, "after reload", r, g, ref)
	if _, epoch, _ := r.Decide(&req, nil); epoch != 2 {
		t.Fatalf("repeat after the reload decided at epoch %d, want 2", epoch)
	}

	f := fault.NewSet()
	f.FailNode(7)
	r.UpdateFaults(f)
	ref.UpdateFaults(f)
	requireServes(t, "after fault update", r, g, ref)

	if doc := fetchMetrics(t, ts.URL); doc.Cache != nil {
		t.Fatalf("cache section %+v, want none", doc.Cache)
	}
}
