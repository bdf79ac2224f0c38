package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/reconfig"
	"repro/internal/routing"
	"repro/internal/topology"
)

func encodeArt(t *testing.T, art *reconfig.Artifact) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func testHTTPServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	g := topology.NewMesh(5, 4)
	srv, err := NewServer(buildArt(t, "nafta", 1, g), nil, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Mux())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	out := new(bytes.Buffer)
	out.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, out.Bytes()
}

// decodeError asserts the response body is the JSON error document.
func decodeError(t *testing.T, body []byte) (string, []string) {
	t.Helper()
	var doc struct {
		Error string   `json:"error"`
		Valid []string `json:"valid"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("error body is not the JSON error document: %q", body)
	}
	if doc.Error == "" {
		t.Fatalf("error document with empty error: %q", body)
	}
	return doc.Error, doc.Valid
}

func TestServerRejectsOversizedBatch(t *testing.T) {
	_, ts := testHTTPServer(t, Options{MaxBatch: 4})
	reqs := make([]reconfig.DecisionRequest, 5)
	for i := range reqs {
		reqs[i] = reconfig.DecisionRequest{Node: 0, InPort: routing.InjectionPort, Src: 0, Dst: 3, Length: 4}
	}
	resp, body := postJSON(t, ts, "/decide/batch", reqs)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %s %s", resp.Status, body)
	}
	decodeError(t, body)
}

func TestServerRejectsMalformedJSON(t *testing.T) {
	_, ts := testHTTPServer(t, Options{})
	resp, err := http.Post(ts.URL+"/decide", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	body := new(bytes.Buffer)
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: %s", resp.Status)
	}
	decodeError(t, body.Bytes())
}

func TestServerShardOwnershipRejection(t *testing.T) {
	srv, ts := testHTTPServer(t, Options{Shard: ShardInfo{Index: 0, Count: 2}})
	// Node 1 belongs to replica 1/2; this replica is 0/2.
	resp, body := postJSON(t, ts, "/decide", reconfig.DecisionRequest{
		Node: 1, InPort: routing.InjectionPort, Src: 1, Dst: 6, Length: 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("misdirected decision must answer in-band: %s", resp.Status)
	}
	var d Decision
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Error == "" {
		t.Fatal("misdirected decision served without an ownership error")
	}
	if srv.Metrics().Misdirected != 1 {
		t.Fatalf("misdirected counter %d", srv.Metrics().Misdirected)
	}
	// An owned node decides normally.
	resp, body = postJSON(t, ts, "/decide", reconfig.DecisionRequest{
		Node: 2, InPort: routing.InjectionPort, Src: 2, Dst: 7, Length: 4,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatal(resp.Status)
	}
	var owned Decision
	if err := json.Unmarshal(body, &owned); err != nil {
		t.Fatal(err)
	}
	if owned.Error != "" || owned.Unroutable {
		t.Fatalf("owned decision %+v", owned)
	}
}

func TestServerCanaryUnknownVersionListsChoices(t *testing.T) {
	_, ts := testHTTPServer(t, Options{})
	resp, body := postJSON(t, ts, "/canary", CanaryRequest{Version: 42, Fraction: 0.5})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown canary version: %s %s", resp.Status, body)
	}
	msg, valid := decodeError(t, body)
	if len(valid) != 1 || valid[0] != "1" {
		t.Fatalf("error %q lists versions %v, want [1]", msg, valid)
	}
}

func TestServerRegistryEndpoints(t *testing.T) {
	srv, ts := testHTTPServer(t, Options{})
	g := srv.Graph()
	push := encodeArt(t, buildArt(t, "maze", 2, g))

	resp, err := http.Post(ts.URL+"/registry/push", "application/octet-stream", bytes.NewReader(push))
	if err != nil {
		t.Fatal(err)
	}
	var pushed struct {
		Version  int    `json:"version"`
		Checksum string `json:"checksum"`
	}
	err = json.NewDecoder(resp.Body).Decode(&pushed)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %s err=%v", resp.Status, err)
	}
	if pushed.Version != 2 || pushed.Checksum == "" {
		t.Fatalf("push answered %+v", pushed)
	}

	// Promote without a canary: conflict, with the version list.
	resp, body := postJSON(t, ts, "/promote", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote without canary: %s", resp.Status)
	}
	decodeError(t, body)

	resp, body = postJSON(t, ts, "/canary", CanaryRequest{Version: 2, Fraction: 0.5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("canary: %s %s", resp.Status, body)
	}
	resp, body = postJSON(t, ts, "/promote", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: %s %s", resp.Status, body)
	}
	resp, body = postJSON(t, ts, "/rollback", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollback: %s %s", resp.Status, body)
	}

	var st RegistryStatus
	resp, err = http.Get(ts.URL + "/registry")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Serving != 1 || st.Previous != 2 || len(st.Versions) != 2 {
		t.Fatalf("registry after cycle: %+v", st)
	}
}

func TestServerMetricsCarriesFleetSections(t *testing.T) {
	srv, ts := testHTTPServer(t, Options{Shard: ShardInfo{Index: 0, Count: 1}})
	req := reconfig.DecisionRequest{Node: 0, InPort: routing.InjectionPort, Src: 0, Dst: 9, Length: 4}
	postJSON(t, ts, "/decide", req)
	postJSON(t, ts, "/decide", req) // a repeat is decided again

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc MetricsDoc
	err = json.NewDecoder(resp.Body).Decode(&doc)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Cache != nil {
		t.Fatalf("cache section %+v, want none", doc.Cache)
	}
	if doc.Registry == nil || doc.Registry.Serving != 1 {
		t.Fatalf("registry section %+v", doc.Registry)
	}
	if doc.Shard != (ShardInfo{Index: 0, Count: 1}) {
		t.Fatalf("shard section %+v", doc.Shard)
	}
	if doc.Decisions != 2 {
		t.Fatalf("service decided %d times, want 2", doc.Decisions)
	}
	_ = srv
}

// TestServerPushRejectsBundle: the server takes table artifacts only.
// A body in the retired failover-bundle framing (an artifact frame
// under the ARONBDL magic) is refused with 400 on /registry/push and
// on /reload, like any other non-artifact, and changes nothing.
func TestServerPushRejectsBundle(t *testing.T) {
	srv, ts := testHTTPServer(t, Options{})
	g := topology.NewMesh(5, 4)
	bundleBytes := encodeArt(t, buildArt(t, "nafta", 3, g))
	copy(bundleBytes, "ARONBDL\x01")
	for _, path := range []string{"/registry/push", "/reload"} {
		resp, err := http.Post(ts.URL+path, "application/octet-stream", bytes.NewReader(bundleBytes))
		if err != nil {
			t.Fatal(err)
		}
		body := new(bytes.Buffer)
		body.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bundle %s: %s %s", path, resp.Status, body)
		}
		decodeError(t, body.Bytes())
	}
	if ids := srv.Registry().VersionIDs(); len(ids) != 1 || srv.Service().Epoch() != 1 {
		t.Fatalf("refused bundles changed the registry: versions %v, epoch %d", ids, srv.Service().Epoch())
	}
}

func TestServerOptionsValidation(t *testing.T) {
	g := topology.NewMesh(4, 4)
	art := buildArt(t, "nafta", 1, g)
	if _, err := NewServer(art, nil, g, Options{Shard: ShardInfo{Index: 3, Count: 2}}); err == nil {
		t.Fatal("invalid shard accepted")
	}
}

func TestTopologyForMaze(t *testing.T) {
	art := buildArt(t, "maze", 1, topology.NewMesh(5, 4))
	g, err := TopologyFor(art, "6x3")
	if err != nil {
		t.Fatal(err)
	}
	if g.Nodes() != 18 {
		t.Fatalf("maze topology %s", g.Name())
	}
	if _, err := TopologyFor(art, "bogus"); err == nil {
		t.Fatal("bad mesh spec accepted")
	}
}

// TestReloadUnderBatchLoad hot-reloads the served file over HTTP while
// workers stream JSON /decide/batch load: every fault-free injection
// decision must succeed, be routable and equal a recompute from the
// served program, the epoch must advance, and the service must have
// decided every issued request.
func TestReloadUnderBatchLoad(t *testing.T) {
	g := topology.NewMesh(5, 4)
	art := buildArt(t, "nafta", 1, g)
	next := *art
	next.Epoch = 2
	payload := encodeArt(t, &next)
	t.Run("artifact", func(t *testing.T) {
		srv, err := NewServer(art, nil, g, Options{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Mux())
		defer ts.Close()
		const workers, batches, size = 4, 8, 32
		const total = workers * batches * size
		startEpoch := srv.Service().Epoch()
		var (
			issued atomic.Int64
			reload sync.Once
			wg     sync.WaitGroup
		)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)))
				for b := 0; b < batches; b++ {
					reqs := make([]reconfig.DecisionRequest, size)
					for i := range reqs {
						src := rng.Intn(g.Nodes())
						reqs[i] = injectReq(src, (src+1+rng.Intn(g.Nodes()-1))%g.Nodes())
					}
					if err := postBatch(ts, reqs); err != nil {
						t.Error(err)
						return
					}
					if issued.Add(size) >= total/2 {
						reload.Do(func() {
							resp, err := http.Post(ts.URL+"/reload", "application/octet-stream", bytes.NewReader(payload))
							if err != nil {
								t.Error(err)
								return
							}
							resp.Body.Close()
							if resp.StatusCode != http.StatusOK {
								t.Errorf("hot reload: %s", resp.Status)
							}
						})
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		m := srv.Service().Metrics()
		switch {
		case m.Failed != 0 || m.Unroutable != 0:
			t.Fatalf("%d failed, %d unroutable decisions under a fault-free table", m.Failed, m.Unroutable)
		case m.Epoch <= startEpoch:
			t.Fatalf("epoch did not advance across the reload (still %d)", m.Epoch)
		case m.Decisions != total:
			t.Fatalf("issued %d decisions, the service decided %d", total, m.Decisions)
		}
	})
}

// postBatch sends one JSON /decide/batch and requires an answer per
// request, none failed and none unroutable.
func postBatch(ts *httptest.Server, reqs []reconfig.DecisionRequest) error {
	payload, err := json.Marshal(reqs)
	if err != nil {
		return err
	}
	resp, err := http.Post(ts.URL+"/decide/batch", "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var out []Decision
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return err
	}
	if len(out) != len(reqs) {
		return fmt.Errorf("batch of %d answered with %d decisions", len(reqs), len(out))
	}
	for i, d := range out {
		if d.Error != "" || d.Unroutable {
			return fmt.Errorf("fault-free request %+v answered %+v", reqs[i], d)
		}
	}
	return nil
}
