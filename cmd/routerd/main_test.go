package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/reconfig"
	"repro/internal/topology"
)

// testServer builds an in-process nafta server on a 5x4 mesh.
func testServer(t *testing.T) *fleet.Server {
	t.Helper()
	art, err := reconfig.Build("nafta", reconfig.BuildOptions{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := fleet.NewServer(art, nil, topology.NewMesh(5, 4), fleet.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	return srv
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

// TestFailoverFlagValidation: routerd has no -backups flag any more,
// so every value it used to take, valid or not, fails before routerd
// listens, as an undefined flag.
func TestFailoverFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-backups", "link"},
		{"-backups", "bogus"},
		{"-backups", ","},
		{"-algo", "routec", "-backups", "chain"},
	} {
		var errBuf bytes.Buffer
		if code := run(append(args, "-addr", "127.0.0.1:0"), &errBuf); code != 2 {
			t.Fatalf("args %v: exit %d, want 2", args, code)
		}
		if !strings.Contains(errBuf.String(), "flag provided but not defined: -backups") {
			t.Fatalf("args %v: stderr %q", args, errBuf.String())
		}
	}
}

// TestCacheFlagIsGone: there is no decision cache to size, so -cache
// is refused like any unknown flag.
func TestCacheFlagIsGone(t *testing.T) {
	var errBuf bytes.Buffer
	if code := run([]string{"-cache", "65536", "-addr", "127.0.0.1:0"}, &errBuf); code != 2 {
		t.Fatalf("-cache: exit %d, want 2", code)
	}
	if !strings.Contains(errBuf.String(), "flag provided but not defined: -cache") {
		t.Fatalf("stderr %q", errBuf.String())
	}
}

// TestFaultEndpointFlipsCoveredClass: a single-node fault, once a
// covered class with a precompiled backup, and a two-node fault are
// served the same way now. /fault answers {"epoch":N} (no "flipped"
// key) and leaves the epoch alone, every decision after it equals a
// recompute from the served artifact under the fault, and /metrics
// has no failover section.
func TestFaultEndpointFlipsCoveredClass(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()
	g := srv.Graph()

	for _, nodes := range [][]int{{7}, {7, 12}} {
		resp, body := postJSON(t, ts, "/fault", fleet.FaultRequest{Nodes: nodes})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s", resp.Status, body)
		}
		var ans map[string]json.RawMessage
		if err := json.Unmarshal(body, &ans); err != nil {
			t.Fatal(err)
		}
		if len(ans) != 1 || string(ans["epoch"]) != "1" {
			t.Fatalf("/fault %v answered %s, want {\"epoch\":1}", nodes, body)
		}
		f := fault.NewSet()
		for _, n := range nodes {
			f.FailNode(topology.NodeID(n))
		}
		requireRecompute(t, ts, g, f, 1)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	err = json.NewDecoder(mresp.Body).Decode(&doc)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["failover"]; ok {
		t.Fatal("/metrics still carries a failover section")
	}
}

// TestFaultEndpointWithoutPlane: with no failover plane in front of
// them, the engines learn a /fault through the live recompute, and no
// candidate routes into the failed node.
func TestFaultEndpointWithoutPlane(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/fault", fleet.FaultRequest{Nodes: []int{7}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	if f := srv.Service().Faults(); f == nil || !f.NodeFaulty(7) {
		t.Fatalf("service fault state %v after /fault of node 7", f)
	}
	_, body = postJSON(t, ts, "/decide", reconfig.DecisionRequest{
		Node: 6, InPort: -1, Src: 6, Dst: 8, Length: 4,
	})
	var d fleet.Decision
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Error != "" || d.Unroutable || len(d.Candidates) == 0 {
		t.Fatalf("decision after fault: %+v", d)
	}
	for _, c := range d.Candidates {
		if c.Port >= 0 && srv.Graph().Neighbor(6, c.Port) == 7 {
			t.Fatal("fault not applied: candidate routes into failed node")
		}
	}
}

// TestReloadRebuildsPlane: a /reload after a fault serves engines
// that already know the fault, and the fault can be repaired and set
// again on the reloaded version, each step served as a recompute.
func TestReloadRebuildsPlane(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()
	g := srv.Graph()

	postJSON(t, ts, "/fault", fleet.FaultRequest{Nodes: []int{7}})
	f := fault.NewSet()
	f.FailNode(7)

	next, err := reconfig.Build("nafta", reconfig.BuildOptions{Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := next.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/reload", "application/octet-stream", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var ans struct {
		Epoch uint64 `json:"epoch"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ans)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: %s err=%v", resp.Status, err)
	}
	if ans.Epoch != 2 {
		t.Fatalf("epoch %d after reload, want 2", ans.Epoch)
	}
	requireRecompute(t, ts, g, f, 2)

	// Repair node 7, then fail it again.
	postJSON(t, ts, "/fault", fleet.FaultRequest{})
	requireRecompute(t, ts, g, fault.NewSet(), 2)
	postJSON(t, ts, "/fault", fleet.FaultRequest{Nodes: []int{7}})
	requireRecompute(t, ts, g, f, 2)
}

// requireRecompute sends every injection request of g as one JSON
// /decide/batch and holds each answer to a from-scratch service that
// knows f, and its epoch to epoch.
func requireRecompute(t *testing.T, ts *httptest.Server, g topology.Graph, f *fault.Set, epoch uint64) {
	t.Helper()
	art, err := reconfig.Build("nafta", reconfig.BuildOptions{Epoch: epoch})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reconfig.NewService(art, g, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref.UpdateFaults(f)
	var reqs []reconfig.DecisionRequest
	for src := 0; src < g.Nodes(); src++ {
		for dst := 0; dst < g.Nodes(); dst++ {
			if src != dst {
				reqs = append(reqs, reconfig.DecisionRequest{Node: src, InPort: -1, Src: src, Dst: dst, Length: 4})
			}
		}
	}
	resp, body := postJSON(t, ts, "/decide/batch", reqs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	var got []fleet.Decision
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(reqs) {
		t.Fatalf("%d requests answered with %d decisions", len(reqs), len(got))
	}
	for i := range reqs {
		want, _, err := ref.Decide(&reqs[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].Error != "" || got[i].Epoch != epoch || fmt.Sprint(got[i].Candidates) != fmt.Sprint(want) {
			t.Fatalf("%d->%d served %+v, recompute %v at epoch %d", reqs[i].Src, reqs[i].Dst, got[i], want, epoch)
		}
	}
}

func TestFaultEndpointValidation(t *testing.T) {
	srv := testServer(t)
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	for _, tc := range []struct {
		what string
		req  fleet.FaultRequest
	}{
		{"out-of-range node", fleet.FaultRequest{Nodes: []int{99}}},
		{"out-of-range link", fleet.FaultRequest{Links: [][2]int{{0, -3}}}},
		{"link the mesh does not have", fleet.FaultRequest{Links: [][2]int{{0, 7}}}},
		{"self-link", fleet.FaultRequest{Links: [][2]int{{3, 3}}}},
	} {
		resp, body := postJSON(t, ts, "/fault", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s accepted: %s %s", tc.what, resp.Status, body)
		}
	}
	if f := srv.Service().Faults(); f != nil && !f.Empty() {
		t.Fatalf("refused requests left faults behind: %v", f)
	}
}

// TestServeDrainsInflight exercises the SIGTERM path: serve must let
// an in-flight request finish inside the drain budget before
// returning.
func TestServeDrainsInflight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		fmt.Fprint(w, "done")
	})

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, mux, 5*time.Second) }()

	got := make(chan string, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			got <- "error: " + err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- string(body)
	}()
	<-started

	cancel() // the signal arrives while /slow is in flight
	select {
	case err := <-served:
		t.Fatalf("serve returned before the in-flight request finished: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	if body := <-got; body != "done" {
		t.Fatalf("in-flight request not drained cleanly: %q", body)
	}
	if err := <-served; err != nil {
		t.Fatalf("graceful drain returned %v", err)
	}
}

// TestServeDrainBudgetExhausted: a request that outlives the budget
// must not wedge the shutdown.
func TestServeDrainBudgetExhausted(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	block := make(chan struct{})
	t.Cleanup(func() { close(block) })
	mux := http.NewServeMux()
	mux.HandleFunc("/wedge", func(http.ResponseWriter, *http.Request) {
		close(started)
		<-block
	})

	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- serve(ctx, ln, mux, 20*time.Millisecond) }()
	go http.Get("http://" + ln.Addr().String() + "/wedge")
	<-started
	cancel()

	select {
	case err := <-served:
		if err == nil {
			t.Fatal("exhausted drain budget must surface an error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve wedged past its drain budget")
	}
}
