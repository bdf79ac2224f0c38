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

	"repro/internal/failover"
	"repro/internal/fleet"
	"repro/internal/reconfig"
	"repro/internal/topology"
)

// testServer builds an in-process nafta server on a 5x4 mesh, with
// backups for every fault-class kind as `-backups link,node,chain`
// asks, or without any.
func testServer(t *testing.T, withBackups bool) *fleet.Server {
	t.Helper()
	art, err := reconfig.Build("nafta", reconfig.BuildOptions{Epoch: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := topology.NewMesh(5, 4)
	var classes []failover.Class
	if withBackups {
		if classes, err = parseBackups("link,node,chain", g); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := fleet.NewServer(art, classes, g, fleet.Options{Shards: 2, CacheEntries: 1024})
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

// TestFailoverFlagValidation: a bad -backups value fails before
// routerd listens, and the error names the valid kinds or the
// topology a kind needs.
func TestFailoverFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring expected on stderr
	}{
		{"unknown kind lists choices", []string{"-backups", "bogus"}, "valid: link, node, chain"},
		{"empty kinds list choices", []string{"-backups", ","}, "valid: link, node, chain"},
		{"chain on hypercube", []string{"-algo", "routec", "-backups", "chain"}, "mesh topology"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var errBuf bytes.Buffer
			if code := run(append(tc.args, "-addr", "127.0.0.1:0"), &errBuf); code == 0 {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(errBuf.String(), tc.want) {
				t.Fatalf("stderr %q does not contain %q", errBuf.String(), tc.want)
			}
		})
	}
}

func TestParseBackupKinds(t *testing.T) {
	g := topology.NewMesh(5, 4)
	classes, err := parseBackups(" link , node ,chain", g)
	if err != nil {
		t.Fatal(err)
	}
	// 31 links + 20 nodes + 12 chains, before the plane's dedup.
	if len(classes) != 63 {
		t.Fatalf("%d classes", len(classes))
	}
	if classes, err := parseBackups("", g); err != nil || classes != nil {
		t.Fatalf("empty -backups: %v, %v", classes, err)
	}
	if _, err := parseBackups("link,meteor", g); err == nil {
		t.Fatal("bad kind accepted")
	}
}

func TestFaultEndpointFlipsCoveredClass(t *testing.T) {
	srv := testServer(t, true)
	if srv.Plane() == nil {
		t.Fatal("a server with backups must attach a plane")
	}
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	// Node 7 is a covered single-node class: must flip.
	resp, body := postJSON(t, ts, "/fault", fleet.FaultRequest{Nodes: []int{7}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	var ans struct {
		Flipped bool   `json:"flipped"`
		Epoch   uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatal(err)
	}
	if !ans.Flipped {
		t.Fatal("covered single-node fault did not flip")
	}
	if ans.Epoch != 2 {
		t.Fatalf("epoch %d after flip, want 2", ans.Epoch)
	}

	// Decisions must now avoid node 7 entirely.
	_, body = postJSON(t, ts, "/decide", reconfig.DecisionRequest{
		Node: 6, InPort: -1, Src: 6, Dst: 8, Length: 4,
	})
	var d fleet.Decision
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Error != "" || d.Unroutable {
		t.Fatalf("decision after flip: %+v", d)
	}

	// A two-node state matches no enumerated class: falls back to
	// live recompute, flipped=false.
	resp, body = postJSON(t, ts, "/fault", fleet.FaultRequest{Nodes: []int{7, 12}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Flipped {
		t.Fatal("uncovered fault state claimed a flip")
	}

	// /metrics carries the plane's counters and flip percentiles.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Epoch    uint64 `json:"epoch"`
		Failover *struct {
			CoveredClasses int     `json:"covered_classes"`
			Flips          int64   `json:"flips"`
			Recomputes     int64   `json:"recomputes"`
			FlipP99        float64 `json:"flip_us_p99"`
		} `json:"failover"`
	}
	err = json.NewDecoder(mresp.Body).Decode(&doc)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if doc.Failover == nil {
		t.Fatal("/metrics has no failover section despite an attached plane")
	}
	if doc.Failover.Flips != 1 || doc.Failover.Recomputes != 1 {
		t.Fatalf("plane counters %d/%d, want 1 flip 1 recompute", doc.Failover.Flips, doc.Failover.Recomputes)
	}
	if doc.Failover.FlipP99 <= 0 {
		t.Fatal("flip latency percentile missing after a flip")
	}
}

func TestFaultEndpointWithoutPlane(t *testing.T) {
	srv := testServer(t, false)
	if srv.Plane() != nil {
		t.Fatal("a server without backups must not attach a plane")
	}
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	resp, body := postJSON(t, ts, "/fault", fleet.FaultRequest{Nodes: []int{7}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %s", resp.Status, body)
	}
	var ans struct {
		Flipped bool `json:"flipped"`
	}
	if err := json.Unmarshal(body, &ans); err != nil {
		t.Fatal(err)
	}
	if ans.Flipped {
		t.Fatal("no plane attached, yet the fault claimed a flip")
	}
	// The engines still learned the fault via direct UpdateFaults.
	_, body = postJSON(t, ts, "/decide", reconfig.DecisionRequest{
		Node: 6, InPort: -1, Src: 6, Dst: 8, Length: 4,
	})
	var d fleet.Decision
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	for _, c := range d.Candidates {
		if c.Port >= 0 && srv.Graph().Neighbor(6, c.Port) == 7 {
			t.Fatal("direct fault update not applied: candidate routes into failed node")
		}
	}
}

func TestFaultEndpointValidation(t *testing.T) {
	srv := testServer(t, true)
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

// TestReloadRebuildsPlane: a backup consumed before a /reload is
// available again after it, because the plane is rebuilt for the
// version the reload serves.
func TestReloadRebuildsPlane(t *testing.T) {
	srv := testServer(t, true)
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	postJSON(t, ts, "/fault", fleet.FaultRequest{Nodes: []int{7}})
	before := srv.Plane()
	if before.Flips() != 1 {
		t.Fatal("setup flip missing")
	}

	next, err := reconfig.Build("nafta", reconfig.BuildOptions{Epoch: srv.Service().Epoch() + 1})
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
	if ans.Epoch <= 2 {
		t.Fatalf("epoch %d after reload, want > 2", ans.Epoch)
	}
	p := srv.Plane()
	if p == before || p.Flips() != 0 || p.CoveredClasses() != before.CoveredClasses() {
		t.Fatal("reload must rebuild a fresh plane with the same classes")
	}
	// The live fault state is node 7; repair it, then fail it again.
	postJSON(t, ts, "/fault", fleet.FaultRequest{})
	_, body := postJSON(t, ts, "/fault", fleet.FaultRequest{Nodes: []int{7}})
	var fa struct {
		Flipped bool `json:"flipped"`
	}
	if err := json.Unmarshal(body, &fa); err != nil || !fa.Flipped {
		t.Fatalf("node 7 after reload: %s (err %v)", body, err)
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
