package fleet

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/reconfig"
	"repro/internal/routing"
)

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

func mustRequestFrame(t testing.TB, reqs []reconfig.DecisionRequest) []byte {
	t.Helper()
	frame, err := AppendBatchRequest(nil, reqs, identity(len(reqs)))
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// postFrame sends body to /decide/batch as a binary frame.
func postFrame(t *testing.T, ts *httptest.Server, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/decide/batch", BatchContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out := new(bytes.Buffer)
	out.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, out.Bytes()
}

var wireSampleRequests = []reconfig.DecisionRequest{
	{Node: 0, InPort: routing.InjectionPort, Src: 0, Dst: 3, Length: 4},
	{Node: 7, InPort: 2, InVC: 1, Src: 1, Dst: 19, Length: 9, Misroutes: 3, Marked: true, Phase: 1, DetourLevel: 2, VNet: 1},
	{Node: -1, InPort: -7, InVC: -1, Src: 1 << 30, Dst: -(1 << 31), Length: 0, Misroutes: -32768, Phase: 32767},
}

var wireSampleDecisions = []Decision{
	{Candidates: []routing.Candidate{{Port: 1, VC: 0}, {Port: 2, VC: 1}}, Epoch: 7},
	{Candidates: []routing.Candidate{}, Epoch: 7, Unroutable: true},
	{Error: "node 99 out of range [0,20)"},
	{Candidates: []routing.Candidate{{Port: -1, VC: 32767}}, Epoch: 1<<64 - 1},
}

func TestBatchFrameRoundTrip(t *testing.T) {
	frame := mustRequestFrame(t, wireSampleRequests)
	if want := requestHeaderLen + len(wireSampleRequests)*requestRecordLen; len(frame) != want {
		t.Fatalf("request frame is %d bytes, want %d", len(frame), want)
	}
	reqs, err := DecodeBatchRequest(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(reqs, wireSampleRequests) {
		t.Fatalf("requests came back as %+v", reqs)
	}

	frame, err = AppendBatchResponse(nil, wireSampleDecisions)
	if err != nil {
		t.Fatal(err)
	}
	// Gathered through a permutation, as the client does.
	order := []int{2, 0, 3, 1}
	out := make([]Decision, len(order))
	if err := DecodeBatchResponse(frame, out, order); err != nil {
		t.Fatal(err)
	}
	for j, i := range order {
		if !reflect.DeepEqual(out[i], wireSampleDecisions[j]) {
			t.Fatalf("decision %d gathered to %d as %+v, want %+v", j, i, out[i], wireSampleDecisions[j])
		}
	}
	// The candidates share a backing array: appending to one answer
	// must not reach the next.
	first := out[order[0]].Candidates
	_ = append(first, routing.Candidate{Port: 99})
	if got := out[order[3]].Candidates[0]; got != wireSampleDecisions[3].Candidates[0] {
		t.Fatalf("append to one decision's candidates overwrote a neighbour: %+v", got)
	}
}

// TestBatchFrameEncoderRefusesOverflow: a value its wire field cannot
// hold is an error, never a truncation.
func TestBatchFrameEncoderRefusesOverflow(t *testing.T) {
	ok := reconfig.DecisionRequest{Node: 1, InPort: -1, Src: 1, Dst: 2, Length: 4}
	for field, mutate := range map[string]func(*reconfig.DecisionRequest){
		"node":         func(r *reconfig.DecisionRequest) { r.Node = 1 << 31 },
		"dst":          func(r *reconfig.DecisionRequest) { r.Dst = -(1 << 31) - 1 },
		"length":       func(r *reconfig.DecisionRequest) { r.Length = 1 << 40 },
		"in_port":      func(r *reconfig.DecisionRequest) { r.InPort = 1 << 15 },
		"in_vc":        func(r *reconfig.DecisionRequest) { r.InVC = -(1 << 15) - 1 },
		"detour_level": func(r *reconfig.DecisionRequest) { r.DetourLevel = 70000 },
		"vnet":         func(r *reconfig.DecisionRequest) { r.VNet = 1 << 20 },
	} {
		r := ok
		mutate(&r)
		_, err := AppendBatchRequest(nil, []reconfig.DecisionRequest{ok, r}, identity(2))
		if err == nil || !strings.Contains(err.Error(), field) || !strings.Contains(err.Error(), "request 1") {
			t.Errorf("%s out of its field: err = %v", field, err)
		}
	}
	for name, d := range map[string]Decision{
		"candidate port":        {Candidates: []routing.Candidate{{Port: 40000}}},
		"candidate vc":          {Candidates: []routing.Candidate{{Port: 1, VC: -40000}}},
		"16-bit length":         {Error: strings.Repeat("x", 1<<16)},
		"not one a replica":     {Error: "both", Candidates: []routing.Candidate{{Port: 1}}},
		"not one a replica (u)": {Unroutable: true, Candidates: []routing.Candidate{{Port: 1}}},
	} {
		_, err := AppendBatchResponse(nil, []Decision{d})
		if err == nil || !strings.Contains(err.Error(), strings.TrimSuffix(name, " (u)")) {
			t.Errorf("%s: err = %v", name, err)
		}
	}
}

func TestBatchFrameDecoderRejects(t *testing.T) {
	good := mustRequestFrame(t, wireSampleRequests)
	mutated := func(f func(b []byte) []byte) []byte { return f(bytes.Clone(good)) }
	// A count is checked against the bytes present before it sizes
	// anything; decoding these would otherwise try to allocate for four
	// billion records.
	hugeCount := mutated(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[4:], 1<<32-1); return b })
	for name, frame := range map[string][]byte{
		"empty":        nil,
		"short header": good[:5],
		"bad magic":    mutated(func(b []byte) []byte { b[0] = 'X'; return b }),
		"truncated":    good[:len(good)-1],
		"trailing":     append(bytes.Clone(good), 0),
		"huge count":   hugeCount,
		"bad flags":    mutated(func(b []byte) []byte { b[len(b)-1] = 2; return b }),
		"a response":   mustResponseFrame(t, wireSampleDecisions),
	} {
		if reqs, err := DecodeBatchRequest(frame, nil); err == nil {
			t.Errorf("%s: decoded %d requests", name, len(reqs))
		}
	}
	resp := mustResponseFrame(t, wireSampleDecisions)
	n := len(wireSampleDecisions)
	mutated = func(f func(b []byte) []byte) []byte { return f(bytes.Clone(resp)) }
	firstRecord := responseHeaderLen
	for name, frame := range map[string][]byte{
		"empty":           nil,
		"bad magic":       mutated(func(b []byte) []byte { b[2] = 'Q'; return b }),
		"truncated":       resp[:len(resp)-1],
		"trailing":        append(bytes.Clone(resp), 0),
		"bad kind":        mutated(func(b []byte) []byte { b[firstRecord+8] = 2; return b }),
		"fewer announced": mutated(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 2); return b }),
		"more announced":  mutated(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 4); return b }),
		"huge announced":  mutated(func(b []byte) []byte { binary.LittleEndian.PutUint32(b[8:], 1<<32-1); return b }),
		"long candidates": mutated(func(b []byte) []byte { binary.LittleEndian.PutUint16(b[firstRecord+9:], 60000); return b }),
		"empty error": mutated(func(b []byte) []byte {
			b[firstRecord+8] = kindError
			binary.LittleEndian.PutUint16(b[firstRecord+9:], 0)
			return b
		}),
	} {
		if err := DecodeBatchResponse(frame, make([]Decision, n), identity(n)); err == nil {
			t.Errorf("response %s: accepted", name)
		}
	}
	if err := DecodeBatchResponse(resp, make([]Decision, n+1), identity(n+1)); err == nil {
		t.Error("a frame of fewer decisions than asked for was accepted")
	}
}

func mustResponseFrame(t testing.TB, ds []Decision) []byte {
	t.Helper()
	frame, err := AppendBatchResponse(nil, ds)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// FuzzBatchFrame feeds arbitrary bytes to both frame decoders: neither
// may panic, and whatever one accepts must encode back to the same
// bytes (so decode∘encode is the identity on every valid frame and no
// two frames mean the same batch). testdata/fuzz/FuzzBatchFrame holds
// the seed corpus.
func FuzzBatchFrame(f *testing.F) {
	f.Add(mustRequestFrame(f, wireSampleRequests))
	f.Add(mustResponseFrame(f, wireSampleDecisions))
	f.Fuzz(func(t *testing.T, data []byte) {
		if reqs, err := DecodeBatchRequest(data, nil); err == nil {
			again := mustRequestFrame(t, reqs)
			if !bytes.Equal(again, data) {
				t.Fatalf("request frame %x decodes to %+v, which encodes to %x", data, reqs, again)
			}
		}
		// The client always knows how many answers it asked for; take
		// the frame's word for it unless that would make the test itself
		// allocate without bound.
		n, err := frameCount(data, responseMagic, responseHeaderLen)
		if err != nil || n > len(data) {
			return
		}
		out := make([]Decision, n)
		if err := DecodeBatchResponse(data, out, identity(n)); err == nil {
			again := mustResponseFrame(t, out)
			if !bytes.Equal(again, data) {
				t.Fatalf("response frame %x decodes to %+v, which encodes to %x", data, out, again)
			}
		}
	})
}

func TestServerRejectsMalformedFrame(t *testing.T) {
	_, ts := testHTTPServer(t, Options{})
	good := mustRequestFrame(t, wireSampleRequests[:2])
	for name, frame := range map[string][]byte{
		"not a frame": []byte("[{not json"),
		"truncated":   good[:len(good)-3],
		"trailing":    append(bytes.Clone(good), 1, 2),
		"bad flags":   append(bytes.Clone(good[:len(good)-1]), 0x80),
	} {
		resp, body := postFrame(t, ts, frame)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: %s %s", name, resp.Status, body)
		}
		if _, valid := decodeError(t, body); valid != nil {
			t.Fatalf("%s: error lists choices %v", name, valid)
		}
	}

	future := bytes.Clone(good)
	future[3] = frameVersion + 1
	resp, body := postFrame(t, ts, future)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown version: %s %s", resp.Status, body)
	}
	if msg, valid := decodeError(t, body); !reflect.DeepEqual(valid, []string{"1"}) {
		t.Fatalf("unknown version: error %q lists versions %v, want [1]", msg, valid)
	}
}

func TestServerRejectsOversizedFrame(t *testing.T) {
	_, ts := testHTTPServer(t, Options{MaxBatch: 4})
	reqs := make([]reconfig.DecisionRequest, 5)
	for i := range reqs {
		reqs[i] = injectReq(0, 3)
	}
	resp, body := postFrame(t, ts, mustRequestFrame(t, reqs))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: %s %s", resp.Status, body)
	}
	decodeError(t, body)
	resp, body = postFrame(t, ts, mustRequestFrame(t, reqs[:4]))
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != BatchContentType {
		t.Fatalf("batch at the limit: %s %s %s", resp.Status, resp.Header.Get("Content-Type"), body)
	}
}

// TestBatchEncodingsAgree is the binary ≡ JSON differential: one
// request stream through both encodings of one shard-owning server,
// at every stage of a fault and a full rollout, must yield the same
// []Decision — candidates, epoch, unroutable verdicts and the text of
// every per-decision error.
func TestBatchEncodingsAgree(t *testing.T) {
	srv, ts := testHTTPServer(t, Options{CacheEntries: 256, Shard: ShardInfo{Index: 0, Count: 2}})
	g := srv.Graph()
	reqs := []reconfig.DecisionRequest{
		{Node: g.Nodes() + 5, InPort: routing.InjectionPort, Src: 0, Dst: 3, Length: 4}, // out of range
		{Node: -2, InPort: routing.InjectionPort, Src: 0, Dst: 3, Length: 4},            // out of range, the other way
		{Node: 0, InPort: g.Ports(), Src: 0, Dst: 3, Length: 4},                         // no such port
		injectReq(1, 6), // replica 1's node
		{Node: 0, InPort: routing.InjectionPort, Src: 0, Dst: 3, Length: 4, VNet: 7}, // no such VC
	}
	for n := 0; n < g.Nodes(); n += 2 {
		for dst := 0; dst < g.Nodes(); dst++ {
			if dst == n {
				continue
			}
			reqs = append(reqs, injectReq(n, dst))
			transit := reconfig.DecisionRequest{Node: n, InPort: dst % g.Ports(), InVC: dst % 2,
				Src: (n + 1) % g.Nodes(), Dst: dst, Length: 3, Marked: dst%5 == 0}
			reqs = append(reqs, transit)
		}
	}
	frame := mustRequestFrame(t, reqs)

	sawUnroutable, sawCandidates := false, false
	agree := func(stage string) {
		t.Helper()
		resp, body := postJSON(t, ts, "/decide/batch", reqs)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: JSON batch: %s %s", stage, resp.Status, body)
		}
		var viaJSON []Decision
		if err := json.Unmarshal(body, &viaJSON); err != nil {
			t.Fatal(err)
		}
		resp, body = postFrame(t, ts, frame)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: binary batch: %s %s", stage, resp.Status, body)
		}
		viaFrame := make([]Decision, len(reqs))
		if err := DecodeBatchResponse(body, viaFrame, identity(len(reqs))); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for i := range reqs {
			if !reflect.DeepEqual(viaJSON[i], viaFrame[i]) {
				t.Fatalf("%s: request %+v: JSON answers %+v, the frame %+v", stage, reqs[i], viaJSON[i], viaFrame[i])
			}
			sawUnroutable = sawUnroutable || viaFrame[i].Unroutable
			sawCandidates = sawCandidates || len(viaFrame[i].Candidates) > 0
		}
		for i, want := range []string{"out of range", "out of range", "in_port", "owned by replica 1/2", "vnet 7"} {
			if !strings.Contains(viaFrame[i].Error, want) {
				t.Fatalf("%s: request %+v answered %+v, want an error naming %q", stage, reqs[i], viaFrame[i], want)
			}
		}
	}
	step := func(path string, body any) {
		t.Helper()
		if resp, out := postJSON(t, ts, path, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %s %s", path, resp.Status, out)
		}
	}

	agree("fresh")
	misdirected := srv.Metrics().Misdirected
	if misdirected != 2 {
		t.Fatalf("one misdirected request through two encodings counted %d times", misdirected)
	}
	// Cut node 12's row neighbours off so some destinations have no
	// admissible output from some nodes.
	step("/fault", FaultRequest{Nodes: []int{6, 8, 12}, Links: [][2]int{{2, 3}}})
	agree("faulted")
	resp, err := http.Post(ts.URL+"/registry/push", "application/octet-stream",
		bytes.NewReader(encodeArt(t, buildArt(t, "nafta", 9, g))))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("push: %v %v", err, resp)
	}
	resp.Body.Close()
	agree("pushed")
	step("/canary", CanaryRequest{Version: 2, Fraction: 0.5})
	agree("canary")
	step("/promote", struct{}{})
	agree("promoted")
	step("/rollback", struct{}{})
	agree("rolled back")
	if !sawUnroutable || !sawCandidates {
		t.Fatalf("the stream never saw an unroutable verdict (%v) or a candidate (%v): the comparison was vacuous",
			sawUnroutable, sawCandidates)
	}
}
