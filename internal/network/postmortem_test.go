package network

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/topology"
	"repro/internal/trace"
)

// forceRingDeadlock builds the deliberately deadlock-prone ring
// network of deadlock_test.go with a flight recorder attached and
// drives it until the watchdog fires: one 24-flit worm from each
// corner, each destined around the next corner.
func forceRingDeadlock(t *testing.T, livelockAge int64) (*Network, *trace.Recorder, *[]*trace.Report) {
	t.Helper()
	return stallRing(t, livelockAge, func(n *Network, m *topology.Mesh) {
		corners := []struct{ src, dst topology.NodeID }{
			{m.Node(0, 0), m.Node(2, 1)},
			{m.Node(2, 0), m.Node(1, 2)},
			{m.Node(2, 2), m.Node(0, 1)},
			{m.Node(0, 2), m.Node(1, 0)},
		}
		for _, c := range corners {
			n.Inject(c.src, c.dst, 24)
		}
	})
}

// stallRing builds the ring network on a 3x3 mesh (buffer depth 2,
// watchdog 200 cycles) with a flight recorder attached, lets inject
// place the messages, and steps until a post-mortem fires.
func stallRing(t *testing.T, livelockAge int64, inject func(*Network, *topology.Mesh)) (*Network, *trace.Recorder, *[]*trace.Report) {
	t.Helper()
	m := topology.NewMesh(3, 3)
	rec := trace.New(m.Nodes(), 64)
	reports := &[]*trace.Report{}
	n := New(Config{
		Graph: m, Algorithm: &ringAlg{m: m}, BufDepth: 2,
		WatchdogCycles:    200,
		LivelockAgeCycles: livelockAge,
		Recorder:          rec,
		OnPostMortem:      func(r *trace.Report) { *reports = append(*reports, r) },
	})
	inject(n, m)
	for i := 0; i < 600 && len(*reports) == 0; i++ {
		n.Step()
	}
	if len(*reports) == 0 {
		t.Fatal("forced deadlock produced no post-mortem report")
	}
	return n, rec, reports
}

// TestDeadlockPostMortem asserts the acceptance criterion: a forced
// deadlock produces a report naming the channel-wait cycle and the
// blocked packets, with the flight-recorder tail attached.
func TestDeadlockPostMortem(t *testing.T) {
	n, rec, reports := forceRingDeadlock(t, 0)
	rep := (*reports)[0]

	if rep.Reason != "deadlock" {
		t.Fatalf("reason = %q, want deadlock", rep.Reason)
	}
	if rep.Cycle <= 0 {
		t.Fatalf("report cycle = %d", rep.Cycle)
	}
	// The certified circular wait must name at least two of the four
	// injected messages (IDs 0..3).
	if len(rep.WaitCycle) < 2 {
		t.Fatalf("wait cycle %v, want >= 2 messages", rep.WaitCycle)
	}
	for _, id := range rep.WaitCycle {
		if id < 0 || id > 3 {
			t.Fatalf("wait cycle names unknown message %d", id)
		}
	}
	// Every wait-cycle member must also appear among the blocked
	// packets, with its waits-on edge and position filled in.
	blocked := map[int64]trace.BlockedPacket{}
	for _, b := range rep.Blocked {
		blocked[b.Msg] = b
	}
	for i, id := range rep.WaitCycle {
		b, ok := blocked[id]
		if !ok {
			t.Fatalf("wait-cycle message %d missing from blocked list %v", id, rep.Blocked)
		}
		// Each member waits on the one listed before it, cyclically.
		if prev := rep.WaitCycle[(i+len(rep.WaitCycle)-1)%len(rep.WaitCycle)]; !slices.Contains(b.WaitsOn, prev) {
			t.Fatalf("wait-cycle message %d waits on %v, not on its predecessor %d", id, b.WaitsOn, prev)
		}
		if b.Why != "no-credit" && b.Why != "no-free-vc" {
			t.Fatalf("blocked message %d has why=%q", id, b.Why)
		}
		if len(b.WaitsOn) == 0 {
			t.Fatalf("blocked message %d has no waits-on edge", id)
		}
		if b.Age <= 0 {
			t.Fatalf("blocked message %d has age %d", id, b.Age)
		}
	}
	if len(rep.Routers) == 0 {
		t.Fatal("report has no router snapshots")
	}
	if len(rep.Events) == 0 {
		t.Fatal("report has no flight-recorder events")
	}
	// The recorder logged the deadlock marker event.
	foundMarker := false
	for _, ev := range rec.Events() {
		if ev.Kind == trace.KDeadlock {
			foundMarker = true
		}
	}
	if !foundMarker {
		t.Fatal("no KDeadlock marker recorded")
	}
	// The report survives a JSON round trip.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.DecodeReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Reason != rep.Reason || back.Cycle != rep.Cycle ||
		len(back.WaitCycle) != len(rep.WaitCycle) ||
		len(back.Blocked) != len(rep.Blocked) || len(back.Events) != len(rep.Events) {
		t.Fatalf("round trip mangled the report: %+v vs %+v", back, rep)
	}
	// The human-readable rendering names the essentials.
	s := rep.String()
	if !bytes.Contains([]byte(s), []byte("deadlock")) ||
		!bytes.Contains([]byte(s), []byte("circular wait")) {
		t.Fatalf("summary missing essentials:\n%s", s)
	}
	// Only one automatic report per run.
	for i := 0; i < 300; i++ {
		n.Step()
	}
	if len(*reports) != 1 {
		t.Fatalf("post-mortem fired %d times, want once", len(*reports))
	}
}

// TestLivelockPostMortem checks the age-bound trigger: with a bound
// far below the watchdog threshold the stalled ring trips the
// livelock report first.
func TestLivelockPostMortem(t *testing.T) {
	m := topology.NewMesh(3, 3)
	var report *trace.Report
	n := New(Config{
		Graph: m, Algorithm: &ringAlg{m: m}, BufDepth: 2,
		WatchdogCycles:    100000, // watchdog out of the picture
		LivelockAgeCycles: 300,
		OnPostMortem:      func(r *trace.Report) { report = r },
	})
	corners := []struct{ src, dst topology.NodeID }{
		{m.Node(0, 0), m.Node(2, 1)},
		{m.Node(2, 0), m.Node(1, 2)},
		{m.Node(2, 2), m.Node(0, 1)},
		{m.Node(0, 2), m.Node(1, 0)},
	}
	for _, c := range corners {
		n.Inject(c.src, c.dst, 24)
	}
	for i := 0; i < 2000 && report == nil; i++ {
		n.Step()
	}
	if report == nil {
		t.Fatal("no livelock post-mortem fired")
	}
	if report.Reason != "livelock" {
		t.Fatalf("reason = %q, want livelock", report.Reason)
	}
	if len(report.Blocked) == 0 {
		t.Fatal("livelock report has no blocked packets")
	}
}

// TestPostMortemManual checks the on-demand snapshot of a healthy
// network: no blocked packets, no wait cycle.
func TestPostMortemManual(t *testing.T) {
	m := topology.NewMesh(4, 4)
	n := New(Config{Graph: m, Algorithm: &ringAlg{m: m}})
	rep := n.PostMortem("manual")
	if rep.Reason != "manual" || len(rep.Blocked) != 0 || len(rep.WaitCycle) != 0 {
		t.Fatalf("idle post-mortem: %+v", rep)
	}
}

// TestTracedRunMatchesUntraced asserts the recorder is observation
// only: a traced simulation delivers exactly the same statistics as
// an untraced one with the same seed.
func TestTracedRunMatchesUntraced(t *testing.T) {
	runOnce := func(rec *trace.Recorder) Stats {
		m := topology.NewMesh(4, 4)
		n := New(Config{Graph: m, Algorithm: &ringAlg{m: m}, Recorder: rec})
		// Injection along the ring only (the ring discipline delivers
		// neighbours fine at low load).
		n.Inject(m.Node(0, 0), m.Node(1, 0), 4)
		n.Inject(m.Node(3, 0), m.Node(3, 1), 4)
		n.Drain(2000)
		return n.Stats()
	}
	a := runOnce(nil)
	rec := trace.New(16, 32)
	b := runOnce(rec)
	if a != b {
		t.Fatalf("traced run diverged: %+v vs %+v", a, b)
	}
	if len(rec.Events()) == 0 {
		t.Fatal("recorder saw no events")
	}
}
