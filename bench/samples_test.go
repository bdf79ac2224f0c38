package main

import (
	"testing"
	"time"
)

func TestQuantilesAreExactOrderStatistics(t *testing.T) {
	s := newSamples(1000)
	for i := 1000; i >= 1; i-- { // unsorted on purpose
		s.add(int64(i))
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0, 1}} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%g) of 1..1000 = %d, want %d", c.q, got, c.want)
		}
	}
	if got := s.beyond(0.99); got != 10 {
		t.Errorf("beyond(0.99) = %d, want 10", got)
	}
	if got := s.supportedTail(); got != 0.99 {
		t.Errorf("supportedTail of 1000 samples = %g, want 0.99 (p999 has 1 sample beyond it)", got)
	}
	if s.count() != 1000 || s.sum() != 500500 || s.max() != 1000 {
		t.Errorf("count/sum/max = %d/%d/%d", s.count(), s.sum(), s.max())
	}
}

func TestQuantilesOfSkewedAndTinySets(t *testing.T) {
	// 990 fast samples and 10 slow ones: p99 is still fast, p999 slow.
	s := newSamples(1000)
	for i := 0; i < 990; i++ {
		s.add(100)
	}
	for i := 0; i < 10; i++ {
		s.add(1_000_000)
	}
	if got := s.quantile(0.99); got != 100 {
		t.Errorf("p99 = %d, want 100", got)
	}
	if got := s.quantile(0.999); got != 1_000_000 {
		t.Errorf("p999 = %d, want 1000000", got)
	}
	// A histogram with 20 µs bins would call 61 µs "60": raw samples keep it.
	one := newSamples(1)
	one.add(61_234)
	if got := one.quantile(0.5); got != 61_234 {
		t.Errorf("single sample median = %d", got)
	}
	if got := one.supportedTail(); got != 0.5 {
		t.Errorf("supportedTail of one sample = %g, want 0.5", got)
	}
	if got := newSamples(0).quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %d", got)
	}
	big := newSamples(20000)
	for i := 0; i < 20000; i++ {
		big.add(int64(i))
	}
	if got := big.supportedTail(); got != 0.999 {
		t.Errorf("supportedTail of 20000 samples = %g, want 0.999", got)
	}
}

// fakeClock lets the open-loop rule run without waiting.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time           { return c.t }
func (c *fakeClock) sleepUntil(due time.Time) { c.t = due }

func TestOpenLoopStallInflatesLaterSamples(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	start := clk.t
	const interval = 100 * time.Microsecond
	const service = 10 * time.Microsecond
	const stall = 1 * time.Millisecond
	lat, late := newSamples(64), newSamples(64)
	do := func(i int) {
		if i == 5 {
			clk.t = clk.t.Add(stall)
		}
		clk.t = clk.t.Add(service)
	}
	n := openLoop(clk.now, clk.sleepUntil, start, start.Add(30*interval), interval, do, lat, late)
	if n != 30 {
		t.Fatalf("sent %d requests, want all 30 slots (none skipped)", n)
	}
	// Before the stall every request costs its service time.
	for i := 0; i < 5; i++ {
		if lat.ns[i] != int64(service) || late.ns[i] != 0 {
			t.Errorf("request %d: latency %d lateness %d, want %d and 0", i, lat.ns[i], late.ns[i], service)
		}
	}
	if lat.ns[5] != int64(stall+service) {
		t.Errorf("stalled request latency %d, want %d", lat.ns[5], stall+service)
	}
	// Request 6 was due 100 µs after request 5 but could only start
	// once the stall was over: it must carry the wait, not hide it.
	wantLate := int64(stall + service - interval)
	if late.ns[6] != wantLate || lat.ns[6] != wantLate+int64(service) {
		t.Errorf("request 6: lateness %d latency %d, want %d and %d", late.ns[6], lat.ns[6], wantLate, wantLate+int64(service))
	}
	// The sender catches up by 90 µs per request; the backlog is gone
	// after ceil(910/90) = 11 more, so request 17 is on time again.
	for i := 7; i < 17; i++ {
		if late.ns[i] <= 0 || late.ns[i] >= late.ns[i-1] {
			t.Errorf("request %d: lateness %d should shrink but stay positive (previous %d)", i, late.ns[i], late.ns[i-1])
		}
	}
	for i := 17; i < 30; i++ {
		if late.ns[i] != 0 || lat.ns[i] != int64(service) {
			t.Errorf("request %d: latency %d lateness %d after recovery", i, lat.ns[i], late.ns[i])
		}
	}
	// Timing from the send instead of the due time would have reported
	// 29 samples of 10 µs and one of 1010 µs; from the due time more
	// than a third of the samples show the stall.
	slow := 0
	for _, v := range lat.ns {
		if v > int64(service) {
			slow++
		}
	}
	if slow != 12 {
		t.Errorf("%d samples show the stall, want 12", slow)
	}
}

func TestSelfTimesChargeTheBlockingPath(t *testing.T) {
	l := &spanLog{}
	add := func(name string, parent int32, start, end int64) int32 {
		id := int32(len(l.spans))
		l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
		return id
	}
	root := add("gen/lane", -1, 0, 1000)
	call := add("client/call", root, 100, 900)
	add("transport/a", call, 150, 500)           // shorter of two parallel sub-batches
	slowRT := add("transport/b", call, 160, 860) // the one the client waited for
	add("server/handle", slowRT, 300, 700)
	idle := add("bench/idle", root, 900, 950)
	l.addAggregate(idle, "timer/ticks", 4, 20)

	b := l.selfTimes(root)
	want := map[string]int64{
		"gen":       1000 - 800 - 50, // root minus its two children
		"client":    800 - 700,       // call minus the longest sub-batch
		"transport": 700 - 400,       // only the blocking sub-batch
		"server":    400,
		"bench":     50 - 20,
		"timer":     20,
	}
	for layer, ns := range want {
		if b.SelfNs[layer] != ns {
			t.Errorf("self time of %s = %d, want %d", layer, b.SelfNs[layer], ns)
		}
	}
	if len(b.SelfNs) != len(want) {
		t.Errorf("layers %v, want %d of them", b.SelfNs, len(want))
	}
	if b.RootNs != 1000 || b.SumRatio != 1 {
		t.Errorf("root %d ratio %g, want 1000 and 1", b.RootNs, b.SumRatio)
	}
}

func TestQuartileSpreadMatchesPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	got := quartileSpread(v)
	want := (8.25 - 2.75) / 5.5
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("quartileSpread = %g, want %g", got, want)
	}
	if got := quartileSpread([]float64{10, 11, 12}); got != 2.0/11 {
		t.Errorf("three values: spread %g, want range/median %g", got, 2.0/11)
	}
}
