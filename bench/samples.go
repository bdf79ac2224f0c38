package main

import (
	"slices"
	"time"
)

// samples keeps raw nanosecond durations in a slice sized up front, so
// recording one is a store and percentiles are exact order statistics
// (the histogram in internal/metrics rounds to its bin width, which at
// 20 µs is a third of a batch-of-1 round trip).
type samples struct {
	ns     []int64
	sorted bool
}

func newSamples(capacity int) *samples {
	return &samples{ns: make([]int64, 0, capacity)}
}

func (s *samples) add(ns int64) {
	s.ns = append(s.ns, ns)
	s.sorted = false
}

func (s *samples) merge(o *samples) {
	s.ns = append(s.ns, o.ns...)
	s.sorted = false
}

func (s *samples) count() int { return len(s.ns) }

func (s *samples) sort() {
	if !s.sorted {
		slices.Sort(s.ns)
		s.sorted = true
	}
}

// quantile returns the nearest-rank order statistic: the smallest
// sample with at least q of the samples at or below it. 0 when empty.
func (s *samples) quantile(q float64) int64 {
	n := len(s.ns)
	if n == 0 {
		return 0
	}
	s.sort()
	rank := int(q*float64(n) + 0.999999999) // ceil, tolerant of q*n landing a hair above an integer
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.ns[rank-1]
}

// beyond counts the samples strictly above the q-quantile's rank: how
// many observations support the claim made about that percentile.
func (s *samples) beyond(q float64) int {
	n := len(s.ns)
	rank := int(q*float64(n) + 0.999999999)
	if rank > n {
		rank = n
	}
	return n - rank
}

// tailQuantiles are the percentiles a report may name, lowest first.
var tailQuantiles = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// supportedTail returns the highest percentile of tailQuantiles that
// still has at least ten samples beyond it (0.5 when none has).
func (s *samples) supportedTail() float64 {
	best := tailQuantiles[0]
	for _, q := range tailQuantiles {
		if s.beyond(q) >= 10 {
			best = q
		}
	}
	return best
}

func (s *samples) sum() int64 {
	var t int64
	for _, v := range s.ns {
		t += v
	}
	return t
}

func (s *samples) max() int64 {
	if len(s.ns) == 0 {
		return 0
	}
	return slices.Max(s.ns)
}

// bestDecile is how a run sums up the values its repetitions or slices
// gave for one metric: the 90th percentile where higher is better, the
// 10th where lower is (nearest rank, so the best of up to ten values).
// The host is shared and its noise is one-sided: a neighbour only ever
// makes a slice slower. With a synthetic neighbour busy 60 % of the
// time on one CPU the median over 250 ms slices of fleet-b16-churn fell
// by a third and its p99 rose fivefold, while the best decile moved by
// 5 % and 12 %; without a neighbour both estimators repeat within 3 %.
// A change to the program moves every slice, so it still shows, as long
// as every slice holds all the kinds of work the workload does (which
// is why a slice of fleet-b16-churn is a whole rollout).
func bestDecile(v []float64, higherIsBetter bool) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	slices.Sort(s)
	rank := (len(s) + 9) / 10 // ceil(n/10): the rank of the 10th percentile
	if higherIsBetter {
		return s[len(s)-rank]
	}
	return s[rank-1]
}

// us converts nanoseconds to microseconds without dropping digits.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// openLoop issues request i at due(i) = start + i*interval until end,
// never skipping a slot: a sender that falls behind sends back to back
// until it has caught up. Each latency is timed from the request's due
// time, not from when it was actually sent, so the wait a stall imposes
// on the requests queued behind it is counted instead of hidden; how
// late each send began is recorded separately. now and sleepUntil are
// parameters so the rule is testable against a fake clock.
func openLoop(now func() time.Time, sleepUntil func(time.Time), start, end time.Time,
	interval time.Duration, do func(i int), latency, lateness *samples) int {
	i := 0
	for {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(end) {
			return i
		}
		if now().Before(due) {
			sleepUntil(due)
		}
		lateness.add(int64(now().Sub(due)))
		do(i)
		latency.add(int64(now().Sub(due)))
		i++
	}
}
