package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. Name is "layer/operation"; Parent is the span that
// caused it (-1 for the root); Req is shared by every span of one
// request (0 when the span belongs to no request).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// aggregate stands for many short calls under one parent that are
// timed into a counter instead of one span each (the per-cycle Tick
// and Step calls of a simulation phase).
type aggregate struct {
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	Total  int64  `json:"total_ns"`
}

// spanLog keeps spans in memory until the run ends. begin and end may
// be called from any goroutine.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	aggs   []aggregate
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{origin: time.Now(), spans: make([]span, 0, capacity)}
}

func (l *spanLog) begin(name string, parent int32, req int64) int32 {
	now := int64(time.Since(l.origin))
	l.mu.Lock()
	id := int32(len(l.spans))
	l.spans = append(l.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	l.mu.Unlock()
	return id
}

func (l *spanLog) end(id int32) {
	now := int64(time.Since(l.origin))
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

func (l *spanLog) addAggregate(parent int32, name string, count, total int64) {
	l.mu.Lock()
	l.aggs = append(l.aggs, aggregate{Parent: parent, Name: name, Count: count, Total: total})
	l.mu.Unlock()
}

// freeze returns a copy no goroutine writes to any more. A span still
// open (a handler that had not returned when its window closed) is
// given zero length rather than a negative one.
func (l *spanLog) freeze() *spanLog {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := &spanLog{origin: l.origin, spans: append([]span(nil), l.spans...), aggs: append([]aggregate(nil), l.aggs...)}
	for i := range f.spans {
		if f.spans[i].End < f.spans[i].Start {
			f.spans[i].End = f.spans[i].Start
		}
	}
	return f
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// budget is the split of the root span across layers.
type budget struct {
	RootNs int64            `json:"root_ns"`
	SelfNs map[string]int64 `json:"layer_self_ns"`
	// SumRatio is the sum of the layer self times over the root span;
	// the run fails when it leaves [0.95, 1.05].
	SumRatio float64 `json:"self_sum_ratio"`
}

// selfTimes walks the span tree of a frozen log from root and charges
// every nanosecond of the root span to exactly one layer. A span's
// self time is its duration minus the part its children cover.
// Children that overlap each other are parts the parent waited for in
// parallel: the longest of them set the wait, so only it (and its
// subtree) is charged, the others are concurrent work off the blocking
// path.
func (l *spanLog) selfTimes(root int32) budget {
	children := make(map[int32][]int32)
	for i := range l.spans {
		if p := l.spans[i].Parent; p >= 0 {
			children[p] = append(children[p], int32(i))
		}
	}
	aggs := make(map[int32][]aggregate)
	for _, a := range l.aggs {
		aggs[a.Parent] = append(aggs[a.Parent], a)
	}
	self := make(map[string]int64)
	var walk func(id int32, lo, hi int64)
	walk = func(id int32, lo, hi int64) {
		s := &l.spans[id]
		start, end := max(s.Start, lo), min(s.End, hi)
		if end <= start {
			return
		}
		own := end - start
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return l.spans[kids[i]].Start < l.spans[kids[j]].Start })
		for i := 0; i < len(kids); {
			// One group of mutually overlapping children; keep the longest.
			best := kids[i]
			groupEnd := l.spans[best].End
			j := i + 1
			for ; j < len(kids) && l.spans[kids[j]].Start < groupEnd; j++ {
				k := kids[j]
				if l.spans[k].End-l.spans[k].Start > l.spans[best].End-l.spans[best].Start {
					best = k
				}
				groupEnd = max(groupEnd, l.spans[k].End)
			}
			b := &l.spans[best]
			if bs, be := max(b.Start, start), min(b.End, end); be > bs {
				own -= be - bs
				walk(best, start, end)
			}
			i = j
		}
		for _, a := range aggs[id] {
			own -= a.Total
			self[layerOf(a.Name)] += a.Total
		}
		self[layerOf(s.Name)] += own
	}
	r := &l.spans[root]
	walk(root, r.Start, r.End)
	b := budget{RootNs: r.End - r.Start, SelfNs: self}
	var sum int64
	for _, v := range self {
		sum += v
	}
	if b.RootNs > 0 {
		b.SumRatio = float64(sum) / float64(b.RootNs)
	}
	return b
}

// maxSpansWritten bounds the span file: fleet-b1-open records some
// hundred thousand spans in a run, and the budget (computed over all of
// them) is what a reader wants first.
const maxSpansWritten = 50000

type traceFile struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Host       provenance  `json:"host"`
	Budget     budget      `json:"budget"`
	SpanCount  int         `json:"span_count"`
	Truncated  bool        `json:"spans_truncated"`
	Spans      []span      `json:"spans"`
	Aggregates []aggregate `json:"aggregates,omitempty"`
}

// write stores the spans as <dir>/<workload>.trace.json.
func (l *spanLog) write(dir, workload string, seed int64, b budget) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tf := traceFile{
		Workload: workload, Seed: seed, Host: hostProvenance(), Budget: b,
		SpanCount: len(l.spans), Spans: l.spans, Aggregates: l.aggs,
	}
	if len(tf.Spans) > maxSpansWritten {
		tf.Spans, tf.Truncated = tf.Spans[:maxSpansWritten], true
	}
	path := filepath.Join(dir, workload+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(f).Encode(&tf); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
