package main

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
)

// spanKey carries the calling span into the transport through the
// request context, which fleet.Client hands on to net/http.
type spanKey struct{}

type spanRef struct {
	parent int32
	req    int64
}

// spanHeader links a server span to the transport span that caused it.
const spanHeader = "X-Bench-Span"

// fleetTracer records the fleet's spans from outside the program: the
// client span in the lane, the transport span in an http.RoundTripper
// handed to fleet.NewClient, the server span in an http.Handler around
// Server.Mux. Both wrappers pass straight through while on is false.
type fleetTracer struct {
	log *spanLog
	on  atomic.Bool
}

type spanTransport struct {
	base http.RoundTripper
	tr   *fleetTracer
}

func (t *spanTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(spanKey{}).(spanRef)
	if !ok || !t.tr.on.Load() {
		return t.base.RoundTrip(r)
	}
	id := t.tr.log.begin("fleet.transport/RoundTrip", ref.parent, ref.req)
	r = r.Clone(r.Context()) // a RoundTripper must not change the caller's request
	r.Header.Set(spanHeader, fmt.Sprintf("%d %d", id, ref.req))
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.tr.log.end(id)
		return nil, err
	}
	// The round trip lasts until the client has read the body.
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func() { t.tr.log.end(id) }}
	return resp, nil
}

type spanBody struct {
	io.ReadCloser
	done func()
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.done()
	return err
}

// handler wraps a replica's mux: a request that carries the span
// header is timed as a child of the transport span that sent it.
func (tr *fleetTracer) handler(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent int32
		var req int64
		if h := r.Header.Get(spanHeader); h == "" {
			inner.ServeHTTP(w, r)
			return
		} else if _, err := fmt.Sscanf(h, "%d %d", &parent, &req); err != nil {
			http.Error(w, "bad "+spanHeader, http.StatusBadRequest)
			return
		}
		id := tr.log.begin("fleet.server/handle", parent, req)
		inner.ServeHTTP(w, r)
		tr.log.end(id)
	})
}

// layerMetrics reads the client, transport and server metrics off the
// recorded spans. A client span's self time is its round trip minus
// the longest of the sub-batch round trips it waited for; a transport
// span's self time is its round trip minus the handler it caused.
func layerMetrics(m metricSet, spans []span, decisions int64) {
	// Span ids index the slice, so per-span facts are slices too.
	longestChild := make([]int64, len(spans)) // per client span
	handlerOf := make([]int64, len(spans))    // per transport span; -1 = none recorded
	handlers := newSamples(len(spans) / 4)
	for i := range handlerOf {
		handlerOf[i] = -1
	}
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "fleet.transport/RoundTrip":
			longestChild[s.Parent] = max(longestChild[s.Parent], s.End-s.Start)
		case "fleet.server/handle":
			handlerOf[s.Parent] = s.End - s.Start
			handlers.add(s.End - s.Start)
		}
	}
	clientSelf := newSamples(len(spans) / 4)
	transportSelf := newSamples(len(spans) / 4)
	for i := range spans {
		s := &spans[i]
		switch s.Name {
		case "fleet.client/DecideBatch":
			clientSelf.add(s.End - s.Start - longestChild[i])
		case "fleet.transport/RoundTrip":
			if h := handlerOf[i]; h >= 0 {
				transportSelf.add(s.End - s.Start - h)
			}
		}
	}
	m["fleet.client.self_us_p50"] = us(clientSelf.quantile(0.5))
	m["fleet.transport.self_us_p50"] = us(transportSelf.quantile(0.5))
	m["fleet.transport.self_us_p99"] = us(transportSelf.quantile(0.99))
	m["fleet.server.handler_us_p50"] = us(handlers.quantile(0.5))
	m["fleet.server.handler_us_p99"] = us(handlers.quantile(0.99))
	if decisions > 0 {
		m["fleet.server.handler_ns_per_decision"] = float64(handlers.sum()) / float64(decisions)
	}
}
