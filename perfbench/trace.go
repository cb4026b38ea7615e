package main

import (
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"crossborder/internal/cluster"
)

// span is one traced call into a layer, recorded by the benchmark's own
// code around the call. The layer is the name up to the first dot.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Req    int64   `json:"req,omitempty"` // shared by the spans of one upload or query
	Start  float64 `json:"start_s"`       // seconds since the tracer started
	End    float64 `json:"end_s"`
	Bytes  int64   `json:"bytes,omitempty"` // response body bytes, for server spans
}

func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced path runs the same code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) at(x time.Time) float64 { return x.Sub(t.t0).Seconds() }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := t.at(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int, bytes int64) {
	if t == nil || id == 0 {
		return
	}
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id-1].End = now
	t.spans[id-1].Bytes = bytes
	t.mu.Unlock()
}

// add records a span whose edges were observed elsewhere.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: t.at(start), End: t.at(end)})
	return len(t.spans)
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, fn func()) {
	id := t.begin(name, parent, 0)
	fn()
	t.end(id, 0)
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// Headers carrying the client span id and request id to server spans.
const (
	spanHeader = "X-Bench-Span"
	reqHeader  = "X-Bench-Req"
)

// serverName names the server-side span of a request by route.
func serverName(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/upload":
		return "ingest.upload"
	case p == "/v1/flush":
		return "ingest.flush_checkpoint"
	case p == "/v1/snapshot":
		return "ingest.export_encode"
	case strings.HasPrefix(p, "/v1/experiments/"):
		return "experiments." + strings.TrimPrefix(p, "/v1/experiments/")
	}
	return "ingest.other"
}

// traced wraps a public handler so every request records a server-side
// span, child of the client span named in its headers. With a nil
// tracer it returns h itself.
func traced(t *tracer, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		cw := &countingWriter{ResponseWriter: w}
		id := t.begin(serverName(r), parent, req)
		h.ServeHTTP(cw, r)
		t.end(id, cw.n)
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

// pullTracer wraps the fan-in's pull transport. Each pull records a
// "cluster.pull" span from request to the end of the body (the shard's
// export encode is its server-side child) and an
// "ingest.decode_export" span from the end of the body to its Close,
// which the fan-in defers until DecodeShardExport has returned.
type pullTracer struct {
	t    *tracer
	base http.RoundTripper
	// refresh is the span id of the refresh in progress.
	refresh atomic.Int64
	// lastClose is when the latest pull body closed (unix ns).
	lastClose atomic.Int64
}

func (p *pullTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := int(p.refresh.Load())
	id := p.t.begin("cluster.pull", parent, 0)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := p.base.RoundTrip(req)
	if err != nil {
		p.t.end(id, 0)
		return nil, err
	}
	resp.Body = &pullBody{ReadCloser: resp.Body, p: p, pull: id, parent: parent, decode: resp.StatusCode == http.StatusOK}
	return resp, nil
}

// refreshOnce runs one fan-in refresh inside a "cluster.refresh" span:
// the pulls are its children, and a published refresh gets an
// "ingest.merge_exports" span from the last pull's Close to its end.
func (p *pullTracer) refreshOnce(fan *cluster.Fanin) (span int, published bool, err error) {
	span = p.t.begin("cluster.refresh", 0, 0)
	p.refresh.Store(int64(span))
	published, err = fan.RefreshOnce()
	end := time.Now()
	p.t.end(span, 0)
	if last := p.lastClose.Load(); p.t != nil && published && last > 0 {
		p.t.add("ingest.merge_exports", span, 0, time.Unix(0, last), end)
	}
	return span, published, err
}

type pullBody struct {
	io.ReadCloser
	p            *pullTracer
	pull, parent int
	decode       bool
	n            int64
	eof          time.Time
}

func (b *pullBody) Read(buf []byte) (int, error) {
	n, err := b.ReadCloser.Read(buf)
	b.n += int64(n)
	if err == io.EOF && b.eof.IsZero() {
		b.eof = time.Now()
		b.p.t.end(b.pull, b.n)
	}
	return n, err
}

func (b *pullBody) Close() error {
	now := time.Now()
	if b.eof.IsZero() {
		b.p.t.end(b.pull, b.n)
	} else if b.decode {
		b.p.t.add("ingest.decode_export", b.parent, 0, b.eof, now)
	}
	b.p.lastClose.Store(now.UnixNano())
	return b.ReadCloser.Close()
}

// attribution computes each layer's self time inside the window
// [w0, w1]: a span's duration minus the part its children cover,
// summed by layer. Time no span covers is "other".
func attribution(spans []span, w0, w1 float64) map[string]float64 {
	children := map[int][]span{}
	var inside []span
	for _, s := range spans {
		if s.Start >= w0 && s.End <= w1 {
			inside = append(inside, s)
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range inside {
		self[s.layer()] += s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	self["other"] = (w1 - w0) - covered(inside, w0, w1)
	return self
}

// covered returns how much of [lo, hi] the spans cover.
func covered(spans []span, lo, hi float64) float64 {
	iv := make([][2]float64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			iv = append(iv, [2]float64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, lo
	for _, x := range iv {
		if x[1] <= end {
			continue
		}
		total += x[1] - max(x[0], end)
		end = x[1]
	}
	return total
}

// spanSeconds sums the durations of the spans named name inside the
// window.
func spanSeconds(spans []span, name string, w0, w1 float64) float64 {
	total := 0.0
	for _, s := range spans {
		if s.Name == name && s.Start >= w0 && s.End <= w1 {
			total += s.dur()
		}
	}
	return total
}

// tracedLayers are the layers whose self-time share every workload
// reports; "client" is the benchmark's HTTP client and the loopback
// transport.
var tracedLayers = []string{"scenario", "geo", "core", "experiments", "ingest", "cluster", "client", "other"}

// addAttribution reports each layer's self time (and its share of the
// window) from the spans inside [w0, w1].
func addAttribution(r *report, spans []span, w0, w1 float64) {
	self := attribution(spans, w0, w1)
	for _, l := range tracedLayers {
		r.layers[l+".self_share"] = metric{self[l] / (w1 - w0), "ratio"}
		r.layers[l+".self_s"] = metric{self[l], "s"}
	}
}
