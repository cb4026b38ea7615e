package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"crossborder/internal/ingest"
)

// newHTTPClient returns a client of its own, so each load-generator
// goroutine holds its own keep-alive connection per server. With a
// tracer, every request records a "client.<route>" span whose id and
// request id travel to the server span in headers.
func newHTTPClient(tr *tracer) *http.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
	if tr != nil {
		rt = &clientTracer{t: tr, base: rt}
	}
	return &http.Client{Transport: rt, Timeout: 60 * time.Second}
}

// nextReq numbers requests that do not carry a request id yet.
var nextReq atomic.Int64

type clientTracer struct {
	t    *tracer
	base http.RoundTripper
}

func (c *clientTracer) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	id, err := strconv.ParseInt(req.Header.Get(reqHeader), 10, 64)
	if err != nil {
		id = -nextReq.Add(1) // negative: not an upload
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	route := strings.TrimPrefix(serverName(req), "ingest.")
	if strings.HasPrefix(route, "experiments.") {
		route = "query"
	}
	s := c.t.begin("client."+route, 0, id)
	req.Header.Set(spanHeader, strconv.Itoa(s))
	resp, err := c.base.RoundTrip(req)
	if err != nil {
		c.t.end(s, 0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: c.t, id: s}
	return resp, nil
}

// spanBody ends its span when the response body is closed.
type spanBody struct {
	io.ReadCloser
	t  *tracer
	id int
}

func (b *spanBody) Close() error {
	b.t.end(b.id, 0)
	return b.ReadCloser.Close()
}

// uploadRec is one upload as the load generator saw it.
type uploadRec struct {
	req       int64 // request id (1-based upload index)
	node      string
	due, send time.Time // due is the open-loop schedule time (= send in a closed loop)
	ack       time.Time
	accepted  int
	epoch     int  // the collector's epoch after the upload
	committed bool // this upload committed that epoch
	visibleAt time.Time
}

// upload POSTs one pre-encoded batch to a collector's public upload
// endpoint.
func upload(hc *http.Client, base string, b batch, req int64) (ingest.UploadResult, error) {
	var res ingest.UploadResult
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/upload", bytes.NewReader(b.body))
	if err != nil {
		return res, err
	}
	hr.Header.Set("Content-Type", ingest.ContentTypeBinary)
	hr.Header.Set(reqHeader, strconv.FormatInt(req, 10))
	resp, err := hc.Do(hr)
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, fmt.Errorf("upload user %d seq %d: %s: %s", b.user, b.seq, resp.Status, bytes.TrimSpace(raw))
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		return res, fmt.Errorf("upload user %d seq %d: %w", b.user, b.seq, err)
	}
	if res.Accepted != b.n {
		return res, fmt.Errorf("upload user %d seq %d: %d of %d events accepted", b.user, b.seq, res.Accepted, b.n)
	}
	return res, nil
}

// fetchAll GETs every artifact in paper order, one op each.
func fetchAll(r *report, cl *ingest.Client, ids []string) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		text, _, err := cl.Artifact(id)
		r.op(err)
		out[i] = text
	}
	return out
}

// markCommits decides, per collector, which upload committed each
// epoch: in order of acknowledgement, the first upload to report an
// epoch beyond every earlier one. Its events are visible in that
// epoch; every other upload's events wait for the next commit. With
// one connection per collector the ack order is the collector's
// processing order; with two it can swap two uploads that finish
// within the same instant.
func markCommits(recs []*uploadRec) {
	last := map[string]int{}
	for _, u := range recs {
		if u.epoch > last[u.node] {
			u.committed = true
			last[u.node] = u.epoch
		}
	}
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
