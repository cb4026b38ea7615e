package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"crossborder/internal/ingest"
	"crossborder/internal/netsim"
)

const (
	// liveUploaders is the closed-loop connection count of live_durable.
	liveUploaders = 2
	// liveIterations is the fewest iterations a run makes: one replay
	// is one sample of every number it yields.
	liveIterations = 2
	// liveCheckpointBytes is the -checkpoint-bytes cadence: a few
	// automatic checkpoints per replay.
	liveCheckpointBytes = 16 << 20
)

// liveConfig is collectd with -data, -wal-sync interval and the
// checkpoint cadence above.
func liveConfig(dir string) ingest.Config {
	return ingest.Config{DataDir: dir, WALSync: "interval", CheckpointBytes: liveCheckpointBytes}
}

// runLive measures one durable collector over HTTP: closed-loop replay,
// flush, the 20 artifacts, then a crash and Recover on a fresh world.
func runLive(ctx context.Context, o opts, fx *fixture, r *report) error {
	var ack, visible []float64
	samples, err := measure(o.seconds, liveIterations, func() (map[string]float64, error) {
		it, err := liveIteration(fx, r, nil)
		if err != nil {
			return nil, err
		}
		ack = append(ack, it.ackMs()...)
		visible = append(visible, it.visibleMs()...)
		return it.metrics, nil
	})
	if err != nil {
		return err
	}
	untraced := medians(samples)
	putMetrics(r.e2e, untraced)
	latency(r.e2e, "upload_ack", "ms", ack)
	latency(r.e2e, "visible", "ms", visible)
	if !o.trace {
		return nil
	}

	tr := newTracer()
	if err := borrowStudy(ctx, tr, fx, r); err != nil {
		return err
	}
	it, err := liveIteration(fx, r, tr)
	if err != nil {
		return err
	}
	coldLocate(tr, fx, it.ips, r)
	r.spans = tr.snapshot()
	it.addLayers(r, tr, fx.ids)
	overhead(r, untraced, it.metrics)
	return nil
}

// liveRun is one live_durable iteration as measured.
type liveRun struct {
	metrics  map[string]float64
	uploads  []*uploadRec
	t0, end  time.Time // first upload .. recovered artifacts checked
	flush    time.Time // final flush acknowledged
	rendered time.Time // the 20 artifacts served
	dir      *dirWatch
	pre      map[string]metric // collector layers read before the crash
	recovery ingest.RecoveryStats
	ips      []netsim.IP // distinct tracking IPs of the rows before the crash
}

func liveIteration(fx *fixture, r *report, tr *tracer) (*liveRun, error) {
	setup := time.Now()
	dir, err := os.MkdirTemp(workDir, "live-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	world, recoveryWorld := fx.world(), fx.world()
	c := ingest.NewCollector(world, liveConfig(dir))
	if _, err := c.Recover(); err != nil { // empty directory: starts ready
		c.Close()
		return nil, err
	}
	srv := httptest.NewServer(traced(tr, ingest.NewServer(c)))
	fx.setupDone(setup, tr)

	run := &liveRun{pre: map[string]metric{}}
	if tr != nil {
		run.dir = &dirWatch{dir: dir, ckpt: map[int]int64{}, seg: map[string]int64{}}
	}
	// As in ingest.Client.Replay, each connection takes the next user
	// in ascending id and sends that user's whole stream in order.
	runs := fx.byUser()
	users := make(chan []int, len(runs))
	for _, idx := range runs {
		users <- idx
	}
	close(users)
	run.uploads = make([]*uploadRec, len(fx.batches))
	run.t0 = time.Now()
	var wg sync.WaitGroup
	for k := 0; k < liveUploaders; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newHTTPClient(tr)
			for idx := range users {
				for _, i := range idx {
					b := fx.batches[i]
					u := &uploadRec{req: int64(i + 1), node: "collectd", send: time.Now()}
					u.due = u.send
					res, err := upload(hc, srv.URL, b, u.req)
					u.ack = time.Now()
					r.op(err)
					u.accepted, u.epoch = res.Accepted, res.Epoch
					run.uploads[i] = u
					run.dir.poll()
				}
			}
		}()
	}
	wg.Wait()
	cl := &ingest.Client{Base: srv.URL, HTTP: newHTTPClient(tr)}
	flushEpoch, _, err := cl.Flush()
	r.op(err)
	run.flush = time.Now()
	run.dir.poll()
	// The render starts from a collected heap, so the collector cycles
	// it pays for are its own, not the replay's leftovers; the forced
	// collection is left out of every timing.
	runtime.GC()
	renderStart := time.Now()
	got := fetchAll(r, cl, fx.ids)
	run.rendered = time.Now()
	r.check("live_durable", fx.ids, got, fx.want)
	if tr != nil {
		epochs, flips := c.Epochs(), 0
		for _, e := range epochs {
			flips += e.Flips
		}
		run.pre["ingest.epochs"] = metric{float64(len(epochs)), "count"}
		run.pre["ingest.flips"] = metric{float64(flips), "count"}
		storeLayers(run.pre, c.Snapshot().Dataset())
		run.ips = trackingIPs(c.Snapshot().Dataset())
	}

	// Crash: stop serving and close the collector without a checkpoint,
	// then recover a new one on a fresh world from the same directory.
	srv.Close()
	c.Close()
	rc := ingest.NewCollector(recoveryWorld, liveConfig(dir))
	recStart := time.Now()
	run.recovery, err = rc.Recover()
	recovered := time.Now()
	r.op(err)
	srv2 := httptest.NewServer(traced(tr, ingest.NewServer(rc)))
	got = fetchAll(r, &ingest.Client{Base: srv2.URL, HTTP: newHTTPClient(tr)}, fx.ids)
	r.check("live_durable after Recover", fx.ids, got, fx.want)
	run.end = time.Now()
	heap := liveHeapMB() - fx.baseHeap
	srv2.Close()
	rc.Close()

	accepted := 0
	for _, u := range run.uploads {
		accepted += u.accepted
	}
	visibility(run.uploads, run.flush, flushEpoch)
	run.metrics = perEvent(map[string]float64{
		"study_s":             (run.flush.Sub(run.t0) + run.rendered.Sub(renderStart)).Seconds(),
		"render_all_s":        run.rendered.Sub(renderStart).Seconds(),
		"ingest_events_per_s": float64(accepted) / run.flush.Sub(run.t0).Seconds(),
		"retained_heap_mb":    heap,
		"recover_s":           recovered.Sub(recStart).Seconds(),
	}, fx.events)
	return run, nil
}

// visibility sets each upload's visibleAt: when the first snapshot
// holding its events was published. A committing upload publishes
// before its ack; the rest wait for the next commit, or for the final
// flush.
func visibility(recs []*uploadRec, flush time.Time, flushEpoch int) {
	byAck := append([]*uploadRec(nil), recs...)
	sort.Slice(byAck, func(i, j int) bool { return byAck[i].ack.Before(byAck[j].ack) })
	markCommits(byAck)
	published := map[string]map[int]time.Time{}
	for _, u := range byAck {
		if u.committed {
			if published[u.node] == nil {
				published[u.node] = map[int]time.Time{}
			}
			published[u.node][u.epoch] = u.ack
		}
	}
	for _, u := range recs {
		e := u.epoch
		if !u.committed {
			e++
		}
		at, ok := published[u.node][e]
		if !ok || e > flushEpoch {
			at = flush
		}
		u.visibleAt = at
	}
}

func (l *liveRun) ackMs() []float64 {
	out := make([]float64, len(l.uploads))
	for i, u := range l.uploads {
		out[i] = ms(u.ack.Sub(u.due))
	}
	return out
}

func (l *liveRun) visibleMs() []float64 {
	out := make([]float64, len(l.uploads))
	for i, u := range l.uploads {
		out[i] = ms(u.visibleAt.Sub(u.send))
	}
	return out
}

// addLayers reports the ingest, wal and experiments layers of the
// traced iteration and the self-time attribution of its window.
func (l *liveRun) addLayers(r *report, tr *tracer, ids []string) {
	w0, w1 := tr.at(l.t0), tr.at(l.end)
	addAttribution(r, r.spans, w0, w1)
	uploadLayers(r, r.spans, l.uploads)
	for _, id := range ids {
		r.layers["experiments."+id+"_s"] = metric{spanSeconds(r.spans, "experiments."+id, tr.at(l.flush), tr.at(l.rendered)), "s"}
	}
	for name, m := range l.pre {
		r.layers[name] = m
	}
	r.layers["ingest.flush_checkpoint_s"] = metric{spanSeconds(r.spans, "ingest.flush_checkpoint", w0, w1), "s"}

	// Checkpoints cut during the replay: an upload that committed the
	// epoch a checkpoint file is named after wrote that checkpoint.
	var ckptMs []float64
	var ckptBytes int64
	server := serverSpans(r.spans)
	for _, u := range l.uploads {
		if n, ok := l.dir.ckpt[u.epoch]; ok && u.committed {
			ckptMs = append(ckptMs, server[u.req]*1e3)
			ckptBytes += n
		}
	}
	r.layers["ingest.checkpoints"] = metric{float64(len(ckptMs)), "count"}
	r.layers["ingest.checkpoint_p50_ms"] = metric{median(ckptMs), "ms"}
	r.layers["ingest.checkpoint_bytes"] = metric{float64(ckptBytes), "B"}
	var walBytes int64
	for _, n := range l.dir.seg {
		walBytes += n
	}
	r.layers["wal.bytes"] = metric{float64(walBytes), "B"}
	r.layers["wal.segments"] = metric{float64(len(l.dir.seg)), "count"}
	r.layers["ingest.recover_records"] = metric{float64(l.recovery.Records), "count"}
	r.layers["ingest.recover_checkpoint_epoch"] = metric{float64(l.recovery.CheckpointEpoch), "count"}
}

// serverSpans maps upload request ids to their server-side seconds.
func serverSpans(spans []span) map[int64]float64 {
	out := map[int64]float64{}
	for _, s := range spans {
		if s.Name == "ingest.upload" && s.Req > 0 {
			out[s.Req] = s.dur()
		}
	}
	return out
}

// uploadLayers reports the server-side upload latency split into
// uploads that committed an epoch and plain ones.
func uploadLayers(r *report, spans []span, uploads []*uploadRec) {
	server := serverSpans(spans)
	var all, commit, plain []float64
	for _, u := range uploads {
		d := server[u.req] * 1e3
		all = append(all, d)
		if u.committed {
			commit = append(commit, d)
		} else {
			plain = append(plain, d)
		}
	}
	latency(r.layers, "ingest.server", "ms", all)
	r.layers["ingest.commit_uploads"] = metric{float64(len(commit)), "count"}
	r.layers["ingest.commit_p50_ms"] = metric{median(commit), "ms"}
	r.layers["ingest.commit_max_ms"] = metric{quantile(commit, 1), "ms"}
	r.layers["ingest.plain_p50_ms"] = metric{median(plain), "ms"}
}

// dirWatch records the checkpoint files and WAL segments a durable
// collector writes, polled after every upload of the traced iteration
// (checkpoints garbage-collect older files, so a final listing would
// miss them).
type dirWatch struct {
	dir  string
	mu   sync.Mutex
	ckpt map[int]int64    // checkpoint epoch -> bytes
	seg  map[string]int64 // WAL segment -> largest size seen
}

func (d *dirWatch) poll() {
	if d == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, sub := range []string{"", "wal"} {
		ents, _ := os.ReadDir(filepath.Join(d.dir, sub))
		for _, e := range ents {
			info, err := e.Info()
			if err != nil {
				continue
			}
			var epoch int
			switch {
			case strings.HasSuffix(e.Name(), ".seg"):
				d.seg[e.Name()] = max(d.seg[e.Name()], info.Size())
			case strings.HasSuffix(e.Name(), ".ckpt") && scanEpoch(e.Name(), &epoch):
				d.ckpt[epoch] = info.Size()
			}
		}
	}
}

func scanEpoch(name string, epoch *int) bool {
	_, err := fmt.Sscanf(name, "checkpoint-%d.ckpt", epoch)
	return err == nil
}
