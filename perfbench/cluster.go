package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"crossborder/internal/cluster"
	"crossborder/internal/ingest"
	"crossborder/internal/scenario"
)

const (
	// clusterShards is the number of memory-only collectd shards.
	clusterShards = 3
	// clusterRate is the open-loop upload rate in batches per second
	// (about 25k events/s), below what the three shards absorb while
	// the fan-in refreshes and queries run beside them.
	clusterRate = 50
	// idlePoll is the pause after a fan-in refresh that found no shard
	// epoch to merge, so an idle fan-in does not spin on 304s.
	idlePoll = 10 * time.Millisecond
	// clusterRemerges is how many full re-merges of the loaded cluster
	// each iteration times.
	clusterRemerges = 3
)

// runCluster measures three shards and a fan-in under reads beside
// writes: an open-loop upload stream through the ring, a closed-loop
// artifact query stream on the merged view, and back-to-back fan-in
// refreshes.
func runCluster(ctx context.Context, o opts, fx *fixture, r *report) error {
	var ack, visible, query, late []float64
	samples, err := measure(o.seconds, 1, func() (map[string]float64, error) {
		it, err := clusterIteration(fx, r, nil)
		if err != nil {
			return nil, err
		}
		for _, u := range it.uploads {
			ack = append(ack, ms(u.ack.Sub(u.due)))
			visible = append(visible, ms(u.visibleAt.Sub(u.send)))
			late = append(late, ms(u.send.Sub(u.due)))
		}
		for _, q := range it.queries {
			query = append(query, q.ms)
		}
		return it.metrics, nil
	})
	if err != nil {
		return err
	}
	untraced := medians(samples)
	putMetrics(r.e2e, untraced)
	latency(r.e2e, "upload_ack", "ms", ack)
	latency(r.e2e, "visible", "ms", visible)
	latency(r.e2e, "query", "ms", query)
	latency(r.e2e, "loadgen_late", "ms", late)
	if !o.trace {
		return nil
	}

	tr := newTracer()
	if err := borrowStudy(ctx, tr, fx, r); err != nil {
		return err
	}
	it, err := clusterIteration(fx, r, tr)
	if err != nil {
		return err
	}
	coldLocate(tr, fx, trackingIPs(it.merged.Dataset()), r)
	r.spans = tr.snapshot()
	it.addLayers(r, tr, fx.ids)
	overhead(r, untraced, it.metrics)
	return nil
}

// clusterRun is one cluster_mixed iteration as measured.
type clusterRun struct {
	metrics   map[string]float64
	uploads   []*uploadRec
	queries   []queryRec
	refreshes []refreshRec
	shardRows []int
	merged    *ingest.Snapshot
	t0, end   time.Time // first upload due .. final artifacts checked
	final     time.Time // the final refresh published everything
}

type queryRec struct {
	ms    float64
	first bool // first GET of this artifact on a newly published view
}

type refreshRec struct {
	span       int
	start, end time.Time
	epochs     map[string]int // shard epochs folded into the published view
}

func clusterIteration(fx *fixture, r *report, tr *tracer) (*clusterRun, error) {
	setup := time.Now()
	nodes := make([]string, clusterShards)
	addrs := map[string]string{}
	shards := map[string]*ingest.Collector{}
	reg := cluster.NewRegistry(0, 0)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("shard-%d", i)
		c := ingest.NewCollector(fx.world(), ingest.Config{})
		defer c.Close()
		srv := httptest.NewServer(traced(tr, ingest.NewServer(c)))
		defer srv.Close()
		shards[nodes[i]], addrs[nodes[i]] = c, srv.URL
	}
	heartbeat := func() {
		for _, n := range nodes {
			reg.Observe(cluster.Heartbeat{Node: n, Addr: addrs[n]})
		}
	}
	heartbeat()
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		return nil, err
	}
	rc, err := cluster.NewClient(ring, addrs)
	if err != nil {
		return nil, err
	}
	fan, pulls := newFanin(fx.world(), reg, nodes, tr)
	qsrv := httptest.NewServer(traced(tr, ingest.NewQueryServer(fan.Snapshot, fan.Ready)))
	defer qsrv.Close()
	fx.setupDone(setup, tr)

	run := &clusterRun{uploads: make([]*uploadRec, len(fx.batches))}
	var (
		stop atomic.Bool
		wg   sync.WaitGroup
		mu   sync.Mutex // guards run.refreshes
	)
	refresh := func() bool {
		heartbeat()
		rec := refreshRec{start: time.Now()}
		span, published, err := pulls.refreshOnce(fan)
		rec.span, rec.end = span, time.Now()
		r.op(err)
		if published {
			rec.epochs = map[string]int{}
			for _, h := range fan.Health() {
				rec.epochs[h.Node] = h.Epoch
			}
			mu.Lock()
			run.refreshes = append(run.refreshes, rec)
			mu.Unlock()
		}
		return published
	}
	wg.Add(2)
	go func() { // the fan-in, refreshing back to back
		defer wg.Done()
		for !stop.Load() {
			if !refresh() {
				time.Sleep(idlePoll)
			}
		}
	}()
	go func() { // closed-loop queries, round-robin over the artifacts
		defer wg.Done()
		qc := &ingest.Client{Base: qsrv.URL, HTTP: newHTTPClient(tr)}
		for !stop.Load() && (fan.Ready() != nil || fan.Snapshot().Rows() == 0) {
			time.Sleep(idlePoll)
		}
		seen := map[string]int{}
		for k := 0; !stop.Load(); k++ {
			id := fx.ids[k%len(fx.ids)]
			s := time.Now()
			_, epoch, err := qc.Artifact(id)
			d := ms(time.Since(s))
			r.op(err)
			run.queries = append(run.queries, queryRec{ms: d, first: epoch != seen[id]})
			seen[id] = epoch
		}
	}()

	// The open loop: batch i is due at t0 + i/rate; one connection sends
	// each when due, or as soon as the previous one is acknowledged.
	hc := newHTTPClient(tr)
	run.t0 = time.Now()
	for i, b := range fx.batches {
		due := run.t0.Add(time.Duration(i) * time.Second / clusterRate)
		time.Sleep(time.Until(due))
		node := rc.Owner(b.user)
		u := &uploadRec{req: int64(i + 1), node: node, due: due, send: time.Now()}
		res, err := upload(hc, rc.Addr(node), b, u.req)
		u.ack = time.Now()
		r.op(err)
		u.accepted, u.epoch = res.Accepted, res.Epoch
		run.uploads[i] = u
	}
	// Stop the readers before the final flush, so the view the last
	// refresh publishes is one no query has rendered yet.
	stop.Store(true)
	wg.Wait()
	rc.HTTP = hc
	err = rc.FlushAll()
	r.op(err)
	flushed := time.Now()

	// Everything is in: one last refresh must fold every shard's final
	// epoch, then the 20 artifacts come from the merged view.
	refresh()
	drained := time.Now()
	// Each timed render starts from a collected heap, so the collector
	// cycles it pays for are its own, not the ingest's leftovers.
	runtime.GC()
	run.final = time.Now()
	if len(run.refreshes) == 0 {
		return nil, fmt.Errorf("the fan-in never published a merged view")
	}
	final := run.refreshes[len(run.refreshes)-1]
	for _, n := range nodes {
		if e := shards[n].Snapshot().Epoch(); final.epochs[n] != e {
			r.op(fmt.Errorf("final merged view holds %s epoch %d, the shard is at %d", n, final.epochs[n], e))
		}
		run.shardRows = append(run.shardRows, shards[n].Snapshot().Rows())
	}
	got := fetchAll(r, &ingest.Client{Base: qsrv.URL, HTTP: newHTTPClient(tr)}, fx.ids)
	run.end = time.Now()
	r.check("cluster_mixed", fx.ids, got, fx.want)
	heap := liveHeapMB() - fx.baseHeap
	run.merged = fan.Snapshot()
	clusterVisibility(run)

	accepted := 0
	for _, u := range run.uploads {
		accepted += u.accepted
	}
	// The open loop fixes when the last batch is due; the tail is what
	// the cluster controls after it: backlog, the in-flight and final
	// refreshes, the flush, and the 20 artifacts from the merged view.
	// It is one sample per iteration, so the study time is the median
	// of the re-merges instead, which run the same cluster path.
	lastDue := run.t0.Add(time.Duration(len(fx.batches)-1) * time.Second / clusterRate)
	tail := drained.Sub(lastDue) + run.end.Sub(run.final)
	var remerges []float64
	for range clusterRemerges {
		heartbeat()
		remerges = append(remerges, remerge(fx, r, fan.World, reg, nodes, tr))
	}
	run.metrics = perEvent(map[string]float64{
		"study_s":             median(remerges),
		"tail_s":              tail.Seconds(),
		"render_all_s":        run.end.Sub(run.final).Seconds(),
		"ingest_events_per_s": float64(accepted) / flushed.Sub(run.t0).Seconds(),
		"retained_heap_mb":    heap,
	}, fx.events)
	return run, nil
}

// newFanin builds a mergerd's fan-in on world; with a tracer its pulls
// are traced.
func newFanin(world *scenario.Scenario, reg *cluster.Registry, nodes []string, tr *tracer) (*cluster.Fanin, *pullTracer) {
	fan := &cluster.Fanin{World: world, Registry: reg, Shards: nodes, HTTP: newHTTPClient(nil)}
	pulls := &pullTracer{t: tr, base: fan.HTTP.Transport}
	if tr != nil {
		fan.HTTP = &http.Client{Transport: pulls, Timeout: fan.HTTP.Timeout}
	}
	return fan, pulls
}

// remerge times a full re-merge of the loaded cluster: a fan-in with an
// empty export cache, on the world of the fan-in that ran beside the
// load, makes one refresh that pulls, decodes and merges every shard's
// export, then the 20 artifacts are served from its view and checked.
// It returns the seconds from the refresh to the last artifact.
func remerge(fx *fixture, r *report, world *scenario.Scenario, reg *cluster.Registry, nodes []string, tr *tracer) float64 {
	fan, pulls := newFanin(world, reg, nodes, tr)
	qsrv := httptest.NewServer(traced(tr, ingest.NewQueryServer(fan.Snapshot, fan.Ready)))
	defer qsrv.Close()
	qc := &ingest.Client{Base: qsrv.URL, HTTP: newHTTPClient(tr)}
	runtime.GC() // as before every timed render
	start := time.Now()
	_, published, err := pulls.refreshOnce(fan)
	if err == nil && !published {
		err = fmt.Errorf("a re-merging fan-in published no merged view")
	}
	r.op(err)
	got := fetchAll(r, qc, fx.ids)
	d := since(start)
	r.check("cluster_mixed re-merge", fx.ids, got, fx.want)
	return d
}

// clusterVisibility sets each upload's visibleAt: the end of the first
// fan-in refresh whose merged view holds the shard epoch carrying the
// upload's events.
func clusterVisibility(run *clusterRun) {
	markCommits(run.uploads) // one sender: send order is each shard's processing order
	for _, u := range run.uploads {
		e := u.epoch
		if !u.committed {
			e++
		}
		u.visibleAt = run.final
		for _, f := range run.refreshes {
			if f.epochs[u.node] >= e {
				u.visibleAt = f.end
				break
			}
		}
	}
}

// addLayers reports the ingest, cluster and experiments layers of the
// traced iteration and the self-time attribution of its window.
func (c *clusterRun) addLayers(r *report, tr *tracer, ids []string) {
	w0, w1 := tr.at(c.t0), tr.at(c.end)
	addAttribution(r, r.spans, w0, w1)
	uploadLayers(r, r.spans, c.uploads)
	for _, id := range ids {
		r.layers["experiments."+id+"_s"] = metric{spanSeconds(r.spans, "experiments."+id, tr.at(c.final), w1), "s"}
	}

	// Per published refresh: its duration, and the export encode, pull
	// decode and merge spans under it.
	byParent := map[int][]span{}
	for _, s := range r.spans {
		byParent[s.Parent] = append(byParent[s.Parent], s)
	}
	var dur, encode, decode, merge, bytes []float64
	for _, f := range c.refreshes {
		var enc, dec, mrg, n float64
		for _, s := range byParent[f.span] {
			switch s.Name {
			case "cluster.pull":
				for _, e := range byParent[s.ID] {
					enc += e.dur()
					n += float64(e.Bytes)
				}
			case "ingest.decode_export":
				dec += s.dur()
			case "ingest.merge_exports":
				mrg += s.dur()
			}
		}
		dur = append(dur, f.end.Sub(f.start).Seconds())
		encode, decode, merge, bytes = append(encode, enc), append(decode, dec), append(merge, mrg), append(bytes, n)
	}
	latency(r.layers, "cluster.refresh", "s", dur)
	r.layers["cluster.refreshes"] = metric{float64(len(dur)), "count"}
	r.layers["ingest.export_encode_s"] = metric{median(encode), "s"}
	r.layers["ingest.export_bytes"] = metric{median(bytes), "B"}
	r.layers["ingest.decode_export_s"] = metric{median(decode), "s"}
	r.layers["ingest.merge_exports_s"] = metric{median(merge), "s"}

	var first, cached []float64
	for _, q := range c.queries {
		if q.first {
			first = append(first, q.ms)
		} else {
			cached = append(cached, q.ms)
		}
	}
	r.layers["cluster.query_first_ms"] = metric{median(first), "ms"}
	r.layers["cluster.query_cached_ms"] = metric{median(cached), "ms"}
	var late []float64
	for _, u := range c.uploads {
		late = append(late, ms(u.send.Sub(u.due)))
	}
	latency(r.layers, "loadgen.late", "ms", late)
	total, most := 0, 0
	for _, n := range c.shardRows {
		total += n
		most = max(most, n)
	}
	storeLayers(r.layers, c.merged.Dataset())
	r.layers["cluster.shard_rows_skew"] = metric{float64(most*len(c.shardRows)) / float64(max(total, 1)), "ratio"}
}
