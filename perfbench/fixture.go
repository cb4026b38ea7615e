package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"crossborder"
	"crossborder/internal/classify"
	"crossborder/internal/ingest"
	"crossborder/internal/netsim"
	"crossborder/internal/scenario"
)

// fixture is a run's set-up: the reference artifacts of the batch study
// for the seed and, for the live workloads, the recorded event streams
// pre-encoded as binary upload batches.
type fixture struct {
	params  scenario.Params
	ids     []string
	want    []string // reference artifacts in paper order
	events  int      // input events of the study (page visits + requests)
	batches []batch  // uploads in send order
	// once is the one-time set-up; iterSetup the per-iteration set-up
	// (fresh worlds, collectors, listeners) of each untraced iteration,
	// tracedSetup that of the traced one.
	once        float64
	iterSetup   []float64
	tracedSetup float64
	// baseHeap is the live heap after set-up, subtracted from the heap
	// measured with the system under test still live.
	baseHeap float64
}

// batch is one pre-encoded upload.
type batch struct {
	user int32
	seq  uint64
	n    int
	body []byte
}

func newFixture(ctx context.Context, o opts) (*fixture, error) {
	start := time.Now()
	fx := &fixture{
		params: scenario.Params{Seed: o.seed, Scale: scale, VisitsPerUser: visits},
		ids:    crossborder.ExperimentIDs(),
	}
	st, err := newStudy(ctx, fx.params, nil)
	if err != nil {
		return nil, err
	}
	fx.want = st.RenderAll()
	fx.events = st.S.Dataset.Len() + st.S.Dataset.Visits
	if err := st.Close(); err != nil {
		return nil, err
	}
	if o.workload != "batch_study" {
		events := ingest.RecordSimulation(scenario.BuildWorld(fx.params), visits, 0)
		fx.batches = encodeBatches(events)
		n := 0
		for _, b := range fx.batches {
			n += b.n
		}
		if n != fx.events {
			return nil, fmt.Errorf("recorded %d events, the batch study has %d", n, fx.events)
		}
	}
	fx.once = since(start)
	fx.baseHeap = liveHeapMB()
	return fx, nil
}

// newStudy runs crossborder.New at the benchmark's shape.
func newStudy(ctx context.Context, p scenario.Params, progress func(crossborder.PhaseEvent)) (*crossborder.Study, error) {
	return crossborder.New(ctx,
		crossborder.WithSeed(p.Seed),
		crossborder.WithScale(p.Scale),
		crossborder.WithVisitsPerUser(p.VisitsPerUser),
		crossborder.WithProgress(progress))
}

// encodeBatches splits every user's stream into batches of batchEvents
// in the order of the repository's replay client (ingest.Client.Replay):
// whole users in ascending user id, each user's batches in sequence
// order.
func encodeBatches(events map[int32][]ingest.Event) []batch {
	users := make([]int32, 0, len(events))
	for u := range events {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	var out []batch
	for _, u := range users {
		evs := events[u]
		for off := 0; off < len(evs); off += batchEvents {
			hi := min(off+batchEvents, len(evs))
			b := ingest.Batch{User: u, Seq: uint64(off), Events: evs[off:hi]}
			out = append(out, batch{user: u, seq: b.Seq, n: hi - off, body: ingest.EncodeBinary(b)})
		}
	}
	return out
}

// byUser groups the batches into each user's run, in send order.
func (fx *fixture) byUser() [][]int {
	var runs [][]int
	for i, b := range fx.batches {
		if i == 0 || b.user != fx.batches[i-1].user {
			runs = append(runs, nil)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], i)
	}
	return runs
}

// world builds a fresh world for one node; every node of every
// iteration gets its own, so no memoized geolocation carries over.
func (fx *fixture) world() *scenario.Scenario { return scenario.BuildWorld(fx.params) }

// setupDone records the per-iteration set-up that began at start.
func (fx *fixture) setupDone(start time.Time, tr *tracer) {
	if tr != nil {
		fx.tracedSetup = since(start)
	} else {
		fx.iterSetup = append(fx.iterSetup, since(start))
	}
}

// setupSeconds is the one-time set-up plus the median per-iteration
// set-up.
func (fx *fixture) setupSeconds() float64 { return fx.once + median(fx.iterSetup) }

// trackingIPs returns the distinct serving IPs of a dataset's tracking
// rows: the addresses the IPmap join geolocates.
func trackingIPs(ds *classify.Dataset) []netsim.IP {
	seen := make(map[netsim.IP]bool)
	var out []netsim.IP
	ds.Scan(func(_ int, c *classify.Chunk) {
		for i, cls := range c.Class {
			if cls.IsTracking() && !seen[c.IP[i]] {
				seen[c.IP[i]] = true
				out = append(out, c.IP[i])
			}
		}
	})
	return out
}

// tracedStudy builds and renders the batch study one layer call at a
// time inside spans: the build phases (from WithProgress), a cold IPmap
// Locate over the distinct tracking IPs, the three geolocation joins,
// then each experiment in paper order.
func tracedStudy(ctx context.Context, tr *tracer, fx *fixture, r *report) (studyWindow, error) {
	type edge struct{ start, end time.Time }
	var (
		order  []scenario.Phase
		phases = map[scenario.Phase]*edge{}
	)
	start := time.Now()
	st, err := newStudy(ctx, fx.params, func(e crossborder.PhaseEvent) {
		now := time.Now()
		p := phases[e.Phase]
		if p == nil {
			p = &edge{start: now.Add(-e.Elapsed)}
			phases[e.Phase] = p
			order = append(order, e.Phase)
		}
		p.end = now
	})
	if err != nil {
		return studyWindow{}, err
	}
	defer st.Close()
	w := studyWindow{start: start, built: time.Now()}
	for _, ph := range order {
		p := phases[ph]
		tr.add("scenario."+string(ph), 0, 0, p.start, p.end)
	}
	storeLayers(r.layers, st.S.Dataset)

	ips := trackingIPs(st.S.Dataset)
	r.layers["geo.ipmap_ips"] = metric{float64(len(ips)), "count"}
	tr.timed("geo.ipmap_locate", 0, func() {
		for _, ip := range ips {
			st.S.IPMap.Locate(ip)
		}
	})
	tr.timed("core.join_truth", 0, func() { st.TruthAnalysis() })
	tr.timed("core.join_ipmap", 0, func() { st.IPMapAnalysis() })
	tr.timed("core.join_maxmind", 0, func() { st.MaxMindAnalysis() })
	out := make([]string, len(fx.ids))
	for i, id := range fx.ids {
		var err error
		tr.timed("experiments."+id, 0, func() {
			var a crossborder.Artifact
			if a, err = st.Artifact(ctx, id); err == nil {
				out[i] = a.Render()
			}
		})
		if err != nil {
			return studyWindow{}, err
		}
	}
	w.end = time.Now()
	r.check("traced batch study", fx.ids, out, fx.want)

	spans, w0, w1 := tr.snapshot(), tr.at(w.start), tr.at(w.end)
	for _, name := range append(studyLayers(), "geo.ipmap_locate") {
		r.layers[name+"_s"] = metric{spanSeconds(spans, name, w0, w1), "s"}
	}
	for _, id := range fx.ids {
		r.layers["experiments."+id+"_s"] = metric{spanSeconds(spans, "experiments."+id, w0, w1), "s"}
	}
	return w, nil
}

// studyLayers names the spans only the batch study runs: the build
// phases and the three joins. The live workloads record their events in
// set-up and never call them, so they report these from a traced batch
// study of the same seed and mark them borrowed.
func studyLayers() []string {
	var out []string
	for _, ph := range scenario.Phases() {
		out = append(out, "scenario."+string(ph))
	}
	return append(out, "core.join_truth", "core.join_ipmap", "core.join_maxmind")
}

// borrowStudy runs the traced batch study for a live workload and marks
// the layers it reports for that workload as borrowed.
func borrowStudy(ctx context.Context, tr *tracer, fx *fixture, r *report) error {
	if _, err := tracedStudy(ctx, tr, fx, r); err != nil {
		return err
	}
	for _, name := range studyLayers() {
		r.borrowed = append(r.borrowed, name+"_s")
	}
	return nil
}

// coldLocate reports the geolocation cost a live workload pays: a cold
// IPmap Locate over the distinct tracking IPs of its final rows, on a
// fresh world built the way every node's is. It runs after the traced
// iteration, outside its window.
func coldLocate(tr *tracer, fx *fixture, ips []netsim.IP, r *report) {
	w := fx.world()
	start := time.Now()
	tr.timed("geo.ipmap_locate", 0, func() {
		for _, ip := range ips {
			w.IPMap.Locate(ip)
		}
	})
	r.layers["geo.ipmap_locate_s"] = metric{since(start), "s"}
	r.layers["geo.ipmap_ips"] = metric{float64(len(ips)), "count"}
}

// studyWindow is one traced study: when it started, when New returned
// and when the last artifact was rendered.
type studyWindow struct{ start, built, end time.Time }

// storeLayers reports the row store a workload ended with.
func storeLayers(dst map[string]metric, ds *classify.Dataset) {
	fp := ds.Store.Footprint()
	dst["scenario.rows"] = metric{float64(ds.Len()), "count"}
	dst["classify.bytes_per_row"] = metric{float64(fp.ResidentBytes+fp.CompressedBytes) / float64(max(fp.Rows, 1)), "B/row"}
	dst["classify.chunks"] = metric{float64(ds.Store.NumChunks()), "count"}
}
