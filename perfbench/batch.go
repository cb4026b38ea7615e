package main

import (
	"context"
	"time"

	"crossborder"
	"crossborder/internal/scenario"
)

// runBatch measures the batch study the way cmd/reproduce users pay for
// it: crossborder.New, then RenderAll, on a fresh study per iteration.
func runBatch(ctx context.Context, o opts, fx *fixture, r *report) error {
	samples, err := measure(o.seconds, 1, func() (map[string]float64, error) {
		fx.setupDone(time.Now(), nil) // New builds its own world
		return batchIteration(ctx, fx, r)
	})
	if err != nil {
		return err
	}
	untraced := medians(samples)
	putMetrics(r.e2e, untraced)
	if !o.trace {
		return nil
	}

	tr := newTracer()
	w, err := tracedStudy(ctx, tr, fx, r)
	if err != nil {
		return err
	}
	r.spans = tr.snapshot()
	addAttribution(r, r.spans, tr.at(w.start), tr.at(w.end))
	overhead(r, untraced, perEvent(map[string]float64{
		"study_s":      w.end.Sub(w.start).Seconds(),
		"render_all_s": w.end.Sub(w.built).Seconds(),
	}, fx.events))
	return nil
}

// batchIteration builds and renders one fresh study.
func batchIteration(ctx context.Context, fx *fixture, r *report) (map[string]float64, error) {
	var simStart time.Time
	t0 := time.Now()
	st, err := newStudy(ctx, fx.params, func(e crossborder.PhaseEvent) {
		if e.Phase == scenario.PhaseSimulate && simStart.IsZero() {
			simStart = time.Now().Add(-e.Elapsed)
		}
	})
	r.op(err)
	if err != nil {
		return nil, err
	}
	built := time.Now()
	got, err := st.RenderAllContext(ctx)
	r.op(err)
	if err != nil {
		return nil, err
	}
	done := time.Now()
	r.check("batch_study", fx.ids, got, fx.want)
	heap := liveHeapMB() - fx.baseHeap
	if err := st.Close(); err != nil {
		return nil, err
	}
	return perEvent(map[string]float64{
		"study_s":             done.Sub(t0).Seconds(),
		"render_all_s":        done.Sub(built).Seconds(),
		"ingest_events_per_s": float64(fx.events) / built.Sub(simStart).Seconds(),
		"retained_heap_mb":    heap,
	}, fx.events), nil
}

// medians reduces per-iteration samples to their per-metric medians.
func medians(samples []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name := range samples[0] {
		xs := make([]float64, len(samples))
		for i, s := range samples {
			xs[i] = s[name]
		}
		out[name] = median(xs)
	}
	return out
}

func putMetrics(dst map[string]metric, vals map[string]float64) {
	for name, v := range vals {
		dst[name] = metric{v, units[name]}
	}
}

// overhead reports traced minus untraced for each metric both runs
// measured.
func overhead(r *report, untraced, traced map[string]float64) {
	for name, v := range traced {
		if u, ok := untraced[name]; ok {
			r.overhead[name] = metric{v - u, units[name]}
		}
	}
}
