// Command perfbench is the repository's end-to-end benchmark. One
// process runs one workload against the system's public entry points
// and checks every artifact it is served against the batch study for
// the same seed:
//
//	batch_study    crossborder.New + RenderAll on the in-memory store
//	live_durable   durable collector over HTTP: closed-loop replay by
//	               two uploaders, flush, 20 artifact GETs, crash, Recover
//	cluster_mixed  three shards + fan-in: open-loop uploads through the
//	               ring, closed-loop artifact queries on the merged view,
//	               back-to-back fan-in refreshes; then timed full
//	               re-merges of the loaded cluster
//
// All three run at scale 0.05 with the paper's 219 visits per user and
// build a fresh world per node for every iteration, so the memoized
// IPmap geolocation model starts cold each time.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are
// the end-to-end ones; with -trace 1 the run also makes one traced
// iteration, prints the per-layer metrics, and writes the spans, every
// per-layer number and the traced-minus-untraced overhead to
// .bench_build/trace/<workload>-seed<n>.json. A human-readable table of
// everything measured goes to standard error.
//
// Run it from the repository root through perfbench/run.sh, which
// builds this package first:
//
//	bash perfbench/run.sh --workload live_durable --seed 1 --seconds 15 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// The study shape every workload runs at.
const (
	scale       = 0.05
	visits      = 219 // the paper's mean page visits per user
	batchEvents = 512 // events per upload batch
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one workload run measured.
type report struct {
	mu                sync.Mutex
	attempted, failed int
	// e2e holds the end-to-end numbers and layers the per-layer numbers
	// of the traced iteration. The last output line carries the ones
	// BENCHMARK.json lists; the rest go to standard error and the trace
	// file.
	e2e    map[string]metric
	layers map[string]metric
	// overhead is traced minus untraced for each end-to-end metric.
	overhead map[string]metric
	spans    []span
	// borrowed names the per-layer metrics a live workload reports from
	// a traced batch study, because it never runs those layers itself.
	borrowed []string
}

func newReport() *report {
	return &report{
		e2e:      map[string]metric{},
		layers:   map[string]metric{},
		overhead: map[string]metric{},
	}
}

// op counts one attempted operation and, when err is non-nil, one
// failure (logged to standard error).
func (r *report) op(err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", err)
	}
}

// check compares served artifacts with the reference, one op each.
func (r *report) check(where string, ids, got, want []string) {
	for i, id := range ids {
		var err error
		if got[i] != want[i] {
			err = fmt.Errorf("%s: artifact %s differs from the batch study", where, id)
		}
		r.op(err)
	}
}

// opts is the command line.
type opts struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

var workloads = map[string]func(ctx context.Context, o opts, fx *fixture, r *report) error{
	"batch_study":   runBatch,
	"live_durable":  runLive,
	"cluster_mixed": runCluster,
}

func main() {
	var o opts
	var trace int
	flag.StringVar(&o.workload, "workload", "", "batch_study, live_durable or cluster_mixed")
	flag.Int64Var(&o.seed, "seed", 1, "world seed; the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds (whole iterations; at least one)")
	flag.IntVar(&trace, "trace", 0, "1 adds a traced iteration and prints per-layer metrics")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload batch_study|live_durable|cluster_mixed --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fatal(err)
	}
	ctx := context.Background()
	fx, err := newFixture(ctx, o)
	if err != nil {
		fatal(err)
	}
	r := newReport()
	if err := run(ctx, o, fx, r); err != nil {
		fatal(err)
	}
	r.e2e["setup_s"] = metric{fx.setupSeconds(), "s"}
	if o.trace {
		r.overhead["setup_s"] = metric{fx.tracedSetup - median(fx.iterSetup), "s"}
	}
	printTable(o, r)
	metrics, err := listed(o, r)
	if err != nil {
		fatal(err)
	}
	if o.trace {
		if err := writeTrace(o, r); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.failed == 0,
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// listed picks the metrics BENCHMARK.json declares: its end_to_end list,
// or with -trace 1 its per_layer list. A declared per-layer count, byte
// or ratio metric the workload did not produce belongs to a layer the
// workload leaves idle and reads 0; any other missing metric, or a unit
// that differs from the declaration, is an error.
func listed(o opts, r *report) (map[string]metric, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	type decl struct{ Name, Unit string }
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want, have := spec.EndToEnd, r.e2e
	if o.trace {
		want, have = spec.PerLayer, r.layers
	}
	out := make(map[string]metric, len(want))
	for _, d := range want {
		m, ok := have[d.Name]
		switch {
		case !ok && o.trace && d.Unit != "s" && d.Unit != "ms":
			m = metric{0, d.Unit}
		case !ok:
			return nil, fmt.Errorf("%s did not measure %s", o.workload, d.Name)
		case m.Unit != d.Unit:
			return nil, fmt.Errorf("%s is in %s, BENCHMARK.json declares %s", d.Name, m.Unit, d.Unit)
		}
		out[d.Name] = m
	}
	return out, nil
}

// workDir holds everything a run leaves behind: data directories and
// trace files. It is relative to the repository root the command runs
// from.
var workDir = filepath.Join(".bench_build", "work")

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// writeTrace writes the traced run's spans and every number measured.
func writeTrace(o opts, r *report) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(map[string]any{
		"workload":                  o.workload,
		"seed":                      o.seed,
		"end_to_end":                r.e2e,
		"per_layer":                 r.layers,
		"overhead":                  r.overhead,
		"borrowed_from_batch_study": r.borrowed,
		"spans":                     r.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)), data, 0o644)
}

// printTable writes every measured number to standard error.
func printTable(o opts, r *report) {
	w := os.Stderr
	fmt.Fprintf(w, "perfbench %s seed=%d attempted=%d failed=%d\n", o.workload, o.seed, r.attempted, r.failed)
	for _, sec := range []struct {
		title string
		m     map[string]metric
	}{{"end-to-end", r.e2e}, {"per-layer (traced)", r.layers}, {"tracing overhead", r.overhead}} {
		if len(sec.m) == 0 {
			continue
		}
		fmt.Fprintf(w, "  %s:\n", sec.title)
		names := make([]string, 0, len(sec.m))
		for n := range sec.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			note := ""
			if sec.title != "end-to-end" && slices.Contains(r.borrowed, n) {
				note = " (from the traced batch study)"
			}
			fmt.Fprintf(w, "    %-34s %14.6g %s%s\n", n, sec.m[n].Value, sec.m[n].Unit, note)
		}
	}
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailQuantile is the highest of p99, p90 and p50 that leaves at least
// ten samples beyond it, and its name suffix.
func tailQuantile(n int) (float64, string) {
	for _, q := range []struct {
		q    float64
		name string
	}{{0.99, "p99"}, {0.90, "p90"}} {
		if float64(n)*(1-q.q) >= 10 {
			return q.q, q.name
		}
	}
	return 0.5, "p50"
}

// latency adds <name>_p50_<unit> and the tail percentile of xs to m,
// plus the sample count.
func latency(m map[string]metric, name, unit string, xs []float64) {
	q, suffix := tailQuantile(len(xs))
	m[name+"_p50_"+unit] = metric{quantile(xs, 0.5), unit}
	if suffix != "p50" {
		m[name+"_"+suffix+"_"+unit] = metric{quantile(xs, q), unit}
	}
	m[name+"_samples"] = metric{float64(len(xs)), "count"}
}

// liveHeapMB forces a collection and returns the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// units names the unit of every end-to-end number.
var units = map[string]string{
	"study_s":                   "s",
	"render_all_s":              "s",
	"tail_s":                    "s",
	"ingest_events_per_s":       "events/s",
	"retained_heap_mb":          "MB",
	"recover_s":                 "s",
	"study_us_per_event":        "us/event",
	"render_all_us_per_event":   "us/event",
	"retained_heap_b_per_event": "B/event",
}

// measure runs iterations until seconds have passed and at least least
// iterations have run, and returns each iteration's metrics.
func measure(seconds, least int, iterate func() (map[string]float64, error)) ([]map[string]float64, error) {
	var samples []map[string]float64
	start := time.Now()
	for len(samples) < least || since(start) < float64(seconds) {
		m, err := iterate()
		if err != nil {
			return nil, err
		}
		samples = append(samples, m)
	}
	return samples, nil
}

// perEvent adds the study time, the render time and the retained heap
// per input event to m. The event count of a study varies by about ten
// percent from seed to seed, and these costs grow with it; per event
// they compare across seeds.
func perEvent(m map[string]float64, events int) map[string]float64 {
	n := float64(events)
	for raw, norm := range map[string]struct {
		name  string
		scale float64
	}{
		"study_s":          {"study_us_per_event", 1e6},
		"render_all_s":     {"render_all_us_per_event", 1e6},
		"retained_heap_mb": {"retained_heap_b_per_event", 1 << 20},
	} {
		if v, ok := m[raw]; ok {
			m[norm.name] = v * norm.scale / n
		}
	}
	return m
}

// since returns seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
