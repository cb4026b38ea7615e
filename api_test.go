package crossborder_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"crossborder"
	"crossborder/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md from the experiment registry and "+goldenDigestsFile+" from the golden study")

// goldenDigestsFile holds the SHA-256 of each of the 20 RenderAll
// artifacts at the golden shape (seed 1 / scale 0.05 / 40 visits), one
// "<hex digest>  <experiment id>" line per artifact in paper order.
// Every store variant must render exactly these bytes. Regenerate with
// `go test -run TestGoldenRenderAllMatchesLegacy . -update` — only when
// an artifact is meant to change.
const goldenDigestsFile = "testdata/golden_artifacts.sha256"

// goldenStudy builds the study at the golden shape with extra options.
func goldenStudy(t *testing.T, opts ...crossborder.Option) *crossborder.Study {
	t.Helper()
	opts = append([]crossborder.Option{
		crossborder.WithSeed(1),
		crossborder.WithScale(0.05),
		crossborder.WithVisitsPerUser(40),
	}, opts...)
	st, err := crossborder.New(context.Background(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// formatDigests renders artifacts in the goldenDigestsFile format.
func formatDigests(artifacts []string) string {
	ids := crossborder.ExperimentIDs()
	var b strings.Builder
	for i, a := range artifacts {
		sum := sha256.Sum256([]byte(a))
		fmt.Fprintf(&b, "%s  %s\n", hex.EncodeToString(sum[:]), ids[i])
	}
	return b.String()
}

// checkGoldenDigests compares the rendered artifacts of one store
// variant against the committed digests, naming each artifact that
// differs.
func checkGoldenDigests(t *testing.T, variant string, artifacts []string) {
	t.Helper()
	raw, err := os.ReadFile(goldenDigestsFile)
	if err != nil {
		t.Fatalf("%s missing (regenerate with -update): %v", goldenDigestsFile, err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	got := strings.Split(strings.TrimSuffix(formatDigests(artifacts), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%s: %d artifacts, %s pins %d", variant, len(got), goldenDigestsFile, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: artifact digest %q, golden %q", variant, got[i], want[i])
		}
	}
}

// legacyRenderAll reproduces the pre-registry RenderAll byte for byte:
// the hand-wired sequential composition over the Suite's typed methods.
// The golden test holds the registry to this output.
func legacyRenderAll(su *experiments.Suite) []string {
	su.Precompute()
	t8 := su.Table8()
	return []string{
		su.Table1().Render(),
		su.Table2().Render(),
		su.Fig2().Render(),
		su.Fig3().Render(),
		su.Fig4().Render(),
		su.Fig5().Render(),
		su.Table3().Render(),
		su.Table4().Render(),
		su.Fig6().Render(),
		su.Fig7().Render(),
		su.Fig8().Render(),
		su.Table5().Render(),
		su.Table6().Render(),
		su.Fig9().Render(),
		su.Fig10().Render(),
		su.Fig11().Render(),
		su.Table7().Render(),
		t8.Render(),
		su.Fig12(t8).Render(),
		experiments.RenderTable9(),
	}
}

// TestGoldenRenderAllMatchesLegacy pins the redesign's contract: for
// seed 1 / scale 0.05, the registry-backed RenderAll is byte-identical
// to the pre-redesign sequential rendering, and both match the committed
// golden digests.
func TestGoldenRenderAllMatchesLegacy(t *testing.T) {
	study := goldenStudy(t)
	want := legacyRenderAll(study.Suite)
	got := study.RenderAll()
	if *update {
		if err := os.WriteFile(goldenDigestsFile, []byte(formatDigests(got)), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	checkGoldenDigests(t, "mem-wide", got)
	if len(got) != len(want) {
		t.Fatalf("RenderAll returned %d artifacts, legacy rendering has %d", len(got), len(want))
	}
	ids := crossborder.ExperimentIDs()
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("artifact %d (%s) differs from the legacy rendering:\n--- registry ---\n%s\n--- legacy ---\n%s",
				i, ids[i], got[i], want[i])
		}
	}
}

// TestNewCancelled: a dead context must abort New before any work.
func TestNewCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	st, err := crossborder.New(ctx, crossborder.WithScale(0.02))
	if err != context.Canceled {
		t.Fatalf("New on cancelled ctx = %v, want context.Canceled", err)
	}
	if st != nil {
		t.Fatal("cancelled New must return a nil study")
	}
}

// TestNewProgressOption checks the option plumbing end to end: progress
// events arrive through the public API for every pipeline phase.
func TestNewProgressOption(t *testing.T) {
	seen := make(map[crossborder.Phase]bool)
	_, err := crossborder.New(context.Background(),
		crossborder.WithSeed(5),
		crossborder.WithScale(0.02),
		crossborder.WithVisitsPerUser(8),
		crossborder.WithWorkers(2),
		crossborder.WithProgress(func(ev crossborder.PhaseEvent) { seen[ev.Phase] = true }))
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range crossborder.Phases() {
		if !seen[ph] {
			t.Errorf("no progress event for phase %s", ph)
		}
	}
}

// TestExperimentRegistryExposed covers the public registry surface the
// cmd tools are built on.
func TestExperimentRegistryExposed(t *testing.T) {
	ids := crossborder.ExperimentIDs()
	if len(ids) != 20 {
		t.Fatalf("registry has %d experiments, want 20", len(ids))
	}
	if len(crossborder.Experiments()) != len(ids) {
		t.Fatal("Experiments() and ExperimentIDs() disagree")
	}
	exp, ok := crossborder.LookupExperiment("FIG7")
	if !ok || exp.ID != "fig7" {
		t.Fatalf("LookupExperiment(FIG7) = (%q, %v)", exp.ID, ok)
	}
	if _, ok := crossborder.LookupExperiment("fig99"); ok {
		t.Error("LookupExperiment must reject unknown ids")
	}
}

// TestStudyArtifactAPI runs one registry experiment through the public
// Study surface and checks the encodings exist.
func TestStudyArtifactAPI(t *testing.T) {
	st := tinyStudy(t)
	a, err := st.Artifact(context.Background(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	if a.Render() == "" {
		t.Error("empty render")
	}
	if raw, err := a.JSON(); err != nil || len(raw) == 0 {
		t.Errorf("JSON: %v (%d bytes)", err, len(raw))
	}
	if raw, err := a.CSV(); err != nil || len(raw) == 0 {
		t.Errorf("CSV: %v (%d bytes)", err, len(raw))
	}
}

// TestExperimentsMarkdownInSync keeps EXPERIMENTS.md generated: the
// committed file must match the registry's MarkdownIndex output.
// Regenerate with `go test -run TestExperimentsMarkdownInSync . -update`.
func TestExperimentsMarkdownInSync(t *testing.T) {
	want := experiments.MarkdownIndex()
	if *update {
		if err := os.WriteFile("EXPERIMENTS.md", []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("EXPERIMENTS.md missing (regenerate with -update): %v", err)
	}
	if string(got) != want {
		t.Error("EXPERIMENTS.md is stale; regenerate with: go test -run TestExperimentsMarkdownInSync . -update")
	}
}
