package crossborder_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"crossborder"
	"crossborder/internal/ingest"
	"crossborder/internal/scenario"
)

// TestLiveReplayGoldenParity is the end-to-end contract of the live
// ingestion subsystem: replaying a seed-1 / scale-0.05 simulation
// through collectd's HTTP pipeline — any epoch size, any worker count —
// yields experiment artifacts byte-identical to the batch
// crossborder.New study. The replay exercises the full serving stack:
// wire encoding, upload dedup, epoch commits, the incremental fixpoint
// and aggregates (which seed the snapshot suite's geolocation joins),
// and the query API.
func TestLiveReplayGoldenParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden replay is not short")
	}
	const (
		seed   = 1
		scale  = 0.05
		visits = 40
	)

	study, err := crossborder.New(context.Background(),
		crossborder.WithSeed(seed),
		crossborder.WithScale(scale),
		crossborder.WithVisitsPerUser(visits))
	if err != nil {
		t.Fatal(err)
	}
	want := study.RenderAll()
	ids := crossborder.ExperimentIDs()

	world := scenario.BuildWorld(scenario.Params{Seed: seed, Scale: scale, VisitsPerUser: visits})
	events := ingest.RecordSimulation(world, visits, 3)

	for _, cfg := range []ingest.Config{
		{EpochEvents: 1777, Workers: 3, ChunkRows: 512}, // many epochs, multi-chunk, parallel shards
		{EpochEvents: 1 << 22, Workers: 1},              // one epoch, sequential
	} {
		c := ingest.NewCollector(world, cfg)
		srv := httptest.NewServer(ingest.NewServer(c))
		cl := &ingest.Client{Base: srv.URL, Binary: true}

		if _, err := cl.Replay(events, 768, 1); err != nil {
			t.Fatal(err)
		}
		if _, _, err := cl.Flush(); err != nil {
			t.Fatal(err)
		}

		for i, id := range ids {
			text, _, err := cl.Artifact(id)
			if err != nil {
				t.Fatalf("cfg %+v: %s: %v", cfg, id, err)
			}
			if text != want[i] {
				t.Errorf("cfg %+v: artifact %s differs from the batch study:\n--- live ---\n%s\n--- batch ---\n%s",
					cfg, id, text, want[i])
			}
		}

		// The incremental /v1/stats view must agree with the batch
		// study's Table 1 numbers.
		st, err := cl.Stats()
		if err != nil {
			t.Fatal(err)
		}
		batch := study.Table1().Stats
		if st.Stats.Users != batch.Users ||
			st.Stats.FirstPartySites != batch.FirstPartySites ||
			st.Stats.FirstPartyVisits != batch.FirstPartyVisits ||
			st.Stats.ThirdPartyFQDNs != batch.ThirdPartyFQDNs ||
			st.Stats.ThirdPartyReqs != batch.ThirdPartyReqs {
			t.Errorf("cfg %+v: /v1/stats dataset block %+v, batch Table 1 %+v", cfg, st.Stats, batch)
		}

		srv.Close()
		c.Close()
	}
}
