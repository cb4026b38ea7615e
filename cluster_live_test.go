package crossborder_test

import (
	"context"
	"net/http/httptest"
	"testing"

	"crossborder"
	"crossborder/internal/cluster"
	"crossborder/internal/ingest"
	"crossborder/internal/scenario"
)

// TestClusterReplayGoldenParity is the end-to-end contract of the
// multi-collector cluster: eight collectd instances each own a
// consistent-hash partition of the users, a registry tracks them via
// heartbeats, the replay routes every upload through the ring-aware
// client, and the fan-in tier merges the per-shard /v1/snapshot
// exports — yet every artifact served from the merged view is
// byte-identical to the batch crossborder.New study over the union of
// the same events (and hence to a single-collector run, which
// TestLiveReplayGoldenParity pins to the same bytes).
func TestClusterReplayGoldenParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full golden cluster replay is not short")
	}
	const (
		seed   = 1
		scale  = 0.05
		visits = 40
		nShard = 8
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

	// Eight in-process collectors with deliberately varied configs —
	// epoch cadence, chunk size, worker count all differ
	// per shard, and none of it may leak into the merged artifacts.
	nodes := make([]string, nShard)
	shards := make(map[string]*ingest.Collector, nShard)
	addrs := make(map[string]string, nShard)
	reg := cluster.NewRegistry(0, 0)
	for i := 0; i < nShard; i++ {
		node := string(rune('a'+i)) + "-shard"
		nodes[i] = node
		cfg := ingest.Config{EpochEvents: 977 + 331*i, Workers: 1 + i%3, ChunkRows: 256 << (i % 3)}
		c := ingest.NewCollector(world, cfg)
		defer c.Close()
		srv := httptest.NewServer(ingest.NewServer(c))
		defer srv.Close()
		shards[node] = c
		addrs[node] = srv.URL
		reg.Observe(cluster.Heartbeat{Node: node, Addr: srv.URL})
	}
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Replay the captured streams across the cluster: users hash to
	// shards, one uploader per shard.
	cl, err := cluster.NewClient(ring, addrs)
	if err != nil {
		t.Fatal(err)
	}
	cl.Binary = true
	stats, err := cl.Replay(events, 768)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, evs := range events {
		total += len(evs)
	}
	if stats.Events != total {
		t.Fatalf("replay uploaded %d of %d events", stats.Events, total)
	}
	if err := cl.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Every shard must own at least one user, or the "partitioned"
	// claim is vacuous at this scale.
	for _, node := range nodes {
		if shards[node].Snapshot().Rows() == 0 {
			t.Fatalf("shard %s received no rows; partitioning is degenerate", node)
		}
	}

	// Fan-in: pull + merge all eight exports, then serve the merged
	// snapshot through the same query API a single collector mounts.
	fanin := &cluster.Fanin{World: world, Registry: reg, Shards: nodes, Workers: 2}
	if published, err := fanin.RefreshOnce(); err != nil || !published {
		t.Fatalf("fan-in refresh: published=%v err=%v", published, err)
	}
	if err := fanin.Ready(); err != nil {
		t.Fatal(err)
	}
	qsrv := httptest.NewServer(ingest.NewQueryServer(fanin.Snapshot, fanin.Ready))
	defer qsrv.Close()
	qcl := &ingest.Client{Base: qsrv.URL}

	for i, id := range ids {
		text, _, err := qcl.Artifact(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if text != want[i] {
			t.Errorf("artifact %s differs from the batch study:\n--- cluster ---\n%s\n--- batch ---\n%s",
				id, text, want[i])
		}
	}

	// The merged /v1/stats dataset block equals the batch Table 1.
	st, err := qcl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	batch := study.Table1().Stats
	if st.Stats.Users != batch.Users ||
		st.Stats.FirstPartySites != batch.FirstPartySites ||
		st.Stats.FirstPartyVisits != batch.FirstPartyVisits ||
		st.Stats.ThirdPartyFQDNs != batch.ThirdPartyFQDNs ||
		st.Stats.ThirdPartyReqs != batch.ThirdPartyReqs {
		t.Errorf("merged /v1/stats dataset block %+v, batch Table 1 %+v", st.Stats, batch)
	}
}
