package ingest

import (
	"errors"
	"path/filepath"
	"testing"

	"crossborder/internal/chaos"
)

// TestChaosTornCheckpointLeavesOldIntact: a checkpoint whose
// temp-then-rename publish is torn (injected rename failure) must
// report the error, leave the previous checkpoint as the newest valid
// one, and leave recovery fully correct — the WAL still covers
// everything the failed checkpoint would have. After healing, the next
// checkpoint succeeds and recovery matches the live state exactly.
func TestChaosTornCheckpointLeavesOldIntact(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	dir := t.TempDir()

	inj := chaos.New(0xBADD15C)
	cfg := durableCfg(dir)
	cfg.FS = chaos.NewFaultFS(inj, "ckpt", chaos.FSFaults{RenameFail: 1}, nil)

	c, _ := recoverNew(t, world, cfg)
	sendAll(t, c, batches[:len(batches)/2])
	if _, err := c.FlushCheckpoint(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("flush under torn rename = %v, want injected failure", err)
	}
	if ckpts, err := listCheckpoints(chaos.OS, dir); err != nil || len(ckpts) != 0 {
		t.Fatalf("torn publish left checkpoints %v (err %v); want none", ckpts, err)
	}

	// The failure is transient, not poisoning: ingest continues and a
	// healed flush publishes a complete checkpoint.
	sendAll(t, c, batches[len(batches)/2:])
	inj.Heal()
	if _, err := c.FlushCheckpoint(); err != nil {
		t.Fatalf("healed flush: %v", err)
	}
	ckpts, err := listCheckpoints(chaos.OS, dir)
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("healed publish left checkpoints %v (err %v); want exactly one", ckpts, err)
	}
	if _, _, _, err := readCheckpoint(chaos.OS, filepath.Join(dir, ckptName(ckpts[0]))); err != nil {
		t.Fatalf("healed checkpoint unreadable: %v", err)
	}

	rec, _ := recoverNew(t, world, durableCfg(dir))
	assertSameLive(t, rec.Snapshot(), c.Snapshot())
}

// TestChaosShortCheckpointWriteIsTransient: tearing the checkpoint
// temp-file write mid-stream fails the flush but leaves only an
// ignorable .tmp stray; recovery replays the WAL and loses nothing.
func TestChaosShortCheckpointWriteIsTransient(t *testing.T) {
	world, evs, _ := rig(t)
	batches := batchList(evs, 137)
	dir := t.TempDir()

	// Build the journal with the real FS, then flip to an FS that tears
	// every write: the WAL is already laid down, so the only writes the
	// flush performs are the rotate header and the checkpoint body.
	c0, _ := recoverNew(t, world, durableCfg(dir))
	sendAll(t, c0, batches)
	want := c0.Snapshot()
	c0.Close()

	inj := chaos.New(7)
	cfg := durableCfg(dir)
	cfg.FS = chaos.NewFaultFS(inj, "ckpt", chaos.FSFaults{ShortWrite: 1}, nil)
	c, _ := recoverNew(t, world, cfg)
	if _, err := c.FlushCheckpoint(); !errors.Is(err, chaos.ErrInjected) {
		t.Fatalf("flush under short writes = %v, want injected failure", err)
	}
	if ckpts, _ := listCheckpoints(chaos.OS, dir); len(ckpts) != 0 {
		t.Fatalf("short write published checkpoints %v; want none", ckpts)
	}

	rec, _ := recoverNew(t, world, durableCfg(dir))
	assertSameLive(t, rec.Snapshot(), want)
}
