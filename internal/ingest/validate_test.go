package ingest

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"crossborder/internal/classify"
	"crossborder/internal/scenario"
)

// resign re-assembles an XCKP1 payload from parsed parts exactly as
// encodeCheckpoint lays it out, with a fresh CRC: the tool for forging
// checkpoints whose mutation the checksum cannot catch.
func resign(t *testing.T, meta *ckptMeta, blocks [][]byte, classes [][]classify.Class) []byte {
	t.Helper()
	head, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	return frameCheckpoint(head, blocks, classes)
}

// frameCheckpoint frames a meta JSON head and its chunks as an XCKP1
// payload with a fresh CRC.
func frameCheckpoint(head []byte, blocks [][]byte, classes [][]classify.Class) []byte {
	body := binary.AppendUvarint(nil, uint64(len(head)))
	body = append(body, head...)
	for ci, block := range blocks {
		body = binary.AppendUvarint(body, uint64(len(block)))
		body = append(body, block...)
		for _, cls := range classes[ci] {
			body = append(body, byte(cls))
		}
	}
	out := append([]byte(nil), ckptMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, ckptCastagnoli))
	return append(out, body...)
}

// loadBoth feeds one payload to both trust boundaries that read it —
// Recover (as the newest checkpoint of a data dir) and MergeExports (as
// a shard export) — and returns their errors. A panic in either is
// reported as a test failure.
func loadBoth(t *testing.T, world *scenario.Scenario, cfg Config, data []byte) (recoverErr, mergeErr error) {
	t.Helper()
	noPanic := func(what string, f func() error) (err error) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s panicked: %v", what, r)
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return f()
	}
	recoverErr = noPanic("Recover", func() error {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ckptName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg.DataDir = dir
		c := NewCollector(world, cfg)
		defer c.Close()
		_, err := c.Recover()
		return err
	})
	mergeErr = noPanic("MergeExports", func() error {
		ex, err := DecodeShardExport(data)
		if err != nil {
			return err
		}
		_, err = MergeExports(world, []*ShardExport{ex}, 2)
		return err
	})
	return recoverErr, mergeErr
}

// TestMutatedExportsRefused: a CRC-valid checkpoint whose contents
// contradict themselves — an empty publishers table under rows that
// name publishers, a class byte outside the classes, a negative flow
// count, a duplicated user — is refused by both Recover and
// MergeExports, with an error and no panic.
func TestMutatedExportsRefused(t *testing.T) {
	world, evs, _ := rig(t)
	mutations := []struct {
		name   string
		mutate func(m *ckptMeta, classes [][]classify.Class)
	}{
		{"empty publishers", func(m *ckptMeta, _ [][]classify.Class) { m.Publishers = nil }},
		{"class 0xff", func(_ *ckptMeta, classes [][]classify.Class) { classes[0][0] = 0xff }},
		{"negative flow", func(m *ckptMeta, _ [][]classify.Class) { m.Truth.Flows[0].N = -1 }},
		{"duplicate user", func(m *ckptMeta, _ [][]classify.Class) { m.Users[1] = m.Users[0] }},
	}
	cfg := durableCfg("")
	c := NewCollector(world, cfg)
	ingestAll(t, c, evs, 197)
	data, _, err := c.EncodeSnapshot()
	c.Close()
	if err != nil {
		t.Fatal(err)
	}
	parse := func() (*ckptMeta, [][]byte, [][]classify.Class) {
		meta, blocks, classes, err := decodeCheckpoint(data)
		if err != nil {
			t.Fatal(err)
		}
		return meta, blocks, classes
	}

	// Control: the unmutated, re-signed payload loads on both sides,
	// so every refusal below is the mutation's doing.
	meta, blocks, classes := parse()
	if rerr, merr := loadBoth(t, world, cfg, resign(t, meta, blocks, classes)); rerr != nil || merr != nil {
		t.Fatalf("unmutated export refused: Recover %v, MergeExports %v", rerr, merr)
	}
	if len(meta.Truth.Flows) == 0 || len(meta.Users) < 2 {
		t.Fatalf("export too small to mutate (%d flows, %d users)", len(meta.Truth.Flows), len(meta.Users))
	}

	for _, m := range mutations {
		meta, blocks, classes := parse()
		m.mutate(meta, classes)
		rerr, merr := loadBoth(t, world, cfg, resign(t, meta, blocks, classes))
		if rerr == nil {
			t.Errorf("%s: Recover accepted the mutated checkpoint", m.name)
		}
		if merr == nil {
			t.Errorf("%s: MergeExports accepted the mutated export", m.name)
		}
	}
}
