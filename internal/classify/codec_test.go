package classify

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"

	"crossborder/internal/netsim"
)

// chunkOf scatters rows into a standalone chunk (Class included).
func chunkOf(rows []Row) *Chunk {
	c := &Chunk{}
	c.grow(len(rows))
	for _, r := range rows {
		c.appendRow(r)
	}
	return c
}

// rawBlock frames every column of c in the raw fixed-width layout, the
// scheme the encoder keeps for a column nothing else shrinks. The
// decoder must read raw columns of every width, so the decode tests
// feed it blocks that are raw throughout, not only the columns the
// encoder happens to leave raw.
func rawBlock(c *Chunk) []byte {
	cc := GetCodec()
	defer PutCodec(cc)
	dst := []byte{0, 0, 0, 0, 0} // crc placeholder, flags (no sections)
	dst = binary.AppendUvarint(dst, uint64(c.Len()))
	for col := 0; col < numCols; col++ {
		cc.stage(c, col)
		dst = append(dst, colRaw)
		dst = binary.AppendUvarint(dst, uint64(len(cc.vals)*colWidths[col]))
		dst = appendRawVals(dst, cc.vals, colWidths[col])
	}
	binary.LittleEndian.PutUint32(dst, crc32.Checksum(dst[4:], castagnoli))
	return dst
}

// encodeBoth returns c encoded by the codec and in the all-raw layout.
func encodeBoth(c *Chunk) map[string][]byte {
	cc := GetCodec()
	defer PutCodec(cc)
	return map[string][]byte{"codec": cc.EncodeBlock(c, nil), "raw": rawBlock(c)}
}

// chunksEqual compares the nine wide columns (Class is store-owned and
// excluded: DecodeBlock leaves it untouched).
func chunksEqual(t *testing.T, got, want *Chunk, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		g, w := got.Row(i), want.Row(i)
		g.Class, w.Class = 0, 0
		if g != w {
			t.Fatalf("row %d: decoded %+v != encoded %+v", i, g, w)
		}
	}
}

// codecRows generates adversarially shaped columns: blocks of constant,
// monotone, low-cardinality and fully random stretches, so every
// encoding scheme gets exercised and compared against every other.
func codecRows(rng *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	mode := 0
	for i := range rows {
		if i%97 == 0 {
			mode = rng.Intn(4)
		}
		switch mode {
		case 0: // constant-ish runs
			rows[i] = Row{User: 7, Day: 3, Country: 2, FQDN: 5, Publisher: 1}
		case 1: // monotone
			rows[i] = Row{URLHash: uint64(i) * 3, User: int32(i), Day: uint16(i % 300), FQDN: uint32(i % 11)}
		case 2: // low cardinality
			rows[i] = Row{
				URLHash: uint64(rng.Intn(7)), IP: netsim.IP(rng.Intn(5)),
				FQDN: uint32(rng.Intn(9)), RefFQDN: uint32(rng.Intn(3)),
				Flags: uint8(rng.Intn(4)),
			}
		default: // random
			rows[i] = Row{
				URLHash: rng.Uint64(), IP: netsim.IP(rng.Uint32()),
				FQDN: rng.Uint32(), RefFQDN: rng.Uint32(),
				Publisher: int32(rng.Uint32() >> 1), User: int32(rng.Uint32() >> 1),
				Day: uint16(rng.Uint32()), Country: uint8(rng.Uint32()), Flags: uint8(rng.Uint32()),
			}
		}
	}
	return rows
}

func TestCodecBlockRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(3000)
		rows := codecRows(rng, n)
		c := chunkOf(rows)
		for layout, block := range encodeBoth(c) {
			buf := &Chunk{}
			if err := DecodeBlockInto(block, n, buf); err != nil {
				t.Fatalf("trial %d %s: decode: %v", trial, layout, err)
			}
			buf.Class = make([]Class, n)
			chunksEqual(t, buf, c, n)
		}
	}
}

func TestCodecCompressesGoldenShapedChunks(t *testing.T) {
	// A chunk shaped like the study's merge output (user-ordered visit
	// runs, low-cardinality ids, Zipf-ish hosts) must compress well
	// below half its raw size; the study-level ratio gate lives in the
	// root package's compression test.
	rng := rand.New(rand.NewSource(3))
	rows := make([]Row, 8192)
	for i := range rows {
		visit := i / 30
		rows[i] = Row{
			URLHash:   uint64(rng.Intn(4000)),
			IP:        netsim.IP(zipfInt(rng, 500)),
			FQDN:      uint32(1 + zipfInt(rng, 300)),
			RefFQDN:   uint32(zipfInt(rng, 100)),
			Publisher: int32(visit % 80),
			User:      int32(visit / 200),
			Day:       uint16(visit % 120),
			Country:   uint8(visit / 500),
			Flags:     uint8(rng.Intn(12)),
		}
	}
	c := chunkOf(rows)
	cc := GetCodec()
	defer PutCodec(cc)
	block := cc.EncodeBlock(c, nil)
	raw := len(rows) * spillRowBytes
	if len(block)*2 > raw {
		t.Fatalf("compressed block is %d bytes for %d raw (%.2fx); expected well over 2x",
			len(block), raw, float64(raw)/float64(len(block)))
	}
	buf := &Chunk{}
	if err := DecodeBlockInto(block, len(rows), buf); err != nil {
		t.Fatal(err)
	}
	buf.Class = make([]Class, len(rows))
	chunksEqual(t, buf, c, len(rows))
}

func zipfInt(rng *rand.Rand, n int) int {
	v := int(rng.ExpFloat64() * float64(n) / 6)
	if v >= n {
		v = n - 1
	}
	return v
}

func TestMemStoreCompressedMatchesWide(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := randomRows(rng, 3000, 60)
	wide := NewMemStoreChunked(256)
	comp := NewMemStoreCompressed(256)
	for _, r := range rows {
		wide.Append(r)
		comp.Append(r)
	}
	if comp.Len() != wide.Len() || comp.NumChunks() != wide.NumChunks() {
		t.Fatalf("shape mismatch: compressed %d rows/%d chunks, wide %d/%d",
			comp.Len(), comp.NumChunks(), wide.Len(), wide.NumChunks())
	}
	if comp.SealedBlocks() == 0 {
		t.Fatal("compressed store did not seal any blocks")
	}
	a := (&Dataset{Store: wide}).Rows()
	b := (&Dataset{Store: comp}).Rows()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d: wide %+v != compressed %+v", i, a[i], b[i])
		}
	}
	// The class column must stay resident and shared in compressed
	// mode: a write through Classes is visible through a decoded view.
	comp.Classes(2)[9] = ClassSemiKeyword
	var buf Chunk
	if c := MustChunk(comp, 2, &buf); c.Class[9] != ClassSemiKeyword {
		t.Fatal("class write not visible through decoded compressed chunk")
	}
}

func TestSemiStagesOverCompressedStore(t *testing.T) {
	// The fixpoint mutates Class through decoded chunk views; the
	// labels must match the wide store's run exactly.
	rng := rand.New(rand.NewSource(5))
	numFQDN := 40
	rows := randomRows(rng, 2500, numFQDN)
	in := internerOfSize(numFQDN)

	ref := &Dataset{Store: StoreOf(rows...), FQDNs: in}
	runSemiStagesSequential(ref)
	want := ref.Rows()

	for _, workers := range []int{1, 4} {
		st := NewMemStoreCompressed(512)
		for _, r := range rows {
			st.Append(r)
		}
		ds := &Dataset{Store: st, FQDNs: in}
		runSemiStages(ds, workers)
		got := ds.Rows()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers %d row %d: compressed %+v != wide %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// corruptSpill builds a small compressed spill store and returns it
// with its first block's framing for corruption tests.
func corruptSpillStore(t *testing.T) *SpillStore {
	t.Helper()
	rng := rand.New(rand.NewSource(6))
	rows := randomRows(rng, 1000, 50)
	sink, err := NewSpillSink(t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		sink.Append(r)
	}
	st, err := sink.Seal()
	if err != nil {
		t.Fatal(err)
	}
	sp := st.(*SpillStore)
	t.Cleanup(func() { sp.Close() })
	return sp
}

func TestSpillChunkErrorsOnTruncation(t *testing.T) {
	sp := corruptSpillStore(t)
	if err := sp.f.Truncate(sp.offsets[len(sp.offsets)-1] + 3); err != nil {
		t.Fatal(err)
	}
	last := sp.NumChunks() - 1
	if _, err := sp.Chunk(last, nil); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("Chunk on truncated file = %v, want truncation error", err)
	}
}

func TestSpillChunkErrorsOnBadChecksum(t *testing.T) {
	sp := corruptSpillStore(t)
	// Flip one payload byte mid-block; the frame checksum must catch it.
	if _, err := sp.f.WriteAt([]byte{0xA5}, sp.offsets[1]+int64(sp.dlens[1])/2); err != nil {
		t.Fatal(err)
	}
	_, err := sp.Chunk(1, nil)
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("Chunk on corrupted block = %v, want checksum error", err)
	}
}

func TestSpillChunkErrorsOnForgedSizes(t *testing.T) {
	sp := corruptSpillStore(t)
	// Rewrite block 0 in place with a forged declaration, recomputing
	// the checksum so validation proceeds past it: an over-large row
	// count (and the over-large payload lengths it implies) must be
	// rejected before any allocation happens.
	raw := make([]byte, sp.dlens[0])
	if _, err := sp.f.ReadAt(raw, sp.offsets[0]); err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), raw[:5]...)
	forged = binary.AppendUvarint(forged, 1<<50) // declared rows
	forged = append(forged, raw[5:]...)
	forged = forged[:len(raw)] // keep the on-disk block length
	binary.LittleEndian.PutUint32(forged, crc32.Checksum(forged[4:], castagnoli))
	if _, err := sp.f.WriteAt(forged, sp.offsets[0]); err != nil {
		t.Fatal(err)
	}
	_, err := sp.Chunk(0, nil)
	if err == nil || !strings.Contains(err.Error(), "rows") {
		t.Fatalf("Chunk with forged row count = %v, want declared-size error", err)
	}
}

func TestDecodeBlockRejectsForgedInput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := randomRows(rng, 600, 30)
	c := chunkOf(rows)
	cc := GetCodec()
	defer PutCodec(cc)
	block := cc.EncodeBlock(c, nil)

	reseal := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:], castagnoli))
		return b
	}
	cases := map[string][]byte{
		"empty":          {},
		"short":          block[:5],
		"truncated":      reseal(append([]byte(nil), block[:len(block)/2]...)),
		"flipped byte":   func() []byte { b := append([]byte(nil), block...); b[len(b)/2] ^= 0x40; return b }(),
		"bad flags":      reseal(func() []byte { b := append([]byte(nil), block...); b[4] = 9; return b }()),
		"trailing bytes": reseal(append(append([]byte(nil), block...), 0, 1, 2)),
	}
	for name, b := range cases {
		buf := &Chunk{}
		if err := DecodeBlockInto(b, 600, buf); err == nil {
			t.Errorf("%s: decode succeeded on forged input", name)
		}
	}
	// Row-count mismatch against the store's expectation.
	buf := &Chunk{}
	if err := DecodeBlockInto(block, 601, buf); err == nil {
		t.Error("decode accepted a block with the wrong row count")
	}
}

// TestDecodeRefusesRetiredTags: a block whose column carries a tag of
// the retired frame format (tag 2, zigzag delta; bit 0x80, the LZ4
// wrapper) is refused by the full decode and by the projection decode
// with an error that names the retired format, not misread.
func TestDecodeRefusesRetiredTags(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 500
	c := chunkOf(randomRows(rng, n, 20))
	cc := GetCodec()
	defer PutCodec(cc)
	block := cc.EncodeBlock(c, nil)
	tagAt := 5 + uvarintLen(n) // column 0's tag byte
	for _, tag := range []byte{2, 0x80, 0x80 | colRaw, 0x80 | colDictHuff} {
		b := append([]byte(nil), block...)
		b[tagAt] = tag
		binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:], castagnoli))
		err := DecodeBlockInto(b, n, &Chunk{})
		if err == nil || !strings.Contains(err.Error(), "retired frame format") {
			t.Errorf("tag 0x%02x: DecodeBlock = %v, want the retired-format error", tag, err)
		}
		var v ColView
		err = cc.decodeColumn(nil, tag, n, colWidths[0], &v)
		if err == nil || !strings.Contains(err.Error(), "retired frame format") {
			t.Errorf("tag 0x%02x: projection decode = %v, want the retired-format error", tag, err)
		}
	}
	b := append([]byte(nil), block...)
	b[tagAt] = 7
	binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:], castagnoli))
	if err := DecodeBlockInto(b, n, &Chunk{}); err == nil || !strings.Contains(err.Error(), "unknown column tag") {
		t.Errorf("tag 0x07: DecodeBlock = %v, want the unknown-tag error", err)
	}
}
