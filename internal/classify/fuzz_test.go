package classify

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
)

// FuzzDecodeChunk hardens the chunk-block decoder: any byte string
// must either decode cleanly or return an error — never panic, and
// never allocate beyond what the validated row count justifies (forged
// lengths, dictionary sizes and Huffman tables are all checked before
// memory moves, and tags of the retired delta/LZ4 format are refused).
// Anything that decodes must survive a re-encode/re-decode round trip
// with identical columns.
//
// Run with: go test -fuzz FuzzDecodeChunk ./internal/classify/
func FuzzDecodeChunk(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	cc := GetCodec()
	mk := func(n int) []byte {
		return cc.EncodeBlock(chunkOf(codecRows(rng, n)), nil)
	}
	valid := mk(700)
	// The same chunk in the pre-section legacy frame (flags==0, no zone
	// map): old blocks must keep decoding, and the fuzzer should mutate
	// around both frame shapes.
	cc.noSections = true
	legacy := cc.EncodeBlock(chunkOf(codecRows(rng, 300)), nil)
	legacy = append([]byte(nil), legacy...)
	cc.noSections = false
	seeds := [][]byte{
		valid,
		rawBlock(chunkOf(codecRows(rng, 700))),
		mk(1),
		mk(64),
		cc.EncodeBlock(chunkOf(make([]Row, 128)), nil), // all-constant columns
		legacy,
		{},
		valid[:5],
		valid[:len(valid)/2],
	}
	// Canonical corruptions: flipped payload byte (checksum), forged row
	// count and forged column length (declared-size guards), resealed so
	// validation proceeds past the checksum.
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x10
	seeds = append(seeds, flip)
	forged := append([]byte(nil), valid[:5]...)
	forged = binary.AppendUvarint(forged, 1<<40)
	forged = append(forged, valid[5:]...)
	binary.LittleEndian.PutUint32(forged, crc32.Checksum(forged[4:], castagnoli))
	seeds = append(seeds, forged)
	PutCodec(cc)
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		buf := &Chunk{}
		if err := DecodeBlockInto(data, -1, buf); err != nil {
			return
		}
		n := len(buf.URLHash)
		buf.Class = make([]Class, n)
		for layout, enc := range encodeBoth(buf) {
			re := &Chunk{}
			if err := DecodeBlockInto(enc, n, re); err != nil {
				t.Fatalf("re-decode of re-encoded chunk failed (%s): %v", layout, err)
			}
			re.Class = make([]Class, n)
			for i := 0; i < n; i++ {
				a, b := buf.Row(i), re.Row(i)
				if a != b {
					t.Fatalf("round trip changed row %d (%s): %+v vs %+v", i, layout, a, b)
				}
			}
		}
	})
}
