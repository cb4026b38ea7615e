package classify

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sort"
	"sync"

	"crossborder/internal/netsim"
)

// This file implements the per-chunk column codec behind the
// compressed spill store and the compressed-resident MemStore mode.
// One encoded block holds the nine spilled columns of one chunk
// (Class stays resident — the semi-stage fixpoint mutates it after
// sealing), each column independently encoded with whichever scheme
// is smallest for its actual contents:
//
//   - raw        fixed-width little-endian (the PR 3 layout)
//   - rle        (run length, value) pairs — the Publisher/User/Day/
//                Country columns are long runs because the merge emits
//                rows in user then visit order
//   - dict       sorted distinct values (delta-uvarint) + bit-packed
//                indices — the interned-id and IP columns have a few
//                hundred distinct values per 16Ki-row chunk
//   - dict+huff  same dictionary with canonical-Huffman-coded indices
//                — the id distributions are Zipf-skewed, so entropy
//                coding beats fixed-width packing
//
// Tag 2 and the tag bit 0x80 belonged to the retired frame format's
// zigzag-delta scheme and LZ4 wrapper. The decoder refuses them with an
// error naming that format, so a checkpoint or spill block that used
// them fails to load instead of being misread.
//
// Block frame (what SpillSink writes per chunk and the compressed
// MemStore keeps resident):
//
//	[4B crc32c over the rest] [1B format flags] [uvarint row count]
//	9 × ( [1B tag] [uvarint payload length] [payload] )
//	optional sections (format flag 0x01):
//	N × ( [1B section tag] [uvarint payload length] [payload] )
//
// Sections are version-tolerant: a reader skips section tags it does
// not know (tag 0 is reserved invalid, so trailing garbage cannot
// masquerade as a section), so frames can grow new metadata without
// breaking old readers, and flags==0 blocks from before sections
// existed decode exactly as they always did. The only section today is the zone map
// (per-column min/max + distinct count + seal-time class bitmap) the
// projection scan path uses to skip chunks without decoding them.
//
// The decoder is hardened: the checksum is verified first, every
// declared length is validated against caps derived from the
// caller-supplied row count before any allocation, dictionary indices
// are range-checked, and Huffman code-length tables must form an
// exactly complete code. Forged input errors out; it cannot panic or
// over-allocate (FuzzDecodeChunk).

// Column encoding schemes: the column tag byte (see tagError for the
// retired ones).
const (
	colRaw      = 0
	colRLE      = 1
	colDict     = 3
	colDictHuff = 4
)

// numSchemes bounds the scheme tags (colRaw..colDictHuff), the index
// space of EncBreakdown.
const numSchemes = colDictHuff + 1

// tagError explains why a column tag is refused: tag 2 (zigzag delta)
// and the 0x80 bit (LZ4 wrapper) are columns of the retired frame
// format, anything else is corruption.
func tagError(tag byte) error {
	if tag == 2 || tag&0x80 != 0 {
		return fmt.Errorf("%w: column tag 0x%02x is a delta or LZ4 column of the retired frame format, which this codec no longer reads; re-encode the data", errCorrupt, tag)
	}
	return fmt.Errorf("%w: unknown column tag 0x%02x", errCorrupt, tag)
}

// Format-flag bits of the frame's fifth byte.
const (
	// frameHasSections marks that tagged sections follow the nine
	// columns. Readers skip sections whose tag they do not know.
	frameHasSections = 0x01
)

// Section tags.
const (
	secZoneMap = 1
)

// numCols is the number of spilled columns; colWidths their natural
// byte widths, in encode order (URLHash, IP, FQDN, RefFQDN, Publisher,
// User, Day, Country, Flags).
const numCols = 9

var colWidths = [numCols]int{8, 4, 4, 4, 4, 4, 2, 1, 1}

// maxFuzzRows caps the declared row count when the caller does not
// know it (DecodeBlock with wantRows < 0, i.e. the fuzzer); stores
// always pass their exact per-chunk row count.
const maxFuzzRows = 1 << 16

// Huffman limits: alphabets larger than huffMaxAlphabet fall back to
// bit-packing (the code-length table would cost more than it saves),
// and code lengths are capped so the decoder's accumulator math stays
// trivially safe.
const (
	huffMaxAlphabet = 1 << 14
	huffMaxLen      = 27
	huffTableBits   = 11
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var errCorrupt = errors.New("classify: corrupt chunk block")

// ZoneMap is the per-chunk pruning metadata computed while a chunk is
// encoded and persisted as a frame section: per-column min/max and
// distinct count, plus the bitmap of Class values present at seal time.
// Min/max over the immutable spilled columns are always authoritative;
// ClassBits is only a seal-time observation — the semi-stage fixpoint
// mutates the resident class column after sealing (Clean rows can
// become Semi*), so skip decisions about classes must consult the
// resident Store.Classes slice, not this bitmap.
type ZoneMap struct {
	Min       [numCols]uint64
	Max       [numCols]uint64
	Distinct  [numCols]uint32 // 0 = not computed (empty chunk)
	ClassBits uint8
}

// appendZoneSection emits the zone map as a tagged frame section.
func appendZoneSection(dst []byte, zm *ZoneMap) []byte {
	dst = append(dst, secZoneMap)
	// Payload staged separately so the section length prefix is exact.
	var pay [16 + numCols*(10+10+5)]byte
	p := pay[:0]
	for col := 0; col < numCols; col++ {
		p = binary.AppendUvarint(p, zm.Min[col])
		p = binary.AppendUvarint(p, zm.Max[col]-zm.Min[col])
		p = binary.AppendUvarint(p, uint64(zm.Distinct[col]))
	}
	p = append(p, zm.ClassBits)
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	return append(dst, p...)
}

// parseZoneSection decodes a zone-map section payload. Malformed
// payloads (truncated streams, max < min overflow, out-of-width values)
// return an error so a forged section cannot plant a zone map that
// would prune live chunks.
func parseZoneSection(payload []byte, rows int, zm *ZoneMap) error {
	for col := 0; col < numCols; col++ {
		var maxVal uint64 = 1<<(8*uint(colWidths[col])) - 1
		if colWidths[col] == 8 {
			maxVal = ^uint64(0)
		}
		mn, k := binary.Uvarint(payload)
		if k <= 0 {
			return fmt.Errorf("%w: truncated zone map", errCorrupt)
		}
		payload = payload[k:]
		span, k := binary.Uvarint(payload)
		if k <= 0 {
			return fmt.Errorf("%w: truncated zone map", errCorrupt)
		}
		payload = payload[k:]
		mx := mn + span
		if mx < mn || mn > maxVal || mx > maxVal {
			return fmt.Errorf("%w: zone range overflows column %d", errCorrupt, col)
		}
		d64, k := binary.Uvarint(payload)
		if k <= 0 || d64 > uint64(rows) {
			return fmt.Errorf("%w: bad zone distinct count", errCorrupt)
		}
		payload = payload[k:]
		zm.Min[col], zm.Max[col], zm.Distinct[col] = mn, mx, uint32(d64)
	}
	if len(payload) != 1 {
		return fmt.Errorf("%w: bad zone-map payload size", errCorrupt)
	}
	zm.ClassBits = payload[0]
	return nil
}

// BlockZoneMap extracts the zone-map section from a framed block
// without decoding any column payload: it verifies the checksum, walks
// the nine column headers, and parses the section if present. It
// returns nil for legacy flags==0 blocks (checkpoints written before
// zone maps existed) and an error only for corrupt frames.
func BlockZoneMap(block []byte) (*ZoneMap, error) {
	_, _, _, zm, _, err := inspectBlock(block)
	return zm, err
}

// inspectBlock walks a framed block's headers without decoding column
// payloads, returning the row count, per-column tags and framed sizes
// (tag byte + length prefix + payload), the parsed zone map (nil if the
// frame has none), and the byte size of the zone-map section.
func inspectBlock(block []byte) (rows int, tags [numCols]byte, sizes [numCols]int, zm *ZoneMap, zoneBytes int, err error) {
	if len(block) < 6 {
		return 0, tags, sizes, nil, 0, fmt.Errorf("%w: %d-byte block", errCorrupt, len(block))
	}
	if got, want := crc32.Checksum(block[4:], castagnoli), binary.LittleEndian.Uint32(block); got != want {
		return 0, tags, sizes, nil, 0, fmt.Errorf("%w: checksum mismatch (%08x != %08x)", errCorrupt, got, want)
	}
	flags := block[4]
	if flags&^byte(frameHasSections) != 0 {
		return 0, tags, sizes, nil, 0, fmt.Errorf("%w: unknown format flags 0x%02x", errCorrupt, flags)
	}
	rest := block[5:]
	rows64, k := binary.Uvarint(rest)
	if k <= 0 || rows64 > maxFuzzRows {
		return 0, tags, sizes, nil, 0, fmt.Errorf("%w: bad row count", errCorrupt)
	}
	rest = rest[k:]
	rows = int(rows64)
	for col := 0; col < numCols; col++ {
		if len(rest) < 1 {
			return 0, tags, sizes, nil, 0, fmt.Errorf("%w: truncated at column %d", errCorrupt, col)
		}
		tags[col] = rest[0]
		plen64, k := binary.Uvarint(rest[1:])
		if k <= 0 || plen64 > uint64(len(rest)-1-k) {
			return 0, tags, sizes, nil, 0, fmt.Errorf("%w: bad payload length for column %d", errCorrupt, col)
		}
		sizes[col] = 1 + k + int(plen64)
		rest = rest[sizes[col]:]
	}
	if flags&frameHasSections == 0 {
		if len(rest) != 0 {
			return 0, tags, sizes, nil, 0, fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(rest))
		}
		return rows, tags, sizes, nil, 0, nil
	}
	for len(rest) > 0 {
		tag := rest[0]
		if tag == 0 {
			return 0, tags, sizes, nil, 0, fmt.Errorf("%w: reserved section tag", errCorrupt)
		}
		plen64, k := binary.Uvarint(rest[1:])
		if k <= 0 || plen64 > uint64(len(rest)-1-k) {
			return 0, tags, sizes, nil, 0, fmt.Errorf("%w: bad section length", errCorrupt)
		}
		payload := rest[1+k : 1+k+int(plen64)]
		rest = rest[1+k+int(plen64):]
		if tag != secZoneMap {
			continue // unknown section: skip (forward compatibility)
		}
		z := new(ZoneMap)
		if err := parseZoneSection(payload, rows, z); err != nil {
			return 0, tags, sizes, nil, 0, err
		}
		zm, zoneBytes = z, 1+k+int(plen64)
	}
	return rows, tags, sizes, zm, zoneBytes, nil
}

// ChunkCodec holds the reusable scratch of the chunk codec: staging
// buffers and dictionary and Huffman tables. It is not safe for
// concurrent use; each worker borrows one (they are sync.Pool-backed
// via GetCodec/PutCodec, and a Chunk decode buffer lazily attaches one
// so per-worker scan loops reuse a single codec across all their chunk
// loads).
type ChunkCodec struct {
	vals   []uint64 // staged column values
	dict   []uint64 // sorted distinct values
	idx    []uint32 // per-row dictionary indices
	freq   []uint32 // per-dictionary-index frequencies
	lens   []uint8  // Huffman code length per symbol
	codes  []uint32 // Huffman code per symbol
	winner []byte   // winning candidate payload staging
	view   ColView  // column decode target of DecodeBlock

	// Huffman build scratch.
	hOrd  []int32
	hPar  []int32
	hFreq []uint64

	// Canonical Huffman decode state.
	dTable  []uint32 // primary lookup: sym<<8 | len (len 0 = long code)
	dCount  [huffMaxLen + 1]uint32
	dFirst  [huffMaxLen + 1]uint32
	dOffset [huffMaxLen + 1]uint32
	dRank   []uint32 // symbols ordered by (length, symbol)

	// Statistics of the most recent EncodeBlock call: the zone map and
	// the winning tag + framed size per column plus the zone-map
	// section size. Stores fold them into their Footprint breakdown and
	// retain the zone map resident for the projection scan path.
	encZone      ZoneMap
	encTags      [numCols]byte
	encSizes     [numCols]int
	encZoneBytes int

	// noSections forces the legacy flags==0 frame without the zone-map
	// section; tests use it to prove old blocks still decode.
	noSections bool
}

// EncodedZone returns a copy of the zone map computed by the most
// recent EncodeBlock call.
func (cc *ChunkCodec) EncodedZone() ZoneMap { return cc.encZone }

// EncodedColStats returns the winning tag and framed byte size of each
// column plus the zone-map section size from the most recent
// EncodeBlock call.
func (cc *ChunkCodec) EncodedColStats() (tags [numCols]byte, sizes [numCols]int, zoneBytes int) {
	return cc.encTags, cc.encSizes, cc.encZoneBytes
}

var codecPool = sync.Pool{New: func() any { return new(ChunkCodec) }}

// GetCodec borrows a codec from the pool.
func GetCodec() *ChunkCodec { return codecPool.Get().(*ChunkCodec) }

// PutCodec returns a codec to the pool.
func PutCodec(cc *ChunkCodec) { codecPool.Put(cc) }

// codec returns the chunk buffer's attached codec, borrowing one on
// first use. Scan loops that reuse one Chunk buffer per worker thereby
// reuse one codec across every chunk they load.
func (c *Chunk) codec() *ChunkCodec {
	if c.cc == nil {
		c.cc = GetCodec()
	}
	return c.cc
}

// DecodeBlockInto decodes a framed codec block into buf through buf's
// attached codec scratch. It is the entry point for stores outside
// this package that hold codec blocks (the live collector's epoch
// snapshots share the compressed MemStore's sealed blocks).
func DecodeBlockInto(block []byte, rows int, buf *Chunk) error {
	return buf.codec().DecodeBlock(block, rows, buf)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// stage gathers column col of c into cc.vals.
func (cc *ChunkCodec) stage(c *Chunk, col int) {
	n := c.Len()
	if cap(cc.vals) < n {
		cc.vals = make([]uint64, n)
	}
	vals := cc.vals[:n]
	switch col {
	case 0:
		copy(vals, c.URLHash)
	case 1:
		for i, v := range c.IP {
			vals[i] = uint64(uint32(v))
		}
	case 2:
		for i, v := range c.FQDN {
			vals[i] = uint64(v)
		}
	case 3:
		for i, v := range c.RefFQDN {
			vals[i] = uint64(v)
		}
	case 4:
		for i, v := range c.Publisher {
			vals[i] = uint64(uint32(v))
		}
	case 5:
		for i, v := range c.User {
			vals[i] = uint64(uint32(v))
		}
	case 6:
		for i, v := range c.Day {
			vals[i] = uint64(v)
		}
	case 7:
		for i, v := range c.Country {
			vals[i] = uint64(v)
		}
	case 8:
		for i, v := range c.Flags {
			vals[i] = uint64(v)
		}
	}
	cc.vals = vals
}

// scatter writes decoded values back into column col of buf, whose
// columns reset already sized to n.
func scatter(buf *Chunk, col int, vals []uint64) {
	switch col {
	case 0:
		copy(buf.URLHash, vals)
	case 1:
		for i, v := range vals {
			buf.IP[i] = netsim.IP(uint32(v))
		}
	case 2:
		for i, v := range vals {
			buf.FQDN[i] = uint32(v)
		}
	case 3:
		for i, v := range vals {
			buf.RefFQDN[i] = uint32(v)
		}
	case 4:
		for i, v := range vals {
			buf.Publisher[i] = int32(uint32(v))
		}
	case 5:
		for i, v := range vals {
			buf.User[i] = int32(uint32(v))
		}
	case 6:
		for i, v := range vals {
			buf.Day[i] = uint16(v)
		}
	case 7:
		for i, v := range vals {
			buf.Country[i] = uint8(v)
		}
	case 8:
		for i, v := range vals {
			buf.Flags[i] = uint8(v)
		}
	}
}

// appendRawVals emits the staged values fixed-width little-endian.
func appendRawVals(dst []byte, vals []uint64, width int) []byte {
	switch width {
	case 8:
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint64(dst, v)
		}
	case 4:
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
		}
	case 2:
		for _, v := range vals {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(v))
		}
	default:
		for _, v := range vals {
			dst = append(dst, byte(v))
		}
	}
	return dst
}

// EncodeBlock appends the framed, encoded form of the chunk's nine
// spilled columns to dst and returns the extended slice. Each column
// gets the smallest applicable encoding, raw included.
func (cc *ChunkCodec) EncodeBlock(c *Chunk, dst []byte) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	flags := byte(frameHasSections)
	if cc.noSections {
		flags = 0
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(c.Len()))
	cc.encZone = ZoneMap{}
	for col := 0; col < numCols; col++ {
		cc.stage(c, col)
		for i, v := range cc.vals {
			if i == 0 || v < cc.encZone.Min[col] {
				cc.encZone.Min[col] = v
			}
			if i == 0 || v > cc.encZone.Max[col] {
				cc.encZone.Max[col] = v
			}
		}
		before := len(dst)
		dst = cc.encodeColumn(dst, col)
		cc.encTags[col] = dst[before]
		cc.encSizes[col] = len(dst) - before
	}
	for _, cl := range c.Class {
		cc.encZone.ClassBits |= 1 << cl
	}
	cc.encZoneBytes = 0
	if flags&frameHasSections != 0 {
		before := len(dst)
		dst = appendZoneSection(dst, &cc.encZone)
		cc.encZoneBytes = len(dst) - before
	}
	binary.LittleEndian.PutUint32(dst[start:], crc32.Checksum(dst[start+4:], castagnoli))
	return dst
}

// encodeColumn appends [tag][uvarint len][payload] for the staged
// column, choosing the smallest candidate encoding.
func (cc *ChunkCodec) encodeColumn(dst []byte, col int) []byte {
	width := colWidths[col]
	vals := cc.vals
	n := len(vals)
	rawSize := n * width
	if n == 0 {
		dst = append(dst, colRaw)
		dst = binary.AppendUvarint(dst, uint64(rawSize))
		return appendRawVals(dst, vals, width)
	}

	// Candidate sizes, computed exactly without materializing.
	rleSize := 0
	for i := 0; i < n; {
		j := i + 1
		for j < n && vals[j] == vals[i] {
			j++
		}
		rleSize += uvarintLen(uint64(j-i)) + uvarintLen(vals[i])
		i = j
	}

	// Dictionary: sorted distinct values, stored as uvarint deltas.
	cc.dict = append(cc.dict[:0], vals...)
	slices.Sort(cc.dict)
	d := 0
	for i, v := range cc.dict {
		if i == 0 || v != cc.dict[d-1] {
			cc.dict[d] = v
			d++
		}
	}
	cc.dict = cc.dict[:d]
	cc.encZone.Distinct[col] = uint32(d)
	dictSize := uvarintLen(uint64(d)) + uvarintLen(cc.dict[0])
	for i := 1; i < d; i++ {
		dictSize += uvarintLen(cc.dict[i] - cc.dict[i-1])
	}
	packBits := bitsFor(d)
	packSize := dictSize + (n*packBits+7)/8

	// Per-row indices and frequencies (needed by both dict schemes).
	if cap(cc.idx) < n {
		cc.idx = make([]uint32, n)
	}
	cc.idx = cc.idx[:n]
	if cap(cc.freq) < d {
		cc.freq = make([]uint32, d)
	}
	cc.freq = cc.freq[:d]
	for i := range cc.freq {
		cc.freq[i] = 0
	}
	for i, v := range vals {
		k, _ := slices.BinarySearch(cc.dict, v)
		cc.idx[i] = uint32(k)
		cc.freq[k]++
	}

	huffSize := -1
	if d >= 2 && d <= huffMaxAlphabet {
		cc.buildHuffLens()
		bits := 0
		for s, f := range cc.freq {
			bits += int(f) * int(cc.lens[s])
		}
		huffSize = dictSize + d + (bits+7)/8
	}

	// Pick the smallest scheme and materialize it.
	tag, best := byte(colRaw), rawSize
	if rleSize < best {
		tag, best = colRLE, rleSize
	}
	if packSize < best {
		tag, best = colDict, packSize
	}
	if huffSize >= 0 && huffSize < best {
		tag, best = colDictHuff, huffSize
	}
	cc.winner = cc.winner[:0]
	switch tag {
	case colRaw:
		cc.winner = appendRawVals(cc.winner, vals, width)
	case colRLE:
		for i := 0; i < n; {
			j := i + 1
			for j < n && vals[j] == vals[i] {
				j++
			}
			cc.winner = binary.AppendUvarint(cc.winner, uint64(j-i))
			cc.winner = binary.AppendUvarint(cc.winner, vals[i])
			i = j
		}
	case colDict:
		cc.winner = cc.appendDict(cc.winner)
		var acc uint64
		var nb uint
		for _, k := range cc.idx {
			acc |= uint64(k) << nb
			nb += uint(packBits)
			for nb >= 8 {
				cc.winner = append(cc.winner, byte(acc))
				acc >>= 8
				nb -= 8
			}
		}
		if nb > 0 {
			cc.winner = append(cc.winner, byte(acc))
		}
	case colDictHuff:
		cc.winner = cc.appendDict(cc.winner)
		cc.winner = append(cc.winner, cc.lens...)
		cc.buildCanonicalCodes()
		var acc uint64
		var nb uint
		for _, k := range cc.idx {
			l := uint(cc.lens[k])
			acc = acc<<l | uint64(cc.codes[k])
			nb += l
			for nb >= 8 {
				cc.winner = append(cc.winner, byte(acc>>(nb-8)))
				nb -= 8
			}
		}
		if nb > 0 {
			cc.winner = append(cc.winner, byte(acc<<(8-nb)))
		}
	}

	dst = append(dst, tag)
	dst = binary.AppendUvarint(dst, uint64(len(cc.winner)))
	return append(dst, cc.winner...)
}

// appendDict emits [uvarint ndict][sorted values as uvarint deltas].
func (cc *ChunkCodec) appendDict(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cc.dict)))
	dst = binary.AppendUvarint(dst, cc.dict[0])
	for i := 1; i < len(cc.dict); i++ {
		dst = binary.AppendUvarint(dst, cc.dict[i]-cc.dict[i-1])
	}
	return dst
}

// bitsFor returns the index width for an n-entry dictionary (0 for a
// constant column).
func bitsFor(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// DecodeBlock decodes a framed block into buf's nine wide columns
// (Class is left untouched; the store patches in its resident class
// slice). wantRows >= 0 requires the block to declare exactly that row
// count; wantRows < 0 accepts up to maxFuzzRows. All declared lengths
// are validated against row-count-derived caps before anything is
// allocated, so corrupt or forged blocks return an error instead of
// panicking or ballooning memory.
func (cc *ChunkCodec) DecodeBlock(block []byte, wantRows int, buf *Chunk) error {
	if len(block) < 6 {
		return fmt.Errorf("%w: %d-byte block", errCorrupt, len(block))
	}
	if got, want := crc32.Checksum(block[4:], castagnoli), binary.LittleEndian.Uint32(block); got != want {
		return fmt.Errorf("%w: checksum mismatch (%08x != %08x)", errCorrupt, got, want)
	}
	flags := block[4]
	if flags&^byte(frameHasSections) != 0 {
		return fmt.Errorf("%w: unknown format flags 0x%02x", errCorrupt, flags)
	}
	rest := block[5:]
	rows64, k := binary.Uvarint(rest)
	if k <= 0 {
		return fmt.Errorf("%w: bad row count", errCorrupt)
	}
	rest = rest[k:]
	n := int(rows64)
	if wantRows >= 0 {
		if n != wantRows {
			return fmt.Errorf("%w: block declares %d rows, store expects %d", errCorrupt, n, wantRows)
		}
	} else if rows64 > maxFuzzRows || n == 0 {
		return fmt.Errorf("%w: implausible row count %d", errCorrupt, rows64)
	}
	buf.reset(n)
	v := &cc.view
	for col := 0; col < numCols; col++ {
		if len(rest) < 1 {
			return fmt.Errorf("%w: truncated at column %d", errCorrupt, col)
		}
		tag := rest[0]
		plen64, k := binary.Uvarint(rest[1:])
		if k <= 0 || plen64 > uint64(len(rest)-1-k) {
			return fmt.Errorf("%w: bad payload length for column %d", errCorrupt, col)
		}
		payload := rest[1+k : 1+k+int(plen64)]
		rest = rest[1+k+int(plen64):]
		if err := cc.decodeColumn(payload, tag, n, colWidths[col], v); err != nil {
			return fmt.Errorf("column %d: %w", col, err)
		}
		scatter(buf, col, v.expand(n))
	}
	if flags&frameHasSections != 0 {
		// Tagged sections follow; validate framing but skip the
		// contents (the wide decode needs none of them, and unknown
		// tags are forward compatibility by design). Tag 0 is reserved
		// invalid so trailing garbage cannot masquerade as a section.
		for len(rest) > 0 {
			if rest[0] == 0 {
				return fmt.Errorf("%w: reserved section tag", errCorrupt)
			}
			plen64, k := binary.Uvarint(rest[1:])
			if k <= 0 || plen64 > uint64(len(rest)-1-k) {
				return fmt.Errorf("%w: bad section length", errCorrupt)
			}
			rest = rest[1+k+int(plen64):]
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", errCorrupt, len(rest))
	}
	return nil
}

// readDict parses [uvarint ndict][delta-uvarint sorted values] into
// cc.dict, validating the count against the row count and every value
// against the column width before allocating.
func (cc *ChunkCodec) readDict(payload []byte, n int, maxVal uint64) ([]byte, error) {
	d64, k := binary.Uvarint(payload)
	if k <= 0 || d64 == 0 || d64 > uint64(n) || d64 > uint64(len(payload)) {
		return nil, fmt.Errorf("%w: bad dictionary size", errCorrupt)
	}
	payload = payload[k:]
	d := int(d64)
	if cap(cc.dict) < d {
		cc.dict = make([]uint64, d)
	}
	cc.dict = cc.dict[:d]
	var prev uint64
	for i := 0; i < d; i++ {
		v, k := binary.Uvarint(payload)
		if k <= 0 {
			return nil, fmt.Errorf("%w: truncated dictionary", errCorrupt)
		}
		payload = payload[k:]
		if i > 0 {
			nv := prev + v
			if nv < prev {
				return nil, fmt.Errorf("%w: dictionary overflow", errCorrupt)
			}
			v = nv
		}
		if v > maxVal {
			return nil, fmt.Errorf("%w: dictionary value overflows column width", errCorrupt)
		}
		cc.dict[i] = v
		prev = v
	}
	return payload, nil
}

// buildHuffLens computes Huffman code lengths for cc.freq into
// cc.lens, capped at huffMaxLen, and returns the maximum length. The
// construction is deterministic: leaves sort by (frequency, symbol)
// and ties between the leaf and internal queues prefer the leaf.
func (cc *ChunkCodec) buildHuffLens() int {
	d := len(cc.freq)
	if cap(cc.lens) < d {
		cc.lens = make([]uint8, d)
	}
	cc.lens = cc.lens[:d]
	if cap(cc.hOrd) < d {
		cc.hOrd = make([]int32, d)
		cc.hPar = make([]int32, 2*d)
		cc.hFreq = make([]uint64, 2*d)
	}
	ord := cc.hOrd[:d]
	freqs := append([]uint32(nil), cc.freq...)
	for {
		for i := range ord {
			ord[i] = int32(i)
		}
		sort.Slice(ord, func(a, b int) bool {
			fa, fb := freqs[ord[a]], freqs[ord[b]]
			if fa != fb {
				return fa < fb
			}
			return ord[a] < ord[b]
		})
		nf := cc.hFreq[:2*d]
		par := cc.hPar[:2*d]
		for i, f := range freqs {
			nf[i] = uint64(f)
		}
		li, ni, produced := 0, d, d
		pick := func() int {
			if li < d && (ni >= produced || nf[ord[li]] <= nf[ni]) {
				li++
				return int(ord[li-1])
			}
			ni++
			return ni - 1
		}
		for produced < 2*d-1 {
			a, b := pick(), pick()
			nf[produced] = nf[a] + nf[b]
			par[a], par[b] = int32(produced), int32(produced)
			produced++
		}
		root := 2*d - 2
		depth := nf // reuse as depth storage
		depth[root] = 0
		maxLen := 0
		for node := root - 1; node >= 0; node-- {
			depth[node] = depth[par[node]] + 1
			if node < d {
				l := int(depth[node])
				cc.lens[node] = uint8(l)
				if l > maxLen {
					maxLen = l
				}
			}
		}
		if maxLen <= huffMaxLen {
			return maxLen
		}
		// Flatten the distribution and retry; converges in a few
		// rounds and only triggers on pathological skew.
		for i := range freqs {
			freqs[i] = freqs[i]/2 + 1
		}
	}
}

// buildCanonicalCodes assigns canonical codes from cc.lens into
// cc.codes (zlib convention: within a length, codes follow symbol
// order).
func (cc *ChunkCodec) buildCanonicalCodes() {
	d := len(cc.lens)
	if cap(cc.codes) < d {
		cc.codes = make([]uint32, d)
	}
	cc.codes = cc.codes[:d]
	var blCount [huffMaxLen + 1]uint32
	for _, l := range cc.lens {
		blCount[l]++
	}
	var nextCode [huffMaxLen + 1]uint32
	code := uint32(0)
	for bits := 1; bits <= huffMaxLen; bits++ {
		code = (code + blCount[bits-1]) << 1
		nextCode[bits] = code
	}
	for s, l := range cc.lens {
		if l > 0 {
			cc.codes[s] = nextCode[l]
			nextCode[l]++
		}
	}
}

// buildDecodeTables validates cc.lens as an exactly complete canonical
// code and builds the primary lookup table plus the per-length
// canonical arrays for long codes.
func (cc *ChunkCodec) buildDecodeTables() error {
	d := len(cc.lens)
	for i := range cc.dCount {
		cc.dCount[i] = 0
	}
	for _, l := range cc.lens {
		if l == 0 || l > huffMaxLen {
			return fmt.Errorf("%w: invalid code length %d", errCorrupt, l)
		}
		cc.dCount[l]++
	}
	// Kraft equality: the code must be exactly complete, or decode
	// would hit unreachable or ambiguous bit patterns.
	var kraft uint64
	for l := 1; l <= huffMaxLen; l++ {
		kraft += uint64(cc.dCount[l]) << (huffMaxLen - l)
	}
	if kraft != 1<<huffMaxLen {
		return fmt.Errorf("%w: incomplete huffman code", errCorrupt)
	}
	code := uint32(0)
	var rankBase uint32
	for l := 1; l <= huffMaxLen; l++ {
		code = (code + cc.dCount[l-1]) << 1
		cc.dFirst[l] = code
		cc.dOffset[l] = rankBase
		rankBase += cc.dCount[l]
	}
	if cap(cc.dRank) < d {
		cc.dRank = make([]uint32, d)
	}
	cc.dRank = cc.dRank[:d]
	var next [huffMaxLen + 1]uint32
	for l := 1; l <= huffMaxLen; l++ {
		next[l] = cc.dOffset[l]
	}
	for s, l := range cc.lens {
		cc.dRank[next[l]] = uint32(s)
		next[l]++
	}
	// Primary table for codes up to huffTableBits.
	if cc.dTable == nil {
		cc.dTable = make([]uint32, 1<<huffTableBits)
	}
	for i := range cc.dTable {
		cc.dTable[i] = 0
	}
	cc.buildCanonicalCodes()
	for s, l := range cc.lens {
		if int(l) > huffTableBits {
			continue
		}
		base := cc.codes[s] << (huffTableBits - uint(l))
		span := uint32(1) << (huffTableBits - uint(l))
		entry := uint32(s)<<8 | uint32(l)
		for j := uint32(0); j < span; j++ {
			cc.dTable[base+j] = entry
		}
	}
	return nil
}

// decodeColumn decodes one column payload of n rows into v in its
// cheapest faithful form: RLE stays (value, run) pairs, dictionary
// schemes stay the sorted dictionary plus per-row index stream, raw
// decodes to wide values. The projection path reads the view as is;
// the full-width DecodeBlock expands it. The outputs are backed by v's
// own arrays so several columns can be live at once.
func (cc *ChunkCodec) decodeColumn(payload []byte, tag byte, n, width int, v *ColView) error {
	var maxVal uint64 = 1<<(8*uint(width)) - 1
	if width == 8 {
		maxVal = ^uint64(0)
	}
	switch tag {
	case colRaw:
		if len(payload) != n*width {
			return fmt.Errorf("%w: raw column is %d bytes, want %d", errCorrupt, len(payload), n*width)
		}
		vals := v.wideBuf(n)
		v.Form = ViewWide
		switch width {
		case 8:
			for i := range vals {
				vals[i] = binary.LittleEndian.Uint64(payload[i*8:])
			}
		case 4:
			for i := range vals {
				vals[i] = uint64(binary.LittleEndian.Uint32(payload[i*4:]))
			}
		case 2:
			for i := range vals {
				vals[i] = uint64(binary.LittleEndian.Uint16(payload[i*2:]))
			}
		default:
			for i := range vals {
				vals[i] = uint64(payload[i])
			}
		}
	case colRLE:
		v.Runs = v.Runs[:0]
		v.Form = ViewRuns
		i := 0
		for i < n {
			run, k := binary.Uvarint(payload)
			if k <= 0 || run == 0 || run > uint64(n-i) {
				return fmt.Errorf("%w: bad rle run", errCorrupt)
			}
			payload = payload[k:]
			val, k := binary.Uvarint(payload)
			if k <= 0 || val > maxVal {
				return fmt.Errorf("%w: bad rle value", errCorrupt)
			}
			payload = payload[k:]
			v.Runs = append(v.Runs, Run{Value: val, Len: int(run)})
			i += int(run)
		}
		if len(payload) != 0 {
			return fmt.Errorf("%w: trailing rle bytes", errCorrupt)
		}
	case colDict, colDictHuff:
		var err error
		if payload, err = cc.readDict(payload, n, maxVal); err != nil {
			return err
		}
		d := len(cc.dict)
		v.Dict = append(v.Dict[:0], cc.dict...)
		if cap(v.Idx) < n {
			v.Idx = make([]uint32, n)
		}
		v.Idx = v.Idx[:n]
		v.Form = ViewDict
		if tag == colDict {
			bits := bitsFor(d)
			if need := (n*bits + 7) / 8; len(payload) != need {
				return fmt.Errorf("%w: packed indices are %d bytes, want %d", errCorrupt, len(payload), need)
			}
			var acc uint64
			var nb uint
			pi := 0
			mask := uint64(1)<<bits - 1
			for i := range v.Idx {
				for nb < uint(bits) {
					acc |= uint64(payload[pi]) << nb
					pi++
					nb += 8
				}
				k := acc & mask
				acc >>= uint(bits)
				nb -= uint(bits)
				if k >= uint64(d) {
					return fmt.Errorf("%w: dictionary index out of range", errCorrupt)
				}
				v.Idx[i] = uint32(k)
			}
		} else {
			if len(payload) < d {
				return fmt.Errorf("%w: truncated code lengths", errCorrupt)
			}
			if cap(cc.lens) < d {
				cc.lens = make([]uint8, d)
			}
			cc.lens = cc.lens[:d]
			copy(cc.lens, payload[:d])
			if err := cc.buildDecodeTables(); err != nil {
				return err
			}
			if err := cc.huffDecode(payload[d:], v.Idx); err != nil {
				return err
			}
		}
	default:
		return tagError(tag)
	}
	return nil
}

// huffDecode decodes len(idx) canonical-Huffman symbols from the
// bitstream as dictionary indices, range-checked against cc.dict.
func (cc *ChunkCodec) huffDecode(stream []byte, idx []uint32) error {
	d := uint32(len(cc.dict))
	totalBits := 8 * len(stream)
	var acc uint64
	var bits uint
	off, consumed := 0, 0
	for i := range idx {
		for bits <= 56 && off < len(stream) {
			acc |= uint64(stream[off]) << (56 - bits)
			off++
			bits += 8
		}
		e := cc.dTable[uint32(acc>>(64-huffTableBits))]
		l := uint(e & 0xff)
		var sym uint32
		if l != 0 {
			sym = e >> 8
		} else {
			// Long code: canonical per-length search.
			code := uint32(0)
			found := false
			for cl := 1; cl <= huffMaxLen; cl++ {
				code = code<<1 | uint32(acc>>(64-uint(cl))&1)
				if cnt := cc.dCount[cl]; cnt > 0 && code-cc.dFirst[cl] < cnt {
					sym = cc.dRank[cc.dOffset[cl]+code-cc.dFirst[cl]]
					l = uint(cl)
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("%w: invalid huffman code", errCorrupt)
			}
		}
		consumed += int(l)
		if consumed > totalBits {
			return fmt.Errorf("%w: truncated huffman stream", errCorrupt)
		}
		acc <<= l
		if l > bits {
			bits = 0
		} else {
			bits -= l
		}
		if sym >= d {
			return fmt.Errorf("%w: huffman symbol out of range", errCorrupt)
		}
		idx[i] = sym
	}
	return nil
}
