package walkindex

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// On-disk formats (all integers little-endian). Both formats share the
// 52-byte header; the version field selects the payload encoding.
//
// Format 1 (dense):
//
//	offset  size  field
//	0       8     magic "SRWKIDX\x00"
//	8       4     format version (1)
//	12      8     n   (vertices, int64)
//	20      8     k   (horizon, int64)
//	28      8     r   (fingerprints, int64)
//	36      8     c   (damping factor, IEEE-754 bits)
//	44      8     seed (int64)
//	52      4*n*r*k   paths ([]int32)
//	...     4     CRC-32 (IEEE) of every preceding byte
//
// Format 2 (compressed, mmap-able; see v2.go for the posting codec):
//
//	offset  size  field
//	0..51         same header fields, version 2
//	52      4     block size B (start vertices per posting block, uint32)
//	56      4     numBlocks = ceil(n/B) (uint32)
//	60      8*(numBlocks+1)  block directory: byte offset of each posting
//	              block within the payload; entry 0 is 0, entry numBlocks
//	              is the payload length
//	...     delta/varint posting blocks (payload)
//	...     4     CRC-32 (IEEE) of every preceding byte
//
// A shard file (an index built by BuildShard or loaded by LoadShard) has
// the 68-byte header
//
//	offset  size  field
//	0       8     magic "SRWKSHRD"
//	8       4     format version (1 or 2)
//	12      8     n    (graph vertices, int64)
//	20      8     lo   (first owned vertex, int64)
//	28      8     hi   (one past the last owned vertex, int64)
//	36      8     k, then r, c and seed as above, 8 bytes each
//
// and then the same v1 or v2 body with hi-lo rows. The file kind comes
// from how the index was made, not from its range, so a one-shard plan
// owning [0, n) still writes a shard file. The distinct magic keeps a
// shard file from ever loading as a full index or vice versa: Load and
// LoadShard reject each other's files with ErrBadMagic, not a silent
// misread.
//
// The trailing checksum makes truncation and bit corruption detectable
// without trusting the payload; the version field rejects indexes written
// by a future (or past, incompatible) format revision.
//
// Load order — one documented sequence shared by the v1 and v2 readers,
// for both file kinds:
//
//  1. header parse + plausibility guards: nothing payload-sized is
//     allocated from unvalidated fields;
//  2. payload decode, with allocations growing as bytes are actually
//     read, so a forged header on a short stream fails with a truncation
//     error after a proportional allocation;
//  3. checksum verification — a corrupt file reports ErrChecksum even
//     when its decoded entries would also fail validation (a v2 payload
//     whose corruption is structurally undecodable fails at step 2
//     instead, before the trailer is reachable);
//  4. trailing-data probe: Save writes exactly one index per stream, so
//     any byte after the checksum is ErrTrailingData, not slack to
//     ignore;
//  5. per-entry range validation of the decoded paths;
//  6. index construction (initPow last, from validated fields only).

// Supported on-disk format revisions.
const (
	// FormatV1 is the dense format: the raw []int32 path payload.
	FormatV1 = 1
	// FormatV2 is the compressed format: delta/varint posting blocks with
	// a block directory, mmap-able via LoadMapped.
	FormatV2 = 2
	// FormatVersion is the newest revision this build reads and writes.
	FormatVersion = FormatV2
)

var (
	magic      = [8]byte{'S', 'R', 'W', 'K', 'I', 'D', 'X', 0}
	shardMagic = [8]byte{'S', 'R', 'W', 'K', 'S', 'H', 'R', 'D'}
)

const (
	headerSize      = 8 + 4 + 8 + 8 + 8 + 8 + 8
	shardHeaderSize = headerSize + 8 + 8 // plus lo and hi
)

// fileHeader holds the fixed header fields of an index or shard file. An
// index file stores no range: it owns [0, n).
type fileHeader struct {
	shard           bool
	version         uint32
	n, lo, hi, k, r int64
	c               float64
	seed            int64
}

// kindName labels a file kind in errors.
func kindName(shard bool) string {
	if shard {
		return "shard"
	}
	return "index"
}

// sectionPrefix labels the sections of a shard file in load errors.
func sectionPrefix(shard bool) string {
	if shard {
		return "shard "
	}
	return ""
}

// header returns the file header Save writes for ix.
func (ix *Index) header(version uint32) fileHeader {
	return fileHeader{shard: ix.shard, version: version, n: int64(ix.n), lo: int64(ix.lo), hi: int64(ix.hi),
		k: int64(ix.k), r: int64(ix.r), c: ix.c, seed: ix.seed}
}

// bytes encodes the header, with spare capacity for the v2 block meta.
func (h fileHeader) bytes() []byte {
	b := make([]byte, 0, shardHeaderSize+8)
	if h.shard {
		b = append(b, shardMagic[:]...)
	} else {
		b = append(b, magic[:]...)
	}
	b = binary.LittleEndian.AppendUint32(b, h.version)
	b = binary.LittleEndian.AppendUint64(b, uint64(h.n))
	if h.shard {
		b = binary.LittleEndian.AppendUint64(b, uint64(h.lo))
		b = binary.LittleEndian.AppendUint64(b, uint64(h.hi))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(h.k))
	b = binary.LittleEndian.AppendUint64(b, uint64(h.r))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(h.c))
	return binary.LittleEndian.AppendUint64(b, uint64(h.seed))
}

// readHeader is step 1 of the load order for a file of the given kind:
// it parses the header and applies the plausibility guards, so nothing
// payload-sized is ever allocated from unvalidated fields.
func readHeader(br *bufio.Reader, crc hash.Hash32, shard bool) (fileHeader, error) {
	want, size := magic, headerSize
	if shard {
		want, size = shardMagic, shardHeaderSize
	}
	buf := make([]byte, size)
	if err := readFull(br, crc, buf, sectionPrefix(shard)+"header"); err != nil {
		return fileHeader{}, err
	}
	if [8]byte(buf[:8]) != want {
		return fileHeader{}, ErrBadMagic
	}
	h := fileHeader{shard: shard, version: binary.LittleEndian.Uint32(buf[8:])}
	if h.version != FormatV1 && h.version != FormatV2 {
		return fileHeader{}, fmt.Errorf("%w: file has version %d, this build reads versions %d and %d", ErrVersion, h.version, FormatV1, FormatV2)
	}
	field := buf[12:]
	next := func() int64 {
		x := int64(binary.LittleEndian.Uint64(field))
		field = field[8:]
		return x
	}
	h.n = next()
	h.lo, h.hi = 0, h.n
	if shard {
		h.lo = next()
		h.hi = next()
	}
	h.k, h.r = next(), next()
	h.c = math.Float64frombits(uint64(next()))
	h.seed = next()

	what := kindName(shard)
	if h.n < 0 || h.k < 1 || h.r < 1 {
		return fileHeader{}, fmt.Errorf("walkindex: invalid %s header (n=%d, k=%d, r=%d)", what, h.n, h.k, h.r)
	}
	if h.lo < 0 || h.hi < h.lo || h.hi > h.n {
		return fileHeader{}, fmt.Errorf("walkindex: invalid %s header range [%d,%d) with n=%d", what, h.lo, h.hi, h.n)
	}
	if h.k > maxHorizon {
		return fileHeader{}, fmt.Errorf("walkindex: implausible walk horizon k = %d", h.k)
	}
	if !(h.c > 0 && h.c < 1) {
		return fileHeader{}, fmt.Errorf("walkindex: invalid %s header damping factor %v", what, h.c)
	}
	width := h.hi - h.lo
	elems := width * h.r * h.k
	if width > 0 && (elems/width/h.r != h.k || elems > maxElems) {
		return fileHeader{}, fmt.Errorf("walkindex: implausible %s size width*r*k = %d*%d*%d", what, width, h.r, h.k)
	}
	return h, nil
}

// index is step 6 of the load order: the Index a validated header
// describes, over store.
func (h fileHeader) index(store PathStore) *Index {
	ix := &Index{n: int(h.n), lo: int(h.lo), hi: int(h.hi), shard: h.shard,
		k: int(h.k), r: int(h.r), c: h.c, seed: h.seed, store: store}
	ix.initPow()
	return ix
}

// Sentinel errors returned by Save and Load (possibly wrapped with detail).
var (
	ErrBadMagic = errors.New("walkindex: not a walk-index file (bad magic)")
	ErrVersion  = errors.New("walkindex: unsupported format version")
	ErrChecksum = errors.New("walkindex: checksum mismatch (corrupted index)")
	// ErrTrailingData reports bytes after the CRC trailer — a concatenated
	// or overlong file. Load used to silently ignore them.
	ErrTrailingData = errors.New("walkindex: trailing data after index")
	// ErrFormatLimits reports an index that exceeds what the on-disk
	// format's load guards accept — Save refuses to write a file Load
	// would refuse to read back.
	ErrFormatLimits = errors.New("walkindex: index exceeds on-disk format limits")
)

// maxElems caps n*r*k at load time so a corrupted header cannot trigger an
// absurd allocation before the checksum is ever seen.
const maxElems = int64(1) << 33

// maxHorizon caps k on its own: initPow allocates k floats even when a
// forged header claims n = 0 (zero payload elements), so the product guard
// alone does not bound it. Real horizons are the iteration counts of the
// Lizorkin bound — double digits.
const maxHorizon = int64(1) << 20

// formatGuard validates at save time everything the load-side header
// guards will check, so every file Save writes is guaranteed loadable.
// Violations wrap ErrFormatLimits.
func formatGuard(rows, k, r int64, c float64, format int) error {
	if rows < 0 || k < 1 || r < 1 {
		return fmt.Errorf("%w: invalid dimensions (rows=%d, k=%d, r=%d)", ErrFormatLimits, rows, k, r)
	}
	if k > maxHorizon {
		return fmt.Errorf("%w: walk horizon k = %d exceeds %d", ErrFormatLimits, k, maxHorizon)
	}
	if format == FormatV2 && k > maxV2Horizon {
		return fmt.Errorf("%w: walk horizon k = %d exceeds %d (format v2)", ErrFormatLimits, k, maxV2Horizon)
	}
	if !(c > 0 && c < 1) {
		return fmt.Errorf("%w: damping factor %v outside (0,1)", ErrFormatLimits, c)
	}
	elems := rows * r * k
	if rows > 0 && (elems/rows/r != k || elems > maxElems) {
		return fmt.Errorf("%w: rows*r*k = %d*%d*%d exceeds %d elements", ErrFormatLimits, rows, r, k, maxElems)
	}
	return nil
}

// Save writes the index to w in format v1, the dense revision every build
// of this package reads. Use SaveFormat with FormatV2 for the compressed,
// mmap-able revision.
func (ix *Index) Save(w io.Writer) error { return ix.SaveFormat(w, FormatV1) }

// SaveFormat writes the index to w in the requested on-disk format, as a
// shard file when it was built or loaded as a shard. It validates the
// index against the load-side guards first and returns an
// ErrFormatLimits-wrapped error instead of writing an unloadable file.
func (ix *Index) SaveFormat(w io.Writer, format int) error {
	if format != FormatV1 && format != FormatV2 {
		return fmt.Errorf("%w: unknown save format %d", ErrVersion, format)
	}
	width := ix.hi - ix.lo
	if err := formatGuard(int64(width), int64(ix.k), int64(ix.r), ix.c, format); err != nil {
		return err
	}
	hdr := ix.header(uint32(format)).bytes()
	what := kindName(ix.shard)
	if format == FormatV1 {
		return writeDense(w, hdr, ix.store.Row, width, what)
	}
	blocks, err := encodeV2Blocks(ix.store.Row, width, ix.k, ix.r)
	if err != nil {
		return err
	}
	return writeV2(w, appendV2Meta(hdr, v2BlockVertices, len(blocks)), blocks, what)
}

// writeDense writes a format-v1 body: the header, every walk block as raw
// little-endian int32s, and the CRC trailer.
func writeDense(w io.Writer, hdr []byte, rowOf func(v int) []int32, rows int, what string) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	if _, err := bw.Write(hdr); err != nil {
		return fmt.Errorf("walkindex: writing %s header: %w", what, err)
	}
	var buf [1 << 14]byte
	nb := 0
	for v := 0; v < rows; v++ {
		for _, e := range rowOf(v) {
			if nb+4 > len(buf) {
				if _, err := bw.Write(buf[:nb]); err != nil {
					return fmt.Errorf("walkindex: writing %s paths: %w", what, err)
				}
				nb = 0
			}
			binary.LittleEndian.PutUint32(buf[nb:], uint32(e))
			nb += 4
		}
	}
	if _, err := bw.Write(buf[:nb]); err != nil {
		return fmt.Errorf("walkindex: writing %s paths: %w", what, err)
	}
	// Flush payload into the CRC before sealing it, then append the sum
	// directly (the checksum is not part of its own coverage).
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("walkindex: writing %s paths: %w", what, err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("walkindex: writing %s checksum: %w", what, err)
	}
	return nil
}

// Load reads an index written by Save or SaveFormat, negotiating the
// format from the version field (v1 and v2 both decode into a dense
// in-memory index; use LoadMapped to page a v2 file on demand instead).
// It rejects files with a wrong magic (a shard file included), an
// unsupported format version, a truncated payload, a checksum mismatch,
// or trailing data after the trailer, in the documented load order above.
func Load(r io.Reader) (*Index, error) { return load(r, false) }

// LoadShard is Load for shard files: it reads only files saved from an
// index built by BuildShard (or loaded by LoadShard).
func LoadShard(r io.Reader) (*Index, error) { return load(r, true) }

func load(r io.Reader, shard bool) (*Index, error) {
	// The CRC must cover exactly the bytes logically consumed (a tee under
	// bufio would also hash read-ahead, including the trailing checksum),
	// so readFull feeds each chunk to the hash by hand.
	crc := crc32.NewIEEE()
	br := bufio.NewReaderSize(r, 1<<16)
	pfx := sectionPrefix(shard)

	// Step 1: header parse + plausibility guards.
	h, err := readHeader(br, crc, shard)
	if err != nil {
		return nil, err
	}

	// Step 2: payload decode, allocations growing with bytes read.
	width := h.hi - h.lo
	var paths []int32
	if h.version == FormatV1 {
		paths, err = readDensePayload(br, crc, width*h.r*h.k, pfx+"paths")
	} else {
		paths, err = readV2Payload(br, crc, width, h.k, h.r, pfx+"paths")
	}
	if err != nil {
		return nil, err
	}

	// Steps 3+4: checksum, then the trailing-data probe.
	if err := checkTrailer(br, crc, pfx+"checksum"); err != nil {
		return nil, err
	}
	// Step 5: per-entry range validation (positions span the whole graph).
	if err := validateEntries(paths, h.n, pfx+"path"); err != nil {
		return nil, err
	}
	// Step 6: construction from validated fields only.
	return h.index(newDenseStore(paths, int(h.r*h.k))), nil
}

// readDensePayload reads elems raw little-endian int32s. The slice grows
// with the bytes actually read instead of being sized from the header up
// front: a forged header claiming a huge n*r*k on a short stream fails
// with a truncation error after a proportional allocation, not an absurd
// up-front one.
func readDensePayload(br *bufio.Reader, crc hash.Hash32, elems int64, section string) ([]int32, error) {
	paths := make([]int32, 0, min(elems, 1<<16))
	var buf [1 << 14]byte
	for int64(len(paths)) < elems {
		nb := len(buf)
		if rem := elems - int64(len(paths)); rem < int64(len(buf)/4) {
			nb = int(rem) * 4
		}
		if err := readFull(br, crc, buf[:nb], section); err != nil {
			return nil, err
		}
		for b := 0; b < nb; b += 4 {
			paths = append(paths, int32(binary.LittleEndian.Uint32(buf[b:])))
		}
	}
	return paths, nil
}

// checkTrailer verifies the stored CRC against everything read so far,
// then probes one byte past it: Save writes exactly one index per stream,
// so any trailing byte is ErrTrailingData, not slack to ignore.
func checkTrailer(br *bufio.Reader, crc hash.Hash32, section string) error {
	want := crc.Sum32()
	var sum [4]byte
	if err := readFull(br, nil, sum[:], section); err != nil {
		return err
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return fmt.Errorf("%w: stored %08x, computed %08x", ErrChecksum, got, want)
	}
	if _, err := br.ReadByte(); err == nil {
		return fmt.Errorf("%w (byte after checksum)", ErrTrailingData)
	} else if err != io.EOF {
		return fmt.Errorf("walkindex: probing for trailing data: %w", err)
	}
	return nil
}

// validateEntries range-checks every decoded path entry against the
// vertex count (entries are positions in [0, n), or -1 once dead).
func validateEntries(paths []int32, n int64, what string) error {
	for i, p := range paths {
		if p < -1 || int64(p) >= n {
			return fmt.Errorf("walkindex: %s entry %d out of range: %d", what, i, p)
		}
	}
	return nil
}

// readFull is io.ReadFull with a section-labelled truncation error; the
// bytes read are fed to crc when it is non-nil (nil for the stored
// checksum itself, which is not part of its own coverage).
func readFull(br *bufio.Reader, crc hash.Hash32, p []byte, section string) error {
	if _, err := io.ReadFull(br, p); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return fmt.Errorf("walkindex: truncated index file (short read in %s): %w", section, io.ErrUnexpectedEOF)
		}
		return fmt.Errorf("walkindex: reading %s: %w", section, err)
	}
	if crc != nil {
		crc.Write(p)
	}
	return nil
}
