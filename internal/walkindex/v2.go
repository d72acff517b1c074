package walkindex

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Format v2 posting codec.
//
// Format v2 stores the walk blocks of v2BlockVertices consecutive start
// vertices per posting block, each block independently decodable, with a
// byte-offset directory so a mapped loader can page single blocks on
// demand (mapped.go). Within a block, each walk is encoded as:
//
//	uvarint hdr = m<<1 | shared
//	uvarint first          — entry 0            (only when m > 0)
//	varint  delta × (m-1)  — entry[i]-entry[i-1] (zigzag)
//
// followed by an implicit tail for entries [m, k):
//
//	shared == 0: the tail is dead (-1). m is the walk's live length —
//	  walkFrom writes -1 from the first death onward, so the dead suffix
//	  is always canonical and never needs storing.
//	shared == 1: the tail is copied from the SAME fingerprint's walk of
//	  the PREVIOUS vertex in the block. Coupled walkers coalesce
//	  permanently once co-located (the edge choice depends only on
//	  (fingerprint, step, vertex)), so neighboring vertices' walks share
//	  identical suffixes — on hub-heavy graphs most of the index is these
//	  shared tails, and one uvarint replaces them. The first vertex of a
//	  block has no predecessor and always encodes shared == 0.
//
// The encoder picks whichever form stores fewer explicit entries, so the
// encoding is canonical given the block layout, and decode(encode(x)) == x
// exactly — the v1→v2→v1 round trip is byte-identical.

// v2BlockVertices is the number of start vertices per posting block. Small
// enough that a mapped point query decodes little beyond the row it needs
// (64 vertices × R×K×4 B ≈ 665 KB at R=200, K=13), large enough that
// suffix sharing between consecutive vertices gets traction and the
// directory stays tiny.
const v2BlockVertices = 64

// maxV2BlockVertices bounds the header-declared block size at load time.
const maxV2BlockVertices = 1 << 16

// maxV2Horizon caps k for format v2, tighter than maxHorizon: a shared
// walk decodes k entries from a single byte, so k bounds the decoder's
// allocation amplification per payload byte. Real horizons are the
// iteration counts of the Lizorkin bound — double digits.
const maxV2Horizon = 1 << 12

// maxV2BlockBytes is the absolute cap on one encoded posting block, over
// and above the per-block structural bound width*r*(5k+2); formatGuard
// keeps writable indexes comfortably below it.
const maxV2BlockBytes = 1 << 27

// v2NumBlocks returns ceil(rows / blockB), the posting-block count.
func v2NumBlocks(rows, blockB int64) int64 {
	if rows <= 0 {
		return 0
	}
	return (rows + blockB - 1) / blockB
}

// appendWalk appends one walk's v2 encoding to dst. prev is the same
// fingerprint's walk of the previous vertex in the block (nil for the
// block's first vertex).
func appendWalk(dst []byte, path, prev []int32) ([]byte, error) {
	k := len(path)
	live := 0
	for live < k && path[live] >= 0 {
		live++
	}
	for t := live; t < k; t++ {
		if path[t] != -1 {
			return nil, fmt.Errorf("walkindex: cannot encode non-canonical walk (entry %d after death is %d)", t, path[t])
		}
	}
	m, shared := live, false
	if prev != nil {
		s := k
		for s > 0 && path[s-1] == prev[s-1] {
			s--
		}
		// Strictly fewer explicit entries than the dead-tail form; the
		// shared prefix [0, s) is all live because s < live.
		if s < live {
			m, shared = s, true
		}
	}
	hdr := uint64(m) << 1
	if shared {
		hdr |= 1
	}
	dst = binary.AppendUvarint(dst, hdr)
	if m > 0 {
		dst = binary.AppendUvarint(dst, uint64(uint32(path[0])))
		for i := 1; i < m; i++ {
			dst = binary.AppendVarint(dst, int64(path[i])-int64(path[i-1]))
		}
	}
	return dst, nil
}

// decodeWalk decodes one walk from buf into dst (len k), resolving a
// shared tail against prev, and returns the bytes consumed. Checks are
// structural (well-formed varints, m <= k, entries fit int32); the
// semantic [0, n) range check runs over the whole decoded payload after
// the checksum, like the v1 reader's (see the load order in serialize.go).
func decodeWalk(buf []byte, dst, prev []int32) (int, error) {
	k := len(dst)
	hdr, w := binary.Uvarint(buf)
	if w <= 0 {
		return 0, fmt.Errorf("walkindex: malformed walk header varint")
	}
	pos := w
	shared := hdr&1 == 1
	m := int(hdr >> 1)
	if hdr>>1 > uint64(k) {
		return 0, fmt.Errorf("walkindex: walk declares %d explicit entries, horizon is %d", hdr>>1, k)
	}
	if shared && prev == nil {
		return 0, fmt.Errorf("walkindex: first walk of a block cannot share a tail")
	}
	if m > 0 {
		first, w := binary.Uvarint(buf[pos:])
		if w <= 0 || first > math.MaxInt32 {
			return 0, fmt.Errorf("walkindex: malformed walk first-entry varint")
		}
		pos += w
		cur := int64(first)
		dst[0] = int32(cur)
		for i := 1; i < m; i++ {
			d, w := binary.Varint(buf[pos:])
			if w <= 0 {
				return 0, fmt.Errorf("walkindex: malformed walk delta varint")
			}
			pos += w
			cur += d
			if cur < 0 || cur > math.MaxInt32 {
				return 0, fmt.Errorf("walkindex: walk delta accumulates out of int32 range")
			}
			dst[i] = int32(cur)
		}
	}
	if shared {
		copy(dst[m:], prev[m:])
	} else {
		for i := m; i < k; i++ {
			dst[i] = -1
		}
	}
	return pos, nil
}

// appendV2Block appends the encoding of one posting block — store-local
// vertices [vlo, vlo+width), all r walks each — to dst.
func appendV2Block(dst []byte, rowOf func(v int) []int32, vlo, width, k, r int) ([]byte, error) {
	var prevBlk []int32
	for v := vlo; v < vlo+width; v++ {
		blk := rowOf(v)
		for fp := 0; fp < r; fp++ {
			var prev []int32
			if prevBlk != nil {
				prev = prevBlk[fp*k : (fp+1)*k]
			}
			var err error
			dst, err = appendWalk(dst, blk[fp*k:(fp+1)*k], prev)
			if err != nil {
				return nil, err
			}
		}
		prevBlk = blk
	}
	return dst, nil
}

// decodeV2Block decodes one posting block into dst (width*r*k entries,
// vertex-major). The whole buffer must be consumed — trailing bytes inside
// a block are a forgery, not padding.
func decodeV2Block(buf []byte, dst []int32, width, k, r int) error {
	pos := 0
	for v := 0; v < width; v++ {
		for fp := 0; fp < r; fp++ {
			cur := dst[(v*r+fp)*k : (v*r+fp+1)*k]
			var prev []int32
			if v > 0 {
				prev = dst[((v-1)*r+fp)*k : ((v-1)*r+fp+1)*k]
			}
			w, err := decodeWalk(buf[pos:], cur, prev)
			if err != nil {
				return err
			}
			pos += w
		}
	}
	if pos != len(buf) {
		return fmt.Errorf("walkindex: %d trailing bytes inside posting block", len(buf)-pos)
	}
	return nil
}

// encodeV2Blocks encodes every posting block of a store with `rows` start
// vertices.
func encodeV2Blocks(rowOf func(v int) []int32, rows, k, r int) ([][]byte, error) {
	nb := int(v2NumBlocks(int64(rows), v2BlockVertices))
	blocks := make([][]byte, nb)
	for b := 0; b < nb; b++ {
		vlo := b * v2BlockVertices
		width := min(v2BlockVertices, rows-vlo)
		enc, err := appendV2Block(nil, rowOf, vlo, width, k, r)
		if err != nil {
			return nil, err
		}
		if len(enc) > maxV2BlockBytes {
			return nil, fmt.Errorf("%w: encoded posting block of %d bytes exceeds %d", ErrFormatLimits, len(enc), maxV2BlockBytes)
		}
		blocks[b] = enc
	}
	return blocks, nil
}

// appendV2Meta appends the v2 block size and count to a file header,
// giving the prefix writeV2 writes first.
func appendV2Meta(hdr []byte, blockB, numBlocks int) []byte {
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(blockB))
	return binary.LittleEndian.AppendUint32(hdr, uint32(numBlocks))
}

// writeV2 writes a v2 file: pre (the format header including the block
// size and count), the block directory derived from the block lengths, the
// concatenated blocks, and the CRC trailer over everything before it.
func writeV2(w io.Writer, pre []byte, blocks [][]byte, what string) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriterSize(io.MultiWriter(w, crc), 1<<16)
	if _, err := bw.Write(pre); err != nil {
		return fmt.Errorf("walkindex: writing %s header: %w", what, err)
	}
	var tmp [8]byte
	off := uint64(0)
	binary.LittleEndian.PutUint64(tmp[:], 0)
	if _, err := bw.Write(tmp[:]); err != nil {
		return fmt.Errorf("walkindex: writing %s directory: %w", what, err)
	}
	for _, blk := range blocks {
		off += uint64(len(blk))
		binary.LittleEndian.PutUint64(tmp[:], off)
		if _, err := bw.Write(tmp[:]); err != nil {
			return fmt.Errorf("walkindex: writing %s directory: %w", what, err)
		}
	}
	for _, blk := range blocks {
		if _, err := bw.Write(blk); err != nil {
			return fmt.Errorf("walkindex: writing %s blocks: %w", what, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("walkindex: writing %s blocks: %w", what, err)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc.Sum32())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("walkindex: writing %s checksum: %w", what, err)
	}
	return nil
}

// v2MaxBlockLen bounds one encoded block's plausible byte length: at most
// 2 header bytes plus 5 bytes per explicit entry per walk.
func v2MaxBlockLen(width, k, r int64) int64 {
	return min(maxV2BlockBytes, width*r*(5*k+2))
}

// checkV2BlockLen rejects an implausible encoded block length before the
// block's width*r*k entries are allocated. Every walk carries at least its
// one-byte header, so a block shorter than width*r bytes cannot decode;
// rejecting it up front bounds the allocation at k entries per byte read,
// however many fingerprints a forged header claims.
func checkV2BlockLen(blen, width, k, r int64) error {
	if blen < width*r || blen > v2MaxBlockLen(width, k, r) {
		return fmt.Errorf("walkindex: implausible v2 block length %d", blen)
	}
	return nil
}

// readV2Dir reads the v2 payload preamble — block size, block count, and
// the offset directory — validating structure as it goes. The directory is
// read incrementally (8 bytes at a time), so a forged block count on a
// short stream fails with a truncation error, not a huge allocation.
func readV2Dir(br *bufio.Reader, crc hash.Hash32, rows, k int64, section string) (blockB int64, dir []int64, err error) {
	if k > maxV2Horizon {
		return 0, nil, fmt.Errorf("walkindex: implausible v2 walk horizon k = %d", k)
	}
	var meta [8]byte
	if err := readFull(br, crc, meta[:], section+" v2 block sizes"); err != nil {
		return 0, nil, err
	}
	blockB = int64(binary.LittleEndian.Uint32(meta[0:]))
	nb := int64(binary.LittleEndian.Uint32(meta[4:]))
	if blockB < 1 || blockB > maxV2BlockVertices {
		return 0, nil, fmt.Errorf("walkindex: implausible v2 block size %d", blockB)
	}
	if nb != v2NumBlocks(rows, blockB) {
		return 0, nil, fmt.Errorf("walkindex: v2 block count %d does not tile %d vertices at block size %d", nb, rows, blockB)
	}

	dir = make([]int64, 0, min(nb+1, 1<<12))
	var obuf [8]byte
	prevOff := int64(0)
	for i := int64(0); i <= nb; i++ {
		if err := readFull(br, crc, obuf[:], section+" v2 directory"); err != nil {
			return 0, nil, err
		}
		o := binary.LittleEndian.Uint64(obuf[:])
		if o > math.MaxInt64 {
			return 0, nil, fmt.Errorf("walkindex: implausible v2 directory offset %d", o)
		}
		off := int64(o)
		if i == 0 && off != 0 {
			return 0, nil, fmt.Errorf("walkindex: v2 directory does not start at offset 0")
		}
		if off < prevOff {
			return 0, nil, fmt.Errorf("walkindex: v2 directory offsets not monotone")
		}
		dir = append(dir, off)
		prevOff = off
	}
	return blockB, dir, nil
}

// readV2Payload reads the v2 payload section — block size, block count,
// directory, posting blocks — decoding into one dense slice. Allocations
// grow with the bytes actually read (directory and blocks alike), so a
// forged header on a short stream fails with a truncation error after a
// proportional allocation; the residual amplification is bounded by
// maxV2Horizon (one shared-walk byte decodes to at most k entries).
func readV2Payload(br *bufio.Reader, crc hash.Hash32, rows, k, r int64, section string) ([]int32, error) {
	blockB, dir, err := readV2Dir(br, crc, rows, k, section)
	if err != nil {
		return nil, err
	}
	nb := int64(len(dir)) - 1

	paths := make([]int32, 0, min(rows*r*k, 1<<16))
	var blockBuf []byte
	for b := int64(0); b < nb; b++ {
		width := min(blockB, rows-b*blockB)
		blen := dir[b+1] - dir[b]
		if err := checkV2BlockLen(blen, width, k, r); err != nil {
			return nil, err
		}
		if int64(cap(blockBuf)) < blen {
			blockBuf = make([]byte, blen)
		}
		buf := blockBuf[:blen]
		if err := readFull(br, crc, buf, section+" v2 block"); err != nil {
			return nil, err
		}
		need := int(width * r * k)
		start := len(paths)
		paths = slices.Grow(paths, need)[:start+need]
		if err := decodeV2Block(buf, paths[start:], int(width), int(k), int(r)); err != nil {
			return nil, fmt.Errorf("walkindex: %s block %d: %w", section, b, err)
		}
	}
	return paths, nil
}
