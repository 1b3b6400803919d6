package archive

import (
	"bufio"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"mevscope/internal/types"
)

// The v2 on-disk encoding. A segment file is:
//
//	offset 0:  magic "MSEG" (4 bytes, plain)
//	offset 4:  format byte 0x02 (plain)
//	offset 5:  gzip stream of frames
//
// Each frame is one document: uvarint payload length followed by the
// JSON-encoded payload. The header sits outside the compressed stream so
// format detection never pays a decompression; the gzip trailer CRC plus
// the manifest's SHA-256 (over the whole stored file) catch corruption,
// and the decoder additionally refuses frames that claim more bytes than
// the stream holds (truncation) or fail to decode (bit flips that
// survive framing). The manifest carries a sparse block index per
// segment — (frame, block, uncompressed offset) points — so a reader
// after one block decompresses to the nearest point and skips bytes
// without JSON-decoding frames it does not want.

const (
	// segMagic opens every v2 segment file.
	segMagic = "MSEG"
	// segFormatByte is the codec version the header carries.
	segFormatByte = byte(FormatV2)
	// segExt is the v2 data-file extension.
	segExt = ".seg"
	// maxFrameSize caps a single frame's claimed payload length; anything
	// larger is corruption, not data. The largest real document is one
	// block with its transactions and receipts — far below this — and the
	// cap is what stands between a corrupted length prefix and a
	// multi-gigabyte allocation (gzip's CRC only fires at the trailer),
	// so it must stay small enough that a bogus length cannot hurt.
	maxFrameSize = 1 << 26
	// indexStride is how many frames apart block-index points are taken.
	indexStride = 64
)

// writeSeg encodes docs into <segDir>/<name>.seg and returns the file's
// integrity record (path relative to root) plus each frame's byte offset
// in the uncompressed stream, which the blocks file turns into its index.
func writeSeg[T any](root, segDir, name string, docs []T) (FileInfo, []int64, error) {
	var offsets []int64
	fi, err := writeFile(root, segDir, name, segExt, len(docs), func(w io.Writer) error {
		var err error
		offsets, err = encodeFrames(w, docs)
		return err
	})
	return fi, offsets, err
}

// encodeFrames writes the segment header and one frame per document,
// returning each frame's uncompressed byte offset.
func encodeFrames[T any](w io.Writer, docs []T) ([]int64, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(segMagic); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(segFormatByte); err != nil {
		return nil, err
	}
	zw, err := gzip.NewWriterLevel(bw, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	offsets := make([]int64, 0, len(docs))
	var off int64
	var lenBuf [binary.MaxVarintLen64]byte
	for _, d := range docs {
		payload, err := json.Marshal(d)
		if err != nil {
			return nil, err
		}
		// The decoder refuses frames past maxFrameSize as corruption, so
		// writing one would produce an archive no reader accepts — fail at
		// write time, when the data still exists.
		if len(payload) > maxFrameSize {
			return nil, fmt.Errorf("document of %d bytes exceeds the %d-byte frame cap", len(payload), maxFrameSize)
		}
		offsets = append(offsets, off)
		n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
		if _, err := zw.Write(lenBuf[:n]); err != nil {
			return nil, err
		}
		if _, err := zw.Write(payload); err != nil {
			return nil, err
		}
		off += int64(n) + int64(len(payload))
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return offsets, bw.Flush()
}

// blockIndex takes sparse index points over a month's block frames:
// every indexStride-th frame plus the first. ReadBlock seeks to the last
// point at or below its target and decodes forward from there.
func blockIndex(blocks []*types.Block, offsets []int64) []BlockIndexEntry {
	var out []BlockIndexEntry
	for i := 0; i < len(blocks); i += indexStride {
		out = append(out, BlockIndexEntry{Frame: i, Block: blocks[i].Header.Number, Offset: offsets[i]})
	}
	return out
}

// frameReader walks a v2 segment file's frames.
type frameReader struct {
	br *bufio.Reader
	zr *gzip.Reader
	// buf is the reused payload buffer: a returned frame is only valid
	// until the following next call, which is all the decode loops need
	// (json.Unmarshal never retains its input).
	buf []byte
}

// openFrames validates the plain header and opens the compressed frame
// stream.
func openFrames(name string, r io.Reader) (*frameReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("archive: %s is not a v2 segment file", name)
	}
	if string(hdr[:4]) != segMagic {
		return nil, fmt.Errorf("archive: %s is not a v2 segment file (bad magic)", name)
	}
	if hdr[4] != segFormatByte {
		return nil, fmt.Errorf("archive: %s: unsupported segment codec version %d (want %d)", name, hdr[4], segFormatByte)
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("archive: %s: %w", name, err)
	}
	return &frameReader{br: bufio.NewReaderSize(zr, 1<<16), zr: zr}, nil
}

// readFrameLen reads and validates one frame's length prefix: io.EOF at
// a clean stream end, an error for truncation or a corrupt length. Both
// decode paths (bulk payloadStream, indexed next) go through it so the
// corruption rules cannot drift apart.
func readFrameLen(br *bufio.Reader) (uint64, error) {
	n, err := binary.ReadUvarint(br)
	if err == io.EOF {
		return 0, io.EOF
	}
	if err != nil {
		return 0, fmt.Errorf("truncated frame: %w", err)
	}
	if n > maxFrameSize {
		return 0, fmt.Errorf("frame claims %d bytes (corrupt length)", n)
	}
	return n, nil
}

// next returns the next frame's payload, io.EOF at stream end. The
// gzip trailer CRC is verified when the stream drains, so a bit flip
// anywhere in the compressed bytes surfaces as an error here.
func (fr *frameReader) next() ([]byte, error) {
	n, err := readFrameLen(fr.br)
	if err != nil {
		return nil, err
	}
	if uint64(cap(fr.buf)) < n {
		fr.buf = make([]byte, n+n/4)
	}
	buf := fr.buf[:n]
	if _, err := io.ReadFull(fr.br, buf); err != nil {
		return nil, fmt.Errorf("truncated frame: %w", err)
	}
	return buf, nil
}

// skip discards n uncompressed bytes — the seek primitive behind the
// block index.
func (fr *frameReader) skip(n int64) error {
	_, err := io.CopyN(io.Discard, fr.br, n)
	return err
}

func (fr *frameReader) Close() error { return fr.zr.Close() }

// payloadStream exposes the concatenation of all frame payloads as one
// reader, consuming the length prefixes transparently. Bulk decode runs
// a single streaming json.Decoder over it — one scan per document, like
// the v1 path — while the prefixes keep serving the indexed seek path
// (frameReader.next). Truncation inside a prefix or a payload surfaces
// as an error, never as silent EOF.
type payloadStream struct {
	fr     *frameReader
	rem    uint64 // bytes left in the current frame
	frames int    // frames consumed so far
}

func (ps *payloadStream) Read(p []byte) (int, error) {
	for ps.rem == 0 {
		n, err := readFrameLen(ps.fr.br)
		if err != nil {
			return 0, err
		}
		ps.frames++
		ps.rem = n
	}
	if uint64(len(p)) > ps.rem {
		p = p[:ps.rem]
	}
	n, err := ps.fr.br.Read(p)
	ps.rem -= uint64(n)
	if err == io.EOF && ps.rem > 0 {
		err = fmt.Errorf("truncated frame: %w", io.ErrUnexpectedEOF)
	}
	return n, err
}

// readSeg decodes a whole v2 data file, verifying its checksum and
// document count against the manifest. The SHA-256 is computed on the
// fly while the decoder drains the file — one read pass, not a verify
// pass followed by a decode pass — and compared before the documents
// are released, so corruption is still refused, just cheaper.
func readSeg[T any](root string, fi FileInfo) ([]T, error) {
	path := filepath.Join(root, filepath.FromSlash(fi.Name))
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	defer f.Close()
	h := sha256.New()
	cr := &countingReader{r: io.TeeReader(f, h)}
	fr, err := openFrames(fi.Name, cr)
	if err != nil {
		return nil, err
	}
	ps := &payloadStream{fr: fr}
	dec := json.NewDecoder(ps)
	out := make([]T, 0, fi.Count)
	for {
		var d T
		if err := dec.Decode(&d); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("archive: %s: %w", fi.Name, err)
		}
		out = append(out, d)
	}
	if err := fr.Close(); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", fi.Name, err)
	}
	// Drain whatever the buffers did not consume (e.g. bytes appended
	// after the gzip stream) so the hash and size cover the whole file.
	if _, err := io.Copy(io.Discard, cr); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", fi.Name, err)
	}
	if hex.EncodeToString(h.Sum(nil)) != fi.SHA256 || cr.n != fi.Bytes {
		return nil, fmt.Errorf("archive: %s is corrupt (checksum mismatch)", fi.Name)
	}
	if len(out) != fi.Count {
		return nil, fmt.Errorf("archive: %s has %d documents, manifest says %d", fi.Name, len(out), fi.Count)
	}
	if ps.frames != len(out) {
		return nil, fmt.Errorf("archive: %s framing drifted: %d frames, %d documents", fi.Name, ps.frames, len(out))
	}
	return out, nil
}

// countingReader counts the bytes drawn through it.
type countingReader struct {
	r io.Reader
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// ReadBlock restores a single block by number — the random-access path
// the block index exists for. On a v2 archive it decompresses its
// segment only up to the nearest index point at or below the target,
// skips those bytes without JSON-decoding a frame, and decodes forward
// until the block appears; a v1 segment is scanned linearly. The fetch
// trades the full-file checksum pass for speed — the codec's framing and
// gzip CRC still catch gross corruption, and Read/ReadRange remain the
// verified bulk paths.
func ReadBlock(dir string, number uint64) (*types.Block, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, err
	}
	return ReadBlockFrom(dir, man, number)
}

// ReadBlockFrom is ReadBlock against an already-loaded manifest — the
// repeated-lookup path, where re-parsing the manifest (which carries
// every segment's block index) would otherwise dominate the indexed
// decode it pays for.
func ReadBlockFrom(dir string, man *Manifest, number uint64) (*types.Block, error) {
	var si *SegmentInfo
	for i := range man.Segments {
		if s := &man.Segments[i]; s.FirstBlock <= number && number <= s.LastBlock {
			si = s
			break
		}
	}
	if si == nil {
		return nil, fmt.Errorf("archive: no segment holds block %d", number)
	}
	if man.Format() == FormatV3 {
		return readBlockV3(dir, *si, number)
	}
	if man.Format() == FormatV1 {
		blocks, err := readJSONL[*types.Block](dir, si.Blocks)
		if err != nil {
			return nil, err
		}
		for _, b := range blocks {
			if b.Header.Number == number {
				b.Seal()
				return b, nil
			}
		}
		return nil, fmt.Errorf("archive: block %d missing from segment %s", number, si.Label)
	}
	f, err := os.Open(filepath.Join(dir, filepath.FromSlash(si.Blocks.Name)))
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	defer f.Close()
	fr, err := openFrames(si.Blocks.Name, f)
	if err != nil {
		return nil, err
	}
	var seek int64
	for _, e := range si.Index {
		if e.Block <= number {
			seek = e.Offset
		}
	}
	if err := fr.skip(seek); err != nil {
		return nil, fmt.Errorf("archive: %s: seek: %w", si.Blocks.Name, err)
	}
	for {
		payload, err := fr.next()
		if err == io.EOF {
			return nil, fmt.Errorf("archive: block %d missing from segment %s", number, si.Label)
		}
		if err != nil {
			return nil, fmt.Errorf("archive: %s: %w", si.Blocks.Name, err)
		}
		var b types.Block
		if err := json.Unmarshal(payload, &b); err != nil {
			return nil, fmt.Errorf("archive: %s: %w", si.Blocks.Name, err)
		}
		if b.Header.Number == number {
			b.Seal()
			return &b, nil
		}
		if b.Header.Number > number {
			return nil, fmt.Errorf("archive: block %d missing from segment %s", number, si.Label)
		}
	}
}
