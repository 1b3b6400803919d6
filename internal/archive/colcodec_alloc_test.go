package archive

import (
	"path/filepath"
	"runtime"
	"testing"

	"mevscope/internal/types"
)

// The chunk allocation pins. A v3 Write calls writeChunk once per
// (segment, column) file and a v3 restore calls readChunk once per file,
// and a projected artifact serve does so for every month in the range.
// The per-chunk scratch — a deflater and a 64 KiB bufio buffer on the
// way out, an inflater, two 64 KiB bufio buffers and the decompressed
// body on the way in — used to be freshly allocated on every call. These
// tests pin the pooled steady state so the scratch cannot quietly start
// re-allocating per chunk again.

// testRows is the synthetic chunk's row count.
const testRows = 512

// testColWriter builds one synthetic chunk with busy dictionaries and a
// varint-heavy body — the shape a real headers or transactions column
// has.
func testColWriter() *colWriter {
	w := newColWriter()
	for i := 0; i < testRows; i++ {
		var a types.Address
		a[0], a[1] = byte(i), byte(i>>8)
		w.addr(a)
		var h types.Hash
		h[0], h[1] = byte(i), byte(i>>8)
		w.hash(h)
		w.uvarint(uint64(i) * 7)
		w.svarint(int64(i) - testRows/2)
	}
	return w
}

// writeTestChunk persists the synthetic chunk.
func writeTestChunk(tb testing.TB) (root string, fi FileInfo) {
	tb.Helper()
	root = tb.TempDir()
	fi, err := writeChunk(root, filepath.Join(root, "seg-test"), ColHeaders, testRows, testColWriter())
	if err != nil {
		tb.Fatal(err)
	}
	return root, fi
}

// decodeTestChunk runs one full readChunk and drains the rows, so the
// measured region covers everything a column decoder pays per chunk.
func decodeTestChunk(tb testing.TB, root string, fi FileInfo) {
	r, err := readChunk(root, fi, ColHeaders)
	if err != nil {
		tb.Fatal(err)
	}
	defer r.release()
	for i := 0; i < testRows; i++ {
		r.addr()
		r.hash()
		r.uvarint()
		r.svarint()
	}
	if err := r.done(); err != nil {
		tb.Fatal(err)
	}
}

// TestChunkDecodeAllocs pins the steady-state allocation cost of one
// chunk decode. The count barely moves when the scratch pools are
// removed (a handful of extra allocations), but the bytes do: a fresh
// gzip inflater plus two fresh 64 KiB bufio readers cost over 160 KiB
// of garbage per chunk on top of the retained output — so the pin is on
// allocated bytes, with the count as a looser secondary guard.
func TestChunkDecodeAllocs(t *testing.T) {
	root, fi := writeTestChunk(t)
	decodeTestChunk(t, root, fi) // warm the scratch pools
	bytesPer, allocsPer := perCall(func() { decodeTestChunk(t, root, fi) })
	t.Logf("per chunk decode: %.0f bytes, %.1f allocs", bytesPer, allocsPer)
	if bytesPer > 100<<10 {
		t.Errorf("chunk decode allocates %.0f bytes, want ≤ %d (is the decode scratch still pooled?)",
			bytesPer, 100<<10)
	}
	if allocsPer > 100 {
		t.Errorf("chunk decode costs %.1f allocs, want ≤ 100", allocsPer)
	}
}

// TestChunkEncodeAllocs pins the steady-state cost of writing one chunk.
// A fresh deflater at chunkLevel allocates about 0.9 MB, so a writeChunk
// that goes back to one deflater per chunk blows the byte bound many
// times over; what remains is the file, hash and path bookkeeping.
func TestChunkEncodeAllocs(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "seg-test")
	w := testColWriter()
	write := func() {
		if _, err := writeChunk(root, dir, ColHeaders, testRows, w); err != nil {
			t.Fatal(err)
		}
	}
	write() // warm the scratch pools
	bytesPer, allocsPer := perCall(write)
	t.Logf("per chunk encode: %.0f bytes, %.1f allocs", bytesPer, allocsPer)
	limit := 64 << 10
	if raceEnabled {
		// Under the race detector sync.Pool drops a quarter of what is
		// Put, so a pooled deflater is re-made every few chunks; only a
		// deflater per chunk still stands out.
		limit = 512 << 10
	}
	if bytesPer > float64(limit) {
		t.Errorf("chunk encode allocates %.0f bytes, want ≤ %d (is the deflater still pooled?)",
			bytesPer, limit)
	}
	if allocsPer > 50 {
		t.Errorf("chunk encode costs %.1f allocs, want ≤ 50", allocsPer)
	}
}

// perCall runs f many times from a collected heap and returns the mean
// bytes and allocations per call.
func perCall(f func()) (bytesPer, allocsPer float64) {
	const runs = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs, float64(after.Mallocs-before.Mallocs) / runs
}

// BenchmarkArchiveChunkDecode is the single-chunk decode number behind
// the pin above, in CI's BENCH_archive artifact next to the full-restore
// benchmarks.
func BenchmarkArchiveChunkDecode(b *testing.B) {
	root, fi := writeTestChunk(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeTestChunk(b, root, fi)
	}
}

// BenchmarkArchiveChunkEncode is the single-chunk encode number behind
// TestChunkEncodeAllocs, next to the decode one in CI's BENCH_archive
// artifact.
func BenchmarkArchiveChunkEncode(b *testing.B) {
	root := b.TempDir()
	dir := filepath.Join(root, "seg-test")
	w := testColWriter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := writeChunk(root, dir, ColHeaders, testRows, w); err != nil {
			b.Fatal(err)
		}
	}
}
