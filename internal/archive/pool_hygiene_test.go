package archive_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"mevscope/internal/archive"
)

// dataFiles lists every data file record of a v3 manifest: the column
// chunks of every segment, then the prices file.
func dataFiles(man *archive.Manifest) []archive.FileInfo {
	var out []archive.FileInfo
	for _, si := range man.Segments {
		for _, ci := range si.Columns {
			out = append(out, ci.File)
		}
	}
	return append(out, man.Prices)
}

// TestPooledWritersStayClean: the v3 encoder recycles its deflaters and
// bufio buffers across chunks, segments and concurrent Writes, and
// checksums each file over the bytes as written. No state may leak from
// one chunk into the next — not even from a write that failed part-way
// through a chunk — and the recorded checksum must be the one a reader
// recomputes from disk.
func TestPooledWritersStayClean(t *testing.T) {
	ds := benchDataset(t)
	write := func(dir string) *archive.Manifest {
		t.Helper()
		man, err := archive.Write(dir, ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		return man
	}
	same := func(what string, want, got *archive.Manifest) {
		t.Helper()
		a, b := dataFiles(want), dataFiles(got)
		if len(a) != len(b) {
			t.Fatalf("%s: %d data files, cold write had %d", what, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: %s is %+v, cold write gave %+v", what, b[i].Name, b[i], a[i])
			}
		}
	}

	coldDir := t.TempDir()
	cold := write(coldDir) // the pools start empty here
	files := dataFiles(cold)
	for _, fi := range files {
		if err := archive.VerifyFile(coldDir, fi); err != nil {
			t.Errorf("checksum as written disagrees with the file on disk: %v", err)
		}
	}

	var wg sync.WaitGroup
	mans := make([]*archive.Manifest, 2)
	for i := range mans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			man, err := archive.Write(t.TempDir(), ds, nil)
			if err != nil {
				t.Error(err)
				return
			}
			mans[i] = man
		}(i)
	}
	wg.Wait()
	for i, man := range mans {
		if man != nil {
			same("concurrent write "+string(rune('A'+i)), cold, man)
		}
	}

	// Fail a Write part-way through its largest chunk: the chunk file
	// is a link to a device that refuses every write, so the error
	// surfaces once the chunk's compressed bytes overflow the bufio
	// buffer, with the deflater mid-stream.
	const devFull = "/dev/full"
	if _, err := os.Stat(devFull); err != nil {
		t.Skipf("no %s to fail a write with: %v", devFull, err)
	}
	largest := files[0]
	for _, fi := range files {
		if fi.Bytes > largest.Bytes {
			largest = fi
		}
	}
	if largest.Bytes <= 64<<10 {
		t.Fatalf("largest chunk %s is %d bytes, too small to fail past the 64 KiB bufio buffer", largest.Name, largest.Bytes)
	}
	failDir := t.TempDir()
	link := filepath.Join(failDir, filepath.FromSlash(largest.Name))
	if err := os.MkdirAll(filepath.Dir(link), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(devFull, link); err != nil {
		t.Fatal(err)
	}
	if _, err := archive.Write(failDir, ds, nil); err == nil {
		t.Fatalf("Write through %s succeeded; want a write error", largest.Name)
	} else {
		t.Logf("failed write (as intended): %v", err)
	}
	same("write after a failed write", cold, write(t.TempDir()))
}
