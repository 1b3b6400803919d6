package archive

import (
	"fmt"
	"os"
	"path/filepath"

	"mevscope/internal/store"
)

// The v1 on-disk encoding: plain JSON-lines data files written and read
// through the document store. New archives default to v3 (v3.go); this
// path stays so every archive written by earlier releases keeps reading
// transparently, and `mevscope archive -format v1` can still produce it.

// writeJSONL persists docs as <segDir>/<name>.jsonl in the document
// store's JSON-lines encoding and returns its integrity record with a
// path relative to root.
func writeJSONL[T any](root, segDir, name string, docs []T) (FileInfo, error) {
	col := store.NewCollection[T](name)
	col.InsertAll(docs...)
	return writeFile(root, segDir, name, ".jsonl", len(docs), col.WriteJSON)
}

// readJSONL loads one data file through the document store after
// verifying its checksum and document count against the manifest.
func readJSONL[T any](root string, fi FileInfo) ([]T, error) {
	path, err := verifyFile(root, fi)
	if err != nil {
		return nil, err
	}
	col := store.NewCollection[T](filepath.Base(fi.Name))
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if err := col.ReadJSON(f); err != nil {
		return nil, fmt.Errorf("archive: %s: %w", fi.Name, err)
	}
	if col.Count() != fi.Count {
		return nil, fmt.Errorf("archive: %s has %d documents, manifest says %d", fi.Name, col.Count(), fi.Count)
	}
	return col.All(), nil
}
