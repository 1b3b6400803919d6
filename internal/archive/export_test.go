package archive

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// VerifyFile re-reads a data file from disk and checks it against its
// integrity record, for the external tests.
func VerifyFile(root string, fi FileInfo) error {
	f, err := os.Open(filepath.Join(root, filepath.FromSlash(fi.Name)))
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return err
	}
	if hex.EncodeToString(h.Sum(nil)) != fi.SHA256 || n != fi.Bytes {
		return fmt.Errorf("%s is corrupt (checksum mismatch)", fi.Name)
	}
	return nil
}
