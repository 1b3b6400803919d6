package archive

// VerifyFile exposes verifyFile to the external tests: it re-reads a
// data file from disk and checks it against its integrity record.
func VerifyFile(root string, fi FileInfo) error {
	_, err := verifyFile(root, fi)
	return err
}
