package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mevscope"
)

// TestParseArgsRejectsBadInput: stray positionals and invalid flags must
// error (main exits 2) before any simulation work.
func TestParseArgsRejectsBadInput(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"extra"}, "unexpected argument"},
		{[]string{"-out", "d", "extra"}, "unexpected argument"},
		{[]string{"-bpm", "0"}, "-bpm must be positive"},
		{[]string{"-out", ""}, "-out DIR must not be empty"},
		{[]string{"-nope"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		_, err := parseArgs(c.args)
		if err == nil {
			t.Errorf("args %v accepted; want error containing %q", c.args, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not contain %q", c.args, err, c.want)
		}
	}
}

// TestParseArgsAcceptsValidInput: defaults and explicit flags parse.
func TestParseArgsAcceptsValidInput(t *testing.T) {
	o, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 42 || o.bpm != 400 || o.out != "dataset" {
		t.Errorf("defaults = %+v", o)
	}
	o, err = parseArgs([]string{"-seed", "9", "-bpm", "50", "-out", "x"})
	if err != nil {
		t.Fatal(err)
	}
	if o.seed != 9 || o.bpm != 50 || o.out != "x" {
		t.Errorf("options = %+v", o)
	}
}

// TestSaveJSONLReportsWriteErrors: a file that refuses every write (a
// link to /dev/full) must surface as an error from saveJSONL, not as a
// silently empty collection.
func TestSaveJSONLReportsWriteErrors(t *testing.T) {
	const devFull = "/dev/full"
	if _, err := os.Stat(devFull); err != nil {
		t.Skipf("no %s to fail a write with: %v", devFull, err)
	}
	dir := t.TempDir()
	if err := os.Symlink(devFull, filepath.Join(dir, "mev.jsonl")); err != nil {
		t.Fatal(err)
	}
	docs := []mevDoc{{Kind: "sandwich", Block: 1}, {Kind: "arbitrage", Block: 2}}
	if err := saveJSONL(dir, "mev", docs); err == nil {
		t.Fatal("save through /dev/full succeeded; want a write error")
	} else if !strings.Contains(err.Error(), "save mev") {
		t.Errorf("error %q does not name the collection", err)
	}
}

// TestSaveStudyRoundTrip: a tiny world's three collections parse back
// line by line, with exactly the counts saveStudy reports (the counts
// chaingen prints) and the study holds.
func TestSaveStudyRoundTrip(t *testing.T) {
	study, err := mevscope.Run(mevscope.Options{Seed: 3, BlocksPerMonth: 20})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	n, err := saveStudy(dir, study)
	if err != nil {
		t.Fatal(err)
	}
	pending := 0
	for _, v := range study.Sim.Net.Vantages() {
		pending += v.Count()
	}
	want := saved{len(study.Profits), pending, len(study.Sim.Relay.Blocks())}
	if n != want {
		t.Errorf("saveStudy reported %+v, study holds %+v", n, want)
	}
	if n.mev == 0 || n.pending == 0 || n.fbBlocks == 0 {
		t.Errorf("tiny world saved an empty collection: %+v", n)
	}
	if got := loadJSONL[mevDoc](t, dir, "mev"); got != n.mev {
		t.Errorf("mev.jsonl parses to %d documents, saved %d", got, n.mev)
	}
	if got := loadJSONL[pendingDoc](t, dir, "pending_transactions"); got != n.pending {
		t.Errorf("pending_transactions.jsonl parses to %d documents, saved %d", got, n.pending)
	}
	if got := loadJSONL[fbBlockDoc](t, dir, "flashbots_blocks"); got != n.fbBlocks {
		t.Errorf("flashbots_blocks.jsonl parses to %d documents, saved %d", got, n.fbBlocks)
	}
}

// loadJSONL parses dir/<name>.jsonl strictly — one T per line, no
// unknown fields — and returns the document count.
func loadJSONL[T any](t *testing.T, dir, name string) int {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, name+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		if line == "" {
			continue
		}
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		var doc T
		if err := dec.Decode(&doc); err != nil {
			t.Fatalf("%s line %d: %v", name, n+1, err)
		}
		n++
	}
	return n
}
