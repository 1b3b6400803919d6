package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"mevscope"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/obs"
	"mevscope/internal/sim"
)

// goldenFile is the repository's pinned report of the seed-1234, bpm-100
// world, relative to the repository root.
var goldenFile = filepath.Join("testdata", "report_seed1234_bpm100.golden")

// world is the set-up state every workload shares: one simulated world
// and the reference report every output is checked against.
type world struct {
	sim    *sim.Sim
	ds     *dataset.Dataset
	report *measure.Report
	ref    []byte // the reference report's text rendering
	txs    int
}

// worldSetup is the set-up every workload starts from: the world at the
// run's seed and scale.
type worldSetup struct{ w *world }

func (s *worldSetup) setup(b *bench) error {
	w, err := buildWorld(b.Seed, b.Scale)
	if err != nil {
		return err
	}
	s.w = w
	b.blocks = w.sim.Chain.Len()
	return nil
}

// options are the mevscope options of the benchmark world at a seed.
func options(seed int64, bpm uint64) mevscope.Options {
	return mevscope.Options{Seed: seed, BlocksPerMonth: bpm}
}

// buildWorld simulates the baseline world at the given seed and scale and
// analyzes it sequentially (Parallelism 1) into the reference report. The
// reference is the sequential path on purpose: every measured operation
// runs with Parallelism 2, so a byte-equal output also shows that the
// worker count did not change the report.
func buildWorld(seed int64, sc scale) (*world, error) {
	cfg, err := options(seed, sc.BPM).Config()
	if err != nil {
		return nil, err
	}
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	if err := s.Run(); err != nil {
		return nil, err
	}
	ds := dataset.FromSim(s)
	st, err := mevscope.AnalyzeDataset(ds, 1)
	if err != nil {
		return nil, err
	}
	w := &world{sim: s, ds: ds, report: st.Report, ref: render(nil, st.Report)}
	for _, b := range s.Chain.Blocks() {
		w.txs += len(b.Txs)
	}
	return w, nil
}

// render writes a report as text under a bench:render span.
func render(parent *obs.Span, r *measure.Report) []byte {
	sp := parent.Child(spanRender)
	defer sp.End()
	var buf bytes.Buffer
	mevscope.WriteReportTo(&buf, r)
	return buf.Bytes()
}

// goldenCheck pins the benchmark's reference path to the repository's
// golden report: the world at seed 1234 and bpm 100, analyzed the way
// every reference is, must render byte-identical to it. Without this a
// change that altered every report alike would still pass every
// byte-equal check against its own reference.
func goldenCheck(b *bench) error {
	want, err := os.ReadFile(filepath.Join(b.Root, goldenFile))
	if err != nil {
		return fmt.Errorf("golden self-check: %w", err)
	}
	w, err := buildWorld(1234, scale{BPM: 100})
	if err != nil {
		return fmt.Errorf("golden self-check: %w", err)
	}
	b.check(bytes.Equal(w.ref, want), "reference at seed 1234, bpm 100 differs from %s", goldenFile)
	return nil
}
