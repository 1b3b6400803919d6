package mevscope

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"

	"mevscope/internal/dataset"
	"mevscope/internal/sim"
	"mevscope/internal/stream"
)

// TestSingleVantageScenarioGolden: the single-vantage scenario is the
// paper baseline made explicit — its report must be byte-identical to
// the golden capture, proving the observation-network refactor changed
// nothing about the single-observer world.
func TestSingleVantageScenarioGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/report_seed1234_bpm100.golden")
	if err != nil {
		t.Fatal(err)
	}
	st, err := Run(Options{Seed: 1234, BlocksPerMonth: 100, Scenario: "single-vantage"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st.WriteReport(&buf)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("single-vantage scenario drifted from the golden report")
	}
}

// Shared multi-vantage study for the root-level acceptance tests.
var (
	unionOnce  sync.Once
	unionStudy *Study
	unionErr   error
)

func multiVantageStudy(t *testing.T) *Study {
	t.Helper()
	unionOnce.Do(func() {
		unionStudy, unionErr = Run(Options{Seed: 99, BlocksPerMonth: 60, Scenario: "multi-vantage-union"})
	})
	if unionErr != nil {
		t.Fatal(unionErr)
	}
	return unionStudy
}

// TestMultiVantageUnionObservesMore: on the same world, the union of
// four vantages records strictly more distinct pending transactions
// than the paper's single vantage, and therefore classifies no more
// sandwiches as private.
func TestMultiVantageUnionObservesMore(t *testing.T) {
	st := multiVantageStudy(t)
	vs := st.Sim.Net.Vantages()
	if len(vs) != 4 {
		t.Fatalf("multi-vantage-union world has %d vantages, want 4", len(vs))
	}
	ds := dataset.FromSim(st.Sim)
	ds.View = Options{Scenario: "multi-vantage-union"}.resolvedView()
	if ds.View != "union" {
		t.Fatalf("scenario view = %q, want union", ds.View)
	}
	union, err := ds.ResolveView()
	if err != nil {
		t.Fatal(err)
	}
	single := vs[0].Count()
	if union.Count() <= single {
		t.Fatalf("union observed %d txs, single vantage %d — union must be strictly larger", union.Count(), single)
	}

	// The report's sensitivity artifact carries the same facts.
	vsens := st.Report.VantageSensitivity
	if len(vsens.Vantages) != 4 {
		t.Fatalf("sensitivity tracks %d vantages, want 4", len(vsens.Vantages))
	}
	if vsens.Union.Observed != union.Count() {
		t.Errorf("sensitivity union observed = %d, view says %d", vsens.Union.Observed, union.Count())
	}
	for _, v := range vsens.Vantages {
		if v.PrivateSandwiches < vsens.Union.PrivateSandwiches {
			t.Errorf("vantage %d private count %d below the union's %d — a single vantage can only overcount private",
				v.Vantage, v.PrivateSandwiches, vsens.Union.PrivateSandwiches)
		}
	}

	// The artifact renders with rows, and the multi-vantage text report
	// carries the sensitivity section (the single-vantage one must not —
	// that's what keeps the golden byte-identical).
	a, ok := st.Report.Artifact("vantage_sensitivity")
	if !ok || len(a.Rows) == 0 {
		t.Fatalf("vantage_sensitivity artifact missing or empty (rows=%d)", len(a.Rows))
	}
	var txt bytes.Buffer
	st.WriteReport(&txt)
	if !strings.Contains(txt.String(), "vantage sensitivity") {
		t.Error("multi-vantage text report is missing the sensitivity section")
	}
}

// TestMultiVantageParallelDeterminism: the multi-vantage pipeline keeps
// the repo-wide guarantee — byte-identical reports at any worker count.
func TestMultiVantageParallelDeterminism(t *testing.T) {
	st := multiVantageStudy(t)
	render := func(workers int) []byte {
		ds := dataset.FromSim(st.Sim)
		ds.View = "union"
		rst, err := AnalyzeDataset(ds, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		rst.WriteReport(&buf)
		return buf.Bytes()
	}
	sequential := render(1)
	if len(sequential) == 0 {
		t.Fatal("empty sequential report")
	}
	for _, workers := range []int{4, 8} {
		if got := render(workers); !bytes.Equal(got, sequential) {
			t.Errorf("multi-vantage report with %d workers differs from sequential", workers)
		}
	}
}

// TestDegradedObserverLosesCoverage: the degraded-observer scenario's
// flaky vantage records less than the healthy baseline observer on the
// same seed/scale, and its outage windows are really blind.
func TestDegradedObserverLosesCoverage(t *testing.T) {
	run := func(scenario string) *Study {
		st, err := Run(Options{Seed: 5, BlocksPerMonth: 40, Scenario: scenario})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	healthy := run("baseline")
	degraded := run("degraded-observer")
	h := healthy.Sim.Net.Observer().Count()
	d := degraded.Sim.Net.Observer().Count()
	if d >= h {
		t.Errorf("degraded observer recorded %d txs, healthy %d — degradation should lose coverage", d, h)
	}
	// Nothing recorded inside an outage window.
	cfg := degraded.Sim.Cfg.Net
	if len(cfg.Vantages) != 1 || len(cfg.Vantages[0].Outages) != 2 {
		t.Fatalf("degraded scenario vantages = %+v", cfg.Vantages)
	}
	for _, rec := range degraded.Sim.Net.Observer().Records() {
		for _, w := range cfg.Vantages[0].Outages {
			if rec.FirstSeenBlock >= w.Start && rec.FirstSeenBlock <= w.Stop {
				t.Fatalf("record at block %d falls inside outage %d..%d", rec.FirstSeenBlock, w.Start, w.Stop)
			}
		}
	}
	// Fewer observations mean at least as many private classifications.
	if healthy.Report.Fig9 != nil && degraded.Report.Fig9 != nil {
		if degraded.Report.Fig9.Split.Private < healthy.Report.Fig9.Split.Private {
			t.Errorf("degraded private count %d below healthy %d", degraded.Report.Fig9.Split.Private, healthy.Report.Fig9.Split.Private)
		}
	}
}

// TestStreamMatchesBatchMultiVantage: the streaming follower over a
// multi-vantage world snapshots a report byte-identical to the batch
// pipeline — the incremental seams carry the vantage logs too.
func TestStreamMatchesBatchMultiVantage(t *testing.T) {
	opts := Options{Seed: 42, BlocksPerMonth: 40, Scenario: "multi-vantage-union"}
	cfg, err := opts.Config()
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	batch, err := AnalyzeDataset(dataset.FromSim(s), 2)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	batch.WriteReport(&want)
	// The vantage artifact must be populated in the batch path.
	if len(batch.Report.VantageSensitivity.Vantages) != 4 {
		t.Fatalf("batch sensitivity tracks %d vantages", len(batch.Report.VantageSensitivity.Vantages))
	}
	if !strings.Contains(want.String(), "vantage sensitivity") {
		t.Fatal("batch report missing the sensitivity section")
	}

	f := stream.ForSim(s, 2)
	if _, err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	WriteReportTo(&got, f.Report())
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("streamed multi-vantage report differs from batch")
	}
}
