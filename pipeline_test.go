package mevscope

import (
	"bytes"
	"testing"

	"mevscope/internal/dataset"
	"mevscope/internal/sim"
)

// TestAnalyzeParallelDeterminism is the pipeline's core guarantee: for a
// fixed simulation, AnalyzeDataset produces a byte-identical report for every
// worker count, including the fully sequential path.
func TestAnalyzeParallelDeterminism(t *testing.T) {
	cfg := sim.DefaultConfig(99)
	cfg.BlocksPerMonth = 60
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}

	render := func(workers int) []byte {
		st, err := AnalyzeDataset(dataset.FromSim(s), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		st.WriteReport(&buf)
		return buf.Bytes()
	}

	sequential := render(1)
	if len(sequential) == 0 {
		t.Fatal("empty sequential report")
	}
	for _, workers := range []int{2, 4, 7, 16} {
		if got := render(workers); !bytes.Equal(got, sequential) {
			t.Errorf("report with %d workers differs from sequential", workers)
		}
	}
	// The default path (NumCPU) must match too.
	st, err := AnalyzeDataset(dataset.FromSim(s), -1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	st.WriteReport(&buf)
	if !bytes.Equal(buf.Bytes(), sequential) {
		t.Error("AnalyzeDataset (default workers) differs from sequential")
	}
}

// TestAnalyzeParallelStructuralEquality re-checks determinism at the
// artifact level (counts, not just rendering) on a second seed.
func TestAnalyzeParallelStructuralEquality(t *testing.T) {
	cfg := sim.DefaultConfig(1234)
	cfg.BlocksPerMonth = 40
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	seq, err := AnalyzeDataset(dataset.FromSim(s), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := AnalyzeDataset(dataset.FromSim(s), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Detected.Sandwiches) != len(par.Detected.Sandwiches) ||
		len(seq.Detected.Arbitrages) != len(par.Detected.Arbitrages) ||
		len(seq.Detected.Liquidations) != len(par.Detected.Liquidations) {
		t.Error("detector sweeps differ")
	}
	for i := range seq.Detected.Sandwiches {
		if seq.Detected.Sandwiches[i] != par.Detected.Sandwiches[i] {
			t.Fatalf("sandwich %d differs", i)
		}
	}
	if len(seq.Profits) != len(par.Profits) {
		t.Fatalf("profit counts differ: %d vs %d", len(seq.Profits), len(par.Profits))
	}
	for i := range seq.Profits {
		if seq.Profits[i].NetETH != par.Profits[i].NetETH || seq.Profits[i].Kind != par.Profits[i].Kind {
			t.Fatalf("profit record %d differs", i)
		}
	}
	if seq.Report.Table1.Total != par.Report.Table1.Total {
		t.Error("Table 1 totals differ")
	}
}

// TestRunEnsembleSeedOrderIndependence: the merged stats must not depend
// on the order seeds are passed in or on the fan-out parallelism.
func TestRunEnsembleSeedOrderIndependence(t *testing.T) {
	base := Options{BlocksPerMonth: 30, Scenario: "baseline"}
	a, err := RunEnsembleWith(base, []int64{5, 3, 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunEnsembleWith(base, []int64{9, 5, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.Format(), b.Format(); got != want {
		t.Errorf("ensemble reports differ across seed orderings:\n--- a ---\n%s\n--- b ---\n%s", got, want)
	}
	if len(a.Seeds) != 3 || a.Seeds[0] != 3 || a.Seeds[2] != 9 {
		t.Errorf("seeds not normalized ascending: %v", a.Seeds)
	}
}

// TestRunEnsembleStats sanity-checks the merged cells: means sit inside
// the per-seed range and a two-seed ensemble has nonzero spread somewhere.
func TestRunEnsembleStats(t *testing.T) {
	ens, err := RunEnsemble([]int64{1, 2}, "baseline", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ens.Table1) != 4 {
		t.Fatalf("Table1 rows = %d, want 4 (three strategies + total)", len(ens.Table1))
	}
	total := ens.Table1[3]
	if total.Strategy != "Total" {
		t.Errorf("last row = %q", total.Strategy)
	}
	if total.Extractions.N != 2 {
		t.Errorf("cell N = %d, want 2", total.Extractions.N)
	}
	if total.Extractions.Mean <= 0 {
		t.Error("no extractions measured")
	}
	if total.Extractions.Mean < total.Extractions.Min || total.Extractions.Mean > total.Extractions.Max {
		t.Error("mean outside min/max")
	}
	if len(ens.Fig3Ratio) == 0 || len(ens.Fig4Hashrate) == 0 {
		t.Error("monthly series missing")
	}
	if ens.Fig9Runs != 2 {
		t.Errorf("Fig9 runs = %d, want 2 (observer live at this scale)", ens.Fig9Runs)
	}
}

// TestRunEnsembleScenario runs the no-Flashbots ablation ensemble and
// checks the counterfactual actually bites: no Flashbots extractions.
func TestRunEnsembleScenario(t *testing.T) {
	ens, err := RunEnsembleWith(Options{BlocksPerMonth: 20, Months: 12, Scenario: "no-flashbots"}, []int64{4, 8}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ens.Scenario != "no-flashbots" {
		t.Errorf("scenario = %q", ens.Scenario)
	}
	total := ens.Table1[3]
	if total.ViaFlashbots.Mean != 0 || total.ViaFlashbots.Max != 0 {
		t.Errorf("no-flashbots world still shows Flashbots extractions: %+v", total.ViaFlashbots)
	}
	if total.Extractions.Mean == 0 {
		t.Error("MEV should persist in the public auction")
	}
}

func TestRunEnsembleRejectsBadInput(t *testing.T) {
	if _, err := RunEnsemble(nil, "baseline", 1); err == nil {
		t.Error("empty seed list should error")
	}
	if _, err := RunEnsemble([]int64{1}, "not-a-scenario", 1); err == nil {
		t.Error("unknown scenario should error")
	}
}
