package measure

import (
	"reflect"
	"testing"

	"mevscope/internal/core/detect"
	"mevscope/internal/core/profit"
	"mevscope/internal/flashbots"
	"mevscope/internal/types"
)

// mergeMonths runs the batch report path over full-range inputs: cut
// them into month inputs, freeze each month as a partial and merge.
func mergeMonths(t *testing.T, in Inputs) *Report {
	t.Helper()
	tl := in.Chain.Timeline
	first := tl.MonthOfBlock(tl.StartBlock)
	last := tl.MonthOfBlock(in.Chain.Head().Header.Number)
	var parts []*Partial
	for m := first; m <= last; m++ {
		mi := in
		mi.Chain = in.Chain.Month(m)
		mi.FBBlocks = nil
		for _, rec := range in.FBBlocks {
			if tl.MonthOfBlock(rec.BlockNumber) == m {
				mi.FBBlocks = append(mi.FBBlocks, rec)
			}
		}
		mi.Profits = nil
		for _, r := range in.Profits {
			if r.Month == m {
				mi.Profits = append(mi.Profits, r)
			}
		}
		p, err := NewPartial(mi, nil, nil)
		if err != nil {
			t.Fatalf("month %s: %v", m.Label(), err)
		}
		parts = append(parts, p)
	}
	rep, err := MergePartials(parts, in.View, in.Workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestAccumulatorMatchesBatchAggregates: feeding blocks one at a time
// must produce the same report as the batch path — month partials of
// the finished chain, merged — the streaming/batch seam contract at the
// measure layer.
func TestAccumulatorMatchesBatchAggregates(t *testing.T) {
	c := buildChain(t, 10, 35) // 3.5 months on two miners
	var fbs []flashbots.BlockRecord
	for _, b := range c.Blocks() {
		// Every 4th block is a Flashbots block carrying its first tx.
		if b.Header.Number%4 == 0 && len(b.Txs) > 0 {
			fbs = append(fbs, fbRecord(c, b.Header.Number, b.Header.Miner, []types.Hash{b.Txs[0].Hash()}))
		}
	}
	in := Inputs{
		Chain:    c,
		FBBlocks: fbs,
		FBSet:    map[types.Hash]flashbots.BundleType{},
		Detect:   &detect.Result{FlashLoanTxs: map[types.Hash]bool{}},
		Profits: []profit.Record{
			{Kind: profit.KindSandwich, Month: 0, ViaFlashbots: true, GainETH: types.Ether, NetETH: types.Milliether},
			{Kind: profit.KindSandwich, Month: 1, GainETH: types.Ether, NetETH: -types.Milliether},
		},
		WETH:    weth,
		Workers: 2,
	}

	// Streaming: one FeedBlock per block, in height order.
	acc := NewAccumulator(c.Timeline, weth)
	fi := 0
	for _, b := range c.Blocks() {
		var rec *flashbots.BlockRecord
		if fi < len(fbs) && fbs[fi].BlockNumber == b.Header.Number {
			rec = &fbs[fi]
			fi++
		}
		acc.FeedBlock(b, rec)
	}
	if got := len(acc.FBBlocks()); got != len(fbs) {
		t.Fatalf("accumulator holds %d FB records, want %d", got, len(fbs))
	}

	streamed := acc.Report(in, nil)
	batch := mergeMonths(t, in)
	if !reflect.DeepEqual(streamed.Fig3, batch.Fig3) {
		t.Errorf("Fig3 differs:\n stream %+v\n batch  %+v", streamed.Fig3, batch.Fig3)
	}
	if !reflect.DeepEqual(streamed.Fig4, batch.Fig4) {
		t.Errorf("Fig4 differs:\n stream %+v\n batch  %+v", streamed.Fig4, batch.Fig4)
	}
	if !reflect.DeepEqual(streamed.Fig6, batch.Fig6) {
		t.Errorf("Fig6 differs:\n stream %+v\n batch  %+v", streamed.Fig6, batch.Fig6)
	}
	if !reflect.DeepEqual(streamed.Fig8, batch.Fig8) {
		t.Errorf("Fig8 differs:\n stream %+v\n batch  %+v", streamed.Fig8, batch.Fig8)
	}
	if !reflect.DeepEqual(streamed.Table1, batch.Table1) {
		t.Errorf("Table1 differs")
	}
	if !reflect.DeepEqual(streamed.Concentration, batch.Concentration) {
		t.Errorf("Concentration differs")
	}
}
