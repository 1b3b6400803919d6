package measure

import (
	"strings"
	"testing"

	"mevscope/internal/chain"
	"mevscope/internal/core/detect"
	"mevscope/internal/core/profit"
	"mevscope/internal/flashbots"
	"mevscope/internal/types"
)

var (
	minerA = types.DeriveAddress("miner", 1)
	minerB = types.DeriveAddress("miner", 2)
	weth   = types.DeriveAddress("tok", 0)
)

// buildChain creates n blocks alternating between two miners with a few
// transactions carrying given gas prices.
func buildChain(t *testing.T, blocksPerMonth uint64, n int) *chain.Chain {
	t.Helper()
	c := chain.New(types.DefaultTimeline(blocksPerMonth))
	for i := 0; i < n; i++ {
		m := minerA
		if i%3 == 2 {
			m = minerB
		}
		num := c.NextNumber()
		tx := &types.Transaction{Nonce: uint64(i), From: types.DeriveAddress("u", uint64(i)), GasPrice: 50 * types.Gwei}
		b := &types.Block{
			Header:   types.Header{Number: num, Time: c.Timeline.TimeOfBlock(num), Miner: m},
			Txs:      []*types.Transaction{tx},
			Receipts: []*types.Receipt{{TxHash: tx.Hash(), Status: types.StatusSuccess, GasUsed: 21_000, EffectiveGasPrice: 50 * types.Gwei}},
		}
		b.Seal()
		if err := c.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func fbRecord(c *chain.Chain, block uint64, miner types.Address, bundles ...[]types.Hash) flashbots.BlockRecord {
	rec := flashbots.BlockRecord{BlockNumber: block, Miner: miner}
	for bi, txs := range bundles {
		for _, h := range txs {
			rec.Txs = append(rec.Txs, flashbots.TxRecord{
				Hash: h, EOA: types.DeriveAddress("eoa", uint64(bi)),
				BundleID: uint64(bi + 1), BundleIndex: bi, BundleType: flashbots.TypeFlashbots,
			})
		}
	}
	return rec
}

func TestMinerSetOnChain(t *testing.T) {
	c := buildChain(t, 10, 30)
	set := MinerSetOnChain(c)
	if !set[minerA] || !set[minerB] || len(set) != 2 {
		t.Errorf("set = %v", set)
	}
}

func TestBuildTable1(t *testing.T) {
	in := Inputs{Profits: []profit.Record{
		{Kind: profit.KindSandwich, ViaFlashbots: true},
		{Kind: profit.KindSandwich},
		{Kind: profit.KindArbitrage, ViaFlashbots: true, ViaFlashLoan: true},
		{Kind: profit.KindArbitrage, ViaFlashLoan: true},
		{Kind: profit.KindLiquidation},
	}}
	tbl := BuildTable1(in)
	if tbl.Rows[0].Extractions != 2 || tbl.Rows[0].ViaFlashbots != 1 {
		t.Errorf("sandwich row = %+v", tbl.Rows[0])
	}
	if tbl.Rows[1].ViaFlashLoans != 2 || tbl.Rows[1].ViaBoth != 1 {
		t.Errorf("arb row = %+v", tbl.Rows[1])
	}
	if tbl.Total.Extractions != 5 {
		t.Errorf("total = %+v", tbl.Total)
	}
	if tbl.Rows[0].Pct(1) != 50 {
		t.Error("pct")
	}
	var zero Table1Row
	if zero.Pct(1) != 0 {
		t.Error("pct of empty row")
	}
	out := tbl.Format()
	if !strings.Contains(out, "Sandwiching") || !strings.Contains(out, "Total") {
		t.Error("format")
	}
}

func TestBuildFigure3And4(t *testing.T) {
	c := buildChain(t, 10, 30) // 3 months
	// Month 1: every minerA block is a Flashbots block.
	var fbs []flashbots.BlockRecord
	c.Range(c.Timeline.FirstBlockOfMonth(1), c.Timeline.FirstBlockOfMonth(2)-1, func(b *types.Block) bool {
		if b.Header.Miner == minerA {
			fbs = append(fbs, fbRecord(c, b.Header.Number, minerA, []types.Hash{b.Txs[0].Hash()}))
		}
		return true
	})
	in := Inputs{Chain: c, FBBlocks: fbs}
	f3 := BuildFigure3(in)
	if len(f3) != 3 {
		t.Fatalf("months = %d", len(f3))
	}
	if f3[0].FlashbotsBlocks != 0 || f3[0].Ratio() != 0 {
		t.Error("month 0 should be empty")
	}
	if f3[1].FlashbotsBlocks != len(fbs) {
		t.Errorf("month 1 fb = %d want %d", f3[1].FlashbotsBlocks, len(fbs))
	}

	f4 := BuildFigure4(in)
	// minerA mines 2/3 of blocks; in month 1 it is a Flashbots miner.
	if f4[1].Value < 0.5 || f4[1].Value > 0.8 {
		t.Errorf("month-1 hashrate estimate = %f", f4[1].Value)
	}
	if f4[0].Value != 0 {
		t.Error("month-0 estimate should be 0")
	}
}

func TestBuildFigure5(t *testing.T) {
	c := buildChain(t, 10, 30)
	fbs := []flashbots.BlockRecord{
		fbRecord(c, c.Timeline.StartBlock+1, minerA, []types.Hash{{1}}),
		fbRecord(c, c.Timeline.StartBlock+2, minerA, []types.Hash{{2}}),
		fbRecord(c, c.Timeline.StartBlock+3, minerB, []types.Hash{{3}}),
	}
	f5 := BuildFigure5(Inputs{Chain: c, FBBlocks: fbs})
	if len(f5.Thresholds) != 5 {
		t.Fatal("thresholds")
	}
	// Thresholds must be strictly increasing.
	for i := 1; i < len(f5.Thresholds); i++ {
		if f5.Thresholds[i] <= f5.Thresholds[i-1] {
			t.Fatal("thresholds not increasing")
		}
	}
	// Month 0: two miners ≥1 block, one miner ≥2 blocks.
	if f5.Counts[0][0] != 2 || f5.Counts[0][1] != 1 {
		t.Errorf("counts = %v", f5.Counts[0])
	}
	if f5.MaxMinersInAnyMonth() != 2 {
		t.Error("peak miners")
	}
}

func TestBuildFigure6(t *testing.T) {
	c := buildChain(t, 10, 30)
	profits := []profit.Record{
		{Kind: profit.KindSandwich, Month: 0, ViaFlashbots: false},
		{Kind: profit.KindSandwich, Month: 1, ViaFlashbots: true},
		{Kind: profit.KindSandwich, Month: 1, ViaFlashbots: false},
		{Kind: profit.KindArbitrage, Month: 1, ViaFlashbots: true}, // not counted
	}
	f6 := BuildFigure6(Inputs{Chain: c, Profits: profits})
	if len(f6.Rows) != 3 {
		t.Fatal("rows")
	}
	if f6.Rows[0].NonFlashbotsSand != 1 || f6.Rows[1].FlashbotsSand != 1 || f6.Rows[1].NonFlashbotsSand != 1 {
		t.Errorf("rows = %+v", f6.Rows)
	}
	if f6.Rows[0].AvgGasPriceGwei != 50 {
		t.Errorf("gas = %f", f6.Rows[0].AvgGasPriceGwei)
	}
	if f6.Rows[0].MedianGasPriceGwei != 50 {
		t.Error("median gas")
	}
}

func TestBuildFigure7(t *testing.T) {
	c := buildChain(t, 10, 30)
	sandTx := types.Hash{9}
	fbs := []flashbots.BlockRecord{
		fbRecord(c, c.Timeline.StartBlock+1, minerA, []types.Hash{sandTx}, []types.Hash{{7}}),
	}
	profits := []profit.Record{
		{Kind: profit.KindSandwich, ViaFlashbots: true, Txs: []types.Hash{sandTx}},
	}
	f7 := BuildFigure7(Inputs{Chain: c, FBBlocks: fbs, Profits: profits})
	if len(f7.Rows) != 1 {
		t.Fatal("rows")
	}
	row := f7.Rows[0]
	if row.Txs["sandwiches"] != 1 || row.Txs["other"] != 1 {
		t.Errorf("txs = %v", row.Txs)
	}
	if row.Searchers["sandwiches"] != 1 || row.Searchers["other"] != 1 {
		t.Errorf("searchers = %v", row.Searchers)
	}
}

func TestBuildFigure8(t *testing.T) {
	c := buildChain(t, 10, 30)
	profits := []profit.Record{
		{Kind: profit.KindSandwich, Extractor: minerA, ViaFlashbots: true, NetETH: types.Ether},
		{Kind: profit.KindSandwich, Extractor: minerA, NetETH: types.Ether / 2},
		{Kind: profit.KindSandwich, Extractor: types.DeriveAddress("s", 1), ViaFlashbots: true, NetETH: types.Ether / 10},
		{Kind: profit.KindSandwich, Extractor: types.DeriveAddress("s", 1), NetETH: types.Ether / 4},
	}
	f8 := BuildFigure8(Inputs{Chain: c, Profits: profits})
	if f8.MinerFB.N != 1 || f8.MinerNonFB.N != 1 || f8.SearcherFB.N != 1 || f8.SearcherNonFB.N != 1 {
		t.Errorf("quadrants = %+v", f8)
	}
	if f8.MinerFB.Mean != 1.0 {
		t.Error("miner FB mean")
	}
}

func TestBuildBundleStats(t *testing.T) {
	c := buildChain(t, 10, 30)
	fbs := []flashbots.BlockRecord{
		fbRecord(c, c.Timeline.StartBlock+1, minerA, []types.Hash{{1}}, []types.Hash{{2}, {3}}),
		fbRecord(c, c.Timeline.StartBlock+2, minerA, []types.Hash{{4}}),
	}
	bs := BuildBundleStats(Inputs{Chain: c, FBBlocks: fbs})
	if bs.Bundles != 3 || bs.FlashbotsBlocks != 2 {
		t.Errorf("stats = %+v", bs)
	}
	if bs.SingleTxBundles != 2 || bs.MaxBundleTxs != 2 {
		t.Error("sizes")
	}
	if bs.SingleTxShare() < 0.66 || bs.SingleTxShare() > 0.67 {
		t.Error("single share")
	}
	if bs.ByType["flashbots"] != 3 {
		t.Error("type counts")
	}
	var zero BundleStats
	if zero.SingleTxShare() != 0 {
		t.Error("empty share")
	}
}

func TestBuildNegativeProfits(t *testing.T) {
	in := Inputs{Profits: []profit.Record{
		{Kind: profit.KindSandwich, ViaFlashbots: true, NetETH: types.Ether},
		{Kind: profit.KindSandwich, ViaFlashbots: true, NetETH: -types.Ether / 2},
		{Kind: profit.KindSandwich, NetETH: -types.Ether}, // non-FB: excluded
	}}
	np := BuildNegativeProfits(in)
	if np.FlashbotsSandwiches != 2 || np.Unprofitable != 1 {
		t.Errorf("np = %+v", np)
	}
	if np.Share() != 0.5 || np.TotalLossETH != 0.5 {
		t.Errorf("share/loss = %f %f", np.Share(), np.TotalLossETH)
	}
	var zero NegativeProfits
	if zero.Share() != 0 {
		t.Error("empty share")
	}
}

func TestBuildFullReportWithoutObserver(t *testing.T) {
	c := buildChain(t, 10, 30)
	in := Inputs{Chain: c, Detect: &detect.Result{}, WETH: weth}
	rep := mergeMonths(t, in)
	if rep.Fig9 != nil {
		t.Error("Fig9 should be nil without inferrer")
	}
	if len(rep.Fig3) == 0 || len(rep.Fig4) == 0 {
		t.Error("monthly series missing")
	}
}

func TestBuildVictimDamage(t *testing.T) {
	in := Inputs{Profits: []profit.Record{
		{Kind: profit.KindSandwich, Month: 9, GainETH: types.Ether},
		{Kind: profit.KindSandwich, Month: 9, GainETH: types.Ether / 2},
		{Kind: profit.KindSandwich, Month: 10, GainETH: -types.Ether}, // failed: no damage
		{Kind: profit.KindArbitrage, Month: 9, GainETH: types.Ether},  // not a sandwich
	}}
	vd := BuildVictimDamage(in)
	if vd.Victims != 2 {
		t.Errorf("victims = %d", vd.Victims)
	}
	if vd.TotalETH != 1.5 {
		t.Errorf("total = %f", vd.TotalETH)
	}
	if vd.PerMonth[9] != 1.5 || vd.PerMonth[10] != 0 {
		t.Errorf("per month = %v", vd.PerMonth)
	}
	if vd.Summary.N != 2 {
		t.Error("summary")
	}
}

func TestBuildConcentration(t *testing.T) {
	c := buildChain(t, 10, 30)
	fbs := []flashbots.BlockRecord{
		fbRecord(c, c.Timeline.StartBlock+1, minerA, []types.Hash{{1}}),
		fbRecord(c, c.Timeline.StartBlock+2, minerA, []types.Hash{{2}}),
		fbRecord(c, c.Timeline.StartBlock+3, minerA, []types.Hash{{3}}),
		fbRecord(c, c.Timeline.StartBlock+4, minerB, []types.Hash{{4}}),
	}
	conc := BuildConcentration(Inputs{Chain: c, FBBlocks: fbs})
	if conc.Miners != 2 {
		t.Errorf("miners = %d", conc.Miners)
	}
	if conc.Top2Share != 1.0 {
		t.Errorf("top2 = %f", conc.Top2Share)
	}
	if g := conc.GiniPerMonth[0]; g <= 0 {
		t.Errorf("gini = %f (3-vs-1 split should be unequal)", g)
	}
	empty := BuildConcentration(Inputs{Chain: c})
	if empty.Top2Share != 0 || empty.Miners != 0 {
		t.Error("empty dataset")
	}
}
