package measure

import (
	"sort"

	"mevscope/internal/core/privinfer"
	"mevscope/internal/core/profit"
	"mevscope/internal/flashbots"
	"mevscope/internal/obs"
	"mevscope/internal/parallel"
	"mevscope/internal/stats"
	"mevscope/internal/types"
)

// monthAgg is the chain-derived state of one study month: everything the
// report builders need from the raw blocks, accumulated in block order so
// floating-point reductions reproduce the batch pass exactly.
type monthAgg struct {
	// blocks is the number of blocks minted in the month.
	blocks int
	// miners holds the coinbase of each block, in height order (Figure 4
	// needs per-block membership checks against the month's Flashbots
	// miner set, which is only complete once the month ends).
	miners []types.Address
	// gasSum and gas accumulate every receipt's effective gas price in
	// gwei, in receipt order — the Figure 6 sweep.
	gasSum float64
	gas    []float64
}

// feed folds one block into the aggregate.
func (agg *monthAgg) feed(b *types.Block) {
	agg.blocks++
	agg.miners = append(agg.miners, b.Header.Miner)
	for _, rcpt := range b.Receipts {
		g := float64(rcpt.EffectiveGasPrice) / float64(types.Gwei)
		agg.gasSum += g
		agg.gas = append(agg.gas, g)
	}
}

// Accumulator maintains the chain-derived aggregates of the report
// incrementally: the streaming block-follower feeds it one block at a
// time and can snapshot a full Report at any height, while batch
// analysis freezes the same per-month aggregates into month partials
// (NewPartial) and merges them (MergePartials). Both paths flow through
// the same builder code, so a snapshot after feeding blocks [start, n]
// is byte-identical to the merged batch report over a chain truncated
// at n.
type Accumulator struct {
	tl       types.Timeline
	weth     types.Address
	months   [types.StudyMonths]monthAgg
	minerSet map[types.Address]bool
	fb       []flashbots.BlockRecord
}

// NewAccumulator creates an empty accumulator over the timeline.
func NewAccumulator(tl types.Timeline, weth types.Address) *Accumulator {
	return &Accumulator{tl: tl, weth: weth, minerSet: make(map[types.Address]bool)}
}

// FeedBlock folds one block into the monthly aggregates. fbRec is the
// block's Flashbots public-API record, nil when the block carried no
// bundle. Blocks must be fed in ascending height order.
func (a *Accumulator) FeedBlock(b *types.Block, fbRec *flashbots.BlockRecord) {
	m := a.tl.MonthOfBlock(b.Header.Number)
	a.months[m].feed(b)
	a.minerSet[b.Header.Miner] = true
	if fbRec != nil {
		a.fb = append(a.fb, *fbRec)
	}
}

// FBBlocks returns the Flashbots block records fed so far, in height
// order — the live public-API dataset. Callers must not mutate it.
func (a *Accumulator) FBBlocks() []flashbots.BlockRecord { return a.fb }

// Report assembles the full report from the accumulated aggregates plus
// the detector/profit/inference inputs. in.FBBlocks is overridden with
// the accumulator's own record list, the live public-API dataset.
func (a *Accumulator) Report(in Inputs, inf *privinfer.Inferrer) *Report {
	in.FBBlocks = a.fb
	return buildWith(in, a, inf)
}

// accumulate builds the aggregates for a completed chain in one batch
// pass, fanning months across the worker pool. Each month is walked in
// block order, so per-month aggregates equal the streamed ones exactly.
// withGas skips the receipt sweep when the caller only needs block-level
// aggregates (Figures 3 and 4).
func accumulate(in Inputs, withGas bool) *Accumulator {
	sp := in.Span.Child(obs.StageAggregate)
	defer sp.End()
	sp.SetBlocks(in.Chain.Len())
	a := NewAccumulator(in.Chain.Timeline, in.WETH)
	a.fb = in.FBBlocks
	aggs := parallel.MapSpan(sp, types.StudyMonths, in.workers(), func(mi int) *monthAgg {
		blocks := in.Chain.BlocksInMonth(types.Month(mi))
		if len(blocks) == 0 {
			return nil
		}
		agg := &monthAgg{}
		for _, b := range blocks {
			if withGas {
				agg.feed(b)
			} else {
				agg.blocks++
				agg.miners = append(agg.miners, b.Header.Miner)
			}
		}
		return agg
	})
	for mi, agg := range aggs {
		if agg == nil {
			continue
		}
		a.months[mi] = *agg
		for _, m := range agg.miners {
			a.minerSet[m] = true
		}
	}
	return a
}

// figure3 computes the monthly Flashbots vs non-Flashbots block
// proportion from the aggregates.
func figure3(in Inputs, acc *Accumulator) []Fig3Row {
	fbByMonth := map[types.Month]int{}
	for _, rec := range in.FBBlocks {
		fbByMonth[in.Chain.Timeline.MonthOfBlock(rec.BlockNumber)]++
	}
	out := make([]Fig3Row, 0, types.StudyMonths)
	for m := types.Month(0); m < types.StudyMonths; m++ {
		total := acc.months[m].blocks
		if total == 0 {
			continue
		}
		out = append(out, Fig3Row{Month: m, FlashbotsBlocks: fbByMonth[m], TotalBlocks: total})
	}
	return out
}

// figure4 estimates the monthly Flashbots hashpower share from the
// aggregates (§4.3's estimator).
func figure4(in Inputs, acc *Accumulator) []MonthValue {
	fbMiners := map[types.Month]map[types.Address]bool{}
	for _, rec := range in.FBBlocks {
		m := in.Chain.Timeline.MonthOfBlock(rec.BlockNumber)
		if fbMiners[m] == nil {
			fbMiners[m] = map[types.Address]bool{}
		}
		fbMiners[m][rec.Miner] = true
	}
	var out []MonthValue
	for m := types.Month(0); m < types.StudyMonths; m++ {
		agg := &acc.months[m]
		if agg.blocks == 0 {
			continue
		}
		fb := 0
		for _, miner := range agg.miners {
			if fbMiners[m][miner] {
				fb++
			}
		}
		out = append(out, MonthValue{Month: m, Value: float64(fb) / float64(agg.blocks)})
	}
	return out
}

// figure6 computes the sandwich/gas-price series from the aggregates.
func figure6(in Inputs, acc *Accumulator) Fig6 {
	fbSand := map[types.Month]int{}
	nonFBSand := map[types.Month]int{}
	for _, r := range in.Profits {
		if r.Kind != profit.KindSandwich {
			continue
		}
		if r.ViaFlashbots {
			fbSand[r.Month]++
		} else {
			nonFBSand[r.Month]++
		}
	}
	var f Fig6
	var gasSeries, nonFBSeries, allSeries []float64
	for m := types.Month(0); m < types.StudyMonths; m++ {
		agg := &acc.months[m]
		if agg.blocks == 0 {
			continue
		}
		row := Fig6Row{Month: m, FlashbotsSand: fbSand[m], NonFlashbotsSand: nonFBSand[m]}
		if len(agg.gas) > 0 {
			all := append([]float64(nil), agg.gas...)
			sort.Float64s(all)
			row.AvgGasPriceGwei = agg.gasSum / float64(len(all))
			row.MedianGasPriceGwei = stats.Quantile(all, 0.5)
		}
		f.Rows = append(f.Rows, row)
		gasSeries = append(gasSeries, row.AvgGasPriceGwei)
		nonFBSeries = append(nonFBSeries, float64(row.NonFlashbotsSand))
		allSeries = append(allSeries, float64(row.FlashbotsSand+row.NonFlashbotsSand))
	}
	f.CorrNonFB = stats.Pearson(nonFBSeries, gasSeries)
	f.CorrAll = stats.Pearson(allSeries, gasSeries)
	return f
}
