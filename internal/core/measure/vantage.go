package measure

// Vantage sensitivity: the observation-network robustness analysis. The
// paper's §6 private/public split hinges on what a single mempool
// vantage saw; with N vantages recording independently, the same world
// can be classified from each vantage alone and from their union, which
// bounds how much of the "private" mass is really just blind spots of
// one collector. Rows cover observation coverage month by month and
// vantage by vantage; scalars carry the per-vantage private counts and
// the union-vs-single deltas.

import (
	"mevscope/internal/core/privinfer"
	"mevscope/internal/p2p"
	"mevscope/internal/types"
)

// VantageStat summarizes one observation view's take on the world.
type VantageStat struct {
	// Vantage is the index in the network's vantage list; -1 marks the
	// union view.
	Vantage int
	// Node is the graph position the vantage listens at (0 for union).
	Node int
	// Observed is the number of distinct pending transactions recorded.
	Observed int
	// PrivateSandwiches counts window sandwiches the §6.1 rule classifies
	// private (non-Flashbots) against this view alone.
	PrivateSandwiches int
	// PerMonth maps study months to the view's distinct observation
	// counts.
	PerMonth map[types.Month]int
}

// VantageSensitivity is the full analysis: one row per real vantage plus
// the union view.
type VantageSensitivity struct {
	// View is the observation view the main report classified against.
	View string
	// Vantages holds per-vantage stats in configuration order.
	Vantages []VantageStat
	// Union is the k=1 composite over every vantage.
	Union VantageStat
}

// Months returns the ascending study months covered by any view.
func (v VantageSensitivity) Months() []types.Month {
	var out []types.Month
	for m := types.Month(0); m < types.StudyMonths; m++ {
		if v.Union.PerMonth[m] > 0 {
			out = append(out, m)
			continue
		}
		for _, vs := range v.Vantages {
			if vs.PerMonth[m] > 0 {
				out = append(out, m)
				break
			}
		}
	}
	return out
}

// BuildVantageSensitivity classifies the window sandwiches against every
// vantage alone and against the union view. Zero-valued without
// vantages (runs whose observation window never opened).
func BuildVantageSensitivity(in Inputs) VantageSensitivity {
	if len(in.Vantages) == 0 || in.Chain == nil || in.Chain.Head() == nil || in.Detect == nil {
		return VantageSensitivity{View: in.View}
	}
	out := Coverage(in.Chain.Timeline, in.Vantages)
	out.View = in.View
	countPrivate(in, in.Chain.Timeline.FirstBlockOfMonth(types.PrivateWindowStartMonth), &out)
	return out
}

// Coverage is the observation half of the vantage analysis: each
// vantage's and the union's distinct observation counts, overall and by
// month under tl (private counts left zero). It reads every record of
// every log, so batch analysis computes it once, not once per month.
func Coverage(tl types.Timeline, vs []*p2p.Observer) VantageSensitivity {
	stat := func(index, node int, o *p2p.Observer) VantageStat {
		pm := map[types.Month]int{}
		for _, rec := range o.Records() {
			pm[tl.MonthOfBlock(rec.FirstSeenBlock)]++
		}
		return VantageStat{Vantage: index, Node: node, Observed: o.Count(), PerMonth: pm}
	}
	var out VantageSensitivity
	for i, v := range vs {
		out.Vantages = append(out.Vantages, stat(i, v.Node(), v))
	}
	switch len(vs) {
	case 0:
	case 1: // a one-vantage union is the vantage itself
		out.Union = out.Vantages[0]
		out.Union.Vantage, out.Union.Node = -1, 0
	default:
		// The union's monthly counts attribute each distinct transaction
		// to its earliest first-seen block across vantages (Materialize's
		// merge rule), so a tx two vantages saw in different months
		// counts once.
		out.Union = stat(-1, 0, p2p.Union(vs...).Materialize())
	}
	return out
}

// countPrivate fills the private-sandwich counts of a coverage: the
// sandwiches of in.Detect in the window from winStart that the §6.1 rule
// classifies private against each vantage alone and against the union.
func countPrivate(in Inputs, winStart uint64, out *VantageSensitivity) {
	head := in.Chain.Head().Header.Number
	private := func(view privinfer.Observer) int {
		inf := privinfer.New(in.Chain, view, in.FBSet, winStart, head)
		n := 0
		for _, s := range in.Detect.Sandwiches {
			if ch, ok := inf.ClassifySandwich(s); ok && ch == privinfer.ChannelPrivate {
				n++
			}
		}
		return n
	}
	for i, v := range in.Vantages {
		out.Vantages[i].PrivateSandwiches = private(v)
	}
	out.Union.PrivateSandwiches = out.Vantages[0].PrivateSandwiches // a one-vantage union
	if len(in.Vantages) > 1 {
		out.Union.PrivateSandwiches = private(p2p.Union(in.Vantages...))
	}
}
