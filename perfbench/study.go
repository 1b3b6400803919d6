package main

import (
	"bytes"
	"time"

	"mevscope"
	"mevscope/internal/obs"
)

// study is the only workload in which the simulator does the work: one
// operation is mevscope.Run (simulate, then analyze) plus the text
// rendering of its report. The archive and the query server are idle.
type study struct{ worldSetup }

func (s *study) setup(b *bench) error {
	if err := s.worldSetup.setup(b); err != nil {
		return err
	}
	// Each operation simulates its own world; the set-up one is only
	// the reference.
	s.w.sim, s.w.ds, s.w.report = nil, nil, nil
	return nil
}

func (s *study) measure(b *bench) error {
	opts := options(b.Seed, b.Scale.BPM)
	opts.Parallelism = workers
	untraced, traced := b.loop("study", b.Budget, func(sp *obs.Span) (time.Duration, error) {
		opts.Span = sp
		t0 := time.Now()
		st, err := mevscope.Run(opts)
		if err != nil {
			return 0, err
		}
		text := render(sp, st.Report)
		d := time.Since(t0)
		b.check(bytes.Equal(text, s.w.ref), "study report differs from the Parallelism-1 reference")
		b.check(st.Sim.Chain.Len() == b.blocks, "study simulated %d blocks, want %d", st.Sim.Chain.Len(), b.blocks)
		return d, nil
	})
	b.throughput(untraced, traced)
	b.layer["sim.txs_per_block"] = float64(s.w.txs) / float64(b.blocks)
	if b.rec != nil {
		nodes := b.rec.tree()
		simLayer(b, nodes)
		analysisLayers(b, nodes)
	}
	return nil
}

// simLayer records the simulator's per-block cost from the "sim" spans
// mevscope.Run records.
func simLayer(b *bench, nodes []*node) {
	sims := spansNamed(nodes, obs.StageSim)
	blocks := sumBlocks(sims)
	if blocks == 0 {
		return
	}
	objects, bytes := sumAllocs(sims)
	b.layer["sim.ns_per_block"] = float64(sumDur(sims).Nanoseconds()) / blocks
	b.layer["sim.allocs_per_block"] = float64(objects) / blocks
	b.layer["sim.alloc_bytes_per_block"] = float64(bytes) / blocks
}

// analysisLayers records the measurement core's per-layer costs from the
// spans AnalyzeDataset records: detect, profit, infer, aggregate and
// build, plus the bench-side render spans.
func analysisLayers(b *bench, nodes []*node) {
	if ds := spansNamed(nodes, obs.StageDetect); len(ds) > 0 {
		blocks := sumBlocks(ds)
		objects, _ := sumAllocs(ds)
		b.layer["detect.ns_per_block"] = float64(sumDur(ds).Nanoseconds()) / blocks
		b.layer["detect.allocs_per_block"] = float64(objects) / blocks
		b.layer["detect.util"] = utilization(ds)
		b.layer["detect.extractions"] = float64(ds[len(ds)-1].txs)
	}
	if ps := spansNamed(nodes, obs.StageProfit); len(ps) > 0 {
		if n := sumTxs(ps); n > 0 {
			objects, _ := sumAllocs(ps)
			b.layer["profit.ns_per_extraction"] = float64(sumDur(ps).Nanoseconds()) / n
			b.layer["profit.allocs_per_extraction"] = float64(objects) / n
		}
	}
	if is := spansNamed(nodes, obs.StageInfer); len(is) > 0 {
		if n := sumTxs(is); n > 0 {
			b.layer["privinfer.ns_per_tx"] = float64(sumDur(is).Nanoseconds()) / n
			b.layer["privinfer.classified_txs"] = n / float64(countOps(nodes))
		}
	}
	if as := spansNamed(nodes, obs.StageAggregate); len(as) > 0 {
		if blocks := sumBlocks(as); blocks > 0 {
			b.layer["measure.aggregate.ns_per_block"] = float64(sumDur(as).Nanoseconds()) / blocks
		}
	}
	if bs := spansNamed(nodes, obs.StageBuild); len(bs) > 0 {
		b.layer["measure.build.ns"] = medianNs(bs)
		b.layer["measure.build.util"] = utilization(bs)
	}
	if rs := spansNamed(nodes, spanRender); len(rs) > 0 {
		b.layer["measure.render_text.ns"] = medianNs(rs)
	}
}

// sumBlocks totals the nodes' block counts.
func sumBlocks(ns []*node) float64 {
	var n int64
	for _, x := range ns {
		n += x.blocks
	}
	return float64(n)
}

// sumTxs totals the nodes' transaction (or detection) counts.
func sumTxs(ns []*node) float64 {
	var n int64
	for _, x := range ns {
		n += x.txs
	}
	return float64(n)
}

// medianNs is the median duration of the nodes in nanoseconds.
func medianNs(ns []*node) float64 {
	ds := make([]float64, len(ns))
	for i, n := range ns {
		ds[i] = float64(n.dur().Nanoseconds())
	}
	return median(ds)
}

// countOps is the number of measured operations in the trace.
func countOps(nodes []*node) int {
	n := 0
	for _, x := range nodes {
		if x.parent != nil && x.parent.parent == nil {
			n++
		}
	}
	return max(n, 1)
}
