package main

import (
	"bytes"
	"time"

	"mevscope/internal/core/measure"
	"mevscope/internal/obs"
	"mevscope/internal/stream"
	"mevscope/internal/types"
)

// follow is the incremental path through detect, profit, privinfer and
// measure: one operation attaches a stream.Follower to the set-up world,
// Syncs every block and takes a Report snapshot at each month end, where
// the batch path runs one Build. It is the only workload that measures
// internal/stream.
type follow struct{ worldSetup }

func (f *follow) measure(b *bench) error {
	var snaps []float64
	untraced, traced := b.loop("follow", b.Budget, func(sp *obs.Span) (time.Duration, error) {
		t0 := time.Now()
		fl := stream.ForSim(f.w.sim, workers)
		fl.SetSpan(sp)
		feed := sp.Child(spanFeed)
		var last *measure.Report
		ends := 0
		fl.OnMonthEnd = func(m types.Month, fl *stream.Follower) {
			feed.End()
			s0 := time.Now()
			last = fl.Report()
			snaps = append(snaps, float64(time.Since(s0).Nanoseconds()))
			ends++
			feed = sp.Child(spanFeed)
		}
		n, err := fl.Sync()
		feed.End()
		if err != nil {
			return 0, err
		}
		d := time.Since(t0)
		b.check(n == b.blocks, "follower fed %d blocks, want %d", n, b.blocks)
		b.check(ends == types.StudyMonths, "follower saw %d month ends, want %d", ends, types.StudyMonths)
		b.check(last != nil && bytes.Equal(render(nil, last), f.w.ref),
			"last month-end snapshot differs from the batch reference")
		return d, nil
	})
	b.throughput(untraced, traced)
	b.samples["stream.snapshot_ns"] = summarize(snaps, "ns")
	b.layer["stream.snapshot_ns"] = median(snaps)
	if b.rec == nil {
		return nil
	}
	nodes := b.rec.tree()
	feeds := spansNamed(nodes, spanFeed)
	objects, _ := sumAllocs(feeds)
	blocks := float64(len(traced) * b.blocks)
	b.layer["stream.feed_ns_per_block"] = float64(sumDur(feeds).Nanoseconds()) / blocks
	b.layer["stream.allocs_per_block"] = float64(objects) / blocks
	analysisLayers(b, nodes)
	return nil
}
