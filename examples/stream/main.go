// Stream: follow a world live instead of collect-then-measure. The paper
// needs the whole 23-month history on disk before computing a single
// number; the streaming follower consumes each block as the simulator
// seals it, keeps every measurement layer incrementally up to date, and
// can snapshot the full report at any month boundary — byte-identical to
// what the batch pipeline would compute over the same prefix.
//
//	go run ./examples/stream
package main

import (
	"bytes"
	"fmt"
	"os"

	"mevscope"
	"mevscope/internal/dataset"
	"mevscope/internal/sim"
	"mevscope/internal/stream"
	"mevscope/internal/types"
)

func main() {
	cfg := sim.DefaultConfig(42)
	cfg.BlocksPerMonth = 60
	s, err := sim.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// A live ticker: after each completed month, read the running totals
	// off the follower — no rescan, the state is already current.
	f := stream.ForSim(s, 0)
	fmt.Println("month     blocks  extractions  FB-sandwiches  live")
	f.OnMonthEnd = func(m types.Month, fl *stream.Follower) {
		rep := fl.Report()
		fbSand := 0
		for _, row := range rep.Fig6.Rows {
			fbSand += row.FlashbotsSand
		}
		fmt.Printf("%7s %8d %12d %14d  %s\n",
			m, fl.Blocks(), rep.Table1.Total.Extractions, fbSand, bar(rep.Table1.Total.Extractions))
	}

	end := s.EndBlock()
	for s.Chain.NextNumber() <= end {
		if err := s.Step(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if _, err := f.Sync(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	// The final streamed report is byte-identical to the batch pipeline
	// (month partials, merged) over the finished world — the subsystem's
	// core guarantee.
	batch, err := mevscope.AnalyzeDataset(dataset.FromSim(s), -1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var streamed, batched bytes.Buffer
	mevscope.WriteReportTo(&streamed, f.Report())
	batch.WriteReport(&batched)
	fmt.Printf("\nstreamed report: %d bytes; batch report: %d bytes; identical: %v\n",
		streamed.Len(), batched.Len(), bytes.Equal(streamed.Bytes(), batched.Bytes()))

	fmt.Println("\n=== final Table 1, computed incrementally ===")
	fmt.Print(f.Report().Table1.Format())
}

func bar(n int) string {
	w := n / 25
	if w > 40 {
		w = 40
	}
	out := make([]byte, w)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}
