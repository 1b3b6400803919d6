package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/obs"
	"mevscope/internal/types"
)

// analyze measures the archive path with no simulation: one operation
// writes the set-up world into a fresh archive, restores all of it and
// analyzes and renders the restored dataset. Writing sits beside reading
// so that an encoder change that costs decode time, and a decode gain
// bought with more bytes on disk, both show.
type analyze struct {
	worldSetup
	dir string
}

func (a *analyze) setup(b *bench) error {
	a.dir = filepath.Join(b.Out, fmt.Sprintf("analyze-%d", os.Getpid()))
	if err := a.worldSetup.setup(b); err != nil {
		return err
	}
	// Operations write the dataset; the simulator behind it is not read.
	a.w.sim, a.w.report = nil, nil
	return nil
}

func (a *analyze) measure(b *bench) error {
	defer os.RemoveAll(a.dir)
	var (
		writes     []float64
		dataBytes  int64
		stats      archive.ReadStats
		last       = types.Month(types.StudyMonths - 1)
		meta       = map[string]string{"seed": fmt.Sprint(b.Seed), "scenario": "baseline"}
		decodedOps int
	)
	untraced, traced := b.loop("analyze", b.Budget, func(sp *obs.Span) (time.Duration, error) {
		if err := os.RemoveAll(a.dir); err != nil {
			return 0, err
		}
		t0 := time.Now()
		wsp := sp.Child(spanWrite)
		man, err := archive.Write(a.dir, a.w.ds, meta)
		wsp.SetBlocks(b.blocks)
		wsp.End()
		if err != nil {
			return 0, err
		}
		tw := time.Since(t0)
		opt := archive.ReadOptions{Workers: workers, Span: sp}
		if sp != nil {
			opt.Stats = &stats
			decodedOps++
		}
		ds, _, err := archive.ReadRangeWith(a.dir, 0, last, opt)
		if err != nil {
			return 0, err
		}
		st, err := mevscope.AnalyzeDatasetTraced(ds, workers, sp)
		if err != nil {
			return 0, err
		}
		text := render(sp, st.Report)
		d := time.Since(t0)
		writes = append(writes, float64(b.blocks)/tw.Seconds())
		b.check(bytes.Equal(text, a.w.ref), "restored report differs from the in-memory reference")
		b.check(dataBytes == 0 || man.DataBytes() == dataBytes,
			"archive size changed between writes of one world: %d then %d bytes", dataBytes, man.DataBytes())
		dataBytes = man.DataBytes()
		return d, nil
	})
	b.throughput(untraced, traced)
	b.samples["archive.write_blocks_per_s"] = summarize(writes, "blocks/s")
	b.layer["archive.write_blocks_per_s"] = median(writes)
	b.layer["archive.bytes_per_block"] = float64(dataBytes) / float64(b.blocks)
	if b.rec == nil {
		return nil
	}
	nodes := b.rec.tree()
	if ws := spansNamed(nodes, spanWrite); len(ws) > 0 {
		blocks := sumBlocks(ws)
		objects, _ := sumAllocs(ws)
		b.layer["archive.encode.ns_per_block"] = float64(sumDur(ws).Nanoseconds()) / blocks
		b.layer["archive.encode.allocs_per_block"] = float64(objects) / blocks
	}
	decodeLayer(b, nodes)
	if decodedOps > 0 {
		b.layer["archive.read_bytes_per_block"] = float64(stats.DecodedBytes.Load()) / float64(decodedOps*b.blocks)
	}
	analysisLayers(b, nodes)
	return nil
}

// columns are the v3 archive's column chunks, one per-layer metric each.
var columns = []string{"headers", "txs", "receipts", "logs", "flashbots", "observed"}

// decodeLayer records the archive decode costs from the
// "archive:restore" spans and their per-column "archive:column" children.
func decodeLayer(b *bench, nodes []*node) {
	rs := spansNamed(nodes, obs.StageRestore)
	blocks := sumBlocks(rs)
	if blocks == 0 {
		return
	}
	objects, bytes := sumAllocs(rs)
	b.layer["archive.decode.ns_per_block"] = float64(sumDur(rs).Nanoseconds()) / blocks
	b.layer["archive.decode.allocs_per_block"] = float64(objects) / blocks
	b.layer["archive.decode.alloc_bytes_per_block"] = float64(bytes) / blocks
	b.layer["archive.decode.util"] = utilization(rs)
	perCol := map[string]time.Duration{}
	for _, n := range spansNamed(nodes, obs.StageColumn) {
		// Labels read "<month>/<column>"; extra vantages' observation
		// chunks ("observed_v2", ...) count as the observed column.
		_, col, _ := strings.Cut(n.label, "/")
		col, _, _ = strings.Cut(col, "_v")
		perCol[col] += n.dur()
	}
	for _, col := range columns {
		b.layer["archive.column."+col+".ns_per_block"] = float64(perCol[col].Nanoseconds()) / blocks
	}
}
