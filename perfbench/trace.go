package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mevscope/internal/obs"
)

// Bench-side span names. The benchmark records these around the public
// calls it makes; the program's own spans (obs.Stage*) nest under them
// wherever a public Span option exists.
const (
	spanWrite  = "bench:archive.Write" // archive.Write of the set-up world
	spanRender = "bench:render"        // text rendering of a finished report
	spanFeed   = "bench:feed"          // follower feed between two month ends
)

// opSpan names the span of one measured operation of a workload.
func opSpan(name string) string { return "op:" + name }

// noAllocMarks are the span names too numerous or too concurrent for a
// heap-counter read at their edges to mean anything: the counters are
// process-wide, and these run many at a time.
var noAllocMarks = map[string]bool{
	obs.StageColumn:   true,
	obs.StageDecode:   true,
	obs.StageArtifact: true,
	obs.StageSimMonth: true,
	obs.StagePartial:  true,
}

// allocMark is a reading of the process-wide heap allocation counters.
type allocMark struct{ objects, bytes uint64 }

func readAllocs() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{ms.Mallocs, ms.TotalAlloc}
}

// recorder is the traced run's flight recorder: one obs.Trace whose root
// parents every measured operation, plus heap-counter deltas taken at the
// edges of each span. A nil recorder is the untraced run: root returns a
// nil span, which every program Span option treats as "off".
type recorder struct {
	tr     *obs.Trace
	mu     sync.Mutex
	starts map[*obs.Span]allocMark
	deltas map[*obs.Span]allocMark
}

// newRecorder starts a trace named after the workload.
func newRecorder(name string) *recorder {
	r := &recorder{
		tr:     obs.New(name),
		starts: make(map[*obs.Span]allocMark),
		deltas: make(map[*obs.Span]allocMark),
	}
	r.tr.OnSpanStart = func(sp *obs.Span) {
		if noAllocMarks[sp.Name()] {
			return
		}
		m := readAllocs()
		r.mu.Lock()
		r.starts[sp] = m
		r.mu.Unlock()
	}
	r.tr.OnSpanEnd = func(sp *obs.Span) {
		if noAllocMarks[sp.Name()] {
			return
		}
		m := readAllocs()
		r.mu.Lock()
		if s, ok := r.starts[sp]; ok {
			r.deltas[sp] = allocMark{m.objects - s.objects, m.bytes - s.bytes}
		}
		r.mu.Unlock()
	}
	return r
}

// root is the span measured operations hang under; nil when untraced.
func (r *recorder) root() *obs.Span {
	if r == nil {
		return nil
	}
	return r.tr.Root()
}

// node is one finished span in the benchmark's own tree view.
type node struct {
	name, label   string
	start, end    time.Duration
	blocks, txs   int64
	workers       int
	busy          time.Duration
	allocs, bytes uint64
	parent        *node
	kids          []*node
}

func (n *node) dur() time.Duration { return n.end - n.start }

// tree converts the recorded spans into nodes, root first. Snapshots the
// follower takes from its month-end callback run inside the follower's
// "stream:rotate" span but are recorded as its siblings; they are moved
// under the rotate span that contains them, so the rotate span's self
// time is the rotation alone.
func (r *recorder) tree() []*node {
	spans := r.tr.Spans()
	byspan := make(map[*obs.Span]*node, len(spans))
	out := make([]*node, 0, len(spans))
	r.mu.Lock()
	for _, sp := range spans {
		n := &node{
			name: sp.Name(), label: sp.Label(),
			start: sp.Start(), end: sp.Start() + sp.Duration(),
			blocks: sp.Blocks(), txs: sp.Txs(),
			workers: sp.Workers(), busy: sp.Busy(),
		}
		if d, ok := r.deltas[sp]; ok {
			n.allocs, n.bytes = d.objects, d.bytes
		}
		byspan[sp] = n
		out = append(out, n)
	}
	r.mu.Unlock()
	for _, sp := range spans {
		if p := byspan[sp.Parent()]; p != nil {
			n := byspan[sp]
			n.parent = p
			p.kids = append(p.kids, n)
		}
	}
	for _, p := range out {
		var rotate *node
		kids := p.kids[:0]
		for _, k := range p.kids {
			switch {
			case k.name == obs.StageRotate:
				rotate = k
			case k.name == obs.StageSnapshot && rotate != nil && k.start >= rotate.start && k.end <= rotate.end:
				k.parent = rotate
				rotate.kids = append(rotate.kids, k)
				continue
			}
			kids = append(kids, k)
		}
		p.kids = kids
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(n *node) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(n.kids))
	for _, k := range n.kids {
		lo, hi := k.start, k.end
		if lo < n.start {
			lo = n.start
		}
		if hi > n.end {
			hi = n.end
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi time.Duration
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			if v.hi > curHi {
				curHi = v.hi
			}
			continue
		}
		if open {
			total += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(n *node) time.Duration { return n.dur() - covered(n) }

// coverage is the share of a span's duration its children cover.
func coverage(n *node) float64 {
	if n.dur() <= 0 {
		return 1
	}
	return float64(covered(n)) / float64(n.dur())
}

// layerOf maps a span name to the repository module it measures.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "op:"):
		return "bench"
	case name == obs.StageSim || name == obs.StageSimMonth:
		return "sim"
	case strings.HasPrefix(name, "archive:") || name == spanWrite:
		return "archive"
	case name == obs.StageDetect:
		return "detect"
	case name == obs.StageProfit:
		return "profit"
	case name == obs.StageInfer:
		return "privinfer"
	case strings.HasPrefix(name, "stream:") || name == spanFeed:
		return "stream"
	default:
		return "measure"
	}
}

// layerRow is one line of the per-layer table: the trace's own summary
// row of a span name (count, wall, blocks, txs, bytes, utilization) plus
// what only the span tree gives.
type layerRow struct {
	obs.Stage
	Layer      string  `json:"layer"`
	SelfS      float64 `json:"self_s"`
	Allocs     uint64  `json:"allocs,omitempty"`
	AllocBytes uint64  `json:"alloc_bytes,omitempty"`
	OpsShare   float64 `json:"ops_share"` // self time over the measured operations' wall time
}

// layerTable adds self time, allocations and the share of the measured
// operations to the trace's summary, one row per span name below the
// root. Allocations are charged only to spans whose edges were read (see
// noAllocMarks). Concurrent spans each count their own self time, so the
// shares of a parallel stage's rows can add up past its wall time.
func layerTable(tr *obs.Trace, nodes []*node) []layerRow {
	opsWall := sumDur(nodes[0].kids).Seconds()
	self := map[string]float64{}
	allocs := map[string]allocMark{}
	for _, n := range nodes[1:] {
		self[n.name] += selfTime(n).Seconds()
		a := allocs[n.name]
		allocs[n.name] = allocMark{a.objects + n.allocs, a.bytes + n.bytes}
	}
	var out []layerRow
	for _, st := range tr.Summary() {
		if st.Depth == 0 {
			continue // the root: the whole measured phase
		}
		row := layerRow{Stage: st, Layer: layerOf(st.Name), SelfS: self[st.Name],
			Allocs: allocs[st.Name].objects, AllocBytes: allocs[st.Name].bytes}
		if opsWall > 0 {
			row.OpsShare = row.SelfS / opsWall
		}
		out = append(out, row)
	}
	return out
}

// spansNamed returns the nodes with the given name.
func spansNamed(nodes []*node, name string) []*node {
	var out []*node
	for _, n := range nodes {
		if n.name == name {
			out = append(out, n)
		}
	}
	return out
}

// sumDur is the total duration of the nodes.
func sumDur(ns []*node) time.Duration {
	var d time.Duration
	for _, n := range ns {
		d += n.dur()
	}
	return d
}

// sumAllocs totals the nodes' allocation counts and bytes.
func sumAllocs(ns []*node) (objects, bytes uint64) {
	for _, n := range ns {
		objects += n.allocs
		bytes += n.bytes
	}
	return objects, bytes
}

// utilization is busy/(wall×workers) over the pool spans among ns.
func utilization(ns []*node) float64 {
	var b, c float64
	for _, n := range ns {
		if n.workers > 0 {
			b += n.busy.Seconds()
			c += n.dur().Seconds() * float64(n.workers)
		}
	}
	if c == 0 {
		return 0
	}
	return min(b/c, 1)
}

// minCoverage is the lowest child coverage over the measured operations
// (spans named op:*) that have children; 1 when none do.
func minCoverage(nodes []*node) float64 {
	lowest := 1.0
	for _, n := range nodes {
		if strings.HasPrefix(n.name, "op:") && len(n.kids) > 0 {
			lowest = min(lowest, coverage(n))
		}
	}
	return lowest
}

// writeTrace writes the Chrome trace and the per-layer table of a traced
// run next to each other in dir.
func (r *recorder) writeTrace(dir, base string, table []layerRow) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, base+".trace.json"))
	if err != nil {
		return err
	}
	if err := r.tr.WriteChrome(f); err != nil {
		f.Close()
		return fmt.Errorf("writing chrome trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	layers := map[string]float64{}
	for _, row := range table {
		layers[row.Layer] += row.OpsShare
	}
	b, err := json.MarshalIndent(struct {
		Layers map[string]float64 `json:"layer_share"`
		Spans  []layerRow         `json:"spans"`
	}{layers, table}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".layers.json"), append(b, '\n'), 0o644)
}
