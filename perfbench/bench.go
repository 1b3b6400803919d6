package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"mevscope/internal/obs"
)

// workers is the analysis Parallelism and the number of request
// executors: the benchmark is sized for a 2-core machine, and the number
// is fixed so results stay comparable across machines (nproc and
// GOMAXPROCS are recorded with every run).
const workers = 2

// setupRuns is how many times a run builds its set-up state; setup_s is
// the median, and the last build is the one measured.
const setupRuns = 3

// scale is the size of the world every workload shares; it always spans
// all 23 study months.
type scale struct {
	BPM uint64 `json:"bpm"`
}

// benchScale is the baseline world of every workload: 23 months at 200
// blocks per month (4,600 blocks, about 2,750 extractions).
var benchScale = scale{BPM: 200}

// config is one benchmark run.
type config struct {
	Workload string
	Seed     int64
	Budget   time.Duration // the measured phase
	Trace    bool
	Scale    scale
	Root     string // repository root: the golden report lives under it
	Out      string // where scratch archives and traced-run files go
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// def declares one metric the benchmark prints.
type def struct {
	Name, Unit, Better string
}

// endToEnd are the metrics every untraced run prints, on every workload.
var endToEnd = []def{
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"blocks_per_s", "blocks/s", "higher"},
}

// runRecord is the provenance every run records next to its result.
type runRecord struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Trace      bool               `json:"trace"`
	Seconds    float64            `json:"seconds"`
	Scale      scale              `json:"scale"`
	Blocks     int                `json:"blocks"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Source     string             `json:"source_sha256"`
	Samples    map[string]Summary `json:"samples"`
	SetupPeak  float64            `json:"setup_peak_rss_mb"`
	Coverage   float64            `json:"min_op_coverage,omitempty"`
	OpRates    []float64          `json:"op_blocks_per_s,omitempty"`
}

// result is a finished run.
type result struct {
	Attempted, Failed int
	Metrics           map[string]metric
	Record            runRecord
}

// bench is the state one run shares with its workload.
type bench struct {
	config
	log       io.Writer
	rec       *recorder // nil when untraced
	attempted int
	failed    int
	e2e       map[string]float64
	layer     map[string]float64
	samples   map[string]Summary
	peaks     []float64 // each operation's peak resident set, MiB
	opRates   []float64 // each untraced operation's blocks per second, in run order
	blocks    int
}

// workload is one of the benchmark's input sets. setup builds the state
// the measured phase needs; measure runs operations until the budget is
// spent, checking each output, and records metrics on b.
type workload interface {
	setup(b *bench) error
	measure(b *bench) error
}

// workloads are the benchmark's workloads by name.
var workloads = map[string]func() workload{
	"study":   func() workload { return &study{} },
	"analyze": func() workload { return &analyze{} },
	"follow":  func() workload { return &follow{} },
	"serve":   func() workload { return &serve{} },
}

// run executes one benchmark run.
func run(cfg config, log io.Writer) (*result, error) {
	mk, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want study, analyze, follow or serve)", cfg.Workload)
	}
	source, err := sourceDigest(cfg.Root)
	if err != nil {
		return nil, fmt.Errorf("reading the source tree: %w", err)
	}
	b := &bench{
		config:  cfg,
		log:     log,
		e2e:     map[string]float64{},
		layer:   map[string]float64{},
		samples: map[string]Summary{},
	}
	if err := goldenCheck(b); err != nil {
		return nil, err
	}
	var w workload
	var setups []float64
	for i := 0; i < setupRuns; i++ {
		// Drop the previous set-up so one world at a time is live.
		w = nil
		runtime.GC()
		w = mk()
		t0 := time.Now()
		if err := w.setup(b); err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.Workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.e2e["setup_s"] = median(setups)
	b.samples["setup_s"] = summarize(setups, "s")
	// Operations start from the set-up state alone: what set-up freed goes
	// back to the OS, and its peak is kept for the record.
	setupPeak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory()

	if cfg.Trace {
		b.rec = newRecorder(cfg.Workload)
	}
	gc0 := readGC()
	if err := w.measure(b); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	gc1 := readGC()
	if cpu := gc1.cpu - gc0.cpu; cpu > 0 {
		b.layer["runtime.gc_cpu_fraction"] = (gc1.gcCPU - gc0.gcCPU) / cpu
	}
	if ops := b.samples["blocks_per_s"].N; ops > 0 {
		b.layer["runtime.gc_cycles_per_op"] = float64(gc1.cycles-gc0.cycles) / float64(ops)
	}
	b.e2e["peak_rss_mb"] = median(b.peaks)
	b.samples["peak_rss_mb"] = summarize(b.peaks, "MB")

	rec := runRecord{
		Workload: cfg.Workload, Seed: cfg.Seed, Trace: cfg.Trace,
		Seconds: cfg.Budget.Seconds(), Scale: cfg.Scale, Blocks: b.blocks,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(), Source: source,
		Samples: b.samples, SetupPeak: setupPeak, OpRates: b.opRates,
	}
	res := &result{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}, Record: rec}
	if cfg.Trace {
		nodes := b.rec.tree()
		cov := minCoverage(nodes)
		res.Record.Coverage = cov
		b.layer["obs.min_op_coverage"] = cov
		b.check(cov >= 0.95, "spans cover %.1f%% of the least-covered operation, want ≥ 95%%", 100*cov)
		res.Attempted, res.Failed = b.attempted, b.failed
		base := fmt.Sprintf("%s-seed%d", cfg.Workload, cfg.Seed)
		if err := b.rec.writeTrace(cfg.Out, base, layerTable(b.rec.tr, nodes)); err != nil {
			return nil, err
		}
		for _, d := range perLayer {
			v := b.layer[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				// A phase too short to sample a class, or a tail made of
				// failed requests (already counted in failed).
				fmt.Fprintf(log, "perfbench: %s: %s not measured (%v), printed as 0\n", cfg.Workload, d.Name, v)
				v = 0
			}
			res.Metrics[d.Name] = metric{v, d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			v, ok := b.e2e[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return nil, fmt.Errorf("%s: metric %s was not measured", cfg.Workload, d.Name)
			}
			res.Metrics[d.Name] = metric{v, d.Unit}
		}
	}
	return res, nil
}

// check counts one attempted output check, logging it when it fails.
func (b *bench) check(ok bool, format string, args ...any) bool {
	b.attempted++
	if !ok {
		b.failed++
		if b.failed <= 10 {
			fmt.Fprintf(b.log, "perfbench: %s: check failed: %s\n", b.Workload, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// loop runs op until the budget share is spent and returns the
// durations op reported for its successful runs. The first operation is
// a warm-up: it is checked like every other, but neither its time nor
// its peak is kept, because it alone pays for faulting in the memory
// set-up gave back to the OS. Every operation starts from a collected
// heap (runtime.GC, untimed), so none pays for its predecessor's garbage.
// It records each operation's peak resident set, restarting the
// high-water mark before it, so the peak is the operation's own and not
// set-up's. In a traced run every other operation runs untraced (a nil
// span), so the same run measures the recorder's own overhead; the two
// sets come back separately and only the traced operations leave spans.
func (b *bench) loop(name string, budget time.Duration, op func(sp *obs.Span) (time.Duration, error)) (untraced, traced []time.Duration) {
	minOps := 2 // the warm-up and one kept operation
	if b.rec != nil {
		minOps = 3 // and one of each kind
	}
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		runtime.GC()
		err := resetPeakRSS()
		var sp *obs.Span
		if b.rec != nil && i%2 == 1 {
			sp = b.rec.root().Child(opSpan(name))
		}
		var d time.Duration
		if err == nil {
			d, err = op(sp)
		}
		sp.End()
		var peak float64
		if err == nil {
			peak, err = peakRSSMB()
		}
		if !b.check(err == nil, "%s: %v", name, err) || i == 0 {
			continue
		}
		b.peaks = append(b.peaks, peak)
		if sp != nil {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
	}
	return untraced, traced
}

// throughput records blocks_per_s from the durations of operations that
// each covered b.blocks blocks, and, in a traced run, the recorder's
// overhead on it.
func (b *bench) throughput(untraced, traced []time.Duration) {
	rate := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = float64(b.blocks) / d.Seconds()
		}
		return out
	}
	u, t := rate(untraced), rate(traced)
	b.opRates = u
	all := append(append([]float64(nil), u...), t...)
	b.samples["blocks_per_s"] = summarize(all, "blocks/s")
	if b.rec == nil {
		b.e2e["blocks_per_s"] = median(u)
		return
	}
	if len(u) > 0 && len(t) > 0 {
		b.layer["obs.trace_overhead_pct"] = 100 * (median(u)/median(t) - 1)
	}
}

// gcCounters are the runtime's cumulative CPU and GC counters.
type gcCounters struct {
	cpu, gcCPU float64
	cycles     uint64
}

func readGC() gcCounters {
	s := []metrics.Sample{
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var c gcCounters
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.cpu = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		c.cycles = s[2].Value.Uint64()
	}
	return c
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the process's VmHWM from its current resident
// set (Linux 4.0 and later).
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+modified"
	}
	return rev
}

// sourceDigest hashes the repository's Go sources and module file, so a
// run built outside version control still names the code it measured.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
