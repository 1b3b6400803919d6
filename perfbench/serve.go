package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/core/measure"
	"mevscope/internal/dataset"
	"mevscope/internal/obs"
	"mevscope/internal/query"
	"mevscope/internal/types"
)

// The steady phase's open-loop ladder: the rates it offers in turn,
// doubling, until a rung misses the p99 latency limit; and the rate the
// per-class latencies and serve_p99_ms are read at. The stated rate is
// the first rung, below the knee of the 2-core server, and its rung runs
// twice as long as the others so that it holds over 1,000 requests at
// run_seconds 20, enough for a p99.
var (
	ladder     = []float64{250, 500, 1000, 2000}
	limitMs    = 50.0
	statedRate = 250.0
)

// Shares of the measured phase: cold reports first, then partial-warm
// assemblies (which stop early once every window is asked), then the
// steady ladder.
const (
	coldShare = 0.40
	warmShare = 0.05
)

// serve measures the query server wired the way `mevscope serve` wires
// it, over a v3 archive of the set-up world, in-process through
// ServeHTTP with no sockets. Cold requests exercise archive decode and
// partial analysis; the partial-warm and steady phases bypass both.
type serve struct {
	worldSetup
	dir    string
	man    *archive.Manifest
	urls   []string // the steady mix's URL targets (steadyURLs)
	want   [][]byte // their expected bodies; nil until warm for the listing
	first  uint64   // first block number of the world
	months int
}

func (s *serve) setup(b *bench) error {
	err := s.worldSetup.setup(b)
	if err != nil {
		return err
	}
	w := s.w
	s.dir = filepath.Join(b.Out, fmt.Sprintf("serve-%d", os.Getpid()))
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	s.man, err = archive.Write(s.dir, w.ds, map[string]string{"scenario": "baseline"})
	if err != nil {
		return err
	}
	s.first = w.ds.Chain.Blocks()[0].Header.Number
	s.months = len(s.man.Segments)
	s.urls = steadyURLs()
	s.want = make([][]byte, len(s.urls))
	for i, u := range s.urls {
		if s.want[i], err = s.expected(u); err != nil {
			return err
		}
	}
	// Requests are answered from the archive: the simulator and the
	// in-memory dataset are not read again.
	w.sim, w.ds = nil, nil
	return nil
}

// expected is the body a steady-mix URL must return, encoded from the
// reference report or the manifest archive.Write returned; nil for the
// artifact listing, whose shape warmSteady checks instead.
func (s *serve) expected(target string) ([]byte, error) {
	path, query, _ := strings.Cut(target, "?")
	var buf bytes.Buffer
	switch {
	case path == "/v1/report":
		return s.w.ref, nil
	case path == "/v1/manifest":
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		err := enc.Encode(s.man)
		return buf.Bytes(), err
	case strings.HasPrefix(path, "/v1/artifact/"):
		name := strings.TrimPrefix(path, "/v1/artifact/")
		a, ok := s.w.report.Artifact(name)
		if !ok {
			return nil, fmt.Errorf("reference report has no artifact %q", name)
		}
		var err error
		switch query {
		case "format=json":
			err = a.WriteJSON(&buf)
		case "format=csv":
			err = a.WriteCSV(&buf)
		default:
			err = fmt.Errorf("steady mix target %s: unknown format", target)
		}
		return buf.Bytes(), err
	}
	return nil, nil
}

// newServer builds a fresh server — every cache empty — configured as
// `mevscope serve` configures it.
func (s *serve) newServer() (*query.Server, error) {
	return query.New(query.Config{
		Archive: s.dir,
		Analyze: func(ds *dataset.Dataset, workers int, sp *obs.Span) (*measure.Report, error) {
			st, err := mevscope.AnalyzeDatasetTraced(ds, workers, sp)
			if err != nil {
				return nil, err
			}
			return st.Report, nil
		},
		AnalyzeProjection: mevscope.AnalyzeDatasetProjection,
		AnalyzePartial:    mevscope.AnalyzeDatasetPartial,
		Workers:           workers,
	})
}

// get serves one GET in-process and returns the response and its time.
func get(h http.Handler, target, etag string) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodGet, target, nil)
	if etag != "" {
		req.Header.Set("If-None-Match", etag)
	}
	rr := httptest.NewRecorder()
	t0 := time.Now()
	h.ServeHTTP(rr, req)
	return rr, time.Since(t0)
}

// monthRange is the months= value of a window.
func monthRange(from, to types.Month) string { return from.Label() + ".." + to.Label() }

func (s *serve) measure(b *bench) error {
	defer os.RemoveAll(s.dir)
	rng := rand.New(rand.NewSource(b.Seed))
	srv, err := s.cold(b)
	if err != nil {
		return err
	}
	if err := s.partialWarm(b, srv, rng); err != nil {
		return err
	}
	etags := s.warmSteady(b, srv)
	if b.rec != nil {
		// The probes evict the full-window report; warm it again after.
		s.probeAllocs(b, srv, etags)
		s.warmSteady(b, srv)
	}
	s.steady(b, srv, etags, rng)
	reports, parts, segs := srv.CacheStats(), srv.PartialCacheStats(), srv.SegmentCacheStats()
	b.layer["query.report_hit_ratio"] = ratio(reports.Hits, reports.Misses)
	b.layer["query.partial_hit_ratio"] = ratio(parts.Hits, parts.Misses)
	b.layer["query.segment_hit_ratio"] = ratio(segs.Hits, segs.Misses)
	return nil
}

// cold times full-window text reports, each from a fresh server, and
// returns the last server that answered correctly — every month partial
// now cached — for the warm phases.
func (s *serve) cold(b *bench) (*query.Server, error) {
	var (
		srv                       *query.Server
		selfMs, partNs, restoreNs []float64
	)
	untraced, traced := b.loop("serve.cold", time.Duration(coldShare*float64(b.Budget)), func(sp *obs.Span) (time.Duration, error) {
		fresh, err := s.newServer()
		if err != nil {
			return 0, err
		}
		rsp := sp.Child("bench:request")
		rr, d := get(fresh, "/v1/report?format=text", "")
		rsp.End()
		if rr.Code != http.StatusOK {
			return 0, fmt.Errorf("cold report: status %d: %s", rr.Code, strings.TrimSpace(rr.Body.String()))
		}
		if !b.check(bytes.Equal(rr.Body.Bytes(), s.w.ref), "cold full-window report differs from the reference") {
			return d, nil
		}
		srv = fresh
		if snap, ok := srv.MetricsSnapshot(); ok {
			st := snap.Stages
			selfMs = append(selfMs, float64(d)/1e6-1e3*st["total"].TotalS)
			if p := st[obs.StagePartial]; p.Count > 0 {
				partNs = append(partNs, 1e9*p.TotalS/float64(p.Count))
			}
			restoreNs = append(restoreNs, 1e9*st[obs.StageRestore].TotalS/float64(b.blocks))
		}
		return d, nil
	})
	if srv == nil {
		return nil, fmt.Errorf("no cold request answered correctly")
	}
	b.throughput(untraced, traced)
	cold := durations(append(untraced, traced...), time.Millisecond)
	b.samples["query.cold_ms"] = summarize(cold, "ms")
	b.layer["query.cold_ms"] = median(cold)
	b.layer["query.cold.self_ms"] = median(selfMs)
	b.layer["measure.partial.ns_per_month"] = median(partNs)
	b.layer["archive.decode.ns_per_block"] = median(restoreNs)
	return srv, nil
}

// partialWarm asks for distinct month windows in seeded order, more than
// the report LRU holds, so every request assembles its report from the
// cached month partials. A seeded sample of the bodies is checked
// against direct ReadRange analyses of the same windows.
func (s *serve) partialWarm(b *bench, srv *query.Server, rng *rand.Rand) error {
	type window struct{ from, to types.Month }
	var windows []window
	for from := 0; from < s.months; from++ {
		for to := from; to < s.months; to++ {
			if from > 0 || to < s.months-1 {
				windows = append(windows, window{types.Month(from), types.Month(to)})
			}
		}
	}
	rng.Shuffle(len(windows), func(i, j int) { windows[i], windows[j] = windows[j], windows[i] })
	before, _ := srv.MetricsSnapshot()
	var lat []float64
	months := 0
	type sample struct {
		w    window
		body []byte
	}
	var sampled []sample // the first windows answered
	deadline := time.Now().Add(time.Duration(warmShare * float64(b.Budget)))
	for i, w := range windows {
		if i > 0 && time.Now().After(deadline) {
			break
		}
		rr, d := get(srv, "/v1/report?format=text&months="+monthRange(w.from, w.to), "")
		if !b.check(rr.Code == http.StatusOK, "window %s: status %d", monthRange(w.from, w.to), rr.Code) {
			continue
		}
		lat = append(lat, float64(d)/1e6)
		months += int(w.to-w.from) + 1
		if len(sampled) < 3 {
			sampled = append(sampled, sample{w, rr.Body.Bytes()})
		}
	}
	after, _ := srv.MetricsSnapshot()
	b.samples["query.partial_warm_ms"] = summarize(lat, "ms")
	b.layer["query.partial_warm_ms"] = median(lat)
	if months > 0 {
		b.layer["measure.merge.ns_per_month"] = 1e9 * (after.Stages["total"].TotalS - before.Stages["total"].TotalS) / float64(months)
	}
	for _, smp := range sampled {
		w := smp.w
		ds, _, err := archive.ReadRangeWith(s.dir, w.from, w.to, archive.ReadOptions{Workers: workers})
		if err != nil {
			return err
		}
		st, err := mevscope.AnalyzeDataset(ds, workers)
		if err != nil {
			return err
		}
		b.check(bytes.Equal(smp.body, render(nil, st.Report)),
			"window %s differs from a direct ReadRange analysis", monthRange(w.from, w.to))
	}
	rs := srv.CacheStats()
	b.check(rs.Hits == 0, "partial-warm windows hit the report cache %d times; each must be an assembly", rs.Hits)
	return nil
}

// warmSteady asks for every URL of the steady mix once, checking each
// body, so the steady phase finds them cached, and returns their ETags
// ("" where the server sends none). The artifact listing has no body to
// compare before its first response: that response must list the
// reference's artifacts in order, and later ones must equal it.
func (s *serve) warmSteady(b *bench, srv *query.Server) []string {
	etags := make([]string, len(s.urls))
	for i, u := range s.urls {
		rr, _ := get(srv, u, "")
		body := rr.Body.Bytes()
		if s.want[i] == nil && rr.Code == http.StatusOK && b.check(s.listsReference(body), "%s: listing differs from the reference", u) {
			s.want[i] = body
		}
		b.check(rr.Code == http.StatusOK && bytes.Equal(body, s.want[i]), "%s: body differs from the reference", u)
		etags[i] = rr.Header().Get("ETag")
	}
	return etags
}

// listsReference reports whether an /v1/artifacts body names the
// reference report's artifacts, in its order.
func (s *serve) listsReference(body []byte) bool {
	var listing struct{ Artifacts []struct{ Name string } }
	if json.Unmarshal(body, &listing) != nil {
		return false
	}
	arts := s.w.report.Artifacts()
	if len(listing.Artifacts) != len(arts) {
		return false
	}
	for i, a := range arts {
		if listing.Artifacts[i].Name != a.Name {
			return false
		}
	}
	return true
}

// steady offers the open-loop mix at each ladder rate in turn, and stops
// after the first rung that misses the limit: a higher rate misses it
// too.
func (s *serve) steady(b *bench, srv *query.Server, etags []string, rng *rand.Rand) {
	unit := time.Duration((1 - coldShare - warmShare) * float64(b.Budget) / float64(len(ladder)+1))
	build := func(a arrival) *http.Request {
		if a.Block {
			return httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/block?number=%d", s.first+uint64(a.Target)), nil)
		}
		req := httptest.NewRequest(http.MethodGet, s.urls[a.Target], nil)
		if a.Conditional && etags[a.Target] != "" {
			req.Header.Set("If-None-Match", etags[a.Target])
		}
		return req
	}
	kind := func(a arrival) reqKind {
		switch {
		case a.Block:
			return kindBlock
		case a.Conditional && etags[a.Target] != "":
			return kindNotModified
		}
		return kindCached
	}
	var late []float64
	maxRPS := 0.0
	for _, rate := range ladder {
		rungDur := unit
		if rate == statedRate {
			rungDur = 2 * unit
		}
		arrivals := schedule(rng, rate, rungDur, b.blocks)
		outs, lt := openLoop(srv, arrivals, workers, build)
		for i, a := range arrivals {
			outs[i].Kind = kind(a)
			outs[i].OK = b.check(s.steadyOK(a, outs[i].Kind, outs[i].Resp), "steady %s request for %d: status %d",
				outs[i].Kind, a.Target, outs[i].Resp.Code)
			outs[i].Resp = nil
		}
		late = append(late, durations(lt, time.Millisecond)...)
		met := meetsLimit(outs, rungDur, limitMs)
		if met {
			maxRPS = rate
		}
		all := rungLatencies(outs)
		b.samples[fmt.Sprintf("query.latency_ms@%g", rate)] = summarize(all, "ms")
		if rate == statedRate {
			readStated(b, outs, all)
		}
		if !met {
			break
		}
	}
	b.layer["query.serve_max_rps"] = maxRPS
	b.samples["query.generator_late_ms"] = summarize(late, "ms")
	b.layer["query.generator_late_ms"] = percentile(late, 99)
}

// readStated records the numbers read at the stated rate: the mix's p99,
// the median queue wait and each class's median latency from due.
func readStated(b *bench, outs []outcome, all []float64) {
	b.layer["query.serve_p99_ms"] = percentile(all, 99)
	var wait []time.Duration
	var byKind [numKinds][]time.Duration
	for _, o := range outs {
		wait = append(wait, o.Wait)
		byKind[o.Kind] = append(byKind[o.Kind], o.Latency)
	}
	b.layer["query.queue_wait_ms"] = median(durations(wait, time.Millisecond))
	b.samples["query.cached_us"] = summarize(durations(byKind[kindCached], time.Microsecond), "us")
	b.samples["query.not_modified_us"] = summarize(durations(byKind[kindNotModified], time.Microsecond), "us")
	b.samples["query.block_ms"] = summarize(durations(byKind[kindBlock], time.Millisecond), "ms")
	b.layer["query.cached_us"] = b.samples["query.cached_us"].Median
	b.layer["query.not_modified_us"] = b.samples["query.not_modified_us"].Median
	b.layer["query.block_ms"] = b.samples["query.block_ms"].Median
}

// steadyOK checks one steady-phase response of the given kind.
func (s *serve) steadyOK(a arrival, k reqKind, rr *httptest.ResponseRecorder) bool {
	switch k {
	case kindCached:
		return rr.Code == http.StatusOK && bytes.Equal(rr.Body.Bytes(), s.want[a.Target])
	case kindNotModified:
		return rr.Code == http.StatusNotModified
	default:
		return rr.Code == http.StatusOK && blockNumber(rr.Body.Bytes()) == s.first+uint64(a.Target)
	}
}

// blockNumber reads the number out of a /v1/block body; 0 if it has none.
func blockNumber(body []byte) uint64 {
	var b struct{ Header struct{ Number uint64 } }
	if json.Unmarshal(body, &b) != nil {
		return 0
	}
	return b.Header.Number
}

// probeAllocs measures, one request at a time so the process-wide heap
// counters belong to it alone, the allocations of each request class and
// of a direct archive.ReadBlockFrom.
func (s *serve) probeAllocs(b *bench, srv *query.Server, etags []string) {
	const n = 64
	// probe runs f n times between two heap-counter reads; f returns the
	// status it got, checked after the second read so the checks do not
	// count.
	probe := func(key string, want int, f func(i int) int) {
		var got [n]int
		m0 := readAllocs()
		for i := range got {
			got[i] = f(i)
		}
		m1 := readAllocs()
		b.layer[key] = float64(m1.objects-m0.objects) / n
		for i, code := range got {
			b.check(code == want, "%s probe %d: status %d, want %d", key, i, code, want)
		}
	}
	status := func(target, etag string) int {
		rr, _ := get(srv, target, etag)
		return rr.Code
	}
	step := uint64(b.blocks / n)
	// The cached and 304 probes cycle through the targets that send an
	// ETag: the artifacts and the report.
	var tagged []int
	for i, e := range etags {
		if e != "" {
			tagged = append(tagged, i)
		}
	}
	if !b.check(len(tagged) > 0, "no steady-mix target carries an ETag") {
		return
	}
	probe("query.allocs_per_req.cached", http.StatusOK, func(i int) int {
		return status(s.urls[tagged[i%len(tagged)]], "")
	})
	probe("query.allocs_per_req.not_modified", http.StatusNotModified, func(i int) int {
		t := tagged[i%len(tagged)]
		return status(s.urls[t], etags[t])
	})
	probe("query.allocs_per_req.block", http.StatusOK, func(i int) int {
		return status(fmt.Sprintf("/v1/block?number=%d", s.first+uint64(i)*step), "")
	})
	// Windows of two months starting at each month: the report LRU holds
	// 16, so the cycle through more than that keeps every one an assembly.
	probe("query.allocs_per_req.partial_warm", http.StatusOK, func(i int) int {
		m := types.Month(i % (s.months - 1))
		return status("/v1/report?format=text&months="+monthRange(m, m+1), "")
	})
	var lookups [n]time.Duration
	probe("archive.block_lookup.allocs", http.StatusOK, func(i int) int {
		t0 := time.Now()
		blk, err := archive.ReadBlockFrom(s.dir, s.man, s.first+uint64(i)*step)
		lookups[i] = time.Since(t0)
		if err != nil || blk.Header.Number != s.first+uint64(i)*step {
			return http.StatusInternalServerError
		}
		return http.StatusOK
	})
	b.layer["archive.block_lookup.ns"] = median(durations(lookups[:], time.Nanosecond))
	var renders, encode []float64
	arts := s.w.report.Artifacts()
	for i := 0; i < 16; i++ {
		t0 := time.Now()
		var buf bytes.Buffer
		measure.WriteReportText(&buf, s.w.report)
		renders = append(renders, float64(time.Since(t0).Nanoseconds()))
		t0 = time.Now()
		for _, a := range arts {
			buf.Reset()
			_ = a.WriteJSON(&buf) // encoding into a bytes.Buffer; the bodies were checked in warmSteady
		}
		encode = append(encode, float64(time.Since(t0).Nanoseconds())/float64(len(arts)))
	}
	b.layer["measure.render_text.ns"] = median(renders)
	b.layer["measure.encode_json.ns_per_artifact"] = median(encode)
}

// ratio is hits/(hits+misses); 0 with no lookups.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
