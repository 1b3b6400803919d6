package archive_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/dataset"
	"mevscope/internal/sim"
	"mevscope/internal/types"
)

// world simulates a small full-window world (the observer window opens,
// so the archive carries observed pending transactions too).
func world(t *testing.T) *sim.Sim {
	t.Helper()
	cfg := sim.DefaultConfig(17)
	cfg.BlocksPerMonth = 25
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestArchiveRoundTrip: write → read → analyze must reproduce the
// original report byte for byte.
func TestArchiveRoundTrip(t *testing.T) {
	s := world(t)
	ds := dataset.FromSim(s)
	if ds.Observer == nil {
		t.Fatal("expected an observation window at this scale")
	}
	dir := t.TempDir()
	man, err := archive.Write(dir, ds, map[string]string{"seed": "17"})
	if err != nil {
		t.Fatal(err)
	}
	if man.TotalBlocks != s.Chain.Len() {
		t.Errorf("manifest blocks = %d, want %d", man.TotalBlocks, s.Chain.Len())
	}
	if len(man.Segments) == 0 || man.Observer == nil {
		t.Fatalf("manifest incomplete: %d segments, observer %v", len(man.Segments), man.Observer)
	}

	restored, man2, err := archive.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man2.Head != man.Head {
		t.Errorf("restored head %d, want %d", man2.Head, man.Head)
	}
	if restored.Chain.Len() != s.Chain.Len() {
		t.Fatalf("restored %d blocks, want %d", restored.Chain.Len(), s.Chain.Len())
	}
	// Block hashes must survive the round trip (Seal is content-derived).
	for _, b := range s.Chain.Blocks() {
		rb, err := restored.Chain.ByNumber(b.Header.Number)
		if err != nil {
			t.Fatalf("block %d missing after restore: %v", b.Header.Number, err)
		}
		if rb.Hash() != b.Hash() {
			t.Fatalf("block %d hash changed across the round trip", b.Header.Number)
		}
	}
	if restored.Observer.Count() != ds.Observer.Count() {
		t.Errorf("restored observer has %d records, want %d", restored.Observer.Count(), ds.Observer.Count())
	}
	// The price history (the prices.col chunk) restores point for point.
	if got, want := restored.Prices.Tokens(), ds.Prices.Tokens(); !reflect.DeepEqual(got, want) || len(want) == 0 {
		t.Fatalf("restored price tokens %v, want %v", got, want)
	}
	for _, tok := range ds.Prices.Tokens() {
		if got, want := restored.Prices.History(tok), ds.Prices.History(tok); !reflect.DeepEqual(got, want) {
			t.Errorf("price history of %v: restored %d points, want %d (or values differ)", tok.Short(), len(got), len(want))
		}
	}

	origStudy, err := mevscope.AnalyzeDataset(ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	restStudy, err := mevscope.AnalyzeDataset(restored, 2)
	if err != nil {
		t.Fatal(err)
	}
	var orig, rest bytes.Buffer
	mevscope.WriteReportTo(&orig, origStudy.Report)
	mevscope.WriteReportTo(&rest, restStudy.Report)
	if !bytes.Equal(orig.Bytes(), rest.Bytes()) {
		t.Error("report over the restored archive differs from the original")
	}
}

// TestReadBlock: the random-access path (zone-map chunk selection)
// returns the same sealed block a full restore does, for the first and
// last blocks and blocks in between.
func TestReadBlock(t *testing.T) {
	s := world(t)
	dir := t.TempDir()
	if _, err := archive.Write(dir, dataset.FromSim(s), nil); err != nil {
		t.Fatal(err)
	}
	head := s.Chain.Head().Header.Number
	start := s.Chain.Timeline.StartBlock
	for _, n := range []uint64{start, start + 1, start + 63, start + 64, (start + head) / 2, head} {
		got, err := archive.ReadBlock(dir, n)
		if err != nil {
			t.Fatalf("ReadBlock(%d): %v", n, err)
		}
		want, err := s.Chain.ByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		if got.Hash() != want.Hash() {
			t.Errorf("ReadBlock(%d) hash differs from the chain's", n)
		}
	}
	if _, err := archive.ReadBlock(dir, head+1); err == nil {
		t.Error("block beyond the archive served")
	}
	// The manifest-reusing variant resolves the same blocks.
	man, err := archive.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := archive.ReadBlockFrom(dir, man, start+1)
	if err != nil || got.Header.Number != start+1 {
		t.Errorf("ReadBlockFrom(%d) = (%v, %v)", start+1, got, err)
	}
}

// countingCache wraps the ChunkCache contract with call counters, so
// the test can see which reads hit the disk.
type countingCache struct {
	mu     sync.Mutex
	chunks map[string]any
	hits   int
	adds   int
}

func (c *countingCache) GetChunk(dir string, m types.Month, col string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.chunks[dir+m.Label()+col]
	if ok {
		c.hits++
	}
	return v, ok
}

func (c *countingCache) AddChunk(dir string, m types.Month, col string, v any, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.chunks == nil {
		c.chunks = map[string]any{}
	}
	c.chunks[dir+m.Label()+col] = v
	c.adds++
}

// TestReadRangeSharedSegments: two overlapping ranges through one cache
// decode each shared month's chunks exactly once, and the cached
// assembly is byte-identical to a cold one.
func TestReadRangeSharedSegments(t *testing.T) {
	s := world(t)
	dir := t.TempDir()
	man, err := archive.Write(dir, dataset.FromSim(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Chunks per month, and observation chunks (one per vantage) per
	// month: the pre-slice path reads only the latter.
	cols, obsCols := len(man.Segments[0].Columns), 1+len(man.Segments[0].ObservedV)
	cache := &countingCache{}
	opt := archive.ReadOptions{Workers: 2, Cache: cache}
	cold, _, err := archive.ReadRangeWith(dir, 8, 12, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Months 8-12 in full plus the observation chunks of months 0-7.
	if want := 5*cols + 8*obsCols; cache.adds != want || cache.hits != 0 {
		t.Fatalf("cold read: %d adds, %d hits; want %d adds, 0 hits", cache.adds, cache.hits, want)
	}
	coldAdds := cache.adds
	warm, _, err := archive.ReadRangeWith(dir, 10, 14, opt)
	if err != nil {
		t.Fatal(err)
	}
	if want := coldAdds + 2*cols; cache.adds != want {
		t.Errorf("overlap read re-decoded shared chunks: %d adds, want %d (only months 13-14 new)", cache.adds, want)
	}
	// The chunks of the 3 shared selected months (10-12) plus the
	// pre-slice observation chunks of months 0-9 come from the cache.
	if want := 3*cols + 10*obsCols; cache.hits != want {
		t.Errorf("overlap read hit %d cached chunks, want %d", cache.hits, want)
	}
	coldStudy, err := mevscope.AnalyzeDataset(cold, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Re-read the first range fully warm: every chunk cached, reports
	// byte-identical to the cold read's.
	cached, _, err := archive.ReadRangeWith(dir, 8, 12, opt)
	if err != nil {
		t.Fatal(err)
	}
	cachedStudy, err := mevscope.AnalyzeDataset(cached, 1)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	mevscope.WriteReportTo(&a, coldStudy.Report)
	mevscope.WriteReportTo(&b, cachedStudy.Report)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("cache-assembled report differs from the cold read's")
	}
	if warm.Chain.Len() == 0 {
		t.Error("warm read restored nothing")
	}
}

// TestArchiveDetectsCorruption: a flipped byte in any data file must fail
// the checksum verification.
func TestArchiveDetectsCorruption(t *testing.T) {
	s := world(t)
	dir := t.TempDir()
	man, err := archive.Write(dir, dataset.FromSim(s), nil)
	if err != nil {
		t.Fatal(err)
	}
	var name string
	for _, ci := range man.Segments[0].Columns {
		if ci.Name == archive.ColHeaders {
			name = ci.File.Name
		}
	}
	victim := filepath.Join(dir, filepath.FromSlash(name))
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := archive.Read(dir); err == nil {
		t.Fatal("corrupted archive should fail to read")
	}
}

// TestArchiveRejectsMissingManifest: a directory without a manifest is
// not an archive.
func TestArchiveRejectsMissingManifest(t *testing.T) {
	if _, _, err := archive.Read(t.TempDir()); err == nil {
		t.Fatal("empty directory should fail to read")
	}
}

// TestReadRange: a month slice restores only those segments, keeps
// block→month alignment with the full archive, and its analysis matches
// the full analysis month for month.
func TestReadRange(t *testing.T) {
	s := world(t)
	full := dataset.FromSim(s)
	dir := t.TempDir()
	if _, err := archive.Write(dir, full, nil); err != nil {
		t.Fatal(err)
	}

	from, to := types.Month(10), types.Month(13)
	sliced, man, err := archive.ReadRange(dir, from, to)
	if err != nil {
		t.Fatal(err)
	}
	if man.TotalBlocks != s.Chain.Len() {
		t.Errorf("manifest is the archive's, not the slice's: %d blocks", man.TotalBlocks)
	}
	wantBlocks := 0
	for m := from; m <= to; m++ {
		wantBlocks += len(s.Chain.BlocksInMonth(m))
	}
	if sliced.Chain.Len() != wantBlocks {
		t.Fatalf("slice restored %d blocks, want %d", sliced.Chain.Len(), wantBlocks)
	}
	if got := sliced.Chain.Timeline.FirstMonth; got != from {
		t.Errorf("slice timeline starts at month %d, want %d", got, from)
	}
	// Block→month alignment: the slice's timeline maps every restored
	// block to the same month the full timeline does.
	for _, b := range sliced.Chain.Blocks() {
		if got, want := sliced.Chain.Timeline.MonthOfBlock(b.Header.Number), s.Chain.Timeline.MonthOfBlock(b.Header.Number); got != want {
			t.Fatalf("block %d maps to month %d in the slice, %d in the full timeline", b.Header.Number, got, want)
		}
	}
	// The slice ends before the observation window: no observer.
	if sliced.Observer != nil {
		t.Error("slice below the observation window restored an observer")
	}

	fullStudy, err := mevscope.AnalyzeDataset(full, 1)
	if err != nil {
		t.Fatal(err)
	}
	sliceStudy, err := mevscope.AnalyzeDataset(sliced, 1)
	if err != nil {
		t.Fatal(err)
	}
	fullByMonth := map[types.Month]int{}
	for _, row := range fullStudy.Report.Fig3 {
		fullByMonth[row.Month] = row.FlashbotsBlocks
	}
	if got := len(sliceStudy.Report.Fig3); got != int(to-from)+1 {
		t.Fatalf("slice fig3 covers %d months, want %d", got, int(to-from)+1)
	}
	for _, row := range sliceStudy.Report.Fig3 {
		if row.Month < from || row.Month > to {
			t.Errorf("slice fig3 contains out-of-range month %s", row.Month)
		}
		if row.FlashbotsBlocks != fullByMonth[row.Month] {
			t.Errorf("month %s: slice counts %d Flashbots blocks, full %d",
				row.Month, row.FlashbotsBlocks, fullByMonth[row.Month])
		}
	}
}

// TestReadRangeObserverWindow: a slice reaching into the observation
// window restores the observer with only that slice's records.
func TestReadRangeObserverWindow(t *testing.T) {
	s := world(t)
	full := dataset.FromSim(s)
	if full.Observer == nil {
		t.Fatal("expected an observation window at this scale")
	}
	dir := t.TempDir()
	if _, err := archive.Write(dir, full, nil); err != nil {
		t.Fatal(err)
	}
	sliced, _, err := archive.ReadRange(dir, types.ObservationStartMonth, types.StudyMonths-1)
	if err != nil {
		t.Fatal(err)
	}
	if sliced.Observer == nil {
		t.Fatal("slice through the observation window lost the observer")
	}
	if sliced.Observer.Count() == 0 || sliced.Observer.Count() > full.Observer.Count() {
		t.Errorf("slice observer has %d records, full has %d", sliced.Observer.Count(), full.Observer.Count())
	}
	st, err := mevscope.AnalyzeDataset(sliced, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Report.Fig9 == nil {
		t.Error("window slice analysis produced no Figure 9")
	}

	// A slice starting inside the observation window must still carry the
	// records first seen in the earlier window months: a transaction
	// observed near a month boundary can be mined in the next month, and
	// losing its record would flip it from public to private in the §6
	// inference.
	late, _, err := archive.ReadRange(dir, types.ObservationStartMonth+1, types.StudyMonths-1)
	if err != nil {
		t.Fatal(err)
	}
	if late.Observer == nil {
		t.Fatal("late window slice lost the observer")
	}
	if late.Observer.Count() != full.Observer.Count() {
		t.Errorf("slice from month %d carries %d observations, full archive has %d (pre-slice months dropped)",
			types.ObservationStartMonth+1, late.Observer.Count(), full.Observer.Count())
	}
}

// TestReadRangeEmpty: a range with no segments errors instead of
// returning an empty dataset.
func TestReadRangeEmpty(t *testing.T) {
	s := world(t)
	dir := t.TempDir()
	if _, err := archive.Write(dir, dataset.FromSim(s), nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := archive.ReadRange(dir, 5, 3); err == nil {
		t.Error("inverted range should error")
	}
}

// TestReadEqualsFullRange: Read is ReadRange over the whole window.
func TestReadEqualsFullRange(t *testing.T) {
	s := world(t)
	dir := t.TempDir()
	if _, err := archive.Write(dir, dataset.FromSim(s), nil); err != nil {
		t.Fatal(err)
	}
	a, _, err := archive.Read(dir)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := archive.ReadRange(dir, 0, types.StudyMonths-1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Chain.Len() != b.Chain.Len() || a.Chain.Timeline != b.Chain.Timeline {
		t.Errorf("Read and full ReadRange differ: %d/%d blocks", a.Chain.Len(), b.Chain.Len())
	}
}

// TestArchiveRefusesEarlierFormats: a manifest of another version, or a
// version-3 manifest whose price history is still a frame file
// (prices.seg), is refused up front with one error that names the last
// commit able to read it and how to regenerate the archive.
func TestArchiveRefusesEarlierFormats(t *testing.T) {
	s := world(t)
	ds := dataset.FromSim(s)
	for _, c := range []struct {
		name    string
		version int
		prices  string
	}{
		{"v1", 1, "prices.jsonl"},
		{"v2", 2, "prices.seg"},
		{"v3 with frame prices", 3, "prices.seg"},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := archive.Write(dir, ds, nil); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, archive.ManifestName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var man archive.Manifest
			if err := json.Unmarshal(raw, &man); err != nil {
				t.Fatal(err)
			}
			man.Version, man.Prices.Name = c.version, c.prices
			if raw, err = json.Marshal(&man); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			_, _, err = archive.Read(dir)
			if err == nil {
				t.Fatal("earlier-format archive read succeeded")
			}
			for _, want := range []string{"86ad49d", "mevscope archive"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("refusal %q does not mention %q", err, want)
				}
			}
			if _, err := archive.ReadManifest(dir); err == nil {
				t.Error("ReadManifest accepted the earlier-format manifest")
			}
		})
	}
}
