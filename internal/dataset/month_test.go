package dataset_test

import (
	"reflect"
	"testing"

	"mevscope"
	"mevscope/internal/archive"
	"mevscope/internal/dataset"
	"mevscope/internal/types"
)

// TestMonthMatchesArchiveRange: for every month of a world, the month
// slicer (Dataset.Month) must hand the pipeline what a single-month
// archive restore (archive.ReadRange(dir, m, m)) does — the re-anchored
// timeline, the blocks, the Flashbots records and bundle types, and the
// pending-transaction answer under every observation view for every
// transaction mined in the month. The slicer shares the dataset's
// FBSet and vantage logs where the archive restores month-local ones,
// so the comparison is by what the pipeline asks, not by map or log
// size.
func TestMonthMatchesArchiveRange(t *testing.T) {
	cases := []struct {
		name, scenario string
		views          []string
	}{
		{"baseline", "", []string{""}},
		{"multi-vantage-union", "multi-vantage-union", []string{"", "union", "vantage:2", "quorum:2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := mevscope.Run(mevscope.Options{Seed: 5, BlocksPerMonth: 20, Scenario: tc.scenario})
			if err != nil {
				t.Fatal(err)
			}
			ds := dataset.FromSim(st.Sim)
			dir := t.TempDir()
			man, err := archive.Write(dir, ds, nil)
			if err != nil {
				t.Fatal(err)
			}
			first, last := man.Window()
			observed := 0
			for m := first; m <= last; m++ {
				got, err := ds.Month(m)
				if err != nil {
					t.Fatalf("month %s: %v", m.Label(), err)
				}
				want, _, err := archive.ReadRange(dir, m, m)
				if err != nil {
					t.Fatalf("month %s: %v", m.Label(), err)
				}
				compareMonth(t, m, got, want)
				if (got.Observer == nil) != (want.Observer == nil) {
					t.Fatalf("month %s: slice has observer %v, archive restore %v",
						m.Label(), got.Observer != nil, want.Observer != nil)
				}
				if want.Observer == nil {
					continue
				}
				observed++
				for _, view := range tc.views {
					got.View, want.View = view, view
					gv, err := got.ResolveView()
					if err != nil {
						t.Fatal(err)
					}
					wv, err := want.ResolveView()
					if err != nil {
						t.Fatal(err)
					}
					gs, ge := gv.Window()
					ws, we := wv.Window()
					if gs != ws || ge != we {
						t.Errorf("month %s view %q: window [%d, %d], archive [%d, %d]", m.Label(), view, gs, ge, ws, we)
					}
					for _, b := range want.Chain.Blocks() {
						for _, tx := range b.Txs {
							if h := tx.Hash(); gv.Seen(h) != wv.Seen(h) {
								t.Fatalf("month %s view %q: tx %v seen=%v, archive says %v",
									m.Label(), view, h.Short(), gv.Seen(h), wv.Seen(h))
							}
						}
					}
				}
			}
			if observed == 0 {
				t.Fatal("no month reached the observation window: the view checks never ran")
			}
		})
	}
}

// compareMonth checks the chain and Flashbots halves of one month.
func compareMonth(t *testing.T, m types.Month, got, want *dataset.Dataset) {
	t.Helper()
	if got.Chain.Timeline != want.Chain.Timeline {
		t.Fatalf("month %s: timeline %+v, archive %+v", m.Label(), got.Chain.Timeline, want.Chain.Timeline)
	}
	gb, wb := got.Chain.Blocks(), want.Chain.Blocks()
	if len(gb) != len(wb) {
		t.Fatalf("month %s: %d blocks, archive %d", m.Label(), len(gb), len(wb))
	}
	for i := range wb {
		if gb[i].Hash() != wb[i].Hash() {
			t.Fatalf("month %s: block %d hash differs", m.Label(), wb[i].Header.Number)
		}
		for _, tx := range wb[i].Txs {
			h := tx.Hash()
			gt, gok := got.FBSet[h]
			wt, wok := want.FBSet[h]
			if gt != wt || gok != wok {
				t.Fatalf("month %s: tx %v bundle type (%v, %v), archive (%v, %v)", m.Label(), h.Short(), gt, gok, wt, wok)
			}
			if r, err := got.Chain.Receipt(h); err != nil || r.TxHash != h {
				t.Fatalf("month %s: receipt of own tx %v: %v", m.Label(), h.Short(), err)
			}
		}
	}
	if len(got.FBBlocks) != len(want.FBBlocks) {
		t.Fatalf("month %s: %d Flashbots records, archive %d", m.Label(), len(got.FBBlocks), len(want.FBBlocks))
	}
	for i := range want.FBBlocks {
		if !reflect.DeepEqual(got.FBBlocks[i], want.FBBlocks[i]) {
			t.Fatalf("month %s: Flashbots record %d differs", m.Label(), i)
		}
	}
	for h, bt := range want.FBSet {
		if got.FBSet[h] != bt {
			t.Fatalf("month %s: FBSet entry %v differs", m.Label(), h.Short())
		}
	}
}
