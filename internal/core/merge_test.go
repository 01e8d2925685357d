package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cods/internal/colstore"
)

// insertBatch appends n distinct rows to R and flushes them into a
// sealed tail segment via Compact.
func insertBatch(t *testing.T, e *Engine, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		apply(t, e, fmt.Sprintf("INSERT INTO R VALUES ('E%04d', 'Skill%d', '%d Main St')", i, i%3, i))
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
}

func baseR(t *testing.T, e *Engine) *colstore.Table {
	t.Helper()
	ov, err := e.Catalog().Overlay("R")
	if err != nil {
		t.Fatal(err)
	}
	return ov.Base()
}

func TestTieredMergeBoundsSegments(t *testing.T) {
	e := New(Config{})
	seedR(t, e)
	for b := 0; b < 12; b++ {
		insertBatch(t, e, b*10, 10)
	}
	base := baseR(t, e)
	// 12 flushes over a 7-row seed: without merging that is 13 segments;
	// the ratio-2 tier keeps it logarithmic.
	if n := base.NumSegments(); n > 5 {
		t.Fatalf("segments=%d after 12 flushes; tiered merge not engaging", n)
	}
	if e.SegmentMerges() == 0 {
		t.Fatal("no merges counted")
	}
	assertRContent(t, e, 7+120)
}

// seedR registers the 7-row employee table as R.
func seedR(t *testing.T, e *Engine) {
	t.Helper()
	e2 := newEngineWithR(t)
	tab, err := e2.Table("R")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(tab); err != nil {
		t.Fatal(err)
	}
}

// assertRContent checks R's merged view row count and that the segmented
// base agrees with itself via both read paths (tuples vs stitched rows).
func assertRContent(t *testing.T, e *Engine, want int) {
	t.Helper()
	tab, err := e.Catalog().Table("R")
	if err != nil {
		t.Fatal(err)
	}
	if got := int(tab.NumRows()); got != want {
		t.Fatalf("rows=%d, want %d", got, want)
	}
	rows, err := tab.Rows(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != want {
		t.Fatalf("Rows()=%d, want %d", len(rows), want)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both read paths over the same table must agree.
	st := tab.SortedTuples()
	again := append([][]string(nil), rows...)
	sort.Slice(again, func(a, b int) bool {
		for i := range again[a] {
			if again[a][i] != again[b][i] {
				return again[a][i] < again[b][i]
			}
		}
		return false
	})
	if !reflect.DeepEqual(st, again) {
		t.Fatal("SortedTuples and Rows disagree")
	}
}
