package colstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cods/internal/wah"
)

// segmentFromRows builds one segment over the given schema from rows.
func segmentFromRows(t *testing.T, schema []string, rows [][]string) *Segment {
	t.Helper()
	cols := make([]*Column, len(schema))
	for ci, name := range schema {
		b := NewColumnBuilder(name)
		for _, r := range rows {
			b.Append(r[ci])
		}
		cols[ci] = b.Finish()
	}
	s, err := NewSegment(cols)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomRows produces n rows with a few distinct values per column so
// merged dictionaries overlap across segments.
func randomRows(rng *rand.Rand, n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{
			fmt.Sprintf("k%04d", rng.Intn(5000)),
			fmt.Sprintf("g%d", rng.Intn(7)),
			fmt.Sprintf("%d", rng.Intn(40)),
		}
	}
	return rows
}

var testSchema = []string{"id", "grp", "val"}

// buildPair returns the same logical table twice: once as a single
// segment and once split into segments at the given cut points.
func buildPair(t *testing.T, rows [][]string, cuts []int) (mono, segd *Table) {
	t.Helper()
	mono, err := NewSegmented("r", testSchema, []*Segment{segmentFromRows(t, testSchema, rows)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var segs []*Segment
	prev := 0
	for _, c := range append(cuts, len(rows)) {
		segs = append(segs, segmentFromRows(t, testSchema, rows[prev:c]))
		prev = c
	}
	segd, err = NewSegmented("r", testSchema, segs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return mono, segd
}

func TestSegmentedTableMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := randomRows(rng, 200)
	mono, segd := buildPair(t, rows, []int{50, 60, 180})

	if segd.NumSegments() != 4 {
		t.Fatalf("segments=%d", segd.NumSegments())
	}
	if err := segd.Validate(); err != nil {
		t.Fatal(err)
	}
	// Whole-table materialization must be byte-identical, including order.
	mr, _ := mono.Rows(0, 0)
	sr, _ := segd.Rows(0, 0)
	if !reflect.DeepEqual(mr, sr) {
		t.Fatal("Rows(0,0) differ")
	}
	// Paged reads crossing segment boundaries.
	for _, page := range [][2]uint64{{0, 10}, {45, 20}, {55, 10}, {170, 100}, {199, 5}} {
		mp, _ := mono.Rows(page[0], page[1])
		sp, _ := segd.Rows(page[0], page[1])
		if !reflect.DeepEqual(mp, sp) {
			t.Fatalf("Rows(%d,%d) differ", page[0], page[1])
		}
	}
	// Row addressing across boundaries.
	for _, i := range []uint64{0, 49, 50, 59, 60, 179, 180, 199} {
		a, _ := mono.Row(i)
		b, _ := segd.Row(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Row(%d) differ: %v vs %v", i, a, b)
		}
	}
	// Stitched whole-table columns: same values row by row, and the
	// stitched dictionary preserves first-occurrence order (equal to the
	// monolithic build's interning order).
	for _, cn := range testSchema {
		mc, _ := mono.Column(cn)
		sc, _ := segd.Column(cn)
		if !reflect.DeepEqual(mc.RowIDs(), sc.RowIDs()) {
			t.Fatalf("column %q stitched RowIDs differ", cn)
		}
		if !reflect.DeepEqual(mc.Dict().Values(), sc.Dict().Values()) {
			t.Fatalf("column %q stitched dictionary order differs", cn)
		}
	}
	// Segment-native scans agree with monolithic scans.
	for _, v := range []string{rows[0][0], rows[123][0], "absent"} {
		mb, _ := mono.EqBitmap("id", v)
		sb, _ := segd.EqBitmap("id", v)
		if !wah.Equal(mb, sb) {
			t.Fatalf("EqBitmap(%q) differ", v)
		}
	}
	pred := func(v string) bool { return v > "g3" }
	mb, _ := mono.ScanWhereBitmap("grp", pred)
	sb, _ := segd.ScanWhereBitmap("grp", pred)
	if !wah.Equal(mb, sb) {
		t.Fatal("ScanWhereBitmap differ")
	}
	// Filtering slices the mask per segment; results must match.
	mask := wah.New()
	for i := 0; i < 200; i += 3 {
		mask.Add(uint64(i))
	}
	mask.Extend(200)
	mf, _ := mono.FilterRows("f", mask)
	sf, _ := segd.FilterRows("f", mask)
	if !reflect.DeepEqual(mf.SortedTuples(), sf.SortedTuples()) {
		t.Fatal("FilterRows differ")
	}
}

func TestSegmentedSchemaChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := randomRows(rng, 90)
	mono, segd := buildPair(t, rows, []int{30, 60})

	// ADD COLUMN: the new whole-table column is split along segment
	// boundaries.
	vals := make([]string, 90)
	for i := range vals {
		vals[i] = fmt.Sprintf("x%d", i%4)
	}
	nc := NewColumnFromValues("extra", vals)
	ma, err := mono.WithColumnAdded(nc)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := segd.WithColumnAdded(nc)
	if err != nil {
		t.Fatal(err)
	}
	if sa.NumSegments() != 3 {
		t.Fatalf("segments=%d after add", sa.NumSegments())
	}
	if err := sa.Validate(); err != nil {
		t.Fatal(err)
	}
	mr, _ := ma.Rows(0, 0)
	sr, _ := sa.Rows(0, 0)
	if !reflect.DeepEqual(mr, sr) {
		t.Fatal("rows differ after WithColumnAdded")
	}

	// DROP / RENAME / Project stay per-segment metadata maps.
	sd, err := sa.WithColumnDropped("grp")
	if err != nil {
		t.Fatal(err)
	}
	if got := sd.ColumnNames(); !reflect.DeepEqual(got, []string{"id", "val", "extra"}) {
		t.Fatalf("columns after drop: %v", got)
	}
	srn, err := sd.WithColumnRenamed("val", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if !srn.HasColumn("v2") || srn.HasColumn("val") {
		t.Fatal("rename not applied")
	}
	pj, err := srn.Project("p", []string{"v2", "id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pj.Validate(); err != nil {
		t.Fatal(err)
	}
	if pj.NumRows() != 90 || pj.NumColumns() != 2 {
		t.Fatalf("projection shape %d×%d", pj.NumRows(), pj.NumColumns())
	}
}

func TestSegmentedValidateKeyAcrossSegments(t *testing.T) {
	s1 := segmentFromRows(t, []string{"k"}, [][]string{{"a"}, {"b"}})
	s2 := segmentFromRows(t, []string{"k"}, [][]string{{"c"}, {"b"}})
	tbl, err := NewSegmented("r", []string{"k"}, []*Segment{s1, s2}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.ValidateKey(); err == nil {
		t.Fatal("cross-segment duplicate key not detected")
	}
	ok, err := NewSegmented("r", []string{"k"}, []*Segment{s1, segmentFromRows(t, []string{"k"}, [][]string{{"c"}, {"d"}})}, []string{"k"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.ValidateKey(); err != nil {
		t.Fatal(err)
	}
}

// TestValidateKeyCompositeValuesContainingNUL pins that a composite key
// is compared column by column: joining ("a\x00", "b") and ("a", "\x00b")
// with NUL bytes gives one string, but they are two distinct keys.
func TestValidateKeyCompositeValuesContainingNUL(t *testing.T) {
	s := segmentFromRows(t, []string{"k1", "k2"}, [][]string{{"a\x00", "b"}, {"a", "\x00b"}})
	tbl, err := NewSegmented("r", []string{"k1", "k2"}, []*Segment{s}, []string{"k1", "k2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.ValidateKey(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeTailPlan(t *testing.T) {
	cases := []struct {
		rows  []uint64
		ratio int
		want  int
	}{
		{nil, 2, 0},
		{[]uint64{100}, 2, 1},
		{[]uint64{100, 60}, 2, 0}, // 100 <= 2*60: fold everything
		{[]uint64{100, 10}, 2, 2}, // invariant holds: no merge
		{[]uint64{100, 10, 8}, 2, 1},
		{[]uint64{100, 50, 30, 8}, 2, 4},  // 30 > 2*8: tail fold never starts
		{[]uint64{100, 50, 30, 16}, 2, 0}, // cascade folds all the way down
		{[]uint64{1000, 10, 8}, 2, 1},
		{[]uint64{16, 16}, 1, 0},
	}
	for _, c := range cases {
		if got := MergeTailPlan(c.rows, c.ratio); got != c.want {
			t.Errorf("MergeTailPlan(%v, %d) = %d, want %d", c.rows, c.ratio, got, c.want)
		}
	}
}

func TestCompactSegmentsPreservesContent(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	rows := randomRows(rng, 120)
	mono, segd := buildPair(t, rows, []int{100, 110})
	merged, err := segd.CompactSegments()
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumSegments() >= segd.NumSegments() {
		t.Fatalf("merge did not shrink: %d -> %d", segd.NumSegments(), merged.NumSegments())
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
	a, _ := mono.Rows(0, 0)
	b, _ := merged.Rows(0, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("rows differ after merge")
	}
}

func TestFlushSizedSegmentsStayLogarithmic(t *testing.T) {
	// Simulate repeated flush (append a threshold-sized tail) + merge
	// policy; the segment count must stay O(log n), which is the whole
	// point of the tiered invariant.
	tbl, err := NewSegmented("r", testSchema, []*Segment{segmentFromRows(t, testSchema, randomRows(rand.New(rand.NewSource(1)), 64))}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	maxSegs := 0
	for i := 0; i < 64; i++ {
		tail := segmentFromRows(t, testSchema, randomRows(rng, 64))
		if tbl, err = tbl.WithTailSegment(tail); err != nil {
			t.Fatal(err)
		}
		if tbl, err = tbl.CompactSegments(); err != nil {
			t.Fatal(err)
		}
		if tbl.NumSegments() > maxSegs {
			maxSegs = tbl.NumSegments()
		}
	}
	if tbl.NumRows() != 65*64 {
		t.Fatalf("rows=%d", tbl.NumRows())
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
	if maxSegs > 8 {
		t.Fatalf("segment count grew to %d over 64 flushes; tiering is not bounding it", maxSegs)
	}
}
