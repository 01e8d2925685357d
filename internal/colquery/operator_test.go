package colquery

import (
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cods/internal/colstore"
	"cods/internal/expr"
	"cods/internal/wah"
)

// segTable builds a table with one storage segment per rows slice, so
// operator tests can pin segment-boundary behavior.
func segTable(t *testing.T, name string, cols []string, segs ...[][]string) *colstore.Table {
	t.Helper()
	build := func(rows [][]string) []*colstore.Column {
		out := make([]*colstore.Column, len(cols))
		for i, c := range cols {
			vals := make([]string, len(rows))
			for r, row := range rows {
				vals[r] = row[i]
			}
			out[i] = colstore.NewColumnFromValues(c, vals)
		}
		return out
	}
	tab, err := colstore.NewTable(name, build(segs[0]), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range segs[1:] {
		seg, err := colstore.NewSegment(build(rows))
		if err != nil {
			t.Fatal(err)
		}
		if tab, err = tab.WithTailSegment(seg); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

func mask(t *testing.T, n uint64, positions ...uint64) *wah.Bitmap {
	t.Helper()
	m := wah.New()
	for _, p := range positions {
		m.Add(p)
	}
	m.Extend(n)
	return m
}

// rowsOp serves fixed batches — a stand-in for any operator input.
type rowsOp struct {
	cols    []string
	batches [][][]string
	next    int
}

func (r *rowsOp) Columns() []string { return r.cols }
func (r *rowsOp) Open() error       { r.next = 0; return nil }
func (r *rowsOp) Close() error      { return nil }
func (r *rowsOp) Next() ([][]string, error) {
	if r.next >= len(r.batches) {
		return nil, nil
	}
	b := r.batches[r.next]
	r.next++
	return b, nil
}

func collectRows(t *testing.T, op Operator) [][]string {
	t.Helper()
	rs, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Rows
}

func TestTableScanMultiSegment(t *testing.T) {
	tab := segTable(t, "T", []string{"K", "V"},
		[][]string{{"a", "1"}, {"b", "2"}, {"c", "3"}},
		[][]string{{"d", "4"}, {"e", "5"}},
		[][]string{{"f", "6"}},
	)
	scan, err := NewTableScan(tab, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	// One batch per segment, in storage order.
	var sizes []int
	var all [][]string
	for {
		b, err := scan.Next()
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		sizes = append(sizes, len(b))
		all = append(all, b...)
	}
	if !reflect.DeepEqual(sizes, []int{3, 2, 1}) {
		t.Fatalf("batch sizes = %v, want one batch per segment", sizes)
	}
	want := [][]string{{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"}, {"e", "5"}, {"f", "6"}}
	if !reflect.DeepEqual(all, want) {
		t.Fatalf("rows = %v", all)
	}
}

func TestTableScanMaskAcrossSegments(t *testing.T) {
	tab := segTable(t, "T", []string{"K", "V"},
		[][]string{{"a", "1"}, {"b", "2"}, {"c", "3"}},
		[][]string{{"d", "4"}, {"e", "5"}},
		[][]string{{"f", "6"}},
	)
	// Rows 1 and 4 straddle a segment boundary; the middle of segment 2
	// and all of segment 3 are masked out.
	scan, err := NewTableScan(tab, []string{"V"}, mask(t, 6, 1, 4))
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, scan)
	if want := [][]string{{"2"}, {"5"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}

	// A fully masked-out segment is skipped, not decoded into an empty batch.
	scan, err = NewTableScan(tab, nil, mask(t, 6, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := scan.Open(); err != nil {
		t.Fatal(err)
	}
	b, err := scan.Next()
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"f", "6"}}; !reflect.DeepEqual(b, want) {
		t.Fatalf("first batch = %v, want %v", b, want)
	}
}

func TestTableScanDuplicateColumn(t *testing.T) {
	tab := segTable(t, "T", []string{"K", "V"}, [][]string{{"a", "1"}, {"b", "2"}})
	scan, err := NewTableScan(tab, []string{"V", "V", "K"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, scan)
	if want := [][]string{{"1", "1", "a"}, {"2", "2", "b"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestTableScanErrors(t *testing.T) {
	tab := segTable(t, "T", []string{"K"}, [][]string{{"a"}})
	if _, err := NewTableScan(tab, []string{"Nope"}, nil); err == nil {
		t.Fatal("unknown column accepted")
	}
	if _, err := NewTableScan(tab, nil, mask(t, 2)); err == nil {
		t.Fatal("wrong-length mask accepted")
	}
}

func TestRowFilter(t *testing.T) {
	in := &rowsOp{cols: []string{"A", "B"}, batches: [][][]string{
		{{"x", "1"}, {"y", "2"}},
		{{"x", "3"}},
	}}
	pred, err := expr.Parse("A = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewRowFilter(in, pred)
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, f)
	if want := [][]string{{"x", "1"}, {"x", "3"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}

	bad, err := expr.Parse("C = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRowFilter(in, bad); err == nil || !strings.Contains(err.Error(), `"C"`) {
		t.Fatalf("filter on missing column: err = %v", err)
	}
}

func TestHashJoinDuplicateKeys(t *testing.T) {
	probe := &rowsOp{cols: []string{"K", "F"}, batches: [][][]string{
		{{"a", "f1"}, {"b", "f2"}, {"a", "f3"}, {"z", "f4"}},
	}}
	build := &rowsOp{cols: []string{"K", "D"}, batches: [][][]string{
		{{"a", "d1"}, {"a", "d2"}, {"b", "d3"}},
	}}
	j, err := NewHashJoin(probe, build, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(j.Columns(), []string{"K", "F", "D"}) {
		t.Fatalf("columns = %v", j.Columns())
	}
	got := collectRows(t, j)
	// Probe order outer, build insertion order inner; 'z' has no match.
	want := [][]string{
		{"a", "f1", "d1"}, {"a", "f1", "d2"},
		{"b", "f2", "d3"},
		{"a", "f3", "d1"}, {"a", "f3", "d2"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestHashJoinEmptyStringKey(t *testing.T) {
	// Empty strings are ordinary values, and a multi-column key must not
	// confuse ("ab","") with ("a","b") or ("","ab").
	probe := &rowsOp{cols: []string{"K1", "K2"}, batches: [][][]string{
		{{"ab", ""}, {"a", "b"}, {"", "ab"}, {"", ""}},
	}}
	build := &rowsOp{cols: []string{"K1", "K2", "D"}, batches: [][][]string{
		{{"a", "b", "split"}, {"", "", "empty"}},
	}}
	j, err := NewHashJoin(probe, build, []string{"K1", "K2"})
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, j)
	want := [][]string{{"a", "b", "split"}, {"", "", "empty"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestHashJoinEmptyBuildSide(t *testing.T) {
	probe := &rowsOp{cols: []string{"K"}, batches: [][][]string{{{"a"}, {"b"}}}}
	build := &rowsOp{cols: []string{"K", "D"}}
	j, err := NewHashJoin(probe, build, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, j)
	if len(got) != 0 {
		t.Fatalf("rows = %v, want none", got)
	}
}

func TestHashJoinErrors(t *testing.T) {
	probe := &rowsOp{cols: []string{"K", "X"}}
	build := &rowsOp{cols: []string{"K", "X"}}
	if _, err := NewHashJoin(probe, build, nil); err == nil {
		t.Fatal("empty ON accepted")
	}
	if _, err := NewHashJoin(probe, build, []string{"Missing"}); err == nil {
		t.Fatal("ON column absent from both sides accepted")
	}
	// X is in both sides but not in ON: ambiguous output column.
	if _, err := NewHashJoin(probe, build, []string{"K"}); err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("ambiguous column: err = %v", err)
	}
}

func TestGroupAggParityWithBitmapPath(t *testing.T) {
	// big occurs three times, so BitmapAgg's value×count product 3·2^62
	// exceeds int64 while every sum stays in range.
	big := strconv.FormatInt(1<<62, 10)
	rows := [][]string{
		{"east", "10"}, {"west", "-3"}, {"east", "7"}, {"east", big}, {"east", big},
		{"north", "0"}, {"west", "-3"}, {"east", "10"}, {"east", big}, {"east", "-" + big}, {"east", "-" + big},
	}
	tab := segTable(t, "T", []string{"G", "V"}, rows[:5], rows[5:])
	aggs := []Agg{
		{Func: Count},
		{Func: Sum, Column: "V"},
		{Func: Avg, Column: "V"},
		{Func: Min, Column: "V"},
		{Func: Max, Column: "V"},
		{Func: CountDistinct, Column: "V"},
	}
	masks := []struct {
		name string
		m    *wah.Bitmap
	}{
		{"all rows", nil},
		// Keeps row 0, so the groups' first appearance in the scan still
		// follows dictionary order; drops north and one row each of the
		// other groups.
		{"masked", mask(t, uint64(len(rows)), 0, 1, 3, 4, 8, 9, 10)},
	}
	for _, mc := range masks {
		for _, groupBy := range []string{"", "G"} {
			b, err := NewBitmapAgg(tab, mc.m, groupBy, aggs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Collect(b)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := NewTableScan(tab, nil, mc.m)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewGroupAgg(scan, groupBy, aggs)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Collect(g)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
				t.Fatalf("%s, groupBy=%q: row-wise %v %v, bitmap %v %v",
					mc.name, groupBy, got.Columns, got.Rows, want.Columns, want.Rows)
			}
		}
	}
}

func TestBitmapAggErrors(t *testing.T) {
	tab := segTable(t, "T", []string{"G", "V"}, [][]string{{"a", "1"}})
	if _, err := NewBitmapAgg(tab, nil, "G", nil); err == nil {
		t.Fatal("GROUP BY without aggregates accepted")
	}
	want := `colstore: table "T" has no column "Nope"`
	if _, err := NewBitmapAgg(tab, nil, "Nope", []Agg{{Func: Count}}); err == nil || err.Error() != want {
		t.Fatalf("unknown group column: err = %v, want %s", err, want)
	}
	if _, err := NewBitmapAgg(tab, nil, "", []Agg{{Func: Sum, Column: "Nope"}}); err == nil || err.Error() != want {
		t.Fatalf("unknown aggregate column: err = %v, want %s", err, want)
	}
	if _, err := NewBitmapAgg(tab, mask(t, 2), "", []Agg{{Func: Count}}); err == nil {
		t.Fatal("wrong-length mask accepted")
	}
}

func TestGroupAggGlobalOnEmptyInput(t *testing.T) {
	in := &rowsOp{cols: []string{"V"}}
	g, err := NewGroupAgg(in, "", []Agg{{Func: Count}, {Func: Sum, Column: "V"}})
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, g)
	if want := [][]string{{"0", "0"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestGroupAggSumOverflow(t *testing.T) {
	big := strconv.FormatInt(1<<62, 10)
	in := &rowsOp{cols: []string{"V"}, batches: [][][]string{
		{{big}, {big}, {big}},
	}}
	g, err := NewGroupAgg(in, "", []Agg{{Func: Sum, Column: "V"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(g); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("err = %v, want overflow", err)
	}

	// Mixed signs cancel back into range: 2^62 + 2^62 - 2^62 fits.
	in = &rowsOp{cols: []string{"V"}, batches: [][][]string{
		{{big}, {big}, {"-" + big}},
	}}
	g, err = NewGroupAgg(in, "", []Agg{{Func: Sum, Column: "V"}})
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, g)
	if want := [][]string{{big}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
}

func TestGroupAggErrors(t *testing.T) {
	in := &rowsOp{cols: []string{"G", "V"}}
	if _, err := NewGroupAgg(in, "G", nil); err == nil {
		t.Fatal("GROUP BY without aggregates accepted")
	}
	if _, err := NewGroupAgg(in, "Nope", []Agg{{Func: Count}}); err == nil {
		t.Fatal("unknown group column accepted")
	}
	if _, err := NewGroupAgg(in, "G", []Agg{{Func: Sum, Column: "Nope"}}); err == nil {
		t.Fatal("unknown aggregate column accepted")
	}
	bad := &rowsOp{cols: []string{"V"}, batches: [][][]string{{{"ten"}}}}
	g, err := NewGroupAgg(bad, "", []Agg{{Func: Sum, Column: "V"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Collect(g); err == nil || !strings.Contains(err.Error(), "non-numeric") {
		t.Fatalf("err = %v, want non-numeric", err)
	}
}

func TestProject(t *testing.T) {
	in := &rowsOp{cols: []string{"A", "B", "C"}, batches: [][][]string{
		{{"1", "2", "3"}, {"4", "5", "6"}},
	}}
	p, err := NewProject(in, []string{"C", "A"})
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, p)
	if want := [][]string{{"3", "1"}, {"6", "4"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	if _, err := NewProject(in, []string{"D"}); err == nil {
		t.Fatal("unknown projected column accepted")
	}
}

func TestOrderLimit(t *testing.T) {
	in := func() *rowsOp {
		return &rowsOp{cols: []string{"V"}, batches: [][][]string{
			{{"10"}, {"2"}},
			{{"apple"}, {"10"}},
		}}
	}
	o, err := NewOrderLimit(in(), "V", false, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := collectRows(t, o)
	// The shared total order sorts numerics numerically before strings.
	if want := [][]string{{"2"}, {"10"}, {"10"}, {"apple"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}

	o, err = NewOrderLimit(in(), "V", true, 2)
	if err != nil {
		t.Fatal(err)
	}
	got = collectRows(t, o)
	if want := [][]string{{"apple"}, {"10"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}

	// Pure LIMIT streams: the cap lands inside the first batch and the
	// second batch is never requested.
	src := in()
	o, err = NewOrderLimit(src, "", false, 1)
	if err != nil {
		t.Fatal(err)
	}
	got = collectRows(t, o)
	if want := [][]string{{"10"}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	if src.next != 1 {
		t.Fatalf("limit drained %d batches, want 1", src.next)
	}

	if _, err := NewOrderLimit(in(), "Nope", false, 0); err == nil {
		t.Fatal("unknown order column accepted")
	}
}

func TestSharedLineage(t *testing.T) {
	fact := colstore.NewColumnFromValues("K", []string{"a", "b", "a", "c"})
	if !SharedLineage(fact, fact) {
		t.Fatal("column does not share lineage with itself")
	}
	// Same values interned in the same first-appearance order: shared.
	same := colstore.NewColumnFromValues("K2", []string{"a", "b", "b", "c"})
	if !SharedLineage(fact, same) {
		t.Fatal("value-identical dictionaries not recognized")
	}
	// Different intern order: ids diverge, lineage does not hold.
	other := colstore.NewColumnFromValues("K3", []string{"b", "a", "c"})
	if SharedLineage(fact, other) {
		t.Fatal("reordered dictionary reported as shared")
	}
}

func TestSemiJoinMask(t *testing.T) {
	fact := colstore.NewColumnFromValues("K", []string{"a", "b", "c", "a", "d", "b"})
	positions := func(m *wah.Bitmap) []uint64 {
		var out []uint64
		m.Ones(func(p uint64) bool { out = append(out, p); return true })
		return out
	}

	t.Run("shared lineage", func(t *testing.T) {
		dim := colstore.NewColumnFromValues("K", []string{"a", "b"})
		m := SemiJoinMask(fact, dim, nil)
		if got, want := positions(m), []uint64{0, 1, 3, 5}; !reflect.DeepEqual(got, want) {
			t.Fatalf("positions = %v, want %v", got, want)
		}
		if m.Len() != fact.NumRows() {
			t.Fatalf("mask length %d, want %d", m.Len(), fact.NumRows())
		}
	})

	t.Run("generic lookup", func(t *testing.T) {
		// Dim dict has its own order and values missing from fact ("x"),
		// forcing the per-value Lookup path.
		dim := colstore.NewColumnFromValues("K", []string{"x", "d", "a"})
		m := SemiJoinMask(fact, dim, nil)
		if got, want := positions(m), []uint64{0, 3, 4}; !reflect.DeepEqual(got, want) {
			t.Fatalf("positions = %v, want %v", got, want)
		}
	})

	t.Run("dim mask", func(t *testing.T) {
		dim := colstore.NewColumnFromValues("K", []string{"a", "b", "c"})
		m := SemiJoinMask(fact, dim, mask(t, 3, 1)) // only "b" survives
		if got, want := positions(m), []uint64{1, 5}; !reflect.DeepEqual(got, want) {
			t.Fatalf("positions = %v, want %v", got, want)
		}
	})

	t.Run("no overlap", func(t *testing.T) {
		dim := colstore.NewColumnFromValues("K", []string{"x", "y"})
		m := SemiJoinMask(fact, dim, nil)
		if m.Any() {
			t.Fatalf("positions = %v, want none", positions(m))
		}
		if m.Len() != fact.NumRows() {
			t.Fatalf("mask length %d, want %d", m.Len(), fact.NumRows())
		}
	})
}

// valueLess must be a strict weak ordering on any value mix: irreflexive,
// asymmetric, and transitive — exhaustively checked over a hostile pool.
func TestValueLessStrictWeakOrdering(t *testing.T) {
	pool := []string{"", "0", "-1", "9", "10", "10x", "9z", "abc", "-2x", "00", " 7"}
	for _, a := range pool {
		if valueLess(a, a) {
			t.Errorf("valueLess(%q, %q) must be false", a, a)
		}
		for _, b := range pool {
			if valueLess(a, b) && valueLess(b, a) {
				t.Errorf("valueLess asymmetry violated on %q, %q", a, b)
			}
			for _, c := range pool {
				if valueLess(a, b) && valueLess(b, c) && !valueLess(a, c) && a != c {
					t.Errorf("transitivity violated: %q < %q < %q but not %q < %q", a, b, c, a, c)
				}
			}
		}
	}
}
