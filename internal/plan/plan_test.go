package plan

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cods/internal/colquery"
	"cods/internal/colstore"
	"cods/internal/expr"
)

func mkTable(t *testing.T, name string, cols []string, rows [][]string) *colstore.Table {
	t.Helper()
	tb, err := colstore.NewTableBuilder(name, cols, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if err := tb.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := tb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func resolver(tables ...*colstore.Table) Resolver {
	byName := make(map[string]*colstore.Table, len(tables))
	for _, t := range tables {
		byName[t.Name()] = t
	}
	return func(name string) (*colstore.Table, error) {
		t, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("no table %q", name)
		}
		return t, nil
	}
}

// starJoinFixture is a small fact table with two dimensions of very
// different sizes, for pinning join order and semi-join behavior.
func starJoinFixture(t *testing.T) Resolver {
	t.Helper()
	var factRows, bigRows [][]string
	for i := 0; i < 40; i++ {
		factRows = append(factRows, []string{
			fmt.Sprintf("b%d", i%20), fmt.Sprintf("s%d", i%2), fmt.Sprintf("%d", i),
		})
	}
	for i := 0; i < 20; i++ {
		bigRows = append(bigRows, []string{fmt.Sprintf("b%d", i), fmt.Sprintf("big%d", i)})
	}
	fact := mkTable(t, "fact", []string{"BK", "SK", "V"}, factRows)
	big := mkTable(t, "big", []string{"BK", "BigV"}, bigRows)
	small := mkTable(t, "small", []string{"SK", "SmallV"},
		[][]string{{"s0", "even"}, {"s1", "odd"}})
	return resolver(fact, big, small)
}

func TestSingleTableDelegates(t *testing.T) {
	tab := mkTable(t, "t", []string{"A", "B"},
		[][]string{{"x", "1"}, {"y", "2"}, {"x", "3"}})
	got, err := Run(resolver(tab), Query{From: "t", Select: []string{"B"}, Where: "A = 'x'"})
	if err != nil {
		t.Fatal(err)
	}
	want := &colquery.ResultSet{Columns: []string{"B"}, Rows: [][]string{{"1"}, {"3"}}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, want %+v", got, want)
	}
}

// A single-table aggregate runs on the bitmap index (BitmapAgg); it must
// answer exactly what the row-wise GroupAgg computes over a scan.
func TestSingleTableAggregatesMatchRowwise(t *testing.T) {
	tab := mkTable(t, "t", []string{"G", "V"}, [][]string{
		{"east", "10"}, {"west", "-3"}, {"east", "7"},
		{"north", "0"}, {"west", "-3"}, {"east", "10"},
	})
	aggs := []colquery.Agg{
		{Func: colquery.Count},
		{Func: colquery.Sum, Column: "V"},
		{Func: colquery.Avg, Column: "V"},
		{Func: colquery.Min, Column: "V"},
		{Func: colquery.Max, Column: "V"},
		{Func: colquery.CountDistinct, Column: "V"},
	}
	for _, groupBy := range []string{"", "G"} {
		got, err := Run(resolver(tab), Query{From: "t", GroupBy: groupBy, Aggregates: aggs})
		if err != nil {
			t.Fatal(err)
		}
		scan, err := colquery.NewTableScan(tab, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, err := colquery.NewGroupAgg(scan, groupBy, aggs)
		if err != nil {
			t.Fatal(err)
		}
		want, err := colquery.Collect(g)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("groupBy=%q: plan %+v, row-wise %+v", groupBy, got, want)
		}
	}
}

// With no joins there is no row filter above the scan to catch a WHERE
// column the table lacks, and BitmapAgg never sees a residual conjunct:
// the conjunct must still fail, with the table's own error, rather than
// be dropped.
func TestUnknownColumnSingleTable(t *testing.T) {
	tab := mkTable(t, "R", []string{"A", "B"},
		[][]string{{"x", "1"}, {"y", "2"}, {"x", "3"}})
	count := []colquery.Agg{{Func: colquery.Count}}
	cases := []struct {
		name string
		q    Query
	}{
		{"global aggregate, where", Query{Aggregates: count, Where: "Nope = 'x'"}},
		{"grouped aggregate, where", Query{Aggregates: count, GroupBy: "A", Where: "A = 'x' AND Nope = 'x'"}},
		{"select, where", Query{Where: "Nope = 'x'"}},
		{"select list", Query{Select: []string{"A", "Nope"}}},
		{"group by", Query{Aggregates: count, GroupBy: "Nope"}},
		{"aggregate column", Query{Aggregates: []colquery.Agg{{Func: colquery.Sum, Column: "Nope"}}}},
	}
	want := `colstore: table "R" has no column "Nope"`
	for _, c := range cases {
		c.q.From = "R"
		rs, err := Run(resolver(tab), c.q)
		if err == nil || err.Error() != want {
			t.Errorf("%s: rs = %+v, err = %v, want %s", c.name, rs, err, want)
		}
	}
}

func TestNegativeLimit(t *testing.T) {
	tab := mkTable(t, "t", []string{"A"}, [][]string{{"x"}, {"y"}})
	_, err := Run(resolver(tab), Query{From: "t", Limit: -1})
	if err == nil || !strings.Contains(err.Error(), "-1") {
		t.Fatalf("LIMIT -1: err = %v, want an error naming -1", err)
	}
	// 0 still means unlimited.
	rs, err := Run(resolver(tab), Query{From: "t"})
	if err != nil || len(rs.Rows) != 2 {
		t.Fatalf("LIMIT 0: rs = %+v, err = %v, want both rows", rs, err)
	}
}

func TestJoinStarSchema(t *testing.T) {
	fact := mkTable(t, "fact", []string{"K", "F"},
		[][]string{{"a", "f1"}, {"b", "f2"}, {"a", "f3"}})
	dim := mkTable(t, "dim", []string{"K", "D"},
		[][]string{{"a", "d-a"}, {"b", "d-b"}, {"c", "d-c"}})
	rs, err := Run(resolver(fact, dim), Query{
		From: "fact", Joins: []Join{{Table: "dim", On: []string{"K"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Columns, []string{"K", "F", "D"}) {
		t.Fatalf("columns = %v", rs.Columns)
	}
	want := [][]string{{"a", "f1", "d-a"}, {"b", "f2", "d-b"}, {"a", "f3", "d-a"}}
	if !reflect.DeepEqual(rs.Rows, want) {
		t.Fatalf("rows = %v, want %v", rs.Rows, want)
	}
}

func TestPushdownTargets(t *testing.T) {
	fact := mkTable(t, "fact", []string{"K", "F"}, [][]string{{"a", "1"}})
	dim := mkTable(t, "dim", []string{"K", "D"}, [][]string{{"a", "2"}})
	q := Query{
		From:  "fact",
		Joins: []Join{{Table: "dim", On: []string{"K"}}},
		Where: "F = '1' AND D = '2' AND (F = 'x' OR D = 'y')",
	}
	conjuncts, err := splitWhere(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	sp := makeSpec(q, []*colstore.Table{fact, dim}, conjuncts)
	// F is fact-only, D is dim-only, the OR spans both → residual. The
	// shared key K would resolve to slot 0 (written order, From first).
	if want := []int{0, 1, residual}; !reflect.DeepEqual(sp.pushed, want) {
		t.Fatalf("pushed = %v, want %v", sp.pushed, want)
	}
	if kt := pushTarget(&expr.Comparison{Column: "K", Op: expr.OpEq, Literal: "a"},
		[]*colstore.Table{fact, dim}); kt != 0 {
		t.Fatalf("shared key pushed to slot %d, want 0", kt)
	}
}

func TestJoinReorderBySize(t *testing.T) {
	res := starJoinFixture(t)
	fact, _ := res("fact")
	big, _ := res("big")
	small, _ := res("small")
	q := Query{From: "fact", Joins: []Join{
		{Table: "big", On: []string{"BK"}},
		{Table: "small", On: []string{"SK"}},
	}}
	sp := makeSpec(q, []*colstore.Table{fact, big, small}, nil)
	// Both joins are reachable from the fact schema; the 2-row dimension
	// beats the 20-row one regardless of written order.
	if want := []int{1, 0}; !reflect.DeepEqual(sp.order, want) {
		t.Fatalf("order = %v, want %v", sp.order, want)
	}

	// A pushed equality on the big dimension shrinks its estimate to
	// ~1 row, flipping the greedy choice.
	q.Where = "BigV = 'big3'"
	conjuncts, err := splitWhere(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	sp = makeSpec(q, []*colstore.Table{fact, big, small}, conjuncts)
	if want := []int{0, 1}; !reflect.DeepEqual(sp.order, want) {
		t.Fatalf("order with pushdown = %v, want %v", sp.order, want)
	}
}

func TestJoinReorderChain(t *testing.T) {
	a := mkTable(t, "a", []string{"K1", "A"}, [][]string{{"k", "1"}})
	b := mkTable(t, "b", []string{"K1", "K2"}, [][]string{{"k", "m"}})
	c := mkTable(t, "c", []string{"K2", "C"}, [][]string{{"m", "2"}})
	// Written order lists c first, but its key K2 only becomes available
	// after b joins — the planner must sequence b before c.
	q := Query{From: "a", Joins: []Join{
		{Table: "c", On: []string{"K2"}},
		{Table: "b", On: []string{"K1"}},
	}}
	sp := makeSpec(q, []*colstore.Table{a, c, b}, nil)
	if want := []int{1, 0}; !reflect.DeepEqual(sp.order, want) {
		t.Fatalf("order = %v, want %v", sp.order, want)
	}
	// And the full run produces the chain's single row with the written
	// star schema (a, then c's columns, then b's).
	rs, err := Run(resolver(a, b, c), q)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Columns, []string{"K1", "A", "K2", "C"}) {
		t.Fatalf("columns = %v", rs.Columns)
	}
	if want := [][]string{{"k", "1", "m", "2"}}; !reflect.DeepEqual(rs.Rows, want) {
		t.Fatalf("rows = %v, want %v", rs.Rows, want)
	}
}

func TestEstimateRows(t *testing.T) {
	tab := mkTable(t, "t", []string{"K", "V"}, [][]string{
		{"a", "1"}, {"b", "2"}, {"c", "3"}, {"d", "4"},
		{"a", "5"}, {"b", "6"}, {"c", "7"}, {"d", "8"},
	})
	eq := &expr.Comparison{Column: "K", Op: expr.OpEq, Literal: "a"}
	ne := &expr.Comparison{Column: "V", Op: expr.OpNe, Literal: "1"}
	// 8 rows / 4 distinct K = 2 for the equality; /3 again for the rest.
	if got := estimateRows(tab, 0, []int{0}, []expr.Node{eq}); got != 2 {
		t.Fatalf("estimate = %v, want 2", got)
	}
	if got := estimateRows(tab, 0, []int{0, 0}, []expr.Node{eq, ne}); got != 2.0/3 && got != 1 {
		// 2/3 floors at 1.
		t.Fatalf("estimate = %v, want 1", got)
	}
	if got := estimateRows(tab, 0, []int{0, 0}, []expr.Node{eq, ne}); got != 1 {
		t.Fatalf("estimate = %v, want floored 1", got)
	}
	// Conjuncts pushed elsewhere do not shrink this table.
	if got := estimateRows(tab, 0, []int{1}, []expr.Node{eq}); got != 8 {
		t.Fatalf("estimate = %v, want 8", got)
	}
}

// TestSemiJoinOnOffParity pins the rows of a star join whose From scan
// the WAH semi-join pre-reduces: they must be exactly the rows a plain
// hash join of the three tables yields, written out below.
func TestSemiJoinOnOffParity(t *testing.T) {
	res := starJoinFixture(t)
	got, err := Run(res, Query{
		From: "fact",
		Joins: []Join{
			{Table: "big", On: []string{"BK"}},
			{Table: "small", On: []string{"SK"}},
		},
		Where:   "SmallV = 'odd'",
		OrderBy: "V",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := &colquery.ResultSet{Columns: []string{"BK", "SK", "V", "BigV", "SmallV"}}
	for i := 1; i < 40; i += 2 {
		want.Rows = append(want.Rows, []string{
			fmt.Sprintf("b%d", i%20), "s1", fmt.Sprint(i), fmt.Sprintf("big%d", i%20), "odd",
		})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
	}
}

// TestJoinScansSkipPushedColumns: a conjunct pushed into a scan is
// answered by that scan's predicate bitmap, so its column is not decoded.
// For a count over S ⋈ T with C = 'x' pushed into T, the only needed
// column is the join key, so T's build scan projects A alone.
func TestJoinScansSkipPushedColumns(t *testing.T) {
	s := mkTable(t, "S", []string{"A", "B"}, [][]string{{"a1", "b1"}, {"a2", "b2"}})
	tt := mkTable(t, "T", []string{"A", "C"}, [][]string{{"a1", "x"}, {"a2", "y"}})
	q := Query{
		From:       "S",
		Joins:      []Join{{Table: "T", On: []string{"A"}}},
		Where:      "C = 'x'",
		Aggregates: []colquery.Agg{{Func: colquery.Count}},
	}
	tables := []*colstore.Table{s, tt}
	conjuncts, err := splitWhere(q.Where)
	if err != nil {
		t.Fatal(err)
	}
	sp := makeSpec(q, tables, conjuncts)
	if want := []int{1}; !reflect.DeepEqual(sp.pushed, want) {
		t.Fatalf("pushed = %v, want %v", sp.pushed, want)
	}
	needed, _ := neededColumns(q, tables, conjuncts, sp.pushed)
	if want := map[string]bool{"A": true}; !reflect.DeepEqual(needed, want) {
		t.Fatalf("needed = %v, want %v", needed, want)
	}
	rs, err := Run(resolver(s, tt), q)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"1"}}; !reflect.DeepEqual(rs.Rows, want) {
		t.Fatalf("rows = %v, want %v", rs.Rows, want)
	}
}

func TestResidualFilter(t *testing.T) {
	fact := mkTable(t, "fact", []string{"K", "F"},
		[][]string{{"a", "1"}, {"b", "2"}})
	dim := mkTable(t, "dim", []string{"K", "D"},
		[][]string{{"a", "1"}, {"b", "9"}})
	rs, err := Run(resolver(fact, dim), Query{
		From:  "fact",
		Joins: []Join{{Table: "dim", On: []string{"K"}}},
		// The OR spans both tables: no single scan can absorb it, so it
		// must run as a row-wise filter above the join.
		Where: "F = '1' OR D = 'nope'",
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]string{{"a", "1", "1"}}; !reflect.DeepEqual(rs.Rows, want) {
		t.Fatalf("rows = %v, want %v", rs.Rows, want)
	}
}

func TestSelectOrderRestored(t *testing.T) {
	fact := mkTable(t, "fact", []string{"K", "F"}, [][]string{{"a", "f"}})
	dim := mkTable(t, "dim", []string{"K", "D"}, [][]string{{"a", "d"}})
	rs, err := Run(resolver(fact, dim), Query{
		From:   "fact",
		Joins:  []Join{{Table: "dim", On: []string{"K"}}},
		Select: []string{"D", "F", "K"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Columns, []string{"D", "F", "K"}) {
		t.Fatalf("columns = %v", rs.Columns)
	}
	if want := [][]string{{"d", "f", "a"}}; !reflect.DeepEqual(rs.Rows, want) {
		t.Fatalf("rows = %v, want %v", rs.Rows, want)
	}
}

func TestJoinedAggregates(t *testing.T) {
	res := starJoinFixture(t)
	rs, err := Run(res, Query{
		From: "fact",
		Joins: []Join{
			{Table: "small", On: []string{"SK"}},
		},
		Aggregates: []colquery.Agg{{Func: colquery.Count}, {Func: colquery.Sum, Column: "V"}},
		GroupBy:    "SmallV",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Columns, []string{"SmallV", "count(*)", "sum(V)"}) {
		t.Fatalf("columns = %v", rs.Columns)
	}
	// Even V (0+2+...+38 = 380) under "even", odd (1+3+...+39 = 400)
	// under "odd"; groups appear in first-appearance order of the joined
	// stream, which follows fact row order: V=0 is even first.
	want := [][]string{{"even", "20", "380"}, {"odd", "20", "400"}}
	if !reflect.DeepEqual(rs.Rows, want) {
		t.Fatalf("rows = %v, want %v", rs.Rows, want)
	}
}

func TestResolverErrorPassesThrough(t *testing.T) {
	fact := mkTable(t, "fact", []string{"K"}, [][]string{{"a"}})
	sentinel := fmt.Errorf("boom")
	res := func(name string) (*colstore.Table, error) {
		if name == "fact" {
			return fact, nil
		}
		return nil, sentinel
	}
	_, err := Run(res, Query{From: "fact", Joins: []Join{{Table: "gone", On: []string{"K"}}}})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the resolver's sentinel", err)
	}
	_, err = Run(res, Query{From: "gone"})
	if !errors.Is(err, sentinel) {
		t.Fatalf("single-table err = %v, want the resolver's sentinel", err)
	}
}

func TestGroupByWithoutAggregates(t *testing.T) {
	fact := mkTable(t, "fact", []string{"K"}, [][]string{{"a"}})
	dim := mkTable(t, "dim", []string{"K", "D"}, [][]string{{"a", "d"}})
	_, err := Run(resolver(fact, dim), Query{
		From: "fact", Joins: []Join{{Table: "dim", On: []string{"K"}}}, GroupBy: "D",
	})
	if err == nil {
		t.Fatal("GROUP BY without aggregates accepted")
	}
}

func TestEmptyJoinResultIsNonNil(t *testing.T) {
	fact := mkTable(t, "fact", []string{"K"}, [][]string{{"a"}})
	dim := mkTable(t, "dim", []string{"K", "D"}, [][]string{{"z", "d"}})
	rs, err := Run(resolver(fact, dim), Query{
		From: "fact", Joins: []Join{{Table: "dim", On: []string{"K"}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows == nil || len(rs.Rows) != 0 {
		t.Fatalf("rows = %#v, want empty non-nil", rs.Rows)
	}
}
