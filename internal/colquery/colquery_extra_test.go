package colquery_test

import (
	"reflect"
	"testing"

	"cods/internal/colquery"
	"cods/internal/plan"
)

func TestOrderByOnAggregateColumn(t *testing.T) {
	tab := salesTable(t)
	rs, err := run(tab, plan.Query{
		GroupBy:    "Region",
		Aggregates: []colquery.Agg{{Func: colquery.Sum, Column: "Amount", As: "total"}},
		OrderBy:    "total",
		Desc:       true,
		Limit:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"east", "80"},
		{"west", "25"},
	}
	if !reflect.DeepEqual(rs.Rows, want) {
		t.Fatalf("rows=%v", rs.Rows)
	}
}

func TestMinMaxNumericVsLexicographic(t *testing.T) {
	tab := salesTable(t)
	rs, err := run(tab, plan.Query{
		Aggregates: []colquery.Agg{
			{Func: colquery.Min, Column: "Amount"},
			{Func: colquery.Max, Column: "Amount"},
			{Func: colquery.Min, Column: "Region"},
			{Func: colquery.Max, Column: "Region"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := rs.Rows[0]
	// Numeric: min 5, max 40 (not lexicographic "10"/"7").
	// Lexicographic for strings: east..west.
	want := []string{"5", "40", "east", "west"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got=%v want %v", got, want)
	}
}

func TestLimitWithoutOrder(t *testing.T) {
	tab := salesTable(t)
	rs, err := run(tab, plan.Query{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows=%d", len(rs.Rows))
	}
}

func TestGroupByRespectsRowlessTable(t *testing.T) {
	tab := salesTable(t)
	rs, err := run(tab, plan.Query{
		Where:      "Region = 'nowhere'",
		GroupBy:    "Region",
		Aggregates: []colquery.Agg{{Func: colquery.Count}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 0 {
		t.Fatalf("rows=%v", rs.Rows)
	}
}

func TestAggFuncString(t *testing.T) {
	names := map[colquery.AggFunc]string{
		colquery.Count: "count", colquery.CountDistinct: "count_distinct",
		colquery.Min: "min", colquery.Max: "max", colquery.Sum: "sum", colquery.Avg: "avg",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%v.String()=%q want %q", int(f), f.String(), want)
		}
	}
}
