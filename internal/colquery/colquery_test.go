package colquery_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"cods/internal/colquery"
	"cods/internal/colstore"
	"cods/internal/plan"
)

// run answers q over tab alone through the planner, the one way queries
// are built.
func run(tab *colstore.Table, q plan.Query) (*colquery.ResultSet, error) {
	q.From = tab.Name()
	return plan.Run(func(name string) (*colstore.Table, error) {
		if name != tab.Name() {
			return nil, fmt.Errorf("no table %q", name)
		}
		return tab, nil
	}, q)
}

func salesTable(t *testing.T) *colstore.Table {
	t.Helper()
	tb, err := colstore.NewTableBuilder("Sales", []string{"Region", "Product", "Amount"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"east", "pen", "10"},
		{"east", "ink", "30"},
		{"west", "pen", "20"},
		{"west", "pen", "5"},
		{"east", "pen", "40"},
		{"north", "ink", "7"},
	}
	for _, r := range rows {
		tb.AppendRow(r)
	}
	tab, err := tb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSelectWhereProjection(t *testing.T) {
	tab := salesTable(t)
	rs, err := run(tab, plan.Query{Select: []string{"Product", "Amount"}, Where: "Region = 'east'"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Columns, []string{"Product", "Amount"}) {
		t.Fatalf("columns=%v", rs.Columns)
	}
	want := [][]string{{"pen", "10"}, {"ink", "30"}, {"pen", "40"}}
	if !reflect.DeepEqual(rs.Rows, want) {
		t.Fatalf("rows=%v", rs.Rows)
	}
}

func TestSelectAllColumnsNoWhere(t *testing.T) {
	tab := salesTable(t)
	rs, err := run(tab, plan.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 6 || len(rs.Columns) != 3 {
		t.Fatalf("shape %dx%d", len(rs.Rows), len(rs.Columns))
	}
}

func TestAggregatesWithoutGroup(t *testing.T) {
	tab := salesTable(t)
	rs, err := run(tab, plan.Query{
		Where: "Product = 'pen'",
		Aggregates: []colquery.Agg{
			{Func: colquery.Count},
			{Func: colquery.Sum, Column: "Amount"},
			{Func: colquery.Min, Column: "Amount"},
			{Func: colquery.Max, Column: "Amount"},
			{Func: colquery.Avg, Column: "Amount", As: "avg_amount"},
			{Func: colquery.CountDistinct, Column: "Region"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("rows=%v", rs.Rows)
	}
	got := rs.Rows[0]
	want := []string{"4", "75", "5", "40", "18.75", "2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregates=%v want %v", got, want)
	}
	if rs.Columns[4] != "avg_amount" {
		t.Fatalf("alias lost: %v", rs.Columns)
	}
}

func TestGroupBy(t *testing.T) {
	tab := salesTable(t)
	rs, err := run(tab, plan.Query{
		GroupBy: "Region",
		Aggregates: []colquery.Agg{
			{Func: colquery.Count},
			{Func: colquery.Sum, Column: "Amount"},
		},
		OrderBy: "Region",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"east", "3", "80"},
		{"north", "1", "7"},
		{"west", "2", "25"},
	}
	if !reflect.DeepEqual(rs.Rows, want) {
		t.Fatalf("rows=%v", rs.Rows)
	}
}

func TestGroupByWithWhereSkipsEmptyGroups(t *testing.T) {
	tab := salesTable(t)
	rs, err := run(tab, plan.Query{
		Where:      "Product = 'ink'",
		GroupBy:    "Region",
		Aggregates: []colquery.Agg{{Func: colquery.Count}},
		OrderBy:    "Region",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only east and north sell ink; west must not appear.
	if len(rs.Rows) != 2 || rs.Rows[0][0] != "east" || rs.Rows[1][0] != "north" {
		t.Fatalf("rows=%v", rs.Rows)
	}
}

func TestOrderByNumericAndLimit(t *testing.T) {
	tab := salesTable(t)
	rs, err := run(tab, plan.Query{
		Select:  []string{"Amount"},
		OrderBy: "Amount",
		Desc:    true,
		Limit:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Numeric ordering: 40, 30, 20 (not lexicographic "7" > "40").
	want := [][]string{{"40"}, {"30"}, {"20"}}
	if !reflect.DeepEqual(rs.Rows, want) {
		t.Fatalf("rows=%v", rs.Rows)
	}
}

func TestErrors(t *testing.T) {
	tab := salesTable(t)
	if _, err := run(tab, plan.Query{Where: "bogus ~"}); err == nil {
		t.Fatal("bad predicate should fail")
	}
	if _, err := run(tab, plan.Query{Select: []string{"Nope"}}); err == nil {
		t.Fatal("unknown column should fail")
	}
	if _, err := run(tab, plan.Query{GroupBy: "Region"}); err == nil {
		t.Fatal("GROUP BY without aggregates should fail")
	}
	if _, err := run(tab, plan.Query{GroupBy: "Nope", Aggregates: []colquery.Agg{{Func: colquery.Count}}}); err == nil {
		t.Fatal("unknown group column should fail")
	}
	if _, err := run(tab, plan.Query{Aggregates: []colquery.Agg{{Func: colquery.Sum, Column: "Product"}}}); err == nil {
		t.Fatal("SUM over non-numeric should fail")
	}
	if _, err := run(tab, plan.Query{OrderBy: "Nope"}); err == nil {
		t.Fatal("unknown order column should fail")
	}
}

func TestEmptyResultAggregates(t *testing.T) {
	tab := salesTable(t)
	rs, err := run(tab, plan.Query{
		Where:      "Region = 'south'",
		Aggregates: []colquery.Agg{{Func: colquery.Count}, {Func: colquery.Min, Column: "Amount"}, {Func: colquery.Avg, Column: "Amount"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0] != "0" || rs.Rows[0][1] != "" || rs.Rows[0][2] != "" {
		t.Fatalf("empty aggregates=%v", rs.Rows[0])
	}
}

func TestAgainstNaiveReference(t *testing.T) {
	// Property: grouped COUNT/SUM match a naive row-scan computation.
	rng := rand.New(rand.NewSource(3))
	tb, _ := colstore.NewTableBuilder("T", []string{"G", "V"}, nil)
	counts := map[string]int{}
	sums := map[string]int{}
	for i := 0; i < 2000; i++ {
		g := fmt.Sprintf("g%d", rng.Intn(17))
		v := rng.Intn(100)
		tb.AppendRow([]string{g, strconv.Itoa(v)})
		counts[g]++
		sums[g] += v
	}
	tab, _ := tb.Finish()
	rs, err := run(tab, plan.Query{
		GroupBy:    "G",
		Aggregates: []colquery.Agg{{Func: colquery.Count}, {Func: colquery.Sum, Column: "V"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != len(counts) {
		t.Fatalf("groups=%d want %d", len(rs.Rows), len(counts))
	}
	for _, row := range rs.Rows {
		if row[1] != strconv.Itoa(counts[row[0]]) {
			t.Fatalf("group %s count=%s want %d", row[0], row[1], counts[row[0]])
		}
		if row[2] != strconv.Itoa(sums[row[0]]) {
			t.Fatalf("group %s sum=%s want %d", row[0], row[2], sums[row[0]])
		}
	}
}
