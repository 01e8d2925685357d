package colquery_test

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cods/internal/colquery"
	"cods/internal/colstore"
	"cods/internal/plan"
)

func oneColumnTable(t *testing.T, name string, values []string) *colstore.Table {
	t.Helper()
	tb, err := colstore.NewTableBuilder("T", []string{name}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range values {
		tb.AppendRow([]string{v})
	}
	tab, err := tb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// Mixed numeric and non-numeric values used to break strict weak
// ordering ("9" < "10" numeric, "10" < "10x" lex, "10x" < "9" lex), so
// ORDER BY results were whatever the sort happened to do and MIN/MAX
// depended on dictionary id order. The total order sorts integers
// numerically before all non-integers.
func TestOrderByMixedNumericAndStrings(t *testing.T) {
	tab := oneColumnTable(t, "V", []string{"10x", "9", "abc", "10", "2", "9z"})
	rs, err := run(tab, plan.Query{OrderBy: "V"})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range rs.Rows {
		got = append(got, r[0])
	}
	want := []string{"2", "9", "10", "10x", "9z", "abc"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ORDER BY mixed = %v, want %v", got, want)
	}

	rs, err = run(tab, plan.Query{Aggregates: []colquery.Agg{
		{Func: colquery.Min, Column: "V"},
		{Func: colquery.Max, Column: "V"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Rows[0], []string{"2", "abc"}) {
		t.Fatalf("MIN/MAX mixed = %v, want [2 abc]", rs.Rows[0])
	}
}

func TestSumAvgOverflow(t *testing.T) {
	big := fmt.Sprint(int64(math.MaxInt64))
	cases := []struct {
		name   string
		values []string
	}{
		{"two-max", []string{big, big}},           // total 2·MaxInt64
		{"max-plus-one", []string{big, "1"}},      // total MaxInt64+1
		{"repeated-max", []string{big, big, big}}, // product path (count 3)
		{"negative", []string{fmt.Sprint(int64(math.MinInt64)), "-1"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tab := oneColumnTable(t, "V", c.values)
			for _, f := range []colquery.AggFunc{colquery.Sum, colquery.Avg} {
				_, err := run(tab, plan.Query{Aggregates: []colquery.Agg{{Func: f, Column: "V"}}})
				if err == nil {
					t.Fatalf("%s over %v returned no error, want overflow", f, c.values)
				}
				if !strings.Contains(err.Error(), "overflow") {
					t.Fatalf("%s error = %v, want overflow", f, err)
				}
			}
		})
	}

	// The boundary itself is representable and must still work.
	tab := oneColumnTable(t, "V", []string{fmt.Sprint(int64(math.MaxInt64) - 1), "1"})
	rs, err := run(tab, plan.Query{Aggregates: []colquery.Agg{{Func: colquery.Sum, Column: "V"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rs.Rows[0][0], fmt.Sprint(int64(math.MaxInt64)); got != want {
		t.Fatalf("sum at boundary = %s, want %s", got, want)
	}

	// A transiently overflowing fold whose true total is representable
	// must succeed regardless of value order: the 128-bit accumulator
	// makes the result a function of the multiset, not of dictionary-id
	// assignment.
	for _, values := range [][]string{
		{big, "5", "-10"},
		{"-10", big, "5"},
		{fmt.Sprint(int64(math.MinInt64)), "-5", "10"},
		// Individual value×count products overflow int64 (MaxInt64 twice,
		// MinInt64 twice) but the 128-bit products cancel to -2.
		{big, big, fmt.Sprint(int64(math.MinInt64)), fmt.Sprint(int64(math.MinInt64))},
	} {
		tab := oneColumnTable(t, "V", values)
		rs, err := run(tab, plan.Query{Aggregates: []colquery.Agg{{Func: colquery.Sum, Column: "V"}}})
		if err != nil {
			t.Fatalf("sum over %v: %v (transient overflow must not error)", values, err)
		}
		var want int64
		for _, v := range values {
			n, _ := strconv.ParseInt(v, 10, 64)
			want += n
		}
		if got := rs.Rows[0][0]; got != fmt.Sprint(want) {
			t.Fatalf("sum over %v = %s, want %d", values, got, want)
		}
	}
}
