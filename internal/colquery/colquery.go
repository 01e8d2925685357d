// Package colquery is the operator set queries run on over the
// bitmap-indexed column store: scans, filters, joins, aggregation,
// projection, ordering and limits, composed as a pull-based Operator tree
// that internal/plan builds. It exists because evolved schemas need to be
// queried to be useful (the paper's demo displays and inspects tables,
// §3), and because it shows the same storage property the evolution
// algorithms exploit: most operations run once per distinct value on
// compressed bitmaps, not once per row. BitmapAgg in particular answers
// COUNT with a compressed popcount and never touches row data.
package colquery

import (
	"fmt"

	"cods/internal/expr"
)

// AggFunc is an aggregate function.
type AggFunc int

// Aggregate functions.
const (
	Count AggFunc = iota // COUNT(*)
	CountDistinct
	Min
	Max
	Sum
	Avg
)

var aggNames = map[AggFunc]string{
	Count: "count", CountDistinct: "count_distinct",
	Min: "min", Max: "max", Sum: "sum", Avg: "avg",
}

func (f AggFunc) String() string { return aggNames[f] }

// Agg is one aggregate in the select list. Column is ignored for Count.
type Agg struct {
	Func   AggFunc
	Column string
	// As names the output column; default "<func>(<column>)".
	As string
}

func (a Agg) name() string {
	if a.As != "" {
		return a.As
	}
	if a.Func == Count {
		return "count(*)"
	}
	return fmt.Sprintf("%s(%s)", a.Func, a.Column)
}

// ResultSet is a materialized query result.
type ResultSet struct {
	Columns []string
	Rows    [][]string
}

// valueLess orders values by the predicate language's total order
// (expr.Compare): integers numerically and before all non-integers,
// non-integers lexicographically. Sharing the comparator keeps ORDER BY,
// MIN/MAX and WHERE mutually consistent; a previous local rule ("numeric
// only when both sides parse") was not transitive on mixed values
// ("9" < "10" < "10x" < "9"), leaving sort results undefined.
func valueLess(a, b string) bool {
	return expr.Compare(a, b) < 0
}
