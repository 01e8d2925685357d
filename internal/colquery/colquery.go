// Package colquery is a small query processor over the bitmap-indexed
// column store: projection, predicate filtering, grouping and aggregation,
// ordering and limits. It exists because evolved schemas need to be
// queried to be useful (the paper's demo displays and inspects tables, §3),
// and because it shows the same storage property the evolution algorithms
// exploit: most operations run once per distinct value on compressed
// bitmaps, not once per row. COUNT aggregates in particular are pure
// compressed popcounts and never touch row data.
package colquery

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"cods/internal/colstore"
	"cods/internal/expr"
	"cods/internal/par"
	"cods/internal/wah"
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

// Query describes a single-table query.
type Query struct {
	// Select lists projected columns; empty selects all columns (ignored
	// when Aggregates is non-empty).
	Select []string
	// Where is an optional predicate (package expr syntax).
	Where string
	// GroupBy optionally groups by one column; requires Aggregates.
	GroupBy string
	// Aggregates computes aggregate columns (with or without GroupBy).
	Aggregates []Agg
	// OrderBy optionally sorts by one output column (numeric when all
	// values parse as integers).
	OrderBy string
	// Desc reverses the order.
	Desc bool
	// Limit caps the number of output rows; 0 means no limit.
	Limit int
	// Parallelism bounds the worker pool for per-distinct-value work
	// (predicate evaluation, group masks, aggregate popcounts); 0 means
	// GOMAXPROCS, 1 forces serial execution. Results are deterministic at
	// any setting.
	Parallelism int
}

// ResultSet is a materialized query result.
type ResultSet struct {
	Columns []string
	Rows    [][]string
}

// Run executes a query against a table by assembling and draining the
// operator tree: a bitmap-aggregation leaf when aggregates are present
// (COUNT stays a pure popcount), otherwise a segment-aware TableScan of
// the WHERE mask, topped by OrderLimit when the query sorts or caps.
func Run(t *colstore.Table, q Query) (*ResultSet, error) {
	mask, err := whereMask(t, q.Where, q.Parallelism)
	if err != nil {
		return nil, err
	}
	var root Operator
	switch {
	case len(q.Aggregates) > 0:
		root, err = newTableAggregate(t, q, mask)
	case q.GroupBy != "":
		return nil, fmt.Errorf("colquery: GROUP BY requires aggregates")
	default:
		root, err = NewTableScan(t, q.Select, mask, q.Parallelism)
	}
	if err != nil {
		return nil, err
	}
	if q.OrderBy != "" || q.Limit > 0 {
		if root, err = NewOrderLimit(root, q.OrderBy, q.Desc, q.Limit); err != nil {
			return nil, err
		}
	}
	rs, err := Collect(root)
	if err != nil {
		return nil, err
	}
	if len(q.Aggregates) == 0 && rs.Rows == nil {
		rs.Rows = [][]string{}
	}
	return rs, nil
}

func whereMask(t *colstore.Table, where string, parallelism int) (*wah.Bitmap, error) {
	if where == "" {
		all := wah.New()
		all.AppendRun(1, t.NumRows())
		return all, nil
	}
	pred, err := expr.Parse(where)
	if err != nil {
		return nil, err
	}
	return pred.EvalP(t, parallelism)
}

// resolveAggColumns looks up each aggregated column once up front, so
// per-group aggregation never repeats the lookup inside a fan-out.
func resolveAggColumns(t *colstore.Table, aggs []Agg) (map[string]*colstore.Column, error) {
	cols := make(map[string]*colstore.Column)
	for _, a := range aggs {
		if a.Func == Count || cols[a.Column] != nil {
			continue
		}
		col, err := t.Column(a.Column)
		if err != nil {
			return nil, err
		}
		cols[a.Column] = col
	}
	return cols, nil
}

// runAggregates computes aggregates over the single group selected by the
// mask.
func runAggregates(t *colstore.Table, q Query, mask *wah.Bitmap) (*ResultSet, error) {
	cols, err := resolveAggColumns(t, q.Aggregates)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{}
	var row []string
	for _, a := range q.Aggregates {
		rs.Columns = append(rs.Columns, a.name())
		v, err := aggregate(cols[a.Column], a, mask, q.Parallelism)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	rs.Rows = [][]string{row}
	return rs, nil
}

// runGrouped computes one output row per distinct group-column value with
// at least one selected row. The group mask is And(value bitmap, where
// mask) — one compressed AND per distinct value, each an independent task.
// Groups compute in parallel and assemble in dictionary id order, so output
// order does not depend on scheduling.
func runGrouped(t *colstore.Table, q Query, mask *wah.Bitmap) (*ResultSet, error) {
	gcol, err := t.Column(q.GroupBy)
	if err != nil {
		return nil, err
	}
	cols, err := resolveAggColumns(t, q.Aggregates)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Columns: append([]string{q.GroupBy}, aggColumns(q.Aggregates)...)}
	rows := make([][]string, gcol.DistinctCount())
	if err := par.ForEachErr(gcol.DistinctCount(), q.Parallelism, func(id int) error {
		gm := wah.And(gcol.BitmapForID(uint32(id)), mask)
		if !gm.Any() {
			return nil
		}
		row := []string{gcol.Dict().Value(uint32(id))}
		for _, a := range q.Aggregates {
			// Serial per-value aggregation: the group fan-out above already
			// occupies the worker budget.
			v, err := aggregate(cols[a.Column], a, gm, 1)
			if err != nil {
				return err
			}
			row = append(row, v)
		}
		rows[id] = row
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows {
		if row != nil {
			rs.Rows = append(rs.Rows, row)
		}
	}
	return rs, nil
}

func aggColumns(aggs []Agg) []string {
	out := make([]string, len(aggs))
	for i, a := range aggs {
		out[i] = a.name()
	}
	return out
}

// aggregate evaluates one aggregate over the rows selected by mask. bc is
// the aggregated column, already bitmap-encoded by resolveAggColumns (nil
// for Count). Count is a popcount; the others visit each distinct value of
// the column once, intersecting its bitmap with the mask. The per-value
// compressed ANDs — the dominant cost — fan out over a worker pool; the
// cheap fold over per-value results stays serial in id order, so results
// are deterministic at any parallelism.
func aggregate(bc *colstore.Column, a Agg, mask *wah.Bitmap, parallelism int) (string, error) {
	if a.Func == Count {
		return strconv.FormatUint(mask.Count(), 10), nil
	}
	switch a.Func {
	case CountDistinct:
		n := par.MapReduce(bc.DistinctCount(), parallelism, func(id int) uint64 {
			if wah.And(bc.BitmapForID(uint32(id)), mask).Any() {
				return 1
			}
			return 0
		}, func(a, b uint64) uint64 { return a + b })
		return strconv.FormatUint(n, 10), nil
	case Min, Max:
		hit := par.Map(bc.DistinctCount(), parallelism, func(id int) bool {
			return wah.And(bc.BitmapForID(uint32(id)), mask).Any()
		})
		best := ""
		found := false
		for id, h := range hit {
			if !h {
				continue
			}
			v := bc.Dict().Value(uint32(id))
			if !found {
				best, found = v, true
				continue
			}
			if a.Func == Min && valueLess(v, best) || a.Func == Max && valueLess(best, v) {
				best = v
			}
		}
		if !found {
			return "", nil
		}
		return best, nil
	case Sum, Avg:
		counts := par.Map(bc.DistinctCount(), parallelism, func(id int) uint64 {
			return wah.And(bc.BitmapForID(uint32(id)), mask).Count()
		})
		// Products and the running sum are computed exactly in 128 bits
		// (two's complement hi:lo), so neither a transient mid-fold
		// overflow nor one huge value×count product can reject a total
		// that is representable: the result depends only on the multiset
		// of values, never on dictionary-id order, and the one error is
		// the final total exceeding int64. The accumulator itself cannot
		// overflow: Σ|value|·count ≤ MaxInt64+1 times the table's row
		// count, which is below 2^127.
		var sumHi int64
		var sumLo uint64
		var rows uint64
		for id, n := range counts {
			if n == 0 {
				continue
			}
			v, err := strconv.ParseInt(bc.Dict().Value(uint32(id)), 10, 64)
			if err != nil {
				return "", fmt.Errorf("colquery: %s over non-numeric value %q in %s", a.Func, bc.Dict().Value(uint32(id)), a.Column)
			}
			mag := uint64(v)
			if v < 0 {
				mag = -mag // two's complement magnitude, MinInt64-safe
			}
			hi, lo := bits.Mul64(mag, n)
			if v < 0 {
				lo = ^lo + 1
				hi = ^hi
				if lo == 0 {
					hi++
				}
			}
			var carry uint64
			sumLo, carry = bits.Add64(sumLo, lo, 0)
			sumHi += int64(hi) + int64(carry)
			rows += n
		}
		if sumHi != int64(sumLo)>>63 {
			return "", fmt.Errorf("colquery: %s over %s overflows int64", a.Func, a.Column)
		}
		sum := int64(sumLo)
		if a.Func == Sum {
			return strconv.FormatInt(sum, 10), nil
		}
		if rows == 0 {
			return "", nil
		}
		return strconv.FormatFloat(float64(sum)/float64(rows), 'g', -1, 64), nil
	}
	return "", fmt.Errorf("colquery: unknown aggregate %v", a.Func)
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

// Explain renders a human-readable description of how a query will
// execute — which parts run per distinct value on compressed bitmaps.
func Explain(t *colstore.Table, q Query) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "scan %s (%d rows)\n", t.Name(), t.NumRows())
	if q.Where != "" {
		fmt.Fprintf(&sb, "  where %s  -- bitmap-index scan, once per distinct value\n", q.Where)
	}
	if q.GroupBy != "" {
		gcol, err := t.Column(q.GroupBy)
		if err == nil {
			fmt.Fprintf(&sb, "  group by %s  -- %d compressed AND+popcount groups\n", q.GroupBy, gcol.DistinctCount())
		}
	}
	for _, a := range q.Aggregates {
		if a.Func == Count {
			fmt.Fprintf(&sb, "  %s  -- popcount only, no row access\n", a.name())
		} else {
			fmt.Fprintf(&sb, "  %s  -- per distinct value of %s\n", a.name(), a.Column)
		}
	}
	if len(q.Aggregates) == 0 {
		fmt.Fprintf(&sb, "  project %v  -- bitmap filtering\n", q.Select)
	}
	if q.OrderBy != "" {
		fmt.Fprintf(&sb, "  order by %s desc=%v\n", q.OrderBy, q.Desc)
	}
	if q.Limit > 0 {
		fmt.Fprintf(&sb, "  limit %d\n", q.Limit)
	}
	return sb.String()
}
