package cods

import (
	"fmt"
	"strconv"

	"cods/internal/colquery"
	"cods/internal/expr"
	"cods/internal/plan"
	"cods/internal/smo"
)

// Query returns the rows of a table satisfying a condition (same syntax
// as PARTITION TABLE's WHERE), in table order. It is RunQuery with only
// a WHERE: the condition is evaluated on the flushed table's bitmap
// index, pending DML included.
func (s *Snapshot) Query(table, condition string) ([][]string, error) {
	if err := s.requireCondition(table, condition); err != nil {
		return nil, err
	}
	rs, err := s.RunQuery(table, TableQuery{Where: condition})
	if err != nil {
		return nil, err
	}
	return rs.Rows, nil
}

// Count returns the number of rows satisfying a condition without
// materializing them: RunQuery's count(*), a compressed popcount over
// the flushed table's predicate bitmap.
func (s *Snapshot) Count(table, condition string) (uint64, error) {
	if err := s.requireCondition(table, condition); err != nil {
		return 0, err
	}
	rs, err := s.RunQuery(table, TableQuery{Aggregates: []Agg{{Func: Count}}, Where: condition})
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(rs.Rows[0][0], 10, 64)
}

// requireCondition rejects an empty condition with the condition
// parser's own error, after the table lookup as for any other condition:
// Query and Count filter by a condition, while RunQuery reads an empty
// Where as "all rows".
func (s *Snapshot) requireCondition(table, condition string) error {
	if condition != "" {
		return nil
	}
	if _, err := s.overlay(table); err != nil {
		return err
	}
	_, err := expr.Parse(condition)
	return err
}

// RunQuery executes a query with optional joins, filtering, grouping,
// aggregation, ordering and limit against the snapshot. Every table —
// the root and each join — resolves from this one snapshot, so a join
// never observes two catalog versions, even while evolutions commit
// concurrently. Every query goes through the planner (internal/plan):
// single-table WHERE conjuncts are pushed into bitmap scans, joins are
// reordered by estimated cardinality, shared join keys are pre-reduced
// by a WAH semi-join, and aggregates over one table run on its bitmaps
// without decoding a row.
func (s *Snapshot) RunQuery(table string, q TableQuery) (*ResultSet, error) {
	pq := plan.Query{
		Select:  q.Select,
		From:    table,
		Where:   q.Where,
		GroupBy: q.GroupBy,
		OrderBy: q.OrderBy,
		Desc:    q.Desc,
		Limit:   q.Limit,
	}
	for _, j := range q.Joins {
		pq.Joins = append(pq.Joins, plan.Join{Table: j.Table, On: j.On})
	}
	for _, a := range q.Aggregates {
		f, ok := aggFuncs[a.Func]
		if !ok {
			return nil, fmt.Errorf("cods: unknown aggregate function %d", a.Func)
		}
		pq.Aggregates = append(pq.Aggregates, colquery.Agg{Func: f, Column: a.Column, As: a.As})
	}
	rs, err := plan.Run(s.table, pq)
	if err != nil {
		return nil, err
	}
	return &ResultSet{Columns: rs.Columns, Rows: rs.Rows}, nil
}

// Select parses and executes one SELECT statement against the snapshot:
//
//	SELECT <list> FROM t [JOIN u ON (k1, ...)]... [WHERE <condition>]
//	    [GROUP BY g] [ORDER BY c [ASC|DESC]] [LIMIT n]
//
// <list> is '*', a column list, or an aggregate list (count(*),
// count_distinct(c), min(c), max(c), sum(c), avg(c)). It is the text
// form of RunQuery — same planner, same snapshot isolation — so queries
// can travel the same path as statements (REPL, scripts, HTTP).
func (s *Snapshot) Select(stmt string) (*ResultSet, error) {
	op, err := smo.Parse(stmt)
	if err != nil {
		return nil, err
	}
	sel, ok := op.(smo.Select)
	if !ok {
		return nil, fmt.Errorf("cods: executing %q: %w: expected a SELECT statement, got %s", stmt, ErrParse, op.Kind())
	}
	q := TableQuery{
		Select:  sel.Columns,
		Where:   sel.Where,
		GroupBy: sel.GroupBy,
		OrderBy: sel.OrderBy,
		Desc:    sel.Desc,
		Limit:   sel.Limit,
	}
	for _, j := range sel.Joins {
		q.Joins = append(q.Joins, Join{Table: j.Table, On: j.On})
	}
	for _, a := range sel.Aggs {
		f, ok := aggFuncsByName[a.Func]
		if !ok {
			return nil, fmt.Errorf("cods: unknown aggregate function %q", a.Func)
		}
		q.Aggregates = append(q.Aggregates, Agg{Func: f, Column: a.Column})
	}
	return s.RunQuery(sel.From, q)
}

// Query returns the rows of a table satisfying a condition (same syntax
// as PARTITION TABLE's WHERE) through the planner, like RunQuery. The
// condition is evaluated on the bitmap index — once per distinct value,
// not once per row, fanned out over a GOMAXPROCS-sized worker pool.
// cods:lockfree
func (db *DB) Query(table, condition string) ([][]string, error) {
	return db.Snapshot().Query(table, condition)
}

// Count returns the number of rows satisfying a condition without
// materializing them (RunQuery's count(*), a compressed popcount).
// cods:lockfree
func (db *DB) Count(table, condition string) (uint64, error) {
	return db.Snapshot().Count(table, condition)
}

// AggFunc is an aggregate function for RunQuery.
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

var aggFuncs = map[AggFunc]colquery.AggFunc{
	Count: colquery.Count, CountDistinct: colquery.CountDistinct,
	Min: colquery.Min, Max: colquery.Max, Sum: colquery.Sum, Avg: colquery.Avg,
}

// aggFuncsByName maps the SELECT statement's aggregate spellings to
// AggFunc values.
var aggFuncsByName = map[string]AggFunc{
	"count": Count, "count_distinct": CountDistinct,
	"min": Min, "max": Max, "sum": Sum, "avg": Avg,
}

// Agg is one aggregate column: Func over Column, named As (optional).
// Column is ignored for Count.
type Agg struct {
	Func   AggFunc
	Column string
	As     string
}

// Join is one inner-join step of a TableQuery.
type Join struct {
	// Table is the table to join against the query so far.
	Table string
	// On lists the shared column names to match on (USING-style): each
	// must exist on both sides, and appears once in the joined output.
	On []string
}

// TableQuery describes a query for RunQuery. Without Joins it reads one
// table; with Joins, Select/Where/GroupBy/OrderBy name columns of the
// joined output (the root table's schema, then each join's non-key
// columns, in written order).
type TableQuery struct {
	// Select lists projected columns (empty = all; ignored with
	// Aggregates).
	Select []string
	// Joins are inner joins applied to the queried table. The planner
	// picks the execution order; the written order fixes the schema.
	Joins []Join
	// Where is an optional predicate in the PARTITION condition syntax.
	Where string
	// GroupBy groups by one column; requires Aggregates.
	GroupBy string
	// Aggregates computes aggregate output columns.
	Aggregates []Agg
	// OrderBy sorts by one output column; Desc reverses.
	OrderBy string
	Desc    bool
	// Limit caps output rows (0 = unlimited; negative is an error).
	Limit int
}

// ResultSet is a materialized query result.
type ResultSet struct {
	Columns []string
	Rows    [][]string
}

// RunQuery executes a query with optional joins, filtering, grouping,
// aggregation, ordering and limit against one table. Predicates and COUNT
// aggregates are evaluated on compressed bitmaps — once per distinct
// value, never per row. Every query, joined or not, runs through the
// cost-based planner; all tables resolve from one snapshot (see
// Snapshot.RunQuery).
// cods:lockfree
func (db *DB) RunQuery(table string, q TableQuery) (*ResultSet, error) {
	return db.Snapshot().RunQuery(table, q)
}

// Select parses and executes one SELECT statement (see Snapshot.Select)
// against the current catalog version.
// cods:lockfree
func (db *DB) Select(stmt string) (*ResultSet, error) {
	return db.Snapshot().Select(stmt)
}
