// Package plan is a small cost-based planner for multi-table queries
// over the bitmap-indexed column store. It rewrites a declarative query
// into a colquery operator tree: WHERE conjuncts that mention one
// table's columns are pushed down into that table's scan as per-value
// predicate bitmaps, joins are reordered greedily by estimated
// cardinality (dictionary distinct counts over segment row counts — the
// statistics colstore.Column.Stats exposes), join keys shared between a
// fact scan and a dimension are pre-reduced by a WAH semi-join that
// never decodes a row. Every query is planned here, joined or not; one
// with no joins keeps its table's bitmap index to the end, so its
// aggregates run as a colquery.BitmapAgg leaf that decodes no row.
package plan

import (
	"fmt"
	"slices"
	"sort"

	"cods/internal/colquery"
	"cods/internal/colstore"
	"cods/internal/expr"
	"cods/internal/wah"
)

// Join names one inner-join step: the table to join and the shared
// column names to match on (USING-style — each On column must exist on
// both sides and appears once in the output).
type Join struct {
	Table string
	On    []string
}

// Query is a query over From and any Joins. Select/Where/GroupBy/OrderBy
// refer to the joined output's columns, which with no Joins are From's
// own (each name must be unambiguous — On columns merge, any other
// shared name is an error).
type Query struct {
	// Select lists projected columns; empty selects all columns of the
	// joined output in written order (From's schema, then each join's
	// non-key columns). Ignored when Aggregates is non-empty.
	Select []string
	// Aggregates computes aggregate columns (with or without GroupBy).
	Aggregates []colquery.Agg
	// From is the probe-side root table.
	From string
	// Joins are applied to From's output in the planner's chosen order;
	// the written order defines the output schema.
	Joins []Join
	// Where is an optional predicate (package expr syntax) over the
	// joined columns. Single-table conjuncts are pushed into scans.
	Where string
	// GroupBy optionally groups by one output column; requires Aggregates.
	GroupBy string
	// OrderBy optionally sorts by one output column.
	OrderBy string
	// Desc reverses the order.
	Desc bool
	// Limit caps the number of output rows; 0 means no limit, and a
	// negative value is an error.
	Limit int
	// Parallelism bounds per-distinct-value fan-out; 0 means GOMAXPROCS.
	Parallelism int
}

// Resolver maps a table name to its immutable snapshot. Errors pass
// through untouched, so a catalog resolver's not-found sentinel reaches
// the caller (the HTTP layer classifies it as 404).
type Resolver func(name string) (*colstore.Table, error)

// Run plans and executes q.
func Run(resolve Resolver, q Query) (*colquery.ResultSet, error) {
	if q.Limit < 0 {
		return nil, fmt.Errorf("plan: LIMIT must not be negative, got %d", q.Limit)
	}
	tables := make([]*colstore.Table, 1+len(q.Joins))
	var err error
	if tables[0], err = resolve(q.From); err != nil {
		return nil, err
	}
	for i, j := range q.Joins {
		if tables[i+1], err = resolve(j.Table); err != nil {
			return nil, err
		}
	}
	conjuncts, err := splitWhere(q.Where)
	if err != nil {
		return nil, err
	}
	if q.GroupBy != "" && len(q.Aggregates) == 0 {
		return nil, fmt.Errorf("colquery: GROUP BY requires aggregates")
	}
	root, err := assemble(q, tables, conjuncts, makeSpec(q, tables, conjuncts))
	if err != nil {
		return nil, err
	}
	rs, err := colquery.Collect(root)
	if err != nil {
		return nil, err
	}
	if len(q.Aggregates) == 0 && rs.Rows == nil {
		rs.Rows = [][]string{}
	}
	return rs, nil
}

// residual marks a conjunct that spans tables and must run as a
// row-wise filter above the joins.
const residual = -1

// spec is the plan shape: where each WHERE conjunct lands and the order
// joins execute in, decided from the query's shape and the tables'
// statistics.
type spec struct {
	// pushed[i] is the table slot (0 = From, j+1 = Joins[j]) whose scan
	// absorbs conjunct i, or residual.
	pushed []int
	// order is the execution order of joins as indices into Joins.
	order []int
}

func makeSpec(q Query, tables []*colstore.Table, conjuncts []expr.Node) *spec {
	sp := &spec{pushed: make([]int, len(conjuncts))}
	for i, c := range conjuncts {
		// A residual conjunct's columns are checked by assemble's
		// RowFilter against the joined output; nothing to verify here.
		sp.pushed[i] = pushTarget(c, tables)
	}
	// Greedy join order: grow the joined column set from From outward,
	// always taking the joinable (On columns already available) join
	// with the smallest estimated post-pushdown cardinality. Ties and
	// estimates are deterministic, so the order is too.
	avail := make(map[string]bool)
	for _, c := range tables[0].ColumnNames() {
		avail[c] = true
	}
	est := make([]float64, len(q.Joins))
	for j := range q.Joins {
		est[j] = estimateRows(tables[j+1], j+1, sp.pushed, conjuncts)
	}
	remaining := make([]int, len(q.Joins))
	for j := range remaining {
		remaining[j] = j
	}
	for len(remaining) > 0 {
		pick := -1
		for _, j := range remaining {
			joinable := true
			for _, c := range q.Joins[j].On {
				if !avail[c] {
					joinable = false
					break
				}
			}
			if !joinable {
				continue
			}
			if pick == -1 || est[j] < est[pick] {
				pick = j
			}
		}
		if pick == -1 {
			// No join's keys are reachable yet: fall back to written
			// order for the rest and let HashJoin report the missing
			// ON column.
			sort.Ints(remaining)
			sp.order = append(sp.order, remaining...)
			break
		}
		sp.order = append(sp.order, pick)
		for _, c := range tables[pick+1].ColumnNames() {
			avail[c] = true
		}
		for i, j := range remaining {
			if j == pick {
				remaining = append(remaining[:i], remaining[i+1:]...)
				break
			}
		}
	}
	return sp
}

// pushTarget returns the first table slot whose schema covers every
// column of the conjunct, or residual. Written order (From first) makes
// the choice deterministic when On columns exist on both sides — both
// scans see identical values for them, so either choice is correct and
// the earlier, usually larger, side benefits more from the bitmap. With
// no joins there is nothing to filter above, so every conjunct lands on
// the one scan, whose bitmap evaluation rejects an unknown column with
// the table's own error.
func pushTarget(c expr.Node, tables []*colstore.Table) int {
	if len(tables) == 1 {
		return 0
	}
	cols := c.Columns(nil)
	for slot, t := range tables {
		all := true
		for _, col := range cols {
			if !t.HasColumn(col) {
				all = false
				break
			}
		}
		if all {
			return slot
		}
	}
	return residual
}

// estimateRows is the planner's cardinality model for one table after
// pushdown: row count scaled by 1/distinct for each equality conjunct
// (uniformity assumption over the dictionary) and by 1/3 for any other
// pushed conjunct, floored at one row.
func estimateRows(t *colstore.Table, slot int, pushed []int, conjuncts []expr.Node) float64 {
	est := float64(t.NumRows())
	for i, target := range pushed {
		if target != slot {
			continue
		}
		if cmp, ok := conjuncts[i].(*expr.Comparison); ok && cmp.Op == expr.OpEq {
			if col, err := t.Column(cmp.Column); err == nil && col.DistinctCount() > 0 {
				est /= float64(col.DistinctCount())
				continue
			}
		}
		est /= 3
	}
	if est < 1 {
		return 1
	}
	return est
}

// assemble builds the operator tree for a planned query.
func assemble(q Query, tables []*colstore.Table, conjuncts []expr.Node, sp *spec) (colquery.Operator, error) {
	masks := make([]*wah.Bitmap, len(tables))
	for slot, t := range tables {
		node := andAll(conjuncts, sp.pushed, slot)
		if node == nil {
			continue
		}
		m, err := node.EvalP(t, q.Parallelism)
		if err != nil {
			return nil, err
		}
		masks[slot] = m
	}
	var root colquery.Operator
	var err error
	switch {
	case len(q.Joins) > 0:
		root, err = joinTree(q, tables, conjuncts, sp, masks)
	case len(q.Aggregates) > 0:
		root, err = colquery.NewBitmapAgg(tables[0], masks[0], q.GroupBy, q.Aggregates, q.Parallelism)
	default:
		root, err = colquery.NewTableScan(tables[0], q.Select, masks[0], q.Parallelism)
	}
	if err != nil {
		return nil, err
	}
	if q.OrderBy != "" || q.Limit > 0 {
		if root, err = colquery.NewOrderLimit(root, q.OrderBy, q.Desc, q.Limit); err != nil {
			return nil, err
		}
	}
	return root, nil
}

// joinTree builds the scans, hash joins, residual filter and aggregate
// or projection of a query with joins; masks holds each slot's pushed
// predicate bitmap (nil = no pushed conjunct).
func joinTree(q Query, tables []*colstore.Table, conjuncts []expr.Node, sp *spec, masks []*wah.Bitmap) (colquery.Operator, error) {
	// Semi-join reduction: for every join key that is also a From
	// column, intersect From's scan mask with the bitmap of From rows
	// whose key value survives on the dimension side. When the two
	// columns share dictionary lineage (DECOMPOSE outputs do) this is
	// pure WAH work — no row is decoded.
	for ji, j := range q.Joins {
		dim := tables[ji+1]
		for _, on := range j.On {
			if !tables[0].HasColumn(on) || !dim.HasColumn(on) {
				continue
			}
			factCol, err := tables[0].Column(on)
			if err != nil {
				return nil, err
			}
			dimCol, err := dim.Column(on)
			if err != nil {
				return nil, err
			}
			sj := colquery.SemiJoinMask(factCol, dimCol, masks[ji+1], q.Parallelism)
			if masks[0] == nil {
				masks[0] = sj
			} else {
				masks[0] = wah.And(masks[0], sj)
			}
		}
	}
	needed, starOrder := neededColumns(q, tables, conjuncts, sp.pushed)
	provided := make(map[string]bool)
	scanCols := func(t *colstore.Table, on []string) []string {
		var cols []string
		onSet := make(map[string]bool, len(on))
		for _, c := range on {
			onSet[c] = true
			cols = append(cols, c)
		}
		for _, c := range t.ColumnNames() {
			if needed[c] && !provided[c] && !onSet[c] {
				cols = append(cols, c)
			}
		}
		for _, c := range cols {
			provided[c] = true
		}
		return cols
	}
	var root colquery.Operator
	var err error
	if root, err = colquery.NewTableScan(tables[0], scanCols(tables[0], nil), masks[0], q.Parallelism); err != nil {
		return nil, err
	}
	for _, j := range sp.order {
		build, err := colquery.NewTableScan(tables[j+1], scanCols(tables[j+1], q.Joins[j].On), masks[j+1], q.Parallelism)
		if err != nil {
			return nil, err
		}
		if root, err = colquery.NewHashJoin(root, build, q.Joins[j].On); err != nil {
			return nil, err
		}
	}
	if node := andAll(conjuncts, sp.pushed, residual); node != nil {
		if root, err = colquery.NewRowFilter(root, node); err != nil {
			return nil, err
		}
	}
	if len(q.Aggregates) > 0 {
		if root, err = colquery.NewGroupAgg(root, q.GroupBy, q.Aggregates); err != nil {
			return nil, err
		}
		return root, nil
	}
	// Restore the declared output order: join reordering and key-first
	// scans can leave the stream in execution order.
	want := q.Select
	if len(want) == 0 {
		want = starOrder
	}
	if !slices.Equal(root.Columns(), want) {
		if root, err = colquery.NewProject(root, want); err != nil {
			return nil, err
		}
	}
	return root, nil
}

// neededColumns computes the set of columns any operator consumes, and
// the written-order star schema (From's columns, then each join's
// non-key, not-yet-seen columns) used when Select is empty. A conjunct
// pushed into a scan is already answered by that scan's predicate
// bitmap, so only residual conjuncts add their columns.
func neededColumns(q Query, tables []*colstore.Table, conjuncts []expr.Node, pushed []int) (map[string]bool, []string) {
	var star []string
	seen := make(map[string]bool)
	for _, c := range tables[0].ColumnNames() {
		if !seen[c] {
			star = append(star, c)
			seen[c] = true
		}
	}
	for j := range q.Joins {
		for _, c := range tables[j+1].ColumnNames() {
			if !seen[c] {
				star = append(star, c)
				seen[c] = true
			}
		}
	}
	needed := make(map[string]bool)
	add := func(cols ...string) {
		for _, c := range cols {
			needed[c] = true
		}
	}
	switch {
	case len(q.Aggregates) > 0:
		for _, a := range q.Aggregates {
			if a.Func != colquery.Count {
				add(a.Column)
			}
		}
		if q.GroupBy != "" {
			add(q.GroupBy)
		}
	case len(q.Select) > 0:
		add(q.Select...)
	default:
		add(star...)
	}
	if q.OrderBy != "" && len(q.Aggregates) == 0 {
		add(q.OrderBy)
	}
	for i, c := range conjuncts {
		if pushed[i] == residual {
			add(c.Columns(nil)...)
		}
	}
	for _, j := range q.Joins {
		add(j.On...)
	}
	return needed, star
}

// splitWhere parses the predicate and splits its top-level AND chain
// into independently pushable conjuncts.
func splitWhere(where string) ([]expr.Node, error) {
	if where == "" {
		return nil, nil
	}
	pred, err := expr.Parse(where)
	if err != nil {
		return nil, err
	}
	var out []expr.Node
	var walk func(n expr.Node)
	walk = func(n expr.Node) {
		if l, ok := n.(*expr.Logical); ok && l.IsAnd {
			walk(l.L)
			walk(l.R)
			return
		}
		out = append(out, n)
	}
	walk(pred)
	return out, nil
}

// andAll re-joins the conjuncts assigned to one slot into a single
// predicate node, or nil if none are.
func andAll(conjuncts []expr.Node, pushed []int, slot int) expr.Node {
	var node expr.Node
	for i, target := range pushed {
		if target != slot {
			continue
		}
		if node == nil {
			node = conjuncts[i]
		} else {
			node = &expr.Logical{IsAnd: true, L: node, R: conjuncts[i]}
		}
	}
	return node
}
