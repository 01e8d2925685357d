package colquery

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"

	"cods/internal/colstore"
	"cods/internal/dict"
	"cods/internal/expr"
	"cods/internal/par"
	"cods/internal/wah"
)

// Operator is a Volcano-style iterator over batches of materialized rows.
// Constructors validate their inputs and fix the output schema up front,
// so Columns is callable before Open; Open acquires resources (a hash
// join drains its build side there), Next returns the next non-empty
// batch or nil at exhaustion, and Close releases the tree. A batch
// boundary carries no meaning — leaves emit one batch per storage
// segment, everything else preserves whatever batching its input chose.
type Operator interface {
	// Columns returns the output column names, fixed at construction.
	Columns() []string
	Open() error
	// Next returns the next batch, nil once exhausted. Returned batches
	// are owned by the caller.
	Next() ([][]string, error)
	Close() error
}

// Collect drains an operator tree into a materialized result set.
func Collect(op Operator) (*ResultSet, error) {
	if err := op.Open(); err != nil {
		_ = op.Close()
		return nil, err
	}
	rs := &ResultSet{Columns: op.Columns()}
	for {
		batch, err := op.Next()
		if err != nil {
			_ = op.Close()
			return nil, err
		}
		if batch == nil {
			break
		}
		rs.Rows = append(rs.Rows, batch...)
	}
	if err := op.Close(); err != nil {
		return nil, err
	}
	return rs, nil
}

// TableScan is the leaf operator: a segment-aware scan of a stored table
// with an optional pre-computed predicate bitmap. Each segment yields one
// batch: the mask is sliced along segment boundaries, segments with no
// selected rows are skipped without any data operation, and only the
// projected columns are bitmap-filtered and decoded.
type TableScan struct {
	t    *colstore.Table
	cols []string
	mask *wah.Bitmap

	segs    []*colstore.Segment
	offsets []uint64
	seg     int
}

// NewTableScan returns a scan of t projecting cols (empty = all columns)
// over the rows selected by mask (nil = all rows, otherwise mask must
// have t's row count).
func NewTableScan(t *colstore.Table, cols []string, mask *wah.Bitmap) (*TableScan, error) {
	if len(cols) == 0 {
		cols = t.ColumnNames()
	}
	for _, c := range cols {
		if !t.HasColumn(c) {
			return nil, fmt.Errorf("colstore: table %q has no column %q", t.Name(), c)
		}
	}
	if mask != nil && mask.Len() != t.NumRows() {
		return nil, fmt.Errorf("colquery: scan mask has %d bits, table %q has %d rows", mask.Len(), t.Name(), t.NumRows())
	}
	ts := &TableScan{t: t, cols: append([]string(nil), cols...), mask: mask}
	ts.segs = t.Segments()
	ts.offsets = make([]uint64, len(ts.segs))
	var off uint64
	for i, s := range ts.segs {
		ts.offsets[i] = off
		off += s.NumRows()
	}
	return ts, nil
}

// Columns implements Operator.
func (ts *TableScan) Columns() []string { return ts.cols }

// Open implements Operator.
func (ts *TableScan) Open() error { ts.seg = 0; return nil }

// Close implements Operator.
func (ts *TableScan) Close() error { return nil }

// Next implements Operator: one batch per segment with selected rows.
func (ts *TableScan) Next() ([][]string, error) {
	for ts.seg < len(ts.segs) {
		s, off := ts.segs[ts.seg], ts.offsets[ts.seg]
		ts.seg++
		// Project before filtering: bitmap filtering costs one compressed
		// Filter per distinct value per column, so unprojected columns
		// must not pay it.
		proj, err := projectSegment(s, ts.cols)
		if err != nil {
			return nil, err
		}
		if ts.mask != nil {
			sub := ts.mask.Slice(off, off+s.NumRows())
			if !sub.Any() {
				continue
			}
			if proj, err = proj.Filter(sub); err != nil {
				return nil, err
			}
		}
		if proj.NumRows() == 0 {
			continue
		}
		batch := make([][]string, proj.NumRows())
		for r := range batch {
			batch[r] = make([]string, len(ts.cols))
		}
		for j := range ts.cols {
			col := proj.ColumnAt(j)
			ids := col.RowIDRange(0, proj.NumRows())
			d := col.Dict()
			for r, id := range ids {
				batch[r][j] = d.Value(id)
			}
		}
		return batch, nil
	}
	return nil, nil
}

// projectSegment assembles a segment holding the named columns of s, in
// order, sharing column data. A repeated name shares the same column.
func projectSegment(s *colstore.Segment, cols []string) (*colstore.Segment, error) {
	picked := make([]*colstore.Column, len(cols))
	for i, name := range cols {
		c, err := s.Column(name)
		if err != nil {
			return nil, err
		}
		picked[i] = c
		for j := 0; j < i; j++ {
			if cols[j] == name {
				// NewSegment rejects duplicate names; alias the repeat so
				// SELECT a, a still projects (values are shared either way).
				picked[i] = c.Renamed(fmt.Sprintf("%s#%d", name, i))
			}
		}
	}
	return colstore.NewSegment(picked)
}

// RowFilter keeps the input rows satisfying a row-wise predicate. It is
// the residual filter of the planner: predicates that could be pushed
// into a table scan's bitmap never reach it, only cross-table conjuncts
// evaluated after a join.
type RowFilter struct {
	in   Operator
	pred expr.Node
	idx  map[string]int
}

// NewRowFilter wraps in with a predicate over its output columns.
func NewRowFilter(in Operator, pred expr.Node) (*RowFilter, error) {
	idx := columnIndex(in.Columns())
	for _, c := range pred.Columns(nil) {
		if _, ok := idx[c]; !ok {
			return nil, fmt.Errorf("colquery: filter column %q not in input %v", c, in.Columns())
		}
	}
	return &RowFilter{in: in, pred: pred, idx: idx}, nil
}

// Columns implements Operator.
func (f *RowFilter) Columns() []string { return f.in.Columns() }

// Open implements Operator.
func (f *RowFilter) Open() error { return f.in.Open() }

// Close implements Operator.
func (f *RowFilter) Close() error { return f.in.Close() }

// Next implements Operator.
func (f *RowFilter) Next() ([][]string, error) {
	for {
		batch, err := f.in.Next()
		if err != nil || batch == nil {
			return nil, err
		}
		out := batch[:0]
		for _, row := range batch {
			keep, err := f.pred.EvalRow(func(col string) (string, bool) {
				i, ok := f.idx[col]
				if !ok {
					return "", false
				}
				return row[i], true
			})
			if err != nil {
				return nil, err
			}
			if keep {
				out = append(out, row)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

// HashJoin is an equi-join on identically named columns of both sides
// (USING-style, which is how DECOMPOSE outputs share their common
// attributes). Open drains the build side into a hash table keyed on the
// join values; Next streams the probe side through it, emitting probe
// columns followed by the build side's non-key columns — the key appears
// once, so joining two DECOMPOSE outputs reproduces the original schema.
type HashJoin struct {
	probe, build Operator
	on           []string
	cols         []string

	probeKey   []int
	buildKey   []int
	buildExtra []int
	ht         map[string][][]string
}

// NewHashJoin joins probe against build on the shared column names in
// on. Non-key build columns must not collide with probe columns.
func NewHashJoin(probe, build Operator, on []string) (*HashJoin, error) {
	if len(on) == 0 {
		return nil, fmt.Errorf("colquery: join needs at least one ON column")
	}
	pIdx := columnIndex(probe.Columns())
	bIdx := columnIndex(build.Columns())
	j := &HashJoin{probe: probe, build: build, on: append([]string(nil), on...)}
	onSet := make(map[string]bool, len(on))
	for _, c := range on {
		pi, pok := pIdx[c]
		bi, bok := bIdx[c]
		if !pok || !bok {
			return nil, fmt.Errorf("colquery: ON column %q must be in both join sides (%v, %v)", c, probe.Columns(), build.Columns())
		}
		j.probeKey = append(j.probeKey, pi)
		j.buildKey = append(j.buildKey, bi)
		onSet[c] = true
	}
	j.cols = append(j.cols, probe.Columns()...)
	for i, c := range build.Columns() {
		if onSet[c] {
			continue
		}
		if _, clash := pIdx[c]; clash {
			return nil, fmt.Errorf("colquery: join column %q is ambiguous (in both sides outside ON)", c)
		}
		j.buildExtra = append(j.buildExtra, i)
		j.cols = append(j.cols, c)
	}
	return j, nil
}

// Columns implements Operator.
func (j *HashJoin) Columns() []string { return j.cols }

// Open implements Operator: it drains the build side into the hash
// table. An empty build side leaves the table empty and the join emits
// nothing.
func (j *HashJoin) Open() error {
	if err := j.probe.Open(); err != nil {
		return err
	}
	if err := j.build.Open(); err != nil {
		return err
	}
	j.ht = make(map[string][][]string)
	for {
		batch, err := j.build.Next()
		if err != nil {
			return err
		}
		if batch == nil {
			return nil
		}
		for _, row := range batch {
			key := joinKey(row, j.buildKey)
			extra := make([]string, len(j.buildExtra))
			for i, bi := range j.buildExtra {
				extra[i] = row[bi]
			}
			j.ht[key] = append(j.ht[key], extra)
		}
	}
}

// Close implements Operator.
func (j *HashJoin) Close() error {
	err := j.probe.Close()
	if cerr := j.build.Close(); err == nil {
		err = cerr
	}
	j.ht = nil
	return err
}

// Next implements Operator.
func (j *HashJoin) Next() ([][]string, error) {
	for {
		batch, err := j.probe.Next()
		if err != nil || batch == nil {
			return nil, err
		}
		var out [][]string
		for _, row := range batch {
			matches := j.ht[joinKey(row, j.probeKey)]
			for _, extra := range matches {
				joined := make([]string, 0, len(j.cols))
				joined = append(joined, row...)
				joined = append(joined, extra...)
				out = append(out, joined)
			}
		}
		if len(out) > 0 {
			return out, nil
		}
	}
}

func joinKey(row []string, idx []int) string {
	if len(idx) == 1 {
		return row[idx[0]]
	}
	n := 0
	for _, i := range idx {
		n += len(row[i]) + 1
	}
	key := make([]byte, 0, n)
	for _, i := range idx {
		key = append(key, row[i]...)
		key = append(key, 0)
	}
	return string(key)
}

// SharedLineage reports whether two columns draw values from the same
// dictionary id space: the same *dict.Dict (DECOMPOSE's reused output
// shares column data with its input by pointer), or dictionaries with
// identical values in identical order (the deduplicated output re-interns
// in first-appearance order, which a value-wise comparison recognizes in
// O(distinct)). When it holds, a join key can be matched by dictionary id
// without decoding any row.
func SharedLineage(a, b *colstore.Column) bool {
	return sameDict(a.Dict(), b.Dict())
}

func sameDict(a, b *dict.Dict) bool {
	if a == b {
		return true
	}
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.Value(uint32(i)) != b.Value(uint32(i)) {
			return false
		}
	}
	return true
}

// SemiJoinMask computes the bitmap of fact rows whose fact-column value
// occurs in the dim column among the rows selected by dimMask (nil = all
// dim rows) — the semi-join reduction a planner ANDs into the fact
// scan's mask before a hash join. Work is per distinct value on
// compressed bitmaps: one And+Any per dim value to find the occupied
// ids, one dictionary probe per occupied value (skipped entirely when
// the columns share dictionary lineage), and one compressed OR fan-in
// over the matching fact bitmaps. No row is ever decoded.
func SemiJoinMask(fact, dim *colstore.Column, dimMask *wah.Bitmap) *wah.Bitmap {
	occupied := par.Map(dim.DistinctCount(), 0, func(id int) bool {
		bm := dim.BitmapForID(uint32(id))
		if dimMask != nil {
			return wah.And(bm, dimMask).Any()
		}
		return bm.Any()
	})
	shared := sameDict(fact.Dict(), dim.Dict())
	var maps []*wah.Bitmap
	for id, occ := range occupied {
		if !occ {
			continue
		}
		fid := uint32(id)
		if !shared {
			fid = fact.Dict().Lookup(dim.Dict().Value(uint32(id)))
			if fid == dict.NoID {
				continue
			}
		}
		maps = append(maps, fact.BitmapForID(fid))
	}
	if len(maps) == 0 {
		out := wah.New()
		out.Extend(fact.NumRows())
		return out
	}
	out := wah.OrAllP(maps, 0)
	out.Extend(fact.NumRows())
	return out
}

// GroupAgg aggregates an operator's output rows, optionally grouped by
// one column. It is the row-wise counterpart of BitmapAgg for inputs with
// no bitmap index (join output): groups accumulate in a hash of
// first-appearance order, which is exactly the dictionary id order
// BitmapAgg emits (dictionaries intern in first-appearance order), and
// both fold through the same aggState, so the two produce byte-identical
// results.
type GroupAgg struct {
	in      Operator
	groupBy string
	aggs    []Agg
	cols    []string

	groupIdx int
	aggIdx   []int
	done     bool
}

// NewGroupAgg aggregates in's rows, grouped by groupBy when non-empty.
func NewGroupAgg(in Operator, groupBy string, aggs []Agg) (*GroupAgg, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("colquery: GROUP BY requires aggregates")
	}
	idx := columnIndex(in.Columns())
	g := &GroupAgg{in: in, groupBy: groupBy, aggs: append([]Agg(nil), aggs...), groupIdx: -1}
	if groupBy != "" {
		gi, ok := idx[groupBy]
		if !ok {
			return nil, fmt.Errorf("colquery: GROUP BY column %q not in input %v", groupBy, in.Columns())
		}
		g.groupIdx = gi
		g.cols = append(g.cols, groupBy)
	}
	for _, a := range aggs {
		ai := -1
		if a.Func != Count {
			i, ok := idx[a.Column]
			if !ok {
				return nil, fmt.Errorf("colquery: aggregate column %q not in input %v", a.Column, in.Columns())
			}
			ai = i
		}
		g.aggIdx = append(g.aggIdx, ai)
		g.cols = append(g.cols, a.name())
	}
	return g, nil
}

// Columns implements Operator.
func (g *GroupAgg) Columns() []string { return g.cols }

// Open implements Operator.
func (g *GroupAgg) Open() error { g.done = false; return g.in.Open() }

// Close implements Operator.
func (g *GroupAgg) Close() error { return g.in.Close() }

// aggState accumulates one aggregate over one group; GroupAgg and
// BitmapAgg share it, so their arithmetic cannot drift apart.
type aggState struct {
	rows     uint64
	distinct map[string]struct{}
	best     string
	found    bool
	sumHi    int64
	sumLo    uint64
}

// add folds value v occurring n times. SUM/AVG form v×n and the running
// sum exactly in 128 bits (two's complement hi:lo), so neither a
// transient mid-fold overflow nor one huge v×n product can reject a
// total that is representable: the result depends only on the multiset
// of values, never on fold order, and the one error is the final total
// exceeding int64 (reported by result). The accumulator itself cannot
// overflow: Σ|v|·n ≤ (MaxInt64+1)·rows, which is below 2^127. MIN/MAX
// use the shared total order; they and COUNT DISTINCT ignore n.
func (st *aggState) add(a Agg, v string, n uint64) error {
	switch a.Func {
	case Count:
		st.rows += n
	case CountDistinct:
		if st.distinct == nil {
			st.distinct = make(map[string]struct{})
		}
		st.distinct[v] = struct{}{}
	case Min, Max:
		if !st.found {
			st.best, st.found = v, true
			return nil
		}
		if a.Func == Min && valueLess(v, st.best) || a.Func == Max && valueLess(st.best, v) {
			st.best = v
		}
	case Sum, Avg:
		x, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("colquery: %s over non-numeric value %q in %s", a.Func, v, a.Column)
		}
		mag := uint64(x)
		if x < 0 {
			mag = -mag // two's complement magnitude, MinInt64-safe
		}
		hi, lo := bits.Mul64(mag, n)
		if x < 0 {
			lo = ^lo + 1
			hi = ^hi
			if lo == 0 {
				hi++
			}
		}
		var carry uint64
		st.sumLo, carry = bits.Add64(st.sumLo, lo, 0)
		st.sumHi += int64(hi) + int64(carry)
		st.rows += n
	}
	return nil
}

func (st *aggState) result(a Agg) (string, error) {
	switch a.Func {
	case Count:
		return strconv.FormatUint(st.rows, 10), nil
	case CountDistinct:
		return strconv.Itoa(len(st.distinct)), nil
	case Min, Max:
		return st.best, nil
	case Sum, Avg:
		if st.sumHi != int64(st.sumLo)>>63 {
			return "", fmt.Errorf("colquery: %s over %s overflows int64", a.Func, a.Column)
		}
		sum := int64(st.sumLo)
		if a.Func == Sum {
			return strconv.FormatInt(sum, 10), nil
		}
		if st.rows == 0 {
			return "", nil
		}
		return strconv.FormatFloat(float64(sum)/float64(st.rows), 'g', -1, 64), nil
	}
	return "", fmt.Errorf("colquery: unknown aggregate %v", a.Func)
}

// Next implements Operator: the whole result arrives as one batch.
func (g *GroupAgg) Next() ([][]string, error) {
	if g.done {
		return nil, nil
	}
	g.done = true
	groupOf := make(map[string]int)
	var keys []string
	var states [][]aggState
	group := func(key string) []aggState {
		gi, ok := groupOf[key]
		if !ok {
			gi = len(states)
			groupOf[key] = gi
			keys = append(keys, key)
			states = append(states, make([]aggState, len(g.aggs)))
		}
		return states[gi]
	}
	if g.groupIdx < 0 {
		// A global aggregate has exactly one group, rows or not — COUNT of
		// an empty input is "0", same as the bitmap path.
		group("")
	}
	for {
		batch, err := g.in.Next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		for _, row := range batch {
			key := ""
			if g.groupIdx >= 0 {
				key = row[g.groupIdx]
			}
			sts := group(key)
			for i, a := range g.aggs {
				v := ""
				if g.aggIdx[i] >= 0 {
					v = row[g.aggIdx[i]]
				}
				if err := sts[i].add(a, v, 1); err != nil {
					return nil, err
				}
			}
		}
	}
	out := make([][]string, 0, len(states))
	for gi, sts := range states {
		row := make([]string, 0, len(g.cols))
		if g.groupIdx >= 0 {
			row = append(row, keys[gi])
		}
		for i, a := range g.aggs {
			v, err := sts[i].result(a)
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out = append(out, row)
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// Project reorders (or narrows) the input columns — the planner's final
// step when join reordering or an explicit select list leaves the stream
// in a different column order than the query asks for.
type Project struct {
	in   Operator
	cols []string
	idx  []int
}

// NewProject projects in to cols, which must all be input columns.
func NewProject(in Operator, cols []string) (*Project, error) {
	idx := columnIndex(in.Columns())
	p := &Project{in: in, cols: append([]string(nil), cols...)}
	for _, c := range cols {
		i, ok := idx[c]
		if !ok {
			return nil, fmt.Errorf("colquery: projected column %q not in input %v", c, in.Columns())
		}
		p.idx = append(p.idx, i)
	}
	return p, nil
}

// Columns implements Operator.
func (p *Project) Columns() []string { return p.cols }

// Open implements Operator.
func (p *Project) Open() error { return p.in.Open() }

// Close implements Operator.
func (p *Project) Close() error { return p.in.Close() }

// Next implements Operator.
func (p *Project) Next() ([][]string, error) {
	batch, err := p.in.Next()
	if err != nil || batch == nil {
		return nil, err
	}
	out := make([][]string, len(batch))
	for r, row := range batch {
		nr := make([]string, len(p.idx))
		for i, ci := range p.idx {
			nr[i] = row[ci]
		}
		out[r] = nr
	}
	return out, nil
}

// OrderLimit sorts the input by one output column (the shared total
// order, stable) and/or caps the row count. With no order column it
// streams, counting rows; with one it materializes the input first.
type OrderLimit struct {
	in      Operator
	orderBy string
	desc    bool
	limit   int

	idx     int
	emitted int
	sorted  [][]string
	served  bool
}

// NewOrderLimit wraps in with ORDER BY orderBy (empty = input order)
// and LIMIT limit (0 = unlimited).
func NewOrderLimit(in Operator, orderBy string, desc bool, limit int) (*OrderLimit, error) {
	o := &OrderLimit{in: in, orderBy: orderBy, desc: desc, limit: limit, idx: -1}
	if orderBy != "" {
		for i, c := range in.Columns() {
			if c == orderBy {
				o.idx = i
				break
			}
		}
		if o.idx < 0 {
			return nil, fmt.Errorf("colquery: ORDER BY column %q not in output %v", orderBy, in.Columns())
		}
	}
	return o, nil
}

// Columns implements Operator.
func (o *OrderLimit) Columns() []string { return o.in.Columns() }

// Open implements Operator.
func (o *OrderLimit) Open() error {
	o.emitted, o.sorted, o.served = 0, nil, false
	return o.in.Open()
}

// Close implements Operator.
func (o *OrderLimit) Close() error { return o.in.Close() }

// Next implements Operator.
func (o *OrderLimit) Next() ([][]string, error) {
	if o.idx < 0 {
		// Pure LIMIT: stream until the cap.
		if o.limit > 0 && o.emitted >= o.limit {
			return nil, nil
		}
		batch, err := o.in.Next()
		if err != nil || batch == nil {
			return nil, err
		}
		if o.limit > 0 && o.emitted+len(batch) > o.limit {
			batch = batch[:o.limit-o.emitted]
		}
		o.emitted += len(batch)
		return batch, nil
	}
	if o.served {
		return nil, nil
	}
	o.served = true
	for {
		batch, err := o.in.Next()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		o.sorted = append(o.sorted, batch...)
	}
	rows := o.sorted
	sort.SliceStable(rows, func(a, b int) bool {
		if o.desc {
			return valueLess(rows[b][o.idx], rows[a][o.idx])
		}
		return valueLess(rows[a][o.idx], rows[b][o.idx])
	})
	if o.limit > 0 && len(rows) > o.limit {
		rows = rows[:o.limit]
	}
	if len(rows) == 0 {
		return nil, nil
	}
	return rows, nil
}

// BitmapAgg is the leaf operator for aggregates over one stored table,
// optionally grouped by one of its columns. It decodes no row: COUNT is
// a popcount of the row mask, and every other aggregate visits each
// distinct value of its column once, ANDing the value's bitmap with the
// mask. Groups are the group column's distinct values, each an
// independent task masked by one AND, emitted in dictionary id order so
// output does not depend on scheduling. The whole result is one batch.
type BitmapAgg struct {
	nrows   uint64
	mask    *wah.Bitmap
	group   *colstore.Column
	aggs    []Agg
	aggCols []*colstore.Column
	cols    []string
	done    bool
}

// NewBitmapAgg aggregates the rows of t selected by mask (nil = all
// rows, otherwise mask must have t's row count), grouped by groupBy when
// non-empty.
func NewBitmapAgg(t *colstore.Table, mask *wah.Bitmap, groupBy string, aggs []Agg) (*BitmapAgg, error) {
	if len(aggs) == 0 {
		return nil, fmt.Errorf("colquery: GROUP BY requires aggregates")
	}
	if mask != nil && mask.Len() != t.NumRows() {
		return nil, fmt.Errorf("colquery: aggregate mask has %d bits, table %q has %d rows", mask.Len(), t.Name(), t.NumRows())
	}
	b := &BitmapAgg{nrows: t.NumRows(), mask: mask, aggs: append([]Agg(nil), aggs...)}
	if groupBy != "" {
		g, err := t.Column(groupBy)
		if err != nil {
			return nil, err
		}
		b.group = g
		b.cols = append(b.cols, groupBy)
	}
	for _, a := range aggs {
		var c *colstore.Column
		if a.Func != Count {
			var err error
			if c, err = t.Column(a.Column); err != nil {
				return nil, err
			}
		}
		b.aggCols = append(b.aggCols, c)
		b.cols = append(b.cols, a.name())
	}
	return b, nil
}

// Columns implements Operator.
func (b *BitmapAgg) Columns() []string { return b.cols }

// Open implements Operator.
func (b *BitmapAgg) Open() error { b.done = false; return nil }

// Close implements Operator.
func (b *BitmapAgg) Close() error { return nil }

// Next implements Operator.
func (b *BitmapAgg) Next() ([][]string, error) {
	if b.done {
		return nil, nil
	}
	b.done = true
	if b.group == nil {
		row, err := b.aggregate(b.mask, 0)
		if err != nil {
			return nil, err
		}
		return [][]string{row}, nil
	}
	rows := make([][]string, b.group.DistinctCount())
	if err := par.ForEachErr(len(rows), 0, func(id int) error {
		gm := b.group.BitmapForID(uint32(id))
		if b.mask != nil {
			gm = wah.And(gm, b.mask)
		}
		if !gm.Any() {
			return nil
		}
		// Serial per-value aggregation: the group fan-out already
		// occupies the worker budget.
		row, err := b.aggregate(gm, 1)
		if err != nil {
			return err
		}
		rows[id] = append([]string{b.group.Dict().Value(uint32(id))}, row...)
		return nil
	}); err != nil {
		return nil, err
	}
	out := rows[:0]
	for _, row := range rows {
		if row != nil {
			out = append(out, row)
		}
	}
	if len(out) == 0 {
		return nil, nil
	}
	return out, nil
}

// aggregate evaluates every aggregate over the rows in mask (nil = all
// rows). The per-value compressed ANDs, the dominant cost, fan out over
// the worker pool (bounded by parallelism: 0 for the ungrouped aggregate,
// 1 inside the group fan-out); the fold into aggState stays serial in id
// order.
// SUM/AVG need each value's hit count; the others only whether it has a
// hit, which Any answers without counting.
func (b *BitmapAgg) aggregate(mask *wah.Bitmap, parallelism int) ([]string, error) {
	row := make([]string, len(b.aggs))
	for i, a := range b.aggs {
		var st aggState
		if a.Func == Count {
			n := b.nrows
			if mask != nil {
				n = mask.Count()
			}
			if err := st.add(a, "", n); err != nil {
				return nil, err
			}
		} else {
			col := b.aggCols[i]
			hits := par.Map(col.DistinctCount(), parallelism, func(id int) uint64 {
				bm := col.BitmapForID(uint32(id))
				if mask != nil {
					bm = wah.And(bm, mask)
				}
				if a.Func == Sum || a.Func == Avg {
					return bm.Count()
				}
				if bm.Any() {
					return 1
				}
				return 0
			})
			for id, n := range hits {
				if n == 0 {
					continue
				}
				if err := st.add(a, col.Dict().Value(uint32(id)), n); err != nil {
					return nil, err
				}
			}
		}
		v, err := st.result(a)
		if err != nil {
			return nil, err
		}
		row[i] = v
	}
	return row, nil
}

func columnIndex(cols []string) map[string]int {
	idx := make(map[string]int, len(cols))
	for i, c := range cols {
		if _, dup := idx[c]; !dup {
			idx[c] = i
		}
	}
	return idx
}
