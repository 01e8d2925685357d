package cods_test

import (
	"errors"
	"slices"
	"strings"
)

// rowModel is the independent model the segmented property test checks
// the engine against: each table is an ordered [][]string plus its
// declared key — no bitmaps, dictionaries, segments or overlays. It
// covers exactly the statements that test drives, on tables and columns
// that exist, each written the most direct way its documented semantics
// allow, and assumes the engine runs with Config.ValidateFD off.
type rowModel struct {
	tables map[string]*modelTable
	// autoCompact mirrors Config.AutoCompactPending: a successful DML
	// statement that leaves a table with at least this many pending rows
	// flushes it.
	autoCompact int
}

// modelTable is one table of the model. rows is the order Rows reads:
// base rows first, then the rows appended since the last flush, which
// are the last pending entries. The split matters to UPDATE, which
// rewrites a pending row in place but moves a base row to the end, and
// to auto-compaction, which counts pending rows plus the base rows
// deleted since the last flush (marks).
type modelTable struct {
	cols    []string
	key     []string
	rows    [][]string
	pending int
	marks   int
}

// The model's error classes: a statement the model rejects fails with
// one of these, and the engine must fail with the same class.
var (
	errModelKey   = errors.New("key violation")
	errModelFK    = errors.New("foreign-key violation")
	errModelOther = errors.New("statement rejected")
)

// cond is a one-column predicate: col = val, or col != val when neg.
type cond struct {
	col, val string
	neg      bool
}

func (t *modelTable) match(c cond) func([]string) bool {
	i := slices.Index(t.cols, c.col)
	return func(row []string) bool { return (row[i] == c.val) != c.neg }
}

// pick returns row's values in cols.
func (t *modelTable) pick(cols []string, row []string) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = row[slices.Index(t.cols, c)]
	}
	return out
}

// tuple renders row's values in cols as one comparable string.
func (t *modelTable) tuple(cols []string, row []string) string {
	return strings.Join(t.pick(cols, row), "\x00")
}

// unique reports whether no two rows agree on cols.
func (t *modelTable) unique(cols []string, rows [][]string) bool {
	seen := make(map[string]bool)
	for _, r := range rows {
		k := t.tuple(cols, r)
		if seen[k] {
			return false
		}
		seen[k] = true
	}
	return true
}

func (m *rowModel) compact() {
	for _, t := range m.tables {
		t.pending, t.marks = 0, 0
	}
}

func (m *rowModel) dmlDone(t *modelTable) {
	if t.pending+t.marks >= m.autoCompact {
		t.pending, t.marks = 0, 0
	}
}

func (m *rowModel) insert(name string, row []string) error {
	t := m.tables[name]
	if len(t.key) > 0 && !t.unique(t.key, append(slices.Clip(t.rows), row)) {
		return errModelKey
	}
	t.rows = append(t.rows, row)
	t.pending++
	m.dmlDone(t)
	return nil
}

func (m *rowModel) delete(name string, c cond) error {
	t := m.tables[name]
	hit, base := t.match(c), len(t.rows)-t.pending
	var keep [][]string
	for i, r := range t.rows {
		switch {
		case !hit(r):
			keep = append(keep, r)
		case i < base:
			t.marks++
		default:
			t.pending--
		}
	}
	t.rows = keep
	m.dmlDone(t)
	return nil
}

// update is delete plus re-append for base rows; a pending row is
// rewritten where it stands.
func (m *rowModel) update(name, col, val string, c cond) error {
	t := m.tables[name]
	ci, hit, base := slices.Index(t.cols, col), t.match(c), len(t.rows)-t.pending
	var rows, moved [][]string
	for i, r := range t.rows {
		if hit(r) {
			r = slices.Clone(r)
			r[ci] = val
			if i < base {
				moved = append(moved, r)
				continue
			}
		}
		rows = append(rows, r)
	}
	rows = append(rows, moved...)
	if slices.Contains(t.key, col) && !t.unique(t.key, rows) {
		return errModelKey
	}
	t.rows = rows
	t.pending += len(moved)
	t.marks += len(moved)
	m.dmlDone(t)
	return nil
}

func (m *rowModel) copyTable(from, to string) error {
	t := m.tables[from]
	m.tables[to] = &modelTable{cols: t.cols, key: t.key, rows: slices.Clone(t.rows)}
	return nil
}

func (m *rowModel) drop(name string) error {
	delete(m.tables, name)
	return nil
}

// decompose projects every row onto sCols, keeping the input's key, and
// keeps the first row per common-column value on tCols, keyed by the
// common columns.
func (m *rowModel) decompose(name, outS string, sCols []string, outT string, tCols []string) error {
	t := m.tables[name]
	var common []string
	for _, c := range sCols {
		if slices.Contains(tCols, c) {
			common = append(common, c)
		}
	}
	s := &modelTable{cols: sCols, key: t.key}
	d := &modelTable{cols: tCols, key: common}
	seen := make(map[string]bool)
	for _, r := range t.rows {
		s.rows = append(s.rows, t.pick(sCols, r))
		if k := t.tuple(common, r); !seen[k] {
			seen[k] = true
			d.rows = append(d.rows, t.pick(tCols, r))
		}
	}
	delete(m.tables, name)
	m.tables[outS], m.tables[outT] = s, d
	return nil
}

// merge is the key–foreign-key natural join of a and b. The input whose
// common-column values are unique is the dimension (b when both are):
// every row of the other input, the fact, in order, gains the
// dimension's other columns, and a fact row with no dimension row is a
// foreign-key error. The output keeps the fact's key. General mergence —
// neither input unique — is not modelled, so it is rejected.
func (m *rowModel) merge(a, b, out string) error {
	fact, dim := m.tables[a], m.tables[b]
	var common, rest []string
	for _, c := range fact.cols {
		if slices.Contains(dim.cols, c) {
			common = append(common, c)
		}
	}
	if !dim.unique(common, dim.rows) {
		if !fact.unique(common, fact.rows) {
			return errModelOther
		}
		fact, dim = dim, fact
	}
	for _, c := range dim.cols {
		if !slices.Contains(common, c) {
			rest = append(rest, c)
		}
	}
	byKey := make(map[string][]string)
	for _, r := range dim.rows {
		byKey[dim.tuple(common, r)] = r
	}
	res := &modelTable{cols: slices.Concat(fact.cols, rest), key: fact.key}
	for _, r := range fact.rows {
		d, ok := byKey[fact.tuple(common, r)]
		if !ok {
			return errModelFK
		}
		res.rows = append(res.rows, slices.Concat(r, dim.pick(rest, d)))
	}
	delete(m.tables, a)
	delete(m.tables, b)
	m.tables[out] = res
	return nil
}

// partition splits a table, in order, into the rows matching c and the
// rest; both keep the input's key.
func (m *rowModel) partition(name string, c cond, yes, no string) error {
	t := m.tables[name]
	hit := t.match(c)
	ty := &modelTable{cols: t.cols, key: t.key}
	tn := &modelTable{cols: t.cols, key: t.key}
	for _, r := range t.rows {
		if hit(r) {
			ty.rows = append(ty.rows, r)
		} else {
			tn.rows = append(tn.rows, r)
		}
	}
	delete(m.tables, name)
	m.tables[yes], m.tables[no] = ty, tn
	return nil
}

// union concatenates a's rows and b's; the output has no key.
func (m *rowModel) union(a, b, out string) error {
	ta, tb := m.tables[a], m.tables[b]
	delete(m.tables, a)
	delete(m.tables, b)
	m.tables[out] = &modelTable{cols: ta.cols, rows: slices.Concat(ta.rows, tb.rows)}
	return nil
}
