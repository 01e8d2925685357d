package colstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"cods/internal/par"
	"cods/internal/wah"
)

// Table is a named, ordered list of immutable row segments over a shared
// schema: a manifest of segment order plus row-count offsets. Tables are
// immutable: every schema or data change produces a new Table value,
// sharing unchanged segments and columns with its predecessor (cheap
// copy-on-write, which is what makes the paper's Property 1 free).
//
// Most tables hold a single segment; an overlay flush appends the sealed
// tail as a new small segment, and the tiered merge policy (MergeTailPlan)
// folds tails back so the count stays logarithmic. Whole-table column
// views (Column, ColumnAt) are stitched lazily across segments with a
// dictionary-id remap at each boundary and cached; hot paths that do not
// need a global dictionary (EqBitmap, ScanWhereBitmap, FilterRows, Rows)
// work per segment and never pay the stitch.
type Table struct {
	name    string
	schema  []string
	byName  map[string]int
	key     []string
	segs    []*Segment
	offsets []uint64 // offsets[i] = global row index of segs[i]'s first row
	nrows   uint64
	flat    *flatCache
}

// flatCache memoizes stitched whole-table columns by schema position. It
// lives behind a pointer so metadata-only table copies (WithName,
// merges — anything that provably preserves per-position column content)
// can share it.
type flatCache struct {
	mu   sync.Mutex
	cols map[int]*Column
}

func newFlatCache() *flatCache { return &flatCache{cols: make(map[int]*Column)} }

// NewTable assembles a single-segment table from finished columns. All
// columns must have the same row count; key columns must exist.
func NewTable(name string, cols []*Column, key []string) (*Table, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("colstore: table %q needs at least one column", name)
	}
	nrows := cols[0].NumRows()
	byName := make(map[string]int, len(cols))
	schema := make([]string, len(cols))
	for i, c := range cols {
		if c.NumRows() != nrows {
			return nil, fmt.Errorf("colstore: table %q column %q has %d rows, expected %d", name, c.Name(), c.NumRows(), nrows)
		}
		if _, dup := byName[c.Name()]; dup {
			return nil, fmt.Errorf("colstore: table %q has duplicate column %q", name, c.Name())
		}
		byName[c.Name()] = i
		schema[i] = c.Name()
	}
	seg := &Segment{cols: cols, byName: byName, nrows: nrows}
	return newSegmented(name, schema, key, []*Segment{seg})
}

// NewSegmented assembles a table from schema-identical segments in row
// order. Every segment must match schema exactly; zero-row segments are
// dropped, and an empty list (or none with rows) yields an empty
// single-segment table over schema.
func NewSegmented(name string, schema []string, segs []*Segment, key []string) (*Table, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("colstore: table %q needs at least one column", name)
	}
	seen := make(map[string]bool, len(schema))
	for _, n := range schema {
		if seen[n] {
			return nil, fmt.Errorf("colstore: table %q has duplicate column %q", name, n)
		}
		seen[n] = true
	}
	return newSegmented(name, schema, key, segs)
}

// newSegmented is the one true constructor: it validates segments against
// the schema, drops empty segments (synthesizing one when none remain),
// checks the key, and computes offsets.
func newSegmented(name string, schema []string, key []string, segs []*Segment) (*Table, error) {
	live := make([]*Segment, 0, len(segs))
	for _, s := range segs {
		if err := sameSchema(schema, s); err != nil {
			return nil, fmt.Errorf("colstore: table %q: %w", name, err)
		}
		if s.nrows > 0 {
			live = append(live, s)
		}
	}
	if len(live) == 0 {
		live = append(live, emptySegment(schema))
	}
	byName := make(map[string]int, len(schema))
	for i, n := range schema {
		byName[n] = i
	}
	for _, k := range key {
		if _, ok := byName[k]; !ok {
			return nil, fmt.Errorf("colstore: table %q key column %q not present", name, k)
		}
	}
	t := &Table{
		name:    name,
		schema:  append([]string(nil), schema...),
		byName:  byName,
		key:     append([]string(nil), key...),
		segs:    live,
		offsets: make([]uint64, len(live)),
		flat:    newFlatCache(),
	}
	for i, s := range live {
		t.offsets[i] = t.nrows
		t.nrows += s.nrows
	}
	return t, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// NumRows returns the number of rows.
func (t *Table) NumRows() uint64 { return t.nrows }

// NumColumns returns the number of columns.
func (t *Table) NumColumns() int { return len(t.schema) }

// Key returns the primary-key column names (possibly empty).
func (t *Table) Key() []string { return append([]string(nil), t.key...) }

// ColumnNames returns the column names in schema order.
func (t *Table) ColumnNames() []string { return append([]string(nil), t.schema...) }

// NumSegments returns the number of row segments.
func (t *Table) NumSegments() int { return len(t.segs) }

// Segments returns the row segments in order. Shared; callers must treat
// both the slice and the segments as read-only.
func (t *Table) Segments() []*Segment { return append([]*Segment(nil), t.segs...) }

// SegmentRows returns the per-segment row counts in order.
func (t *Table) SegmentRows() []uint64 {
	rows := make([]uint64, len(t.segs))
	for i, s := range t.segs {
		rows[i] = s.nrows
	}
	return rows
}

// Column returns the named column as a whole-table view. On a
// multi-segment table this stitches the per-segment columns (merged
// dictionary, offset-concatenated bitmaps) and caches the result; prefer
// the segment-native scans (EqBitmap, ScanWhereBitmap) on hot paths.
func (t *Table) Column(name string) (*Column, error) {
	if i, ok := t.byName[name]; ok {
		return t.columnAt(i), nil
	}
	return nil, fmt.Errorf("colstore: table %q has no column %q", t.name, name)
}

// ColumnAt returns the whole-table column at schema position i.
func (t *Table) ColumnAt(i int) *Column { return t.columnAt(i) }

func (t *Table) columnAt(i int) *Column {
	if len(t.segs) == 1 {
		return t.segs[0].cols[i]
	}
	t.flat.mu.Lock()
	defer t.flat.mu.Unlock()
	if c, ok := t.flat.cols[i]; ok {
		return c
	}
	c := mergeColumn(t.segs, i, t.nrows)
	t.flat.cols[i] = c
	return c
}

// HasColumn reports whether the table has a column with the given name.
func (t *Table) HasColumn(name string) bool {
	_, ok := t.byName[name]
	return ok
}

// WithName returns a table sharing all segments but carrying a new name
// (RENAME TABLE / COPY TABLE are metadata operations on a column store).
func (t *Table) WithName(name string) *Table {
	nt := *t
	nt.name = name
	return &nt
}

// WithTailSegment returns a table with seg appended after the existing
// segments — the O(tail) flush step that seals an overlay's appended rows
// without touching the base.
func (t *Table) WithTailSegment(seg *Segment) (*Table, error) {
	if err := sameSchema(t.schema, seg); err != nil {
		return nil, fmt.Errorf("colstore: table %q: %w", t.name, err)
	}
	segs := append(append([]*Segment(nil), t.segs...), seg)
	nt, err := newSegmented(t.name, t.schema, t.key, segs)
	if err != nil {
		return nil, err
	}
	return nt, nil
}

// CompactSegments applies the tiered merge policy (MergeTailPlan at
// ratio 2) once: when the tail violates the size-ratio invariant it
// merges that run in place and returns the new table, otherwise it
// returns the receiver unchanged.
func (t *Table) CompactSegments() (*Table, error) {
	start := MergeTailPlan(t.SegmentRows(), mergeRatio)
	if start >= len(t.segs) {
		return t, nil
	}
	merged, err := MergeSegments(t.segs[start:], 0)
	if err != nil {
		return nil, err
	}
	if run := t.nrows - t.offsets[start]; merged.nrows != run {
		return nil, fmt.Errorf("colstore: table %q merged %d rows into %d", t.name, run, merged.nrows)
	}
	// newSegmented rejects a merged segment whose schema differs.
	segs := append(append(make([]*Segment, 0, start+1), t.segs[:start]...), merged)
	nt, err := newSegmented(t.name, t.schema, t.key, segs)
	if err != nil {
		return nil, err
	}
	// A merge preserves both row order and stitched dictionary order, so
	// whole-table column views are unchanged — share the cache.
	nt.flat = t.flat
	return nt, nil
}

// EqBitmap returns the bitmap of rows where the column equals value,
// evaluated per segment (a dictionary probe each) and concatenated — the
// O(segments + result words) point probe the keyed write path relies on.
func (t *Table) EqBitmap(column, value string) (*wah.Bitmap, error) {
	i, ok := t.byName[column]
	if !ok {
		return nil, fmt.Errorf("colstore: table %q has no column %q", t.name, column)
	}
	out := wah.New()
	for _, s := range t.segs {
		out.Concat(s.cols[i].EqScan(value))
	}
	out.Extend(t.nrows)
	return out, nil
}

// ScanWhereBitmap returns the bitmap of rows whose value satisfies pred,
// evaluated once per distinct value per segment and concatenated. pred
// must be pure and safe for concurrent calls.
func (t *Table) ScanWhereBitmap(column string, pred func(value string) bool) (*wah.Bitmap, error) {
	i, ok := t.byName[column]
	if !ok {
		return nil, fmt.Errorf("colstore: table %q has no column %q", t.name, column)
	}
	out := wah.New()
	for _, s := range t.segs {
		out.Concat(s.cols[i].ScanWhere(pred))
	}
	out.Extend(t.nrows)
	return out, nil
}

// WithColumnAdded returns a new table with col appended to the schema. On
// a multi-segment table the column is split along the existing segment
// boundaries.
func (t *Table) WithColumnAdded(col *Column) (*Table, error) {
	if col.NumRows() != t.nrows {
		return nil, fmt.Errorf("colstore: new column %q has %d rows, table %q has %d", col.Name(), col.NumRows(), t.name, t.nrows)
	}
	if _, dup := t.byName[col.Name()]; dup {
		return nil, fmt.Errorf("colstore: table %q has duplicate column %q", t.name, col.Name())
	}
	segs := make([]*Segment, len(t.segs))
	err := par.ForEachErr(len(t.segs), 0, func(i int) error {
		part := col
		if len(t.segs) > 1 {
			part = sliceColumn(col, t.offsets[i], t.offsets[i]+t.segs[i].nrows)
		}
		ns, err := t.segs[i].withColumn(len(t.schema), part)
		if err != nil {
			return err
		}
		segs[i] = ns
		return nil
	})
	if err != nil {
		return nil, err
	}
	nt, err := newSegmented(t.name, append(append([]string(nil), t.schema...), col.Name()), t.key, segs)
	if err != nil {
		return nil, err
	}
	return nt, nil
}

// WithColumnDropped returns a new table without the named column. Dropping
// a key column clears the key declaration.
func (t *Table) WithColumnDropped(name string) (*Table, error) {
	idx, ok := t.byName[name]
	if !ok {
		return nil, fmt.Errorf("colstore: table %q has no column %q", t.name, name)
	}
	if len(t.schema) == 1 {
		return nil, fmt.Errorf("colstore: cannot drop the only column of table %q", t.name)
	}
	schema := make([]string, 0, len(t.schema)-1)
	schema = append(schema, t.schema[:idx]...)
	schema = append(schema, t.schema[idx+1:]...)
	key := t.key
	for _, k := range key {
		if k == name {
			key = nil
			break
		}
	}
	segs := make([]*Segment, len(t.segs))
	for i, s := range t.segs {
		ns, err := s.withoutColumn(idx)
		if err != nil {
			return nil, err
		}
		segs[i] = ns
	}
	return newSegmented(t.name, schema, key, segs)
}

// WithColumnRenamed returns a new table with one column renamed; data is
// shared.
func (t *Table) WithColumnRenamed(oldName, newName string) (*Table, error) {
	idx, ok := t.byName[oldName]
	if !ok {
		return nil, fmt.Errorf("colstore: table %q has no column %q", t.name, oldName)
	}
	if _, clash := t.byName[newName]; clash {
		return nil, fmt.Errorf("colstore: table %q already has a column %q", t.name, newName)
	}
	schema := append([]string(nil), t.schema...)
	schema[idx] = newName
	key := append([]string(nil), t.key...)
	for i, k := range key {
		if k == oldName {
			key[i] = newName
		}
	}
	segs := make([]*Segment, len(t.segs))
	for i, s := range t.segs {
		ns, err := s.withColumn(idx, s.cols[idx].Renamed(newName))
		if err != nil {
			return nil, err
		}
		segs[i] = ns
	}
	return newSegmented(t.name, schema, key, segs)
}

// Project returns a table with the named columns only (shared data), used
// by decomposition to assemble the unchanged output table.
func (t *Table) Project(name string, columns []string, key []string) (*Table, error) {
	indices := make([]int, len(columns))
	for i, cn := range columns {
		idx, ok := t.byName[cn]
		if !ok {
			return nil, fmt.Errorf("colstore: table %q has no column %q", t.name, cn)
		}
		indices[i] = idx
	}
	segs := make([]*Segment, len(t.segs))
	for i, s := range t.segs {
		segs[i] = s.project(indices)
	}
	return newSegmented(name, append([]string(nil), columns...), key, segs)
}

// FilterRows returns a new table containing only the rows selected by
// mask, applying the paper's bitmap filtering to every column. mask must
// have the table's row count. The per-distinct-value bitmap filtering —
// the dominant cost — fans out over a worker pool, one task per value of
// each column. The mask is sliced along segment boundaries and each
// segment filtered independently; segments with no selected rows are
// dropped without any data operation.
func (t *Table) FilterRows(name string, mask *wah.Bitmap) (*Table, error) {
	if mask.Len() != t.nrows {
		return nil, fmt.Errorf("colstore: mask has %d bits, table %q has %d rows", mask.Len(), t.name, t.nrows)
	}
	segs := make([]*Segment, 0, len(t.segs))
	for i, s := range t.segs {
		sub := mask.Slice(t.offsets[i], t.offsets[i]+s.nrows)
		if !sub.Any() {
			continue
		}
		fs, err := s.Filter(sub)
		if err != nil {
			return nil, err
		}
		segs = append(segs, fs)
	}
	return newSegmented(name, t.schema, t.key, segs)
}

// segmentAt returns the index of the segment containing global row i.
func (t *Table) segmentAt(i uint64) int {
	return sort.Search(len(t.offsets), func(k int) bool { return t.offsets[k] > i }) - 1
}

// Row materializes a single row as values in schema order. O(distinct)
// per column; for bulk access use Rows or Column.RowIDs.
func (t *Table) Row(i uint64) ([]string, error) {
	if i >= t.nrows {
		return nil, fmt.Errorf("colstore: row %d out of range in table %q (%d rows)", i, t.name, t.nrows)
	}
	si := t.segmentAt(i)
	s, local := t.segs[si], i-t.offsets[si]
	out := make([]string, len(s.cols))
	for c, col := range s.cols {
		v, err := col.ValueAt(local)
		if err != nil {
			return nil, err
		}
		out[c] = v
	}
	return out, nil
}

// Rows materializes up to limit rows starting at offset. A limit of 0
// means all remaining rows. Only the segments overlapping the page are
// decoded, so early pages cost O(page + first segments), not O(table).
func (t *Table) Rows(offset, limit uint64) ([][]string, error) {
	if offset > t.nrows {
		offset = t.nrows
	}
	end := t.nrows
	// Compare limit against the remaining span instead of computing
	// offset+limit, which wraps for limits near MaxUint64.
	if limit > 0 && limit < end-offset {
		end = offset + limit
	}
	out := make([][]string, 0, end-offset)
	for i, s := range t.segs {
		segStart, segEnd := t.offsets[i], t.offsets[i]+s.nrows
		if segEnd <= offset {
			continue
		}
		if segStart >= end {
			break
		}
		lo, hi := max(offset, segStart)-segStart, min(end, segEnd)-segStart
		n := hi - lo
		rows := make([][]string, n)
		for r := range rows {
			rows[r] = make([]string, len(s.cols))
		}
		for c, col := range s.cols {
			ids := col.RowIDRange(lo, hi)
			for r := uint64(0); r < n; r++ {
				rows[r][c] = col.dict.Value(ids[r])
			}
		}
		out = append(out, rows...)
	}
	return out, nil
}

// SortedTuples materializes all rows and sorts them lexicographically,
// giving a canonical order-independent representation used by tests and
// verification.
func (t *Table) SortedTuples() [][]string {
	rows, err := t.Rows(0, 0)
	if err != nil {
		panic(err) // Rows(0,0) cannot fail on a valid table
	}
	sort.Slice(rows, func(a, b int) bool {
		for i := range rows[a] {
			if rows[a][i] != rows[b][i] {
				return rows[a][i] < rows[b][i]
			}
		}
		return false
	})
	return rows
}

// TupleMultiset returns a multiset fingerprint of all rows: joined tuple →
// occurrence count. Used to compare tables regardless of row order.
func (t *Table) TupleMultiset() map[string]int {
	rows, err := t.Rows(0, 0)
	if err != nil {
		panic(err)
	}
	out := make(map[string]int, len(rows))
	for _, r := range rows {
		out[strings.Join(r, "\x00")]++
	}
	return out
}

// Validate checks the structural invariants of the table, its manifest
// and all segments.
func (t *Table) Validate() error {
	var total uint64
	for i, s := range t.segs {
		if err := sameSchema(t.schema, s); err != nil {
			return fmt.Errorf("colstore: table %q segment %d: %w", t.name, i, err)
		}
		if t.offsets[i] != total {
			return fmt.Errorf("colstore: table %q segment %d offset %d != %d", t.name, i, t.offsets[i], total)
		}
		if len(t.segs) > 1 && s.nrows == 0 {
			return fmt.Errorf("colstore: table %q segment %d is empty", t.name, i)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("colstore: table %q: %w", t.name, err)
		}
		total += s.nrows
	}
	if total != t.nrows {
		return fmt.Errorf("colstore: table %q segments cover %d rows, manifest says %d", t.name, total, t.nrows)
	}
	return nil
}

// ValidateKey verifies that the declared key is actually unique across
// all segments: the key is unique iff it has one group per row. On a
// one-column key that costs O(distinct); on a composite key, one decode
// of the key columns.
func (t *Table) ValidateKey() error {
	if len(t.key) == 0 {
		return nil
	}
	g, err := Group(t, t.key)
	if err != nil {
		return err
	}
	if uint64(g.Len()) != t.nrows {
		return fmt.Errorf("colstore: table %q key %v violated: %d rows hold %d distinct keys", t.name, t.key, t.nrows, g.Len())
	}
	return nil
}

// Stats summarizes the table's physical footprint. DistinctTotal counts
// per-segment dictionary entries, so a value present in k segments counts
// k times.
type Stats struct {
	Rows            uint64
	Columns         int
	Segments        int
	DistinctTotal   int
	CompressedBytes uint64
}

// Stats returns storage statistics for the table.
func (t *Table) Stats() Stats {
	s := Stats{Rows: t.nrows, Columns: len(t.schema), Segments: len(t.segs)}
	for _, seg := range t.segs {
		for _, c := range seg.cols {
			s.DistinctTotal += c.DistinctCount()
			s.CompressedBytes += c.CompressedSizeBytes()
		}
	}
	return s
}

func (t *Table) String() string {
	return fmt.Sprintf("Table %s(%s) rows=%d segs=%d key=%v", t.name, strings.Join(t.ColumnNames(), ", "), t.nrows, len(t.segs), t.key)
}
