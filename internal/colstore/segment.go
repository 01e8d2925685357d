package colstore

import (
	"fmt"

	"cods/internal/dict"
	"cods/internal/par"
	"cods/internal/wah"
)

// A Segment is one immutable horizontal slice of a table: a contiguous run
// of rows with its own per-column dictionaries and WAH bitmaps. Tables are
// ordered lists of segments (see Table); sealing an overlay's appended
// tail into a fresh small segment is what makes flush cost O(tail) instead
// of O(table), and a tiered merge policy keeps the segment count
// logarithmic so reads stay cheap.
//
// Like Column, a Segment is immutable after construction (enforced by
// codslint) and freely shared between table versions.
//
// cods:immutable
type Segment struct {
	cols   []*Column
	byName map[string]int
	nrows  uint64
}

// NewSegment assembles a segment from finished columns. All columns must
// have the same row count and distinct names.
func NewSegment(cols []*Column) (*Segment, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("colstore: segment needs at least one column")
	}
	s := &Segment{cols: cols, byName: make(map[string]int, len(cols)), nrows: cols[0].NumRows()}
	for i, c := range cols {
		if c.NumRows() != s.nrows {
			return nil, fmt.Errorf("colstore: segment column %q has %d rows, expected %d", c.Name(), c.NumRows(), s.nrows)
		}
		if _, dup := s.byName[c.Name()]; dup {
			return nil, fmt.Errorf("colstore: segment has duplicate column %q", c.Name())
		}
		s.byName[c.Name()] = i
	}
	return s, nil
}

// emptySegment builds a zero-row segment with the given schema, the
// normal form of a table with no rows.
func emptySegment(schema []string) *Segment {
	cols := make([]*Column, len(schema))
	for i, n := range schema {
		cols[i] = NewColumnFromValues(n, nil)
	}
	s, err := NewSegment(cols)
	if err != nil {
		panic(err) // distinct names guaranteed by the caller's schema
	}
	return s
}

// NumRows returns the number of rows the segment covers.
func (s *Segment) NumRows() uint64 { return s.nrows }

// NumColumns returns the number of columns.
func (s *Segment) NumColumns() int { return len(s.cols) }

// ColumnAt returns the column at schema position i.
func (s *Segment) ColumnAt(i int) *Column { return s.cols[i] }

// Column returns the named column.
func (s *Segment) Column(name string) (*Column, error) {
	if i, ok := s.byName[name]; ok {
		return s.cols[i], nil
	}
	return nil, fmt.Errorf("colstore: segment has no column %q", name)
}

// ColumnNames returns the column names in schema order.
func (s *Segment) ColumnNames() []string {
	names := make([]string, len(s.cols))
	for i, c := range s.cols {
		names[i] = c.Name()
	}
	return names
}

// Validate checks the segment's structural invariants.
func (s *Segment) Validate() error {
	for _, c := range s.cols {
		if c.NumRows() != s.nrows {
			return fmt.Errorf("colstore: segment column %q row count %d != %d", c.Name(), c.NumRows(), s.nrows)
		}
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// project returns a segment holding the columns at the given schema
// positions, sharing their data.
func (s *Segment) project(indices []int) *Segment {
	cols := make([]*Column, len(indices))
	for i, idx := range indices {
		cols[i] = s.cols[idx]
	}
	ns, err := NewSegment(cols)
	if err != nil {
		panic(err) // projections of a valid segment cannot collide
	}
	return ns
}

// withColumn returns a segment with the column at schema position idx
// replaced (idx == len(cols) appends).
func (s *Segment) withColumn(idx int, col *Column) (*Segment, error) {
	cols := make([]*Column, 0, len(s.cols)+1)
	cols = append(cols, s.cols...)
	if idx == len(cols) {
		cols = append(cols, col)
	} else {
		cols[idx] = col
	}
	return NewSegment(cols)
}

// withoutColumn returns a segment with the column at schema position idx
// removed.
func (s *Segment) withoutColumn(idx int) (*Segment, error) {
	cols := make([]*Column, 0, len(s.cols)-1)
	cols = append(cols, s.cols[:idx]...)
	cols = append(cols, s.cols[idx+1:]...)
	return NewSegment(cols)
}

// Filter returns a segment containing only the rows selected by mask,
// which must be segment-local: its length may not exceed the segment's
// row count (missing trailing bits read as zero). This is the primitive
// an overlay flush uses to apply deletions to exactly the segments they
// hit, leaving every other segment shared untouched. The
// per-distinct-value bitmap filtering fans out over a worker pool.
func (s *Segment) Filter(mask *wah.Bitmap) (*Segment, error) {
	if mask.Len() > s.nrows {
		return nil, fmt.Errorf("colstore: mask has %d bits, segment has %d rows", mask.Len(), s.nrows)
	}
	positions := mask.AppendPositionsTo(make([]uint64, 0, mask.Count()))
	nrows := uint64(len(positions))
	cols := make([]*Column, len(s.cols))
	for i, c := range s.cols {
		values := make([]string, c.DistinctCount())
		bitmaps := make([]*wah.Bitmap, c.DistinctCount())
		par.ForEachIndexed(c.DistinctCount(), 0, func(id int) {
			values[id] = c.dict.Value(uint32(id))
			bitmaps[id] = wah.FilterPositions(c.bitmaps[id], positions)
		})
		nc, err := NewColumnFromBitmaps(c.Name(), values, bitmaps, nrows)
		if err != nil {
			return nil, err
		}
		cols[i] = nc
	}
	return NewSegment(cols)
}

// sliceColumn re-bases the rows [start, end) of a full-table column as a
// standalone column: each value's bitmap is sliced to the window and
// values absent from it are dropped from the dictionary. Used to split a
// newly built whole-table column (e.g. ADD COLUMN's filler) along the
// existing segment boundaries.
func sliceColumn(c *Column, start, end uint64) *Column {
	n := end - start
	d := dict.New()
	var bitmaps []*wah.Bitmap
	for id, bm := range c.bitmaps {
		part := bm.Slice(start, end)
		if !part.Any() {
			continue
		}
		part.Extend(n)
		d.Intern(c.dict.Value(uint32(id)))
		bitmaps = append(bitmaps, part)
	}
	return &Column{name: c.name, dict: d, bitmaps: bitmaps, nrows: n}
}

// mergeColumn builds the single column at schema position ci spanning
// segs in order: the merged dictionary lists values in first-seen row
// order and each value's bitmap is the offset concatenation of its
// per-segment bitmaps. This is both the tiered-merge kernel and the lazy
// "stitch" behind Table.Column on a multi-segment table — identical by
// construction, which is what lets a merge replace segments without
// changing any whole-table observation.
func mergeColumn(segs []*Segment, ci int, nrows uint64) *Column {
	if len(segs) == 1 {
		return segs[0].cols[ci]
	}
	d := dict.New()
	var bitmaps []*wah.Bitmap
	var off uint64
	for _, s := range segs {
		c := s.cols[ci]
		mapping := c.RemapInto(d)
		for int(d.Len()) > len(bitmaps) {
			bitmaps = append(bitmaps, wah.New())
		}
		for id, bm := range c.bitmaps {
			dst := bitmaps[mapping[id]]
			dst.Extend(off)
			dst.Concat(bm)
		}
		off += s.nrows
	}
	for _, bm := range bitmaps {
		bm.Extend(nrows)
	}
	return &Column{name: segs[0].cols[ci].name, dict: d, bitmaps: bitmaps, nrows: nrows}
}

// MergeSegments merges a run of schema-identical segments into one, the
// column builds fanned out over a worker pool. Row order is preserved, so
// replacing the run with the result leaves every whole-table observation
// unchanged. parallelism <= 0 means GOMAXPROCS; the engine always passes
// 0, and the bound stays for the benchmark's colstore.merge_segments_ms
// rung.
func MergeSegments(segs []*Segment, parallelism int) (*Segment, error) {
	if len(segs) == 0 {
		return nil, fmt.Errorf("colstore: MergeSegments needs at least one segment")
	}
	if len(segs) == 1 {
		return segs[0], nil
	}
	schema := segs[0].ColumnNames()
	for _, s := range segs[1:] {
		if err := sameSchema(schema, s); err != nil {
			return nil, err
		}
	}
	var nrows uint64
	for _, s := range segs {
		nrows += s.nrows
	}
	cols := make([]*Column, len(schema))
	par.ForEachIndexed(len(schema), parallelism, func(ci int) {
		cols[ci] = mergeColumn(segs, ci, nrows)
	})
	return NewSegment(cols)
}

// sameSchema verifies s's column names equal schema in order.
func sameSchema(schema []string, s *Segment) error {
	if len(s.cols) != len(schema) {
		return fmt.Errorf("colstore: segment has %d columns, expected %d", len(s.cols), len(schema))
	}
	for i, n := range schema {
		if s.cols[i].Name() != n {
			return fmt.Errorf("colstore: segment column %d is %q, expected %q", i, s.cols[i].Name(), n)
		}
	}
	return nil
}

// mergeRatio is the size ratio of the engine's tiered merge policy (see
// MergeTailPlan and Table.CompactSegments).
const mergeRatio = 2

// MergeTailPlan decides which tail run of segments a tiered merge should
// fold together, given the per-segment row counts and the size ratio: it
// returns the smallest start index such that merging [start, len) restores
// the invariant rows[i] > ratio·(rows after i) for every remaining
// boundary, or len(rows) when the invariant already holds. Segment sizes
// then grow geometrically, so a table holds O(log n) segments and each row
// is rewritten O(log n) times over its life — the amortization that keeps
// sustained per-statement write cost flat in the table size.
func MergeTailPlan(rows []uint64, ratio int) int {
	n := len(rows)
	if n < 2 {
		return n
	}
	if ratio < 1 {
		ratio = 1
	}
	start := n - 1
	sum := rows[n-1]
	for start > 0 && rows[start-1] <= uint64(ratio)*sum {
		start--
		sum += rows[start]
	}
	if start == n-1 {
		return n
	}
	return start
}
