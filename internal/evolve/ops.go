package evolve

import (
	"fmt"

	"cods/internal/colstore"
	"cods/internal/expr"
	"cods/internal/wah"
)

// Union implements UNION TABLES: combine the tuples of two tables with the
// same schema into one table. Both inputs' segments are immutable, so the
// output is pure metadata — a's segment list followed by b's, so a's rows
// then b's — with zero data movement, in constant time (paper Table 1;
// §2.3 classifies it as data movement without data change).
func Union(a, b *colstore.Table, outName string, opt Options) (*colstore.Table, error) {
	an, bn := a.ColumnNames(), b.ColumnNames()
	if len(an) != len(bn) {
		return nil, fmt.Errorf("evolve: union of %q and %q: schemas differ (%d vs %d columns)", a.Name(), b.Name(), len(an), len(bn))
	}
	for i := range an {
		if an[i] != bn[i] {
			return nil, fmt.Errorf("evolve: union of %q and %q: column %d is %q vs %q", a.Name(), b.Name(), i, an[i], bn[i])
		}
	}
	segs := append(a.Segments(), b.Segments()...)
	opt.trace(fmt.Sprintf("union: adopting %d segments of %s and %d of %s unchanged (no data movement)",
		a.NumSegments(), a.Name(), b.NumSegments(), b.Name()))
	// A union generally breaks key uniqueness; the output carries no key.
	return colstore.NewSegmented(outName, an, segs, nil)
}

// Partition implements PARTITION TABLE: split a table's tuples into two
// tables with the same schema according to a predicate. The predicate is
// evaluated once per distinct value into a mask bitmap; both outputs are
// then produced by bitmap filtering with the mask and its complement.
//
// Partition is segment-wise by construction: predicate evaluation runs
// against each segment's local dictionaries (Table.EqBitmap and
// ScanWhereBitmap concatenate per-segment results) and FilterRows slices
// the mask along segment boundaries, emitting one output segment per
// input segment that contributes rows.
func Partition(t *colstore.Table, condition string, outYes, outNo string, opt Options) (yes, no *colstore.Table, err error) {
	pred, err := expr.Parse(condition)
	if err != nil {
		return nil, nil, err
	}
	opt.trace(fmt.Sprintf("partition: evaluating %s against %d segments' local dictionaries", pred, t.NumSegments()))
	mask, err := pred.Eval(t)
	if err != nil {
		return nil, nil, err
	}
	opt.trace(fmt.Sprintf("partition: filtering %d rows into %s, %d into %s segment-wise", mask.Count(), outYes, mask.Len()-mask.Count(), outNo))
	yes, err = t.FilterRows(outYes, mask)
	if err != nil {
		return nil, nil, err
	}
	no, err = t.FilterRows(outNo, mask.Not())
	if err != nil {
		return nil, nil, err
	}
	return yes, no, nil
}

// AddColumnValues implements ADD COLUMN with explicit per-row data loaded
// from user input (paper Table 1). values must have one entry per row.
func AddColumnValues(t *colstore.Table, name string, values []string, opt Options) (*colstore.Table, error) {
	if uint64(len(values)) != t.NumRows() {
		return nil, fmt.Errorf("evolve: add column %q: %d values for %d rows", name, len(values), t.NumRows())
	}
	opt.trace(fmt.Sprintf("add column: building bitmap index for %q", name))
	return t.WithColumnAdded(colstore.NewColumnFromValues(name, values))
}

// AddColumnDefault implements ADD COLUMN with a default value: the new
// column is a single all-ones fill bitmap, constructed in O(1) regardless
// of row count.
func AddColumnDefault(t *colstore.Table, name, defaultValue string, opt Options) (*colstore.Table, error) {
	opt.trace(fmt.Sprintf("add column: single fill vector for default %q", defaultValue))
	bm := wah.New()
	bm.AppendRun(1, t.NumRows())
	col, err := colstore.NewColumnFromBitmaps(name, []string{defaultValue}, []*wah.Bitmap{bm}, t.NumRows())
	if err != nil {
		return nil, err
	}
	if t.NumRows() == 0 {
		// An empty table still needs the column object.
		col = colstore.NewColumnFromValues(name, nil)
	}
	return t.WithColumnAdded(col)
}

// DropColumn implements DROP COLUMN: the column object and its bitmaps are
// dropped; no other column is touched.
func DropColumn(t *colstore.Table, name string, opt Options) (*colstore.Table, error) {
	opt.trace(fmt.Sprintf("drop column: removing %q", name))
	return t.WithColumnDropped(name)
}

// Copy implements COPY TABLE. Columns are immutable, so a copy shares all
// column data with the source — constant time. It cannot currently fail,
// but carries the same fallible signature as every other operator so the
// engine's dispatch needs no special case.
func Copy(t *colstore.Table, outName string, opt Options) (*colstore.Table, error) {
	opt.trace(fmt.Sprintf("copy: sharing %s's columns as %s", t.Name(), outName))
	return t.WithName(outName), nil
}
