package colstore

import (
	"fmt"

	"cods/internal/dict"
	"cods/internal/par"
	"cods/internal/wah"
)

// ColumnBuilder constructs a bitmap-encoded column by appending values in
// row order. Appends go straight into per-value compressed builders; the
// uncompressed column never exists.
type ColumnBuilder struct {
	name    string
	dict    *dict.Dict
	bitmaps []*wah.Bitmap
	nrows   uint64
}

// NewColumnBuilder returns a builder for a column with the given name.
func NewColumnBuilder(name string) *ColumnBuilder {
	return &ColumnBuilder{name: name, dict: dict.New()}
}

// NewColumnBuilderWithDict returns a builder that shares value ids with an
// existing dictionary (snapshotted). Evolution algorithms use this to
// carry source-table ids into output columns without re-interning.
func NewColumnBuilderWithDict(name string, d *dict.Dict) *ColumnBuilder {
	b := &ColumnBuilder{name: name, dict: d.Clone()}
	b.bitmaps = make([]*wah.Bitmap, b.dict.Len())
	for i := range b.bitmaps {
		b.bitmaps[i] = wah.New()
	}
	return b
}

// Append adds one row with the given value.
func (b *ColumnBuilder) Append(value string) {
	b.AppendID(b.Intern(value))
}

// Intern returns the value id for value, extending the dictionary as
// needed, without appending a row.
func (b *ColumnBuilder) Intern(value string) uint32 {
	id := b.dict.Intern(value)
	for uint32(len(b.bitmaps)) <= id {
		b.bitmaps = append(b.bitmaps, wah.New())
	}
	return id
}

// AppendID adds one row with a value id previously returned by Intern (or
// valid in the shared dictionary).
func (b *ColumnBuilder) AppendID(id uint32) {
	b.bitmaps[id].Add(b.nrows)
	b.nrows++
}

// AppendRunID adds count consecutive rows holding the same value id.
func (b *ColumnBuilder) AppendRunID(id uint32, count uint64) {
	if count == 0 {
		return
	}
	bm := b.bitmaps[id]
	bm.Extend(b.nrows)
	bm.AppendRun(1, count)
	b.nrows += count
}

// NumRows returns the number of rows appended so far.
func (b *ColumnBuilder) NumRows() uint64 { return b.nrows }

// Finish seals the builder into an immutable Column, dropping dictionary
// entries whose bitmaps are empty (values that did not survive evolution,
// §2.4) and padding all bitmaps to the row count.
func (b *ColumnBuilder) Finish() *Column {
	outDict := dict.New()
	var outBitmaps []*wah.Bitmap
	for id, bm := range b.bitmaps {
		if !bm.Any() {
			continue
		}
		bm.Extend(b.nrows)
		outDict.Intern(b.dict.Value(uint32(id)))
		outBitmaps = append(outBitmaps, bm)
	}
	return &Column{name: b.name, dict: outDict, bitmaps: outBitmaps, nrows: b.nrows}
}

// NewColumnFromValues builds a bitmap column from explicit row values.
func NewColumnFromValues(name string, values []string) *Column {
	b := NewColumnBuilder(name)
	for _, v := range values {
		b.Append(v)
	}
	return b.Finish()
}

// NewColumnFromBitmaps assembles a column directly from per-value bitmaps
// produced by an evolution algorithm. values[i] names the value of
// bitmaps[i]. Empty bitmaps are dropped. nrows fixes the column length.
func NewColumnFromBitmaps(name string, values []string, bitmaps []*wah.Bitmap, nrows uint64) (*Column, error) {
	if len(values) != len(bitmaps) {
		return nil, fmt.Errorf("colstore: %d values for %d bitmaps", len(values), len(bitmaps))
	}
	d := dict.New()
	var out []*wah.Bitmap
	for i, bm := range bitmaps {
		if bm == nil || !bm.Any() {
			continue
		}
		if bm.Len() > nrows {
			return nil, fmt.Errorf("colstore: bitmap for %q has %d bits, table has %d rows", values[i], bm.Len(), nrows)
		}
		if prev := d.Len(); d.Intern(values[i]) != uint32(prev) {
			return nil, fmt.Errorf("colstore: duplicate value %q", values[i])
		}
		bm.Extend(nrows)
		out = append(out, bm)
	}
	return &Column{name: name, dict: d, bitmaps: out, nrows: nrows}, nil
}

// TableBuilder constructs a table by appending whole rows.
type TableBuilder struct {
	name     string
	key      []string
	builders []*ColumnBuilder
	nrows    uint64
}

// NewTableBuilder returns a builder for a table with the given column
// names. key lists the primary-key attribute names (may be empty).
func NewTableBuilder(name string, columns []string, key []string) (*TableBuilder, error) {
	if len(columns) == 0 {
		return nil, fmt.Errorf("colstore: table %q needs at least one column", name)
	}
	seen := make(map[string]bool, len(columns))
	for _, c := range columns {
		if c == "" {
			return nil, fmt.Errorf("colstore: table %q has an empty column name", name)
		}
		if seen[c] {
			return nil, fmt.Errorf("colstore: table %q declares column %q twice", name, c)
		}
		seen[c] = true
	}
	for _, k := range key {
		if !seen[k] {
			return nil, fmt.Errorf("colstore: table %q key column %q not in schema", name, k)
		}
	}
	tb := &TableBuilder{name: name, key: append([]string(nil), key...)}
	for _, c := range columns {
		tb.builders = append(tb.builders, NewColumnBuilder(c))
	}
	return tb, nil
}

// AppendRow adds one row; values must match the declared column order.
func (tb *TableBuilder) AppendRow(values []string) error {
	if len(values) != len(tb.builders) {
		return fmt.Errorf("colstore: row has %d values, table %q has %d columns", len(values), tb.name, len(tb.builders))
	}
	for i, v := range values {
		tb.builders[i].Append(v)
	}
	tb.nrows++
	return nil
}

// NumRows returns the number of rows appended so far.
func (tb *TableBuilder) NumRows() uint64 { return tb.nrows }

// Finish seals the builder into a Table. Column sealing (dropping empty
// values, padding bitmaps, rebuilding dictionaries) is independent per
// column, so it fans out over a worker pool.
func (tb *TableBuilder) Finish() (*Table, error) {
	cols := make([]*Column, len(tb.builders))
	par.ForEachIndexed(len(tb.builders), 0, func(i int) {
		cols[i] = tb.builders[i].Finish()
	})
	return NewTable(tb.name, cols, tb.key)
}
