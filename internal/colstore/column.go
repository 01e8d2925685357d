// Package colstore implements the bitmap-indexed column store that CODS
// operates on. Each column is stored as a value dictionary plus one
// WAH-compressed bitmap per distinct value — the paper's v×r bitmap matrix
// (§2.2).
//
// A Table is an ordered list of immutable segments behind a manifest.
// Each Segment is a horizontal row slice holding its own columns (own
// dictionaries, own bitmaps); the manifest's running row offsets stitch
// the segments into one logical row space, and every read primitive
// (paging, point/scan bitmaps, filtered copies, stitched column views)
// crosses segment boundaries transparently. The split exists for the
// write path: sealing an appended tail into a new segment is O(tail)
// regardless of table size, where a monolithic rebuild would be
// O(table). MergeTailPlan/CompactSegments implement the tiered merge
// policy that keeps the segment count logarithmic in return.
//
// Columns and segments are immutable once constructed. Schema evolution
// never mutates them in place; it either reuses the objects in a new
// table (Property 1 of §2.4: the unchanged decomposition output is
// created "right away using the existing columns ... without any data
// operation") or builds new ones from compressed inputs.
//
// Two primitives serve the segment-wise evolution path (internal/evolve):
// Column.RemapInto interns one segment's dictionary into a shared union
// dictionary and returns the local-id → union-id mapping, so per-value
// WAH bitmaps can be re-keyed under a global dictionary without being
// decoded (the same kernel the lazy whole-table stitch uses); and
// SegmentBuilder assembles an output segment column by column, sharing
// input columns by pointer where an operator reuses them and accepting
// freshly filtered bitmaps where it does not.
package colstore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cods/internal/dict"
	"cods/internal/par"
	"cods/internal/wah"
)

// Encoding identifies the physical representation of a column.
type Encoding int

// EncodingBitmap stores one WAH bitmap per distinct value — the only
// encoding, used by every evolution algorithm and query path.
const EncodingBitmap Encoding = 0

func (e Encoding) String() string {
	if e == EncodingBitmap {
		return "bitmap"
	}
	return fmt.Sprintf("Encoding(%d)", int(e))
}

// Column is one attribute of a table. Immutable after construction
// (enforced by codslint).
//
// cods:immutable
type Column struct {
	name    string
	dict    *dict.Dict
	bitmaps []*wah.Bitmap // indexed by value id
	nrows   uint64
}

// Name returns the column's attribute name.
func (c *Column) Name() string { return c.name }

// Encoding returns the physical encoding, always EncodingBitmap.
func (c *Column) Encoding() Encoding { return EncodingBitmap }

// NumRows returns the number of rows the column covers.
func (c *Column) NumRows() uint64 { return c.nrows }

// DistinctCount returns the number of distinct values.
func (c *Column) DistinctCount() int { return c.dict.Len() }

// Dict returns the column's dictionary. Callers must treat it as
// read-only.
func (c *Column) Dict() *dict.Dict { return c.dict }

// Renamed returns a column identical to c but with a new attribute name.
// The underlying data is shared, which makes RENAME COLUMN a metadata-only
// operation.
func (c *Column) Renamed(name string) *Column {
	cc := *c
	cc.name = name
	return &cc
}

// BitmapForID returns the bitmap of the value with the given dictionary
// id. The returned bitmap is shared; callers must not mutate it.
func (c *Column) BitmapForID(id uint32) *wah.Bitmap {
	return c.bitmaps[id]
}

// BitmapFor returns the bitmap of rows holding the given value, or an
// all-zeros bitmap when the value does not occur.
func (c *Column) BitmapFor(value string) *wah.Bitmap {
	if id := c.dict.Lookup(value); id != dict.NoID {
		return c.bitmaps[id]
	}
	empty := wah.New()
	empty.Extend(c.nrows)
	return empty
}

// RowIDs materializes the column into a row-wise value-id slice. This is a
// decompression step: evolution algorithms use it only where the paper's
// algorithms require row-order access (sequential scans in mergence), never
// to rebuild indexes.
func (c *Column) RowIDs() []uint32 {
	out := make([]uint32, c.nrows)
	for id, bm := range c.bitmaps {
		id32 := uint32(id)
		bm.Ones(func(p uint64) bool {
			out[p] = id32
			return true
		})
	}
	return out
}

// RowIDRange materializes value ids for the rows [start, end) only, the
// page-sized counterpart of RowIDs: the allocation is proportional to the
// page, and decoding stops at end instead of walking every set bit, so
// early pages over a big table cost O(end), not O(table). Decoding still
// scans compressed words from row 0 up to end (WAH has no position index
// to seek by), so a page deep in the table costs O(end) per column.
func (c *Column) RowIDRange(start, end uint64) []uint32 {
	if end > c.nrows {
		end = c.nrows
	}
	if start >= end {
		return nil
	}
	out := make([]uint32, end-start)
	for id, bm := range c.bitmaps {
		id32 := uint32(id)
		bm.Ones(func(p uint64) bool {
			if p >= end {
				return false
			}
			if p >= start {
				out[p-start] = id32
			}
			return true
		})
	}
	return out
}

// ValueAt returns the value stored at the given row. Cost is O(distinct ·
// words); intended for display and tests, not bulk access (use RowIDs).
func (c *Column) ValueAt(row uint64) (string, error) {
	if row >= c.nrows {
		return "", fmt.Errorf("colstore: row %d out of range in column %q (%d rows)", row, c.name, c.nrows)
	}
	for id, bm := range c.bitmaps {
		if bm.Get(row) {
			return c.dict.Value(uint32(id)), nil
		}
	}
	return "", fmt.Errorf("colstore: column %q has no value at row %d", c.name, row)
}

// EqScan returns the bitmap of rows where the column equals value.
func (c *Column) EqScan(value string) *wah.Bitmap {
	bm := c.BitmapFor(value).Clone()
	bm.Extend(c.nrows)
	return bm
}

// ScanWhere returns the bitmap of rows whose value satisfies pred. The
// predicate is evaluated once per distinct value, not per row — the
// bitmap-index advantage. The per-value predicate calls fan out over a
// worker pool and the selected bitmaps are OR-accumulated with a parallel
// tree merge, so pred must be safe for concurrent calls.
func (c *Column) ScanWhere(pred func(value string) bool) *wah.Bitmap {
	match := make([]bool, len(c.bitmaps))
	par.ForEachIndexed(len(c.bitmaps), 0, func(id int) {
		match[id] = pred(c.dict.Value(uint32(id)))
	})
	var selected []*wah.Bitmap
	for id, m := range match {
		if m {
			selected = append(selected, c.bitmaps[id])
		}
	}
	out := wah.OrAllP(selected, 0)
	out.Extend(c.nrows)
	return out
}

// Validate checks the column's structural invariants: every row has
// exactly one value (per-value bitmaps are disjoint and complete) and the
// dictionary matches the bitmap set.
func (c *Column) Validate() error {
	if len(c.bitmaps) != c.dict.Len() {
		return fmt.Errorf("colstore: column %q has %d bitmaps for %d dictionary entries", c.name, len(c.bitmaps), c.dict.Len())
	}
	var total uint64
	for id, bm := range c.bitmaps {
		if err := bm.Validate(); err != nil {
			return fmt.Errorf("colstore: column %q value %d: %w", c.name, id, err)
		}
		if bm.Len() > c.nrows {
			return fmt.Errorf("colstore: column %q value %d bitmap longer than table (%d > %d)", c.name, id, bm.Len(), c.nrows)
		}
		total += bm.Count()
	}
	if total != c.nrows {
		return fmt.Errorf("colstore: column %q bitmaps cover %d rows, table has %d", c.name, total, c.nrows)
	}
	// Disjointness: pairwise ANDs would be quadratic; OR counting is
	// equivalent given the total matches.
	all := make([]*wah.Bitmap, len(c.bitmaps))
	copy(all, c.bitmaps)
	if got := wah.OrAll(all).Count(); got != c.nrows {
		return fmt.Errorf("colstore: column %q bitmaps overlap (union %d != %d rows)", c.name, got, c.nrows)
	}
	return nil
}

// CompressedSizeBytes returns the approximate storage footprint of the
// column's compressed bitmaps (excluding the dictionary).
func (c *Column) CompressedSizeBytes() uint64 {
	var total uint64
	for _, bm := range c.bitmaps {
		total += bm.SizeBytes()
	}
	return total
}

// CompareValues totally orders two column values: -1, 0 or 1 as a sorts
// before, equal to, or after b. Values that parse as 64-bit integers
// order numerically and before every non-integer value; non-integers
// order lexicographically. This is the one value order of the whole
// system — the predicate language (expr.Compare delegates here), ORDER
// BY, MIN/MAX and RangeScan all share it, so no two layers can disagree
// about which of two values is smaller. It lives in colstore because
// every higher layer already depends on this package.
func CompareValues(a, b string) int {
	ai, aerr := strconv.ParseInt(a, 10, 64)
	bi, berr := strconv.ParseInt(b, 10, 64)
	switch {
	case aerr == nil && berr == nil:
		switch {
		case ai < bi:
			return -1
		case ai > bi:
			return 1
		}
		return 0
	case aerr == nil:
		return -1
	case berr == nil:
		return 1
	}
	return strings.Compare(a, b)
}

// RangeScan returns the bitmap of rows whose value lies in [lo, hi]
// (inclusive bounds; an empty bound is unbounded on that side), under
// the CompareValues total order. Like all index scans, the predicate is
// decided once per distinct value; the row-level work is a compressed OR
// over the qualifying values' bitmaps.
func (c *Column) RangeScan(lo, hi string) *wah.Bitmap {
	ids := c.sortValues()
	// Binary-search the sorted value order for the qualifying id range.
	start := 0
	if lo != "" {
		start = sort.Search(len(ids), func(i int) bool { return CompareValues(c.dict.Value(ids[i]), lo) >= 0 })
	}
	end := len(ids)
	if hi != "" {
		end = sort.Search(len(ids), func(i int) bool { return CompareValues(c.dict.Value(ids[i]), hi) > 0 })
	}
	if start >= end {
		out := wah.New()
		out.Extend(c.nrows)
		return out
	}
	selected := make([]*wah.Bitmap, 0, end-start)
	for _, id := range ids[start:end] {
		selected = append(selected, c.bitmaps[id])
	}
	out := wah.OrAll(selected)
	out.Extend(c.nrows)
	return out
}

// sortValues returns value ids in the CompareValues total order — the
// sorted order RangeScan's binary search requires. A sort predicate
// disagreeing with the search comparator (the old numeric-vs-lex split)
// would make the search non-monotonic on mixed values. Each value is
// parsed once up front, not once per comparison.
func (c *Column) sortValues() []uint32 {
	type key struct {
		isInt bool
		n     int64
	}
	keys := make([]key, c.dict.Len())
	for i := range keys {
		n, err := strconv.ParseInt(c.dict.Value(uint32(i)), 10, 64)
		keys[i] = key{err == nil, n}
	}
	ids := make([]uint32, c.dict.Len())
	for i := range ids {
		ids[i] = uint32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		ka, kb := keys[ids[a]], keys[ids[b]]
		switch {
		case ka.isInt && kb.isInt:
			return ka.n < kb.n
		case ka.isInt:
			return true
		case kb.isInt:
			return false
		}
		return c.dict.Value(ids[a]) < c.dict.Value(ids[b])
	})
	return ids
}
