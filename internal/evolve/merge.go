package evolve

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"cods/internal/colstore"
	"cods/internal/dict"
	"cods/internal/wah"
)

// ErrNotKeyFK reports that neither input of a mergence is keyed by the
// common attributes, so the key–foreign-key algorithm does not apply and
// the general two-pass algorithm must be used.
var ErrNotKeyFK = errors.New("evolve: common attributes are not a key of either input")

// MergeResult carries the merged table and which input's columns were
// reused unchanged ("" for general mergence, where neither is reusable).
type MergeResult struct {
	Table  *colstore.Table
	Reused string
}

// Merge joins s and t on their common attributes into a single table
// (MERGE TABLES, paper §2.5). It applies the key–foreign-key algorithm
// when the common attributes form a key of one input and falls back to the
// general two-pass algorithm otherwise.
func Merge(s, t *colstore.Table, outName string, opt Options) (*MergeResult, error) {
	res, err := MergeKeyFK(s, t, outName, opt)
	if errors.Is(err, ErrNotKeyFK) {
		var tab *colstore.Table
		tab, err = MergeGeneral(s, t, outName, opt)
		if err != nil {
			return nil, err
		}
		return &MergeResult{Table: tab}, nil
	}
	return res, err
}

// MergeKeyFK performs key–foreign-key based mergence (paper §2.5.1). The
// common attributes of s and t must form a key of one input (the
// dimension); the other input (the fact side) has its columns reused
// verbatim, and each non-key dimension attribute is reconstructed as
// compressed OR combinations of the fact side's key bitmap vectors.
//
// Every fact key value must exist in the dimension (foreign-key
// integrity); a dangling reference is an error rather than a silent row
// drop, because dropped rows would make the fact columns non-reusable.
//
// The dimension is grouped once by the common attributes: that one pass
// is both the key test (one group per row) and the row index (each
// group's first row is its dimension row). The map phase handles one fact
// segment at a time: its columns are adopted verbatim (zero copy, even on
// multi-segment fact tables), its rows are looked up against the
// dimension's groups, and each non-key dimension column is generated as
// OR combinations of the segment's group bitmaps. The dimension's
// generated columns share a cross-segment union dictionary each
// (RemapInto). One output segment per fact segment, so the output keeps
// the fact side's row order.
func MergeKeyFK(s, t *colstore.Table, outName string, opt Options) (*MergeResult, error) {
	common, err := commonColumns(s, t)
	if err != nil {
		return nil, err
	}
	fact, dim := s, t
	keys, err := keyGrouping(dim, common)
	if err == nil && keys == nil {
		fact, dim = t, s
		keys, err = keyGrouping(dim, common)
	}
	if err != nil {
		return nil, err
	}
	if keys == nil {
		return nil, fmt.Errorf("%w (common: %v)", ErrNotKeyFK, common)
	}
	factSegs := fact.Segments()
	opt.trace(fmt.Sprintf("mergence map: %d fact segments of %s adopt their columns unchanged; %s's non-key columns generated per segment", len(factSegs), fact.Name(), dim.Name()))

	groups, err := keys.Find(fact)
	if err != nil {
		return nil, err
	}
	for i, off := range segmentOffsets(factSegs) {
		if groups[i].Miss < 0 {
			continue
		}
		row, err := fact.Row(off + uint64(groups[i].Miss))
		if err != nil {
			return nil, err
		}
		vals := make([]string, len(common))
		for j, cn := range common {
			vals[j] = strconv.Quote(row[slices.Index(fact.ColumnNames(), cn)])
		}
		return nil, fmt.Errorf("evolve: foreign-key violation: %s value %s of %s has no match in %s", strings.Join(common, ", "), strings.Join(vals, ", "), fact.Name(), dim.Name())
	}

	gen := minus(dim.ColumnNames(), common)
	genIDs := make([][]uint32, len(gen))
	genDicts := make([]*dict.Dict, len(gen))
	for i, cn := range gen {
		ids, d, err := rowIDsRemapped(dim, cn, opt)
		if err != nil {
			return nil, err
		}
		genIDs[i], genDicts[i] = ids, d
	}
	schema := append(fact.ColumnNames(), gen...)

	outSegs := make([]*colstore.Segment, len(factSegs))
	if err := opt.forEachErr(len(factSegs), func(i int) error {
		seg, err := mergeKeyFKSegment(factSegs[i], groups[i], keys, schema, gen, genIDs, genDicts, opt)
		outSegs[i] = seg
		return err
	}); err != nil {
		return nil, err
	}
	out, err := colstore.NewSegmented(outName, schema, outSegs, fact.Key())
	if err != nil {
		return nil, err
	}
	return &MergeResult{Table: out, Reused: fact.Name()}, nil
}

// keyGrouping groups t by columns, returning nil when they are not a key
// of t, that is, when some group holds more than one row.
func keyGrouping(t *colstore.Table, columns []string) (*colstore.Grouping, error) {
	g, err := colstore.Group(t, columns)
	if err != nil || uint64(g.Len()) != t.NumRows() {
		return nil, err
	}
	return g, nil
}

func commonColumns(s, t *colstore.Table) ([]string, error) {
	common := intersect(s.ColumnNames(), t.ColumnNames())
	if len(common) == 0 {
		return nil, fmt.Errorf("evolve: tables %q and %q share no attributes to join on", s.Name(), t.Name())
	}
	return common, nil
}

// mergeKeyFKSegment builds one output segment from one fact segment and
// its dimension groups: the fact columns are shared verbatim and each
// generated dimension column is the OR-combination of the segment's
// group bitmaps, grouped by the dimension value they join to.
func mergeKeyFKSegment(fs *colstore.Segment, groups colstore.SegmentGroups, keys *colstore.Grouping, schema, gen []string, genIDs [][]uint32, genDicts []*dict.Dict, opt Options) (*colstore.Segment, error) {
	sb := colstore.NewSegmentBuilder(schema)
	for ci := 0; ci < fs.NumColumns(); ci++ {
		if err := sb.SetShared(ci, fs.ColumnAt(ci)); err != nil {
			return nil, err
		}
	}
	for gi := range gen {
		d, ids := genDicts[gi], genIDs[gi]
		grouped := make([][]*wah.Bitmap, d.Len())
		for k, g := range groups.Groups {
			u := ids[keys.First(g)]
			grouped[u] = append(grouped[u], groups.Rows[k])
		}
		bitmaps := make([]*wah.Bitmap, d.Len())
		opt.forEach(d.Len(), func(u int) {
			if len(grouped[u]) == 0 {
				return
			}
			bm := wah.OrAll(grouped[u])
			bm.Extend(fs.NumRows())
			bitmaps[u] = bm
		})
		if err := sb.SetFromBitmaps(fs.NumColumns()+gi, d.Values(), bitmaps, fs.NumRows()); err != nil {
			return nil, err
		}
	}
	return sb.Finish()
}
