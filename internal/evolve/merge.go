package evolve

import (
	"errors"
	"fmt"
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
// The map phase handles one fact segment at a time: its columns are
// adopted verbatim (zero copy, even on multi-segment fact tables) and the
// dimension's non-key columns are generated from the segment's local key
// bitmaps. The merge phase is the dimension-side preparation shared by
// all map tasks: the key → row index and a cross-segment union dictionary
// per generated column (RemapInto). One output segment per fact segment,
// so the output keeps the fact side's row order.
func MergeKeyFK(s, t *colstore.Table, outName string, opt Options) (*MergeResult, error) {
	common, err := commonColumns(s, t)
	if err != nil {
		return nil, err
	}
	fact, dim := s, t
	if !keyedBySegmented(t, common) {
		if !keyedBySegmented(s, common) {
			return nil, fmt.Errorf("%w (common: %v)", ErrNotKeyFK, common)
		}
		fact, dim = t, s
	}
	factSegs := fact.Segments()
	opt.trace(fmt.Sprintf("mergence map: %d fact segments of %s adopt their columns unchanged; %s's non-key columns generated per segment", len(factSegs), fact.Name(), dim.Name()))

	dimIndex, err := segRowIndex(dim, common)
	if err != nil {
		return nil, err
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
		seg, err := mergeKeyFKSegment(factSegs[i], fact.Name(), dim.Name(), schema, common, gen, genIDs, genDicts, dimIndex, opt)
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

// factGroup associates the bitmap of all fact rows sharing one key value
// with the dimension row holding that key.
type factGroup struct {
	factBitmap *wah.Bitmap
	dimRow     uint64
}

func commonColumns(s, t *colstore.Table) ([]string, error) {
	common := intersect(s.ColumnNames(), t.ColumnNames())
	if len(common) == 0 {
		return nil, fmt.Errorf("evolve: tables %q and %q share no attributes to join on", s.Name(), t.Name())
	}
	return common, nil
}

// mergeKeyFKSegment builds one output segment from one fact segment: the
// fact columns are shared verbatim and each generated dimension column is
// the OR-combination of this segment's local key bitmaps, grouped by the
// dimension value they join to.
func mergeKeyFKSegment(fs *colstore.Segment, factName, dimName string, schema, common, gen []string, genIDs [][]uint32, genDicts []*dict.Dict, dimIndex map[string]uint64, opt Options) (*colstore.Segment, error) {
	groups, err := localFactGroups(fs, factName, dimName, common, dimIndex)
	if err != nil {
		return nil, err
	}
	sb := colstore.NewSegmentBuilder(schema)
	for ci := 0; ci < fs.NumColumns(); ci++ {
		if err := sb.SetShared(ci, fs.ColumnAt(ci)); err != nil {
			return nil, err
		}
	}
	for gi := range gen {
		d, ids := genDicts[gi], genIDs[gi]
		grouped := make([][]*wah.Bitmap, d.Len())
		for _, g := range groups {
			u := ids[g.dimRow]
			grouped[u] = append(grouped[u], g.factBitmap)
		}
		values := make([]string, d.Len())
		bitmaps := make([]*wah.Bitmap, d.Len())
		opt.forEach(d.Len(), func(u int) {
			values[u] = d.Value(uint32(u))
			if len(grouped[u]) == 0 {
				return
			}
			bm := wah.OrAll(grouped[u])
			bm.Extend(fs.NumRows())
			bitmaps[u] = bm
		})
		if err := sb.SetFromBitmaps(fs.NumColumns()+gi, values, bitmaps, fs.NumRows()); err != nil {
			return nil, err
		}
	}
	return sb.Finish()
}

// localFactGroups builds one factGroup per referenced dimension row from
// a single fact segment: factBitmap positions are segment-local, dimRow
// is global. A fact value missing from the dimension index is a
// foreign-key violation.
func localFactGroups(fs *colstore.Segment, factName, dimName string, common []string, dimIndex map[string]uint64) ([]factGroup, error) {
	if len(common) == 1 {
		factKey, err := fs.Column(common[0])
		if err != nil {
			return nil, err
		}
		groups := make([]factGroup, factKey.DistinctCount())
		for id := 0; id < factKey.DistinctCount(); id++ {
			value := factKey.Dict().Value(uint32(id))
			dimRow, ok := dimIndex[value+"\x00"]
			if !ok {
				return nil, fmt.Errorf("evolve: foreign-key violation: %s value %q of %s has no match in %s", common[0], value, factName, dimName)
			}
			groups[id] = factGroup{factBitmap: factKey.BitmapForID(uint32(id)), dimRow: dimRow}
		}
		return groups, nil
	}
	ids := make([][]uint32, len(common))
	dicts := make([]func(uint32) string, len(common))
	for i, cn := range common {
		c, err := fs.Column(cn)
		if err != nil {
			return nil, err
		}
		ids[i] = c.RowIDs()
		dicts[i] = c.Dict().Value
	}
	builders := make(map[uint64]*wah.Bitmap)
	var order []uint64
	var kb strings.Builder
	for row := uint64(0); row < fs.NumRows(); row++ {
		kb.Reset()
		for i := range ids {
			kb.WriteString(dicts[i](ids[i][row]))
			kb.WriteByte(0)
		}
		dimRow, ok := dimIndex[kb.String()]
		if !ok {
			return nil, fmt.Errorf("evolve: foreign-key violation: %s row %d has no match in %s on %v", factName, row, dimName, common)
		}
		bm := builders[dimRow]
		if bm == nil {
			bm = wah.New()
			builders[dimRow] = bm
			order = append(order, dimRow)
		}
		bm.Add(row)
	}
	groups := make([]factGroup, 0, len(order))
	for _, dr := range order {
		groups = append(groups, factGroup{factBitmap: builders[dr], dimRow: dr})
	}
	return groups, nil
}
