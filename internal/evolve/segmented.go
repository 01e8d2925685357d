package evolve

import (
	"fmt"
	"strings"

	"cods/internal/colstore"
	"cods/internal/dict"
)

// This file holds the shared plumbing of segment-wise evolution: helpers
// that replace a whole-table bitmap stitch with a per-segment map phase
// plus a dictionary-union merge phase (colstore's RemapInto kernel). Each
// operator's own map/merge split lives in decompose.go, merge.go and
// generalmerge.go.

// segmentOffsets returns the starting global row of each segment.
func segmentOffsets(segs []*colstore.Segment) []uint64 {
	offs := make([]uint64, len(segs))
	var off uint64
	for i, s := range segs {
		offs[i] = off
		off += s.NumRows()
	}
	return offs
}

// rowIDsRemapped decodes column cn of every segment and re-keys the local
// value ids under a cross-segment union dictionary: the returned slice
// holds one global value id per row, and the returned dictionary lists
// values in first-seen segment order — exactly the dictionary a full
// stitch of the column would produce, but without concatenating a single
// bitmap. The dictionary union is sequential (dictionaries are not safe
// for concurrent mutation); the per-segment decodes fan out.
func rowIDsRemapped(t *colstore.Table, cn string, opt Options) ([]uint32, *dict.Dict, error) {
	segs := t.Segments()
	offs := segmentOffsets(segs)
	d := dict.New()
	cols := make([]*colstore.Column, len(segs))
	mappings := make([][]uint32, len(segs))
	for i, s := range segs {
		c, err := s.Column(cn)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = c
		mappings[i] = c.RemapInto(d)
	}
	out := make([]uint32, t.NumRows())
	opt.forEach(len(segs), func(i int) {
		m, off := mappings[i], offs[i]
		for r, id := range cols[i].RowIDs() {
			out[off+uint64(r)] = m[id]
		}
	})
	return out, d, nil
}

// keyedBySegmented reports whether the given columns form a candidate key
// of t without stitching: a single attribute is a key iff the
// cross-segment dictionary union (RemapInto, O(distinct) per segment) has
// exactly one value per row; composite keys build the value index with a
// duplicate check.
func keyedBySegmented(t *colstore.Table, columns []string) bool {
	if len(columns) == 1 {
		d := dict.New()
		for _, s := range t.Segments() {
			c, err := s.Column(columns[0])
			if err != nil {
				return false
			}
			c.RemapInto(d)
		}
		return uint64(d.Len()) == t.NumRows()
	}
	_, err := segRowIndex(t, columns)
	return err == nil
}

// segRowIndex maps each value tuple of the given columns to its global
// row, built segment by segment with offset restitching, failing on
// duplicates (the columns must be a key). Keys are value-based — local
// dictionary ids are not comparable across segments — in the same
// NUL-joined format for single and composite attributes.
func segRowIndex(t *colstore.Table, columns []string) (map[string]uint64, error) {
	idx := make(map[string]uint64, t.NumRows())
	var off uint64
	for _, s := range t.Segments() {
		if len(columns) == 1 {
			c, err := s.Column(columns[0])
			if err != nil {
				return nil, err
			}
			for id := 0; id < c.DistinctCount(); id++ {
				v := c.Dict().Value(uint32(id))
				pos, ok := c.BitmapForID(uint32(id)).FirstOne()
				if !ok {
					continue
				}
				k := v + "\x00"
				if _, dup := idx[k]; dup {
					return nil, fmt.Errorf("evolve: %v is not a key of %s: duplicate %q", columns, t.Name(), v)
				}
				idx[k] = off + pos
			}
		} else {
			ids := make([][]uint32, len(columns))
			dicts := make([]func(uint32) string, len(columns))
			for i, cn := range columns {
				c, err := s.Column(cn)
				if err != nil {
					return nil, err
				}
				ids[i] = c.RowIDs()
				dicts[i] = c.Dict().Value
			}
			var kb strings.Builder
			for row := uint64(0); row < s.NumRows(); row++ {
				kb.Reset()
				for i := range ids {
					kb.WriteString(dicts[i](ids[i][row]))
					kb.WriteByte(0)
				}
				k := kb.String()
				if _, dup := idx[k]; dup {
					return nil, fmt.Errorf("evolve: %v is not a key of %s: duplicate %q", columns, t.Name(), strings.ReplaceAll(strings.TrimSuffix(k, "\x00"), "\x00", ","))
				}
				idx[k] = off + row
			}
		}
		off += s.NumRows()
	}
	return idx, nil
}

// valuePositions returns, for every value of column cn under a
// cross-segment union dictionary, the ascending global row positions
// holding it: each segment decodes its local per-value position lists
// independently (map), then the lists are restitched at segment offsets
// in union-dictionary id order (merge). The id order equals the stitched
// column's dictionary order by construction.
func valuePositions(t *colstore.Table, cn string, opt Options) ([][]uint64, *dict.Dict, error) {
	segs := t.Segments()
	offs := segmentOffsets(segs)
	d := dict.New()
	cols := make([]*colstore.Column, len(segs))
	mappings := make([][]uint32, len(segs))
	for i, s := range segs {
		c, err := s.Column(cn)
		if err != nil {
			return nil, nil, err
		}
		cols[i] = c
		mappings[i] = c.RemapInto(d)
	}
	locals := make([][][]uint64, len(segs))
	opt.forEach(len(segs), func(i int) {
		lp := make([][]uint64, cols[i].DistinctCount())
		for id := range lp {
			ps := cols[i].BitmapForID(uint32(id)).AppendPositionsTo(nil)
			for j := range ps {
				ps[j] += offs[i]
			}
			lp[id] = ps
		}
		locals[i] = lp
	})
	out := make([][]uint64, d.Len())
	for i := range segs {
		for id, ps := range locals[i] {
			g := mappings[i][id]
			out[g] = append(out[g], ps...)
		}
	}
	return out, d, nil
}
