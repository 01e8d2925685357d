package evolve

import (
	"cods/internal/colstore"
	"cods/internal/dict"
)

// This file holds the shared plumbing of segment-wise evolution: segment
// offsets and the decode of a non-key column under a cross-segment union
// dictionary (colstore's RemapInto kernel). Grouping rows by key values
// is colstore.Group; each operator's use of it lives in decompose.go,
// merge.go and generalmerge.go.

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
