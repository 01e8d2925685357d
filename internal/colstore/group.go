package colstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"cods/internal/dict"
	"cods/internal/par"
	"cods/internal/wah"
)

// Grouping is the key-grouping kernel behind every decision that groups
// rows by the values of a list of key columns: DECOMPOSE's distinction
// and functional-dependency check, both mergences' join keys, and
// ValidateKey. Group numbers the distinct value tuples of one table
// (assign mode); Find looks a table's rows up against those groups
// (find-only mode) and returns each group, per segment, as its bitmap of
// local rows.
//
// Each key column keeps one union dictionary across every segment seen
// (RemapInto), and a group is identified by its tuple of union value ids
// packed at 4 bytes per column into one map key, so no value string is
// joined, copied or hashed per row, and values containing any byte,
// NUL included, group correctly. Groups are numbered densely in order of
// first appearance.
//
// On one key column a group is a union value id, so no row is decoded:
// assigning touches each value's first row, and a group's rows in a
// segment are that value's bitmap, shared. On several, each key column is
// decoded once per segment (RowIDs) and Find builds each group's bitmap
// by ascending Add.
type Grouping struct {
	columns []string
	dicts   []*dict.Dict   // union dictionary per key column
	index   map[string]int // several key columns: packed union-id tuple → group
	byID    []int          // one key column: union id → group+1, 0 before it has one
	tuples  []uint32       // group g's union ids at [g·len(columns), (g+1)·len(columns))
	first   []uint64       // first[g] is group g's first row in the grouped table
}

// SegmentGroups lists the groups one segment's rows fall into, one entry
// per group present, in no particular order.
type SegmentGroups struct {
	Groups []int
	// Rows[i] holds the segment-local rows of group Groups[i]. Shared
	// with the segment on one key column; callers must not mutate it.
	Rows []*wah.Bitmap
	// Miss is the lowest segment-local row whose tuple matches no group,
	// or -1 when every row matched.
	Miss int64
}

// Group numbers the distinct value tuples of columns across t's
// segments, in order of first appearance.
func Group(t *Table, columns []string) (*Grouping, error) {
	g := &Grouping{columns: slices.Clone(columns), dicts: make([]*dict.Dict, len(columns)), index: make(map[string]int)}
	for i, s := range t.segs {
		if i == 1 {
			// The first segment's dictionaries were adopted as the
			// union dictionaries; copy them before they grow.
			for j, d := range g.dicts {
				g.dicts[j] = d.Clone()
			}
		}
		if _, err := g.segment(s, t.offsets[i], true); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Find looks each segment of t up against g's groups without assigning
// new ones; rows whose tuple matches no group are left out and reported
// by Miss. Segments are looked up in parallel.
func (g *Grouping) Find(t *Table) ([]SegmentGroups, error) {
	out := make([]SegmentGroups, len(t.segs))
	err := par.ForEachErr(len(t.segs), 0, func(i int) error {
		sg, err := g.segment(t.segs[i], t.offsets[i], false)
		out[i] = sg
		return err
	})
	return out, err
}

// Len returns the number of groups.
func (g *Grouping) Len() int { return len(g.first) }

// First returns the global row at which group gi first appears in the
// table Group numbered.
func (g *Grouping) First(gi int) uint64 { return g.first[gi] }

// Value returns group gi's value in its j-th key column.
func (g *Grouping) Value(gi, j int) string {
	return g.dicts[j].Value(g.tuples[gi*len(g.columns)+j])
}

// segment assigns or finds the groups of one segment whose first row is
// global row off. With assign, tuples not seen yet become new groups and
// nothing is returned; without, g is only read, so segments may be
// looked up concurrently.
func (g *Grouping) segment(s *Segment, off uint64, assign bool) (SegmentGroups, error) {
	cols := make([]*Column, len(g.columns))
	maps := make([][]uint32, len(g.columns)) // local value id → union id, or dict.NoID
	for j, cn := range g.columns {
		c, err := s.Column(cn)
		if err != nil {
			return SegmentGroups{}, err
		}
		cols[j] = c
		switch {
		case g.dicts[j] == nil: // Group's first segment: adopt its dictionary
			g.dicts[j], maps[j] = c.dict, make([]uint32, c.DistinctCount())
			for id := range maps[j] {
				maps[j][id] = uint32(id)
			}
		case assign:
			maps[j] = c.RemapInto(g.dicts[j])
		default:
			maps[j] = make([]uint32, c.DistinctCount())
			for id := range maps[j] {
				maps[j][id] = g.dicts[j].Lookup(c.dict.Value(uint32(id)))
			}
		}
	}
	sg := SegmentGroups{Miss: -1}
	miss := func(row uint64) {
		if sg.Miss < 0 || int64(row) < sg.Miss {
			sg.Miss = int64(row)
		}
	}

	if len(cols) == 1 {
		if assign {
			return sg, g.assignValues(cols[0], maps[0], off)
		}
		for id, u := range maps[0] {
			if u == dict.NoID {
				if pos, ok := cols[0].bitmaps[id].FirstOne(); ok {
					miss(pos)
				}
				continue
			}
			sg.Groups, sg.Rows = append(sg.Groups, g.byID[u]-1), append(sg.Rows, cols[0].bitmaps[id])
		}
		return sg, nil
	}

	ids := make([][]uint32, len(cols))
	par.ForEachIndexed(len(cols), 0, func(j int) { ids[j] = cols[j].RowIDs() })
	tuple, buf := make([]uint32, len(cols)), make([]byte, 4*len(cols))
	var slot []int // slot[group]-1 is the group's index in sg, 0 when absent
rows:
	for row := uint64(0); row < s.nrows; row++ {
		for j := range ids {
			tuple[j] = maps[j][ids[j][row]]
			if tuple[j] == dict.NoID {
				miss(row)
				continue rows
			}
			binary.LittleEndian.PutUint32(buf[4*j:], tuple[j])
		}
		gi, ok := g.index[string(buf)]
		switch {
		case assign && !ok:
			g.index[string(buf)] = g.add(off+row, tuple...)
		case !ok:
			miss(row)
		case !assign:
			for gi >= len(slot) {
				slot = append(slot, 0)
			}
			if slot[gi] == 0 {
				sg.Groups, sg.Rows = append(sg.Groups, gi), append(sg.Rows, wah.New())
				slot[gi] = len(sg.Groups)
			}
			sg.Rows[slot[gi]-1].Add(row)
		}
	}
	for _, bm := range sg.Rows {
		bm.Extend(s.nrows)
	}
	return sg, nil
}

// assignValues gives each value of a one-column segment, whose local ids
// map to union ids through mapping, a group unless it has one: new
// values become groups in the order of their first rows.
func (g *Grouping) assignValues(c *Column, mapping []uint32, off uint64) error {
	type fresh struct {
		u   uint32
		pos uint64
	}
	var news []fresh
	for len(g.byID) < g.dicts[0].Len() {
		g.byID = append(g.byID, 0)
	}
	for id, u := range mapping {
		if g.byID[u] > 0 {
			continue
		}
		pos, ok := c.bitmaps[id].FirstOne()
		if !ok {
			return fmt.Errorf("colstore: column %q value %q has no rows", c.name, c.dict.Value(uint32(id)))
		}
		news = append(news, fresh{u, pos})
	}
	slices.SortFunc(news, func(a, b fresh) int { return cmp.Compare(a.pos, b.pos) })
	for _, n := range news {
		g.byID[n.u] = g.add(off+n.pos, n.u) + 1
	}
	return nil
}

// add registers a new group with the given union-id tuple, first seen at
// global row first, and returns its number.
func (g *Grouping) add(first uint64, tuple ...uint32) int {
	g.tuples = append(g.tuples, tuple...)
	g.first = append(g.first, first)
	return len(g.first) - 1
}
