package evolve

import (
	"fmt"

	"cods/internal/colstore"
)

// joinGroup describes one distinct join value occurring in both inputs.
type joinGroup struct {
	sPositions []uint64 // rows of s holding the value, ascending
	tPositions []uint64 // rows of t holding the value, ascending
}

// MergeGeneral performs general mergence (paper §2.5.2): an equi-join of s
// and t on their common attributes when those attributes are not a key of
// either input, so no column can be reused.
//
// Pass 1 runs over the join attributes only and counts occurrences n1(v)
// and n2(v) of each distinct join value; the output is clustered by join
// value, each value occupying a block of n1·n2 consecutive rows, so the
// join attributes' bitmaps are single fill runs derived from the counts.
// Pass 2 streams the non-join attributes: values from s repeat in
// consecutive stretches of length n2 within a block, values from t repeat
// with stride n2 ("non-consecutive but with the same distance"); both
// layouts are emitted in ascending output position, so every per-value
// bitmap is built by monotone compressed appends.
//
// Pass 1 groups s by the join attributes and looks both inputs up
// against those groups (colstore.Group, Grouping.Find), reading each
// group's positions from its per-segment bitmaps at segment offsets;
// pass 2 reads row ids through a cross-segment union dictionary instead
// of a stitched column, so no input bitmap is ever concatenated. Join
// values keep their order of first appearance in s. The output is
// inherently a reshuffle and is emitted as a single fresh segment.
func MergeGeneral(s, t *colstore.Table, outName string, opt Options) (*colstore.Table, error) {
	common, err := commonColumns(s, t)
	if err != nil {
		return nil, err
	}
	opt.trace(fmt.Sprintf("general mergence pass 1: grouping %v over %d+%d segments", common, s.NumSegments(), t.NumSegments()))
	groups, err := buildJoinGroups(s, t, common)
	if err != nil {
		return nil, err
	}

	var outRows uint64
	for _, g := range groups {
		outRows += uint64(len(g.sPositions)) * uint64(len(g.tPositions))
	}

	opt.trace(fmt.Sprintf("general mergence pass 2: laying out %d output rows clustered by join value", outRows))

	// Pass 2 builds each output column from the shared (read-only) group
	// layout with its own builder, so the columns are independent tasks.
	var tasks []func() (*colstore.Column, error)

	// Join attribute columns: per group a single fill run.
	for _, cn := range common {
		tasks = append(tasks, func() (*colstore.Column, error) {
			ids, d, err := rowIDsRemapped(s, cn, opt)
			if err != nil {
				return nil, err
			}
			b := colstore.NewColumnBuilderWithDict(cn, d)
			for _, g := range groups {
				v := ids[g.sPositions[0]]
				b.AppendRunID(v, uint64(len(g.sPositions))*uint64(len(g.tPositions)))
			}
			return b.Finish(), nil
		})
	}

	// Non-join attributes of s: consecutive runs of length n2.
	for _, cn := range minus(s.ColumnNames(), common) {
		tasks = append(tasks, func() (*colstore.Column, error) {
			ids, d, err := rowIDsRemapped(s, cn, opt)
			if err != nil {
				return nil, err
			}
			b := colstore.NewColumnBuilderWithDict(cn, d)
			for _, g := range groups {
				n2 := uint64(len(g.tPositions))
				for _, p := range g.sPositions {
					b.AppendRunID(ids[p], n2)
				}
			}
			return b.Finish(), nil
		})
	}

	// Non-join attributes of t: the per-block value sequence (one value
	// per t row in the group) repeats n1 times; emit its runs per
	// repetition so appends stay monotone.
	for _, cn := range minus(t.ColumnNames(), common) {
		tasks = append(tasks, func() (*colstore.Column, error) {
			ids, d, err := rowIDsRemapped(t, cn, opt)
			if err != nil {
				return nil, err
			}
			b := colstore.NewColumnBuilderWithDict(cn, d)
			var runIDs []uint32
			var runLens []uint64
			for _, g := range groups {
				runIDs, runLens = runIDs[:0], runLens[:0]
				for _, p := range g.tPositions {
					id := ids[p]
					if n := len(runIDs); n > 0 && runIDs[n-1] == id {
						runLens[n-1]++
					} else {
						runIDs = append(runIDs, id)
						runLens = append(runLens, 1)
					}
				}
				for j := 0; j < len(g.sPositions); j++ {
					for k := range runIDs {
						b.AppendRunID(runIDs[k], runLens[k])
					}
				}
			}
			return b.Finish(), nil
		})
	}

	outCols := make([]*colstore.Column, len(tasks))
	if err := opt.forEachErr(len(tasks), func(i int) error {
		c, err := tasks[i]()
		outCols[i] = c
		return err
	}); err != nil {
		return nil, err
	}

	return colstore.NewTable(outName, outCols, nil)
}

// buildJoinGroups returns, per distinct join value present in both
// inputs, the ascending global row positions in each input, in order of
// first appearance in s; a join value in only one input produces no
// output rows (inner-join semantics). s is grouped by the join
// attributes, both inputs are looked up against s's groups, and
// positions are the group bitmaps read at segment offsets.
func buildJoinGroups(s, t *colstore.Table, common []string) ([]joinGroup, error) {
	keys, err := colstore.Group(s, common)
	if err != nil {
		return nil, err
	}
	sGroups, err := keys.Find(s)
	if err != nil {
		return nil, err
	}
	tGroups, err := keys.Find(t)
	if err != nil {
		return nil, err
	}
	sPos, tPos := groupPositions(s, sGroups, keys.Len()), groupPositions(t, tGroups, keys.Len())
	var groups []joinGroup
	for gi := range sPos {
		if len(tPos[gi]) > 0 {
			groups = append(groups, joinGroup{sPositions: sPos[gi], tPositions: tPos[gi]})
		}
	}
	return groups, nil
}

// groupPositions lists each of n groups' global rows in tab, ascending,
// from the per-segment groups of tab.
func groupPositions(tab *colstore.Table, per []colstore.SegmentGroups, n int) [][]uint64 {
	out := make([][]uint64, n)
	for i, off := range segmentOffsets(tab.Segments()) {
		for k, gi := range per[i].Groups {
			ps := per[i].Rows[k].AppendPositionsTo(out[gi])
			for j := len(out[gi]); j < len(ps); j++ {
				ps[j] += off
			}
			out[gi] = ps
		}
	}
	return out
}
