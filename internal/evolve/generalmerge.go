package evolve

import (
	"fmt"

	"cods/internal/colstore"
	"cods/internal/dict"
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
// Pass 1 builds the join groups per segment — each segment decodes its
// local per-value position lists, restitched at segment offsets under a
// union dictionary — and pass 2 reads row ids through the same remapping
// instead of a stitched column, so no input bitmap is ever concatenated.
// The output is inherently a reshuffle and is emitted as a single fresh
// segment.
func MergeGeneral(s, t *colstore.Table, outName string, opt Options) (*colstore.Table, error) {
	common, err := commonColumns(s, t)
	if err != nil {
		return nil, err
	}
	opt.trace(fmt.Sprintf("general mergence pass 1 (map): building join groups of %v from %d+%d segments", common, s.NumSegments(), t.NumSegments()))
	groups, err := buildJoinGroupsSegmented(s, t, common, opt)
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

// groupComposite groups the per-row composite join keys of both inputs
// into joinGroups, ordered by first appearance in s.
func groupComposite(sKeys, tKeys []string) []joinGroup {
	tIndex := make(map[string][]uint64)
	for row, k := range tKeys {
		tIndex[k] = append(tIndex[k], uint64(row))
	}
	sIndex := make(map[string]int)
	var groups []joinGroup
	for row, k := range sKeys {
		tpos, ok := tIndex[k]
		if !ok {
			continue
		}
		gi, seen := sIndex[k]
		if !seen {
			gi = len(groups)
			sIndex[k] = gi
			groups = append(groups, joinGroup{tPositions: tpos})
		}
		groups[gi].sPositions = append(groups[gi].sPositions, uint64(row))
	}
	return groups
}

// buildJoinGroupsSegmented returns, per distinct join value present in
// both inputs, the ascending row positions in each input; a join value
// in only one input produces no output rows (inner-join semantics). For
// a single join attribute each input's per-value global position lists
// come from per-segment decodes restitched at segment offsets under a
// union dictionary (valuePositions), and group order follows s's union
// dictionary id order. Composite joins materialize per-row keys segment
// by segment, grouped in order of first appearance in s.
func buildJoinGroupsSegmented(s, t *colstore.Table, common []string, opt Options) ([]joinGroup, error) {
	if len(common) == 1 {
		sPos, sDict, err := valuePositions(s, common[0], opt)
		if err != nil {
			return nil, err
		}
		tPos, tDict, err := valuePositions(t, common[0], opt)
		if err != nil {
			return nil, err
		}
		var groups []joinGroup
		for id := 0; id < sDict.Len(); id++ {
			tid := tDict.Lookup(sDict.Value(uint32(id)))
			if tid == dict.NoID {
				continue
			}
			groups = append(groups, joinGroup{sPositions: sPos[id], tPositions: tPos[tid]})
		}
		return groups, nil
	}
	sKeys, err := compositeKeysSegmented(s, common, opt)
	if err != nil {
		return nil, err
	}
	tKeys, err := compositeKeysSegmented(t, common, opt)
	if err != nil {
		return nil, err
	}
	return groupComposite(sKeys, tKeys), nil
}

// compositeKeysSegmented materializes the composite join key of every
// row, one segment at a time (fanned out; the keys are value-based, so
// they compare across segments).
func compositeKeysSegmented(t *colstore.Table, columns []string, opt Options) ([]string, error) {
	segs := t.Segments()
	offs := segmentOffsets(segs)
	out := make([]string, t.NumRows())
	if err := opt.forEachErr(len(segs), func(i int) error {
		s := segs[i]
		ids := make([][]uint32, len(columns))
		dicts := make([]func(uint32) string, len(columns))
		for j, cn := range columns {
			c, err := s.Column(cn)
			if err != nil {
				return err
			}
			ids[j] = c.RowIDs()
			dicts[j] = c.Dict().Value
		}
		off := offs[i]
		for row := uint64(0); row < s.NumRows(); row++ {
			k := ""
			for j := range ids {
				k += dicts[j](ids[j][row]) + "\x00"
			}
			out[off+row] = k
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
