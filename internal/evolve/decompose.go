package evolve

import (
	"fmt"
	"slices"

	"cods/internal/colstore"
	"cods/internal/wah"
)

// DecomposeSpec describes DECOMPOSE TABLE: split the input into two output
// tables whose attribute sets union to the input's attributes and overlap
// in the common attributes (paper Table 1, §2.4).
type DecomposeSpec struct {
	OutS     string   // name of the first output table
	SColumns []string // attributes of the first output (includes the common attributes)
	OutT     string   // name of the second output table
	TColumns []string // attributes of the second output (includes the common attributes)
}

// DecomposeResult carries both outputs plus which side was reused
// unchanged (Property 1).
type DecomposeResult struct {
	S, T *colstore.Table
	// Reused names the output table that shares the input's columns with
	// zero data movement.
	Reused string
	// Deduplicated names the output table built by distinction +
	// filtering.
	Deduplicated string
}

// Decompose performs a lossless-join decomposition of r according to spec.
//
// The common attributes must be a candidate key of one output; that output
// is the deduplicated side and the other output is reused unchanged.
// Orientation is detected automatically: the side whose remaining
// attributes are functionally determined by the common attributes becomes
// the deduplicated side (preferring T when both qualify, matching the
// paper's presentation where S is unchanged).
func Decompose(r *colstore.Table, spec DecomposeSpec, opt Options) (*DecomposeResult, error) {
	if err := validateDecomposeSpec(r, spec); err != nil {
		return nil, err
	}
	common := intersect(spec.SColumns, spec.TColumns)
	if len(common) == 0 {
		return nil, fmt.Errorf("evolve: decomposition of %q has no common attributes; the join would be a cross product", r.Name())
	}

	// Distinction (paper §2.4): one grouping of the common attributes
	// decides the orientation and picks the deduplicated side's rows.
	keys, err := colstore.Group(r, common)
	if err != nil {
		return nil, err
	}
	opt.trace(fmt.Sprintf("distinction: %d distinct %v across %d segments", keys.Len(), common, r.NumSegments()))

	// Orientation: which output is keyed by the common attributes?
	dedupT := true
	if opt.ValidateFD {
		ok, err := fdHolds(r, keys, common, minus(spec.TColumns, common))
		if err == nil && !ok {
			dedupT = false
			ok, err = fdHolds(r, keys, common, minus(spec.SColumns, common))
		}
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("evolve: decomposition of %q is lossy: common attributes %v are not a key of either output", r.Name(), common)
		}
	}

	sCols, sName, tCols, tName := spec.SColumns, spec.OutS, spec.TColumns, spec.OutT
	if !dedupT {
		sCols, tCols = tCols, sCols
		sName, tName = tName, sName
	}

	// Property 1: the unchanged output reuses the input's columns.
	opt.trace(fmt.Sprintf("reuse: creating %s from existing columns of %s (no data movement)", sName, r.Name()))
	s, err := r.Project(sName, sCols, r.Key())
	if err != nil {
		return nil, err
	}

	// Step 2 — bitmap filtering (paper §2.4), segment-wise.
	t, err := decomposeDedup(r, keys, tName, tCols, common, opt)
	if err != nil {
		return nil, err
	}

	res := &DecomposeResult{Reused: sName, Deduplicated: tName}
	if dedupT {
		res.S, res.T = s, t
	} else {
		res.S, res.T = t, s
	}
	return res, nil
}

func validateDecomposeSpec(r *colstore.Table, spec DecomposeSpec) error {
	if spec.OutS == "" || spec.OutT == "" {
		return fmt.Errorf("evolve: decomposition outputs must be named")
	}
	if spec.OutS == spec.OutT {
		return fmt.Errorf("evolve: decomposition outputs must have distinct names")
	}
	covered := make(map[string]bool)
	for _, set := range [][]string{spec.SColumns, spec.TColumns} {
		seen := make(map[string]bool)
		for _, c := range set {
			if !r.HasColumn(c) {
				return fmt.Errorf("evolve: table %q has no column %q", r.Name(), c)
			}
			if seen[c] {
				return fmt.Errorf("evolve: column %q listed twice in one output", c)
			}
			seen[c] = true
			covered[c] = true
		}
		if len(set) == 0 {
			return fmt.Errorf("evolve: decomposition output with no columns")
		}
	}
	for _, c := range r.ColumnNames() {
		if !covered[c] {
			return fmt.Errorf("evolve: the union of output attributes must equal %q's attributes; %q missing", r.Name(), c)
		}
	}
	return nil
}

// decomposeDedup builds the deduplicated output from the grouping of the
// common attributes: each group's first row survives, where it first
// appears globally. Groups are numbered in order of first appearance, so
// the groups first seen in one segment are a run of consecutive numbers
// whose first rows ascend: the survivors stay in global row order, each
// key's first row in input order. Each segment holding survivors shrinks
// its bitmaps by their local positions and becomes one output segment;
// segments that introduce no new key are skipped outright, which is what
// makes decomposition cost proportional to the segments holding new keys
// instead of the row count.
func decomposeDedup(r *colstore.Table, keys *colstore.Grouping, name string, columns, common []string, opt Options) (*colstore.Table, error) {
	segs := r.Segments()
	offs := segmentOffsets(segs)
	survivors := make([][]int, len(segs))
	si := 0
	for gi := 0; gi < keys.Len(); gi++ {
		for si+1 < len(segs) && keys.First(gi) >= offs[si+1] {
			si++
		}
		survivors[si] = append(survivors[si], gi)
	}

	opt.trace(fmt.Sprintf("bitmap filtering: building %s's segments from surviving local positions", name))
	outSegs := make([]*colstore.Segment, len(segs))
	if err := opt.forEachErr(len(segs), func(i int) error {
		if len(survivors[i]) == 0 {
			return nil
		}
		seg, err := dedupSegment(segs[i], offs[i], columns, common, keys, survivors[i], opt)
		outSegs[i] = seg
		return err
	}); err != nil {
		return nil, err
	}
	var packed []*colstore.Segment
	for _, s := range outSegs {
		if s != nil {
			packed = append(packed, s)
		}
	}
	return colstore.NewSegmented(name, columns, packed, common)
}

// dedupSegment filters one segment, whose first row is global row off,
// down to the first rows of the given groups, producing one output
// segment. A common attribute needs no filtering: survivor rank i holds
// group groups[i]'s value, so its bitmaps are built by ascending adds in
// the segment's dictionary order.
func dedupSegment(s *colstore.Segment, off uint64, columns, common []string, keys *colstore.Grouping, groups []int, opt Options) (*colstore.Segment, error) {
	positions := make([]uint64, len(groups))
	for i, gi := range groups {
		positions[i] = keys.First(gi) - off
	}
	nrows := uint64(len(positions))
	sb := colstore.NewSegmentBuilder(columns)
	for ci, cn := range columns {
		col, err := s.Column(cn)
		if err != nil {
			return nil, err
		}
		n := col.DistinctCount()
		values := col.Dict().Values()
		bitmaps := make([]*wah.Bitmap, n)
		if j := slices.Index(common, cn); j >= 0 {
			for rank, gi := range groups {
				id := col.Dict().Lookup(keys.Value(gi, j))
				if bitmaps[id] == nil {
					bitmaps[id] = wah.New()
				}
				bitmaps[id].Add(uint64(rank))
			}
		} else {
			opt.forEach(n, func(id int) {
				bitmaps[id] = wah.FilterPositions(col.BitmapForID(uint32(id)), positions)
			})
		}
		if err := sb.SetFromBitmaps(ci, values, bitmaps, nrows); err != nil {
			return nil, err
		}
	}
	return sb.Finish()
}

// fdHolds reports whether the functional dependency det → dep holds in t
// (Property 2), given det's grouping: it does iff adding dep to det
// splits no group, that is, iff det ∪ dep has as many groups as det.
func fdHolds(t *colstore.Table, det *colstore.Grouping, detCols, dep []string) (bool, error) {
	if len(dep) == 0 {
		return true, nil
	}
	g, err := colstore.Group(t, slices.Concat(detCols, dep))
	if err != nil {
		return false, err
	}
	return g.Len() == det.Len(), nil
}

func intersect(a, b []string) []string {
	inB := make(map[string]bool, len(b))
	for _, c := range b {
		inB[c] = true
	}
	var out []string
	for _, c := range a {
		if inB[c] {
			out = append(out, c)
		}
	}
	return out
}

func minus(a, b []string) []string {
	inB := make(map[string]bool, len(b))
	for _, c := range b {
		inB[c] = true
	}
	var out []string
	for _, c := range a {
		if !inB[c] {
			out = append(out, c)
		}
	}
	return out
}
