package evolve

import (
	"errors"
	"fmt"
	"sort"
	"strings"

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

	// Orientation: which output is keyed by the common attributes?
	dedupT := true
	if opt.ValidateFD {
		okT := fdHoldsSegmented(r, common, minus(spec.TColumns, common), opt)
		okS := fdHoldsSegmented(r, common, minus(spec.SColumns, common), opt)
		switch {
		case okT:
			dedupT = true
		case okS:
			dedupT = false
		default:
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

	// Steps 1+2 — distinction then bitmap filtering (paper §2.4),
	// segment-wise: each segment finds local representatives and filters
	// independently; the merge phase only deduplicates representative
	// values across segment boundaries.
	t, err := decomposeDedup(r, tName, tCols, common, opt)
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

// decomposeDedup builds the deduplicated output segment-wise. Map phase:
// every segment locates its local representative rows — the first local
// position of each locally distinct value of the common attributes — in
// parallel. Merge phase: representatives whose value already occurred in
// an earlier segment are dropped, so only the globally first occurrence
// survives; segments are visited in order and local positions are
// ascending, which keeps survivors in global row order: each key's first
// row, in input order. Filter phase: each
// contributing segment shrinks its bitmaps by its surviving local
// positions and becomes one output segment; segments that introduce no
// new value are skipped outright, which is what makes decomposition cost
// proportional to the segments holding new values instead of the row
// count.
func decomposeDedup(r *colstore.Table, name string, columns, common []string, opt Options) (*colstore.Table, error) {
	segs := r.Segments()
	single := len(common) == 1
	type segReps struct {
		positions []uint64 // ascending local row positions
		keys      []string // representative's value (or composite value key), aligned
	}
	reps := make([]segReps, len(segs))
	opt.trace(fmt.Sprintf("distinction map: scanning %d segments independently for representatives of %v", len(segs), common))
	if err := opt.forEachErr(len(segs), func(i int) error {
		s := segs[i]
		if single {
			col, err := s.Column(common[0])
			if err != nil {
				return err
			}
			n := col.DistinctCount()
			type rep struct {
				pos uint64
				v   string
			}
			local := make([]rep, n)
			for id := 0; id < n; id++ {
				p, ok := col.BitmapForID(uint32(id)).FirstOne()
				if !ok {
					return fmt.Errorf("evolve: column %q value id %d has an empty bitmap", common[0], id)
				}
				local[id] = rep{pos: p, v: col.Dict().Value(uint32(id))}
			}
			sort.Slice(local, func(a, b int) bool { return local[a].pos < local[b].pos })
			sr := segReps{positions: make([]uint64, n), keys: make([]string, n)}
			for j, rp := range local {
				sr.positions[j] = rp.pos
				sr.keys[j] = rp.v
			}
			reps[i] = sr
			return nil
		}
		// Composite common attributes: one scan over the segment's rows,
		// keyed by values rather than local ids so representatives are
		// comparable across segments.
		ids := make([][]uint32, len(common))
		dicts := make([]func(uint32) string, len(common))
		for j, cn := range common {
			c, err := s.Column(cn)
			if err != nil {
				return err
			}
			ids[j] = c.RowIDs()
			dicts[j] = c.Dict().Value
		}
		seen := make(map[string]bool, 64)
		var sr segReps
		var kb strings.Builder
		for row := uint64(0); row < s.NumRows(); row++ {
			kb.Reset()
			for j := range ids {
				kb.WriteString(dicts[j](ids[j][row]))
				kb.WriteByte(0)
			}
			k := kb.String()
			if !seen[k] {
				seen[k] = true
				sr.positions = append(sr.positions, row)
				sr.keys = append(sr.keys, k)
			}
		}
		reps[i] = sr
		return nil
	}); err != nil {
		return nil, err
	}

	// Merge: globally first occurrence wins.
	seen := make(map[string]bool, 1024)
	survivors := make([][]uint64, len(segs))
	keep := make([][]string, len(segs)) // surviving values, single-attribute fast path only
	contributing := 0
	for i := range segs {
		for j, k := range reps[i].keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			survivors[i] = append(survivors[i], reps[i].positions[j])
			if single {
				keep[i] = append(keep[i], k)
			}
		}
		if len(survivors[i]) > 0 {
			contributing++
		}
	}
	opt.trace(fmt.Sprintf("distinction merge: %d distinct %v; %d of %d segments contribute representatives", len(seen), common, contributing, len(segs)))

	opt.trace(fmt.Sprintf("bitmap filtering: building %s's segments from surviving local positions", name))
	outSegs := make([]*colstore.Segment, len(segs))
	if err := opt.forEachErr(len(segs), func(i int) error {
		if len(survivors[i]) == 0 {
			return nil
		}
		seg, err := dedupSegment(segs[i], columns, common, survivors[i], keep[i], opt)
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

// dedupSegment filters one contributing segment down to its surviving
// representative rows, producing one output segment.
func dedupSegment(s *colstore.Segment, columns, common []string, positions []uint64, keyVals []string, opt Options) (*colstore.Segment, error) {
	nrows := uint64(len(positions))
	sb := colstore.NewSegmentBuilder(columns)
	for ci, cn := range columns {
		col, err := s.Column(cn)
		if err != nil {
			return nil, err
		}
		n := col.DistinctCount()
		values := make([]string, n)
		bitmaps := make([]*wah.Bitmap, n)
		if keyVals != nil && len(common) == 1 && cn == common[0] {
			// Key-column fast path: each surviving value appears exactly
			// once, at its representative's rank — single-bit vectors, no
			// filtering. Values stay in local dictionary order (survivors
			// get a bitmap, the rest are dropped by the builder).
			for id := 0; id < n; id++ {
				values[id] = col.Dict().Value(uint32(id))
			}
			for rank, v := range keyVals {
				bm := wah.New()
				bm.Add(uint64(rank))
				bitmaps[col.Dict().Lookup(v)] = bm
			}
		} else {
			opt.forEach(n, func(id int) {
				values[id] = col.Dict().Value(uint32(id))
				bitmaps[id] = wah.FilterPositions(col.BitmapForID(uint32(id)), positions)
			})
		}
		if err := sb.SetFromBitmaps(ci, values, bitmaps, nrows); err != nil {
			return nil, err
		}
	}
	return sb.Finish()
}

// fdHoldsSegmented reports whether the functional dependency det → dep
// holds in t, computed segment-wise: each segment builds
// its det-values → dep-values map locally and in parallel (value-based —
// local dictionary ids are not comparable across segments), then the
// merge phase checks for conflicts across segment boundaries.
func fdHoldsSegmented(t *colstore.Table, det, dep []string, opt Options) bool {
	if len(dep) == 0 {
		return true
	}
	segs := t.Segments()
	maps := make([]map[string]string, len(segs))
	if err := opt.forEachErr(len(segs), func(i int) error {
		m, err := segFDMap(segs[i], det, dep)
		maps[i] = m
		return err
	}); err != nil {
		return false
	}
	merged := maps[0]
	for _, m := range maps[1:] {
		for k, v := range m {
			if prev, ok := merged[k]; ok {
				if prev != v {
					return false
				}
			} else {
				merged[k] = v
			}
		}
	}
	return true
}

// errFDViolated signals a within-segment functional-dependency conflict.
var errFDViolated = errors.New("evolve: functional dependency violated")

// segFDMap builds one segment's det-values → dep-values map, failing on a
// local conflict.
func segFDMap(s *colstore.Segment, det, dep []string) (map[string]string, error) {
	detIDs := make([][]uint32, len(det))
	detDicts := make([]func(uint32) string, len(det))
	for i, cn := range det {
		c, err := s.Column(cn)
		if err != nil {
			return nil, err
		}
		detIDs[i] = c.RowIDs()
		detDicts[i] = c.Dict().Value
	}
	depIDs := make([][]uint32, len(dep))
	depDicts := make([]func(uint32) string, len(dep))
	for i, cn := range dep {
		c, err := s.Column(cn)
		if err != nil {
			return nil, err
		}
		depIDs[i] = c.RowIDs()
		depDicts[i] = c.Dict().Value
	}
	m := make(map[string]string, 64)
	var kb, vb strings.Builder
	for row := uint64(0); row < s.NumRows(); row++ {
		kb.Reset()
		vb.Reset()
		for i := range detIDs {
			kb.WriteString(detDicts[i](detIDs[i][row]))
			kb.WriteByte(0)
		}
		for i := range depIDs {
			vb.WriteString(depDicts[i](depIDs[i][row]))
			vb.WriteByte(0)
		}
		k, v := kb.String(), vb.String()
		if prev, ok := m[k]; ok {
			if prev != v {
				return nil, errFDViolated
			}
		} else {
			m[k] = v
		}
	}
	return m, nil
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
