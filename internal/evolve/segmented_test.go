package evolve

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cods/internal/colstore"
	"cods/internal/queryevolve"
)

// buildSegmentedTable assembles a table whose base is one segment per row
// chunk, so the segment-wise operator paths have real segment boundaries
// to cross (dictionaries overlap between chunks whenever values repeat).
func buildSegmentedTable(t *testing.T, name string, columns []string, key []string, chunks [][][]string) *colstore.Table {
	t.Helper()
	var segs []*colstore.Segment
	for _, rows := range chunks {
		segs = append(segs, buildTable(t, name, columns, nil, rows).Segments()...)
	}
	tab, err := colstore.NewSegmented(name, columns, segs, key)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// tableRows materializes every row of tab in order.
func tableRows(t *testing.T, tab *colstore.Table) [][]string {
	t.Helper()
	rows, err := tab.Rows(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// assertIdenticalRows asserts both tables hold byte-identical row
// sequences over the same schema — row order included, not just the same
// multiset.
func assertIdenticalRows(t *testing.T, got, want *colstore.Table, label string) {
	t.Helper()
	if !reflect.DeepEqual(got.ColumnNames(), want.ColumnNames()) {
		t.Fatalf("%s: schemas differ: %v vs %v", label, got.ColumnNames(), want.ColumnNames())
	}
	if g, w := tableRows(t, got), tableRows(t, want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: row sequences differ\ngot:  %v\nwant: %v", label, g, w)
	}
}

// assertDecomposeMatchesQueryLevel checks a DECOMPOSE result against the
// query-level decomposition (package queryevolve, the paper's "M"
// comparator) run with the same orientation: the reused output is every
// input row projected, the deduplicated output is SELECT DISTINCT over its
// columns — the same rows, in the same order, as "first row per common
// key" whenever the functional dependency holds.
func assertDecomposeMatchesQueryLevel(t *testing.T, r *colstore.Table, spec DecomposeSpec, res *DecomposeResult, label string) {
	t.Helper()
	cols := map[string][]string{spec.OutS: spec.SColumns, spec.OutT: spec.TColumns}
	got := map[string]*colstore.Table{spec.OutS: res.S, spec.OutT: res.T}
	reused, dedup, err := queryevolve.Decompose(r, res.Reused, cols[res.Reused], res.Deduplicated, cols[res.Deduplicated])
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRows(t, got[res.Reused], reused, label+": reused "+res.Reused)
	assertIdenticalRows(t, got[res.Deduplicated], dedup, label+": deduplicated "+res.Deduplicated)
}

// assertGeneralMergeMatchesQueryLevel checks a general mergence against
// the query-level join (queryevolve.Merge) as a row multiset — the
// general algorithm reorders rows and columns — and checks the layout
// §2.5.2 describes: every join value's rows form one contiguous block.
func assertGeneralMergeMatchesQueryLevel(t *testing.T, s, tt, got *colstore.Table, label string) {
	t.Helper()
	want, err := queryevolve.Merge(s, tt, got.Name())
	if err != nil {
		t.Fatal(err)
	}
	cols := got.ColumnNames()
	byName := make(map[string]int)
	for i, c := range want.ColumnNames() {
		byName[c] = i
	}
	wantRows := tableRows(t, want)
	for i, row := range wantRows {
		reordered := make([]string, len(cols))
		for j, c := range cols {
			reordered[j] = row[byName[c]]
		}
		wantRows[i] = reordered
	}
	gotRows := tableRows(t, got)
	if g, w := sortedRows(gotRows), sortedRows(wantRows); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: row multisets differ\ngot:  %v\nwant: %v", label, g, w)
	}
	nJoin := len(intersect(s.ColumnNames(), tt.ColumnNames()))
	seen := make(map[string]bool)
	prev := ""
	for _, row := range gotRows {
		k := strings.Join(row[:nJoin], "\x00")
		if k != prev && seen[k] {
			t.Fatalf("%s: join value %q is split across blocks: %v", label, k, gotRows)
		}
		seen[k], prev = true, k
	}
}

// sortedRows returns a sorted copy of rows, for multiset comparison.
func sortedRows(rows [][]string) [][]string {
	out := append([][]string(nil), rows...)
	sort.Slice(out, func(a, b int) bool {
		return strings.Join(out[a], "\x00") < strings.Join(out[b], "\x00")
	})
	return out
}

// figure1Segmented is figure1R split into three segments with the
// duplicate employees straddling segment boundaries, so distinction must
// dedup across segments.
func figure1Segmented(t *testing.T) *colstore.Table {
	cols := []string{"Employee", "Skill", "Address"}
	return buildSegmentedTable(t, "R", cols, nil, [][][]string{
		{
			{"Jones", "Typing", "425 Grant Ave"},
			{"Jones", "Shorthand", "425 Grant Ave"},
			{"Roberts", "Light Cleaning", "747 Industrial Way"},
		},
		{
			{"Ellis", "Alchemy", "747 Industrial Way"},
			{"Jones", "Whittling", "425 Grant Ave"},
		},
		{
			{"Ellis", "Juggling", "747 Industrial Way"},
			{"Harrison", "Light Cleaning", "425 Grant Ave"},
		},
	})
}

// The tests below are named after the rebuild they compare with: the
// query-level evolution of package queryevolve, which decodes the inputs
// into rows and re-encodes the outputs from scratch, or rows filtered or
// concatenated inline. None of them runs CODS's own code as the reference.

func TestDecomposeSegmentedMatchesRebuild(t *testing.T) {
	spec := DecomposeSpec{
		OutS: "S", SColumns: []string{"Employee", "Skill"},
		OutT: "T", TColumns: []string{"Employee", "Address"},
	}
	r := figure1Segmented(t)
	seg, err := Decompose(r, spec, Options{ValidateFD: true})
	if err != nil {
		t.Fatal(err)
	}
	if seg.Reused != "S" || seg.Deduplicated != "T" {
		t.Fatalf("orientation: reused %q, deduplicated %q; want S, T", seg.Reused, seg.Deduplicated)
	}
	assertDecomposeMatchesQueryLevel(t, r, spec, seg, "figure 1")
	// The deduplicated output must stay segmented: every input segment
	// that contributed a surviving representative yields an output
	// segment, rather than the whole table being restitched. All three
	// input segments contribute first occurrences here.
	if seg.T.NumSegments() != 3 {
		t.Fatalf("deduplicated output has %d segments, want 3 (segment-wise path must not restitch)", seg.T.NumSegments())
	}
}

func TestDecomposeSegmentedCompositeCommon(t *testing.T) {
	cols := []string{"A", "B", "C", "D"}
	r := buildSegmentedTable(t, "R", cols, nil, [][][]string{
		{{"a1", "b1", "c1", "d1"}, {"a1", "b2", "c2", "d2"}},
		{{"a1", "b1", "c1", "d3"}, {"a2", "b1", "c3", "d4"}},
		{{"a2", "b1", "c3", "d5"}},
	})
	spec := DecomposeSpec{
		OutS: "S", SColumns: []string{"A", "B", "C"},
		OutT: "T", TColumns: []string{"A", "B", "D"},
	}
	seg, err := Decompose(r, spec, Options{ValidateFD: true})
	if err != nil {
		t.Fatal(err)
	}
	// (A, B) determines C but not D, so S is the deduplicated side.
	if seg.Reused != "T" || seg.Deduplicated != "S" {
		t.Fatalf("orientation: reused %q, deduplicated %q; want T, S", seg.Reused, seg.Deduplicated)
	}
	assertDecomposeMatchesQueryLevel(t, r, spec, seg, "composite")
}

func TestDecomposeSegmentedLossyErrorParity(t *testing.T) {
	// Address does not determine Skill: the lossy spec must be rejected
	// under ValidateFD, with segment boundaries not hiding the
	// cross-segment FD violation (Jones's address maps to two skills in
	// different segments).
	spec := DecomposeSpec{
		OutS: "S", SColumns: []string{"Address", "Skill"},
		OutT: "T", TColumns: []string{"Address", "Employee"},
	}
	_, err := Decompose(figure1Segmented(t), spec, Options{ValidateFD: true})
	if err == nil || !strings.Contains(err.Error(), "is lossy") {
		t.Fatalf("lossy decomposition: err = %v, want a lossy-decomposition error", err)
	}
}

// segmentedDimFact builds a keyed multi-segment dimension table and a
// multi-segment fact table referencing it.
func segmentedDimFact(t *testing.T) (dim, fact *colstore.Table) {
	dim = buildSegmentedTable(t, "Emp", []string{"Employee", "Address"}, []string{"Employee"}, [][][]string{
		{{"Jones", "425 Grant Ave"}, {"Roberts", "747 Industrial Way"}},
		{{"Ellis", "747 Industrial Way"}},
		{{"Harrison", "425 Grant Ave"}},
	})
	fact = buildSegmentedTable(t, "Skills", []string{"Employee", "Skill"}, nil, [][][]string{
		{{"Jones", "Typing"}, {"Jones", "Shorthand"}},
		{{"Roberts", "Light Cleaning"}, {"Ellis", "Alchemy"}, {"Jones", "Whittling"}},
		{{"Ellis", "Juggling"}, {"Harrison", "Light Cleaning"}},
	})
	return dim, fact
}

func TestMergeKeyFKSegmentedMatchesRebuild(t *testing.T) {
	dim, fact := segmentedDimFact(t)
	seg, err := MergeKeyFK(fact, dim, "R", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seg.Reused != "Skills" {
		t.Fatalf("reused side %q, want the fact table Skills", seg.Reused)
	}
	want, err := queryevolve.Merge(fact, dim, "R")
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRows(t, seg.Table, want, "merged")
	// The segment-wise merge maps each fact segment independently: the
	// output must keep the fact table's segmentation instead of being
	// rebuilt as one segment.
	if got, want := seg.Table.NumSegments(), fact.NumSegments(); got != want {
		t.Fatalf("merged output has %d segments, want %d (one per fact segment)", got, want)
	}
	if err := seg.Table.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMergeKeyFKSegmentedForeignKeyViolationParity(t *testing.T) {
	dim, _ := segmentedDimFact(t)
	// "Nobody" appears only in the fact's last segment — the violation
	// must surface even though earlier segments are clean.
	fact := buildSegmentedTable(t, "Skills", []string{"Employee", "Skill"}, nil, [][][]string{
		{{"Jones", "Typing"}, {"Ellis", "Alchemy"}},
		{{"Nobody", "Loafing"}},
	})
	_, err := MergeKeyFK(fact, dim, "R", Options{})
	if err == nil || !strings.Contains(err.Error(), "foreign-key violation") || !strings.Contains(err.Error(), "Nobody") {
		t.Fatalf("dangling foreign key: err = %v, want a foreign-key violation naming Nobody", err)
	}
}

// TestMergeKeyFKCompositeViolationNamesValues pins the composite
// foreign-key error: the fact's only orphan is global row 10, the first
// row of its second segment, and the error names its value tuple rather
// than a segment-local row number.
func TestMergeKeyFKCompositeViolationNamesValues(t *testing.T) {
	dim := buildTable(t, "D", []string{"K1", "K2", "X"}, []string{"K1", "K2"}, [][]string{
		{"a", "b", "x1"}, {"a", "c", "x2"},
	})
	var clean [][]string
	for i := 0; i < 10; i++ {
		clean = append(clean, []string{"a", []string{"b", "c"}[i%2], fmt.Sprint(i)})
	}
	fact := buildSegmentedTable(t, "F", []string{"K1", "K2", "Y"}, nil, [][][]string{
		clean,
		{{"zz", "b", "orphan"}},
	})
	_, err := MergeKeyFK(fact, dim, "R", Options{})
	if err == nil || !strings.Contains(err.Error(), "foreign-key violation") || !strings.Contains(err.Error(), `"zz", "b"`) {
		t.Fatalf("dangling composite foreign key: err = %v, want a foreign-key violation naming (\"zz\", \"b\")", err)
	}
	if strings.Contains(err.Error(), "row 0") {
		t.Fatalf("error names a segment-local row: %v", err)
	}
}

func TestMergeKeyFKSegmentedCompositeKey(t *testing.T) {
	dim := buildSegmentedTable(t, "D", []string{"A", "B", "X"}, []string{"A", "B"}, [][][]string{
		{{"a1", "b1", "x1"}, {"a1", "b2", "x2"}},
		{{"a2", "b1", "x3"}},
	})
	fact := buildSegmentedTable(t, "F", []string{"A", "B", "Y"}, nil, [][][]string{
		{{"a1", "b2", "y1"}, {"a1", "b1", "y2"}},
		{{"a2", "b1", "y3"}, {"a1", "b1", "y4"}},
	})
	seg, err := MergeKeyFK(fact, dim, "R", Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := queryevolve.Merge(fact, dim, "R")
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalRows(t, seg.Table, want, "composite merged")
}

func TestMergeGeneralSegmentedMatchesRebuild(t *testing.T) {
	// Address is a key of neither side, so Merge must take the general
	// two-pass algorithm.
	s := buildSegmentedTable(t, "S", []string{"Employee", "Address"}, nil, [][][]string{
		{{"Jones", "425 Grant Ave"}, {"Roberts", "747 Industrial Way"}},
		{{"Ellis", "747 Industrial Way"}, {"Harrison", "425 Grant Ave"}},
	})
	tt := buildSegmentedTable(t, "T", []string{"Address", "Rent"}, nil, [][][]string{
		{{"425 Grant Ave", "1200"}},
		{{"747 Industrial Way", "800"}, {"425 Grant Ave", "1250"}},
	})
	if _, err := MergeKeyFK(s, tt, "R", Options{}); !errors.Is(err, ErrNotKeyFK) {
		t.Fatalf("key–FK mergence on unkeyed inputs: err = %v, want ErrNotKeyFK", err)
	}
	seg, err := MergeGeneral(s, tt, "R", Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertGeneralMergeMatchesQueryLevel(t, s, tt, seg, "general merged")
}

func TestMergeGeneralSegmentedCompositeJoin(t *testing.T) {
	s := buildSegmentedTable(t, "S", []string{"A", "B", "X"}, nil, [][][]string{
		{{"a1", "b1", "x1"}, {"a1", "b1", "x2"}},
		{{"a2", "b2", "x3"}, {"a1", "b1", "x4"}},
	})
	tt := buildSegmentedTable(t, "T", []string{"A", "B", "Y"}, nil, [][][]string{
		{{"a1", "b1", "y1"}, {"a2", "b2", "y2"}},
		{{"a1", "b1", "y3"}},
	})
	seg, err := MergeGeneral(s, tt, "R", Options{})
	if err != nil {
		t.Fatal(err)
	}
	assertGeneralMergeMatchesQueryLevel(t, s, tt, seg, "composite general merged")
}

func TestUnionSegmentedAdoptsSegments(t *testing.T) {
	cols := []string{"K", "V"}
	a := buildSegmentedTable(t, "A", cols, nil, [][][]string{
		{{"k1", "v1"}, {"k2", "v2"}},
		{{"k3", "v1"}},
	})
	b := buildSegmentedTable(t, "B", cols, nil, [][][]string{
		{{"k4", "v3"}},
		{{"k5", "v1"}, {"k6", "v2"}},
		{{"k7", "v4"}},
	})
	seg, err := Union(a, b, "U", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := tableRows(t, seg), append(tableRows(t, a), tableRows(t, b)...); !reflect.DeepEqual(got, want) {
		t.Fatalf("union rows %v, want a's rows then b's %v", got, want)
	}
	// The segment-wise union is pure metadata: both inputs' segments are
	// adopted unchanged.
	if got, want := seg.NumSegments(), a.NumSegments()+b.NumSegments(); got != want {
		t.Fatalf("union has %d segments, want %d (segment adoption)", got, want)
	}
	if err := seg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSegmentedStaysSegmented(t *testing.T) {
	r := buildSegmentedTable(t, "R", []string{"K", "G"}, nil, [][][]string{
		{{"k1", "g1"}, {"k2", "g2"}},
		{{"k3", "g1"}, {"k4", "g1"}},
		{{"k5", "g2"}},
	})
	yes, no, err := Partition(r, "G != 'g2'", "P1", "P2", Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wantYes, wantNo [][]string
	for _, row := range tableRows(t, r) {
		if row[1] != "g2" {
			wantYes = append(wantYes, row)
		} else {
			wantNo = append(wantNo, row)
		}
	}
	if got := tableRows(t, yes); !reflect.DeepEqual(got, wantYes) {
		t.Fatalf("P1 rows %v, want %v", got, wantYes)
	}
	if got := tableRows(t, no); !reflect.DeepEqual(got, wantNo) {
		t.Fatalf("P2 rows %v, want %v", got, wantNo)
	}
	// Each input segment with surviving rows yields one output segment.
	if yes.NumSegments() != 2 || no.NumSegments() != 2 {
		t.Fatalf("partition outputs have %d/%d segments, want 2/2", yes.NumSegments(), no.NumSegments())
	}
}

// TestQuickSegmentedEvolutionParity randomizes tables, segment splits and
// decompose/merge round trips, checking every output against the
// query-level evolution of the same input.
func TestQuickSegmentedEvolutionParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 25; iter++ {
		nrows := 5 + rng.Intn(40)
		var rows [][]string
		for i := 0; i < nrows; i++ {
			k := fmt.Sprintf("k%03d", rng.Intn(nrows)) // duplicates likely
			rows = append(rows, []string{k, "g" + k[1:], fmt.Sprintf("v%d", rng.Intn(5))})
		}
		// Random segment split of the same row sequence.
		var chunks [][][]string
		for start := 0; start < len(rows); {
			end := start + 1 + rng.Intn(8)
			if end > len(rows) {
				end = len(rows)
			}
			chunks = append(chunks, rows[start:end])
			start = end
		}
		cols := []string{"K", "G", "V"}
		r := buildSegmentedTable(t, "R", cols, nil, chunks)
		spec := DecomposeSpec{
			OutS: "A", SColumns: []string{"K", "G"},
			OutT: "B", TColumns: []string{"K", "V"},
		}
		// K determines G, so the FD check always finds a key: B is
		// deduplicated when K also determines V, A otherwise.
		seg, err := Decompose(r, spec, Options{ValidateFD: true})
		if err != nil {
			t.Fatalf("iter %d: decompose: %v", iter, err)
		}
		label := fmt.Sprintf("iter %d", iter)
		assertDecomposeMatchesQueryLevel(t, r, spec, seg, label)
		merged, err := Merge(seg.S, seg.T, "R2", Options{})
		if err != nil {
			t.Fatalf("iter %d: merge: %v", iter, err)
		}
		fact, dim := seg.S, seg.T
		if merged.Reused == seg.T.Name() {
			fact, dim = seg.T, seg.S
		}
		want, err := queryevolve.Merge(fact, dim, "R2")
		if err != nil {
			t.Fatal(err)
		}
		assertIdenticalRows(t, merged.Table, want, label+": merged")
		if err := merged.Table.Validate(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}
