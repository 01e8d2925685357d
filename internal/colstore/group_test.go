package colstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cods/internal/wah"
)

// groupAlphabet holds values that collide when a tuple's values are
// joined with NUL bytes, plus the empty string.
var groupAlphabet = []string{"", "\x00", "a\x00", "a", "\x00a", "b"}

// randomGroupTable builds a table over k0..k2 and v with 1–4 segments of
// rows drawn from groupAlphabet. Half of the segments drop random rows
// after they are built, so their dictionaries are no longer in order of
// first appearance.
func randomGroupTable(t *testing.T, rng *rand.Rand) *Table {
	t.Helper()
	schema := []string{"k0", "k1", "k2", "v"}
	var segs []*Segment
	for n := 1 + rng.Intn(4); len(segs) < n; {
		rows := make([][]string, 1+rng.Intn(12))
		for i := range rows {
			rows[i] = make([]string, len(schema))
			for j := range rows[i] {
				rows[i][j] = groupAlphabet[rng.Intn(len(groupAlphabet))]
			}
		}
		s := segmentFromRows(t, schema, rows)
		if rng.Intn(2) == 0 {
			keep := make([]bool, len(rows))
			for i := range keep {
				keep[i] = rng.Intn(3) > 0
			}
			var err error
			if s, err = s.Filter(wah.FromBools(keep)); err != nil {
				t.Fatal(err)
			}
		}
		segs = append(segs, s)
	}
	tbl, err := NewSegmented("r", schema, segs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// naiveGroups is the reference grouping: tuples are []string, compared
// through an unambiguous quoted rendering, and numbered in order of first
// appearance.
type naiveGroups struct {
	index  map[string]int
	tuples [][]string
}

// add groups tbl's rows on cols, numbering new tuples only when assign is
// set, and returns each group's global rows plus the rows matching no
// group.
func (n *naiveGroups) add(tbl *Table, cols []string, assign bool) (rows [][]uint64, misses []uint64) {
	all, err := tbl.Rows(0, 0)
	if err != nil {
		panic(err)
	}
	rows = make([][]uint64, len(n.tuples))
	for r, row := range all {
		tuple := make([]string, len(cols))
		for j, c := range cols {
			tuple[j] = row[tbl.byName[c]]
		}
		k := fmt.Sprintf("%q", tuple)
		gi, ok := n.index[k]
		if !ok && !assign {
			misses = append(misses, uint64(r))
			continue
		}
		if !ok {
			gi = len(n.tuples)
			n.index[k] = gi
			n.tuples = append(n.tuples, tuple)
			rows = append(rows, nil)
		}
		rows[gi] = append(rows[gi], uint64(r))
	}
	return rows, misses
}

// kernelRows turns per-segment groups into each group's global rows.
func kernelRows(t *testing.T, tbl *Table, per []SegmentGroups, n int) [][]uint64 {
	t.Helper()
	out := make([][]uint64, n)
	for i, sg := range per {
		seen := make(map[int]bool)
		for k, gi := range sg.Groups {
			if seen[gi] {
				t.Fatalf("segment %d lists group %d twice", i, gi)
			}
			seen[gi] = true
			for _, p := range sg.Rows[k].AppendPositionsTo(nil) {
				out[gi] = append(out[gi], tbl.offsets[i]+p)
			}
		}
	}
	return out
}

// TestGroupMatchesNaiveGrouping checks the grouping kernel against a
// naive grouping on []string tuples over random multi-segment tables with
// one to three key columns: the group count, each group's first row and
// values, and each group's rows, both for the grouped table and for a
// second table looked up with Find, whose misses must be reported per
// segment at their lowest local row.
func TestGroupMatchesNaiveGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		s, other := randomGroupTable(t, rng), randomGroupTable(t, rng)
		cols := []string{"k2", "k0", "k1"}[:1+rng.Intn(3)]
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })

		g, err := Group(s, cols)
		if err != nil {
			t.Fatal(err)
		}
		sGroups, err := g.Find(s)
		if err != nil {
			t.Fatal(err)
		}
		naive := &naiveGroups{index: make(map[string]int)}
		wantRows, _ := naive.add(s, cols, true)
		if g.Len() != len(naive.tuples) {
			t.Fatalf("trial %d %v: %d groups, naive %d", trial, cols, g.Len(), len(naive.tuples))
		}
		for gi, tuple := range naive.tuples {
			if g.First(gi) != wantRows[gi][0] {
				t.Fatalf("trial %d %v: group %d first row %d, naive %d", trial, cols, gi, g.First(gi), wantRows[gi][0])
			}
			for j := range cols {
				if v := g.Value(gi, j); v != tuple[j] {
					t.Fatalf("trial %d %v: group %d value %d is %q, naive %q", trial, cols, gi, j, v, tuple[j])
				}
			}
		}
		if got := kernelRows(t, s, sGroups, g.Len()); !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("trial %d %v: grouped rows %v, naive %v", trial, cols, got, wantRows)
		}
		for i, sg := range sGroups {
			if sg.Miss != -1 {
				t.Fatalf("trial %d %v: grouped table's segment %d misses row %d", trial, cols, i, sg.Miss)
			}
		}

		found, err := g.Find(other)
		if err != nil {
			t.Fatal(err)
		}
		wantFound, misses := naive.add(other, cols, false)
		if got := kernelRows(t, other, found, g.Len()); !reflect.DeepEqual(got, wantFound) {
			t.Fatalf("trial %d %v: found rows %v, naive %v", trial, cols, got, wantFound)
		}
		wantMiss := make([]int64, other.NumSegments())
		for i := range wantMiss {
			wantMiss[i] = -1
		}
		for _, r := range misses {
			if si := other.segmentAt(r); wantMiss[si] < 0 {
				wantMiss[si] = int64(r - other.offsets[si])
			}
		}
		for i, sg := range found {
			if sg.Miss != wantMiss[i] {
				t.Fatalf("trial %d %v: segment %d miss %d, naive %d", trial, cols, i, sg.Miss, wantMiss[i])
			}
		}
	}
}
