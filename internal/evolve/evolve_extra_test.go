package evolve

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cods/internal/colquery"
)

func TestMergeGeneralCompositeJoin(t *testing.T) {
	// Two join attributes, a key of neither side.
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 15; trial++ {
		var sRows, tRows [][]string
		for i := 0; i < rng.Intn(30)+1; i++ {
			sRows = append(sRows, []string{
				fmt.Sprintf("x%d", rng.Intn(3)), fmt.Sprintf("y%d", rng.Intn(3)),
				fmt.Sprintf("b%d", rng.Intn(4)),
			})
		}
		for i := 0; i < rng.Intn(30)+1; i++ {
			tRows = append(tRows, []string{
				fmt.Sprintf("x%d", rng.Intn(3)), fmt.Sprintf("y%d", rng.Intn(3)),
				fmt.Sprintf("c%d", rng.Intn(4)),
			})
		}
		s := buildTable(t, "S", []string{"J1", "J2", "B"}, nil, sRows)
		tt := buildTable(t, "T", []string{"J1", "J2", "C"}, nil, tRows)
		merged, err := MergeGeneral(s, tt, "R", Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := merged.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := mergedMultiset(t, merged, s, tt)
		want := naiveJoin(t, s, tt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: composite join mismatch\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

func TestMergeAutoSelectsGeneralForComposite(t *testing.T) {
	s := buildTable(t, "S", []string{"J1", "J2", "B"}, nil, [][]string{
		{"x", "p", "b1"}, {"x", "p", "b2"},
	})
	tt := buildTable(t, "T", []string{"J1", "J2", "C"}, nil, [][]string{
		{"x", "p", "c1"}, {"x", "p", "c2"},
	})
	res, err := Merge(s, tt, "R", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reused != "" || res.Table.NumRows() != 4 {
		t.Fatalf("res=%+v rows=%d", res.Reused, res.Table.NumRows())
	}
}

func TestDecomposeKeyColumnSharesDictionary(t *testing.T) {
	// The deduplicated output's key column must carry every source key
	// value with exactly one row (the fast path that shares the source
	// dictionary).
	rng := rand.New(rand.NewSource(23))
	var rows [][]string
	cOf := map[string]string{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("k%03d", rng.Intn(120))
		if _, ok := cOf[k]; !ok {
			cOf[k] = fmt.Sprintf("c%d", rng.Intn(9))
		}
		rows = append(rows, []string{k, fmt.Sprintf("b%d", i), cOf[k]})
	}
	r := buildTable(t, "R", []string{"K", "B", "C"}, nil, rows)
	res, err := Decompose(r, DecomposeSpec{
		OutS: "S", SColumns: []string{"K", "B"},
		OutT: "T", TColumns: []string{"K", "C"},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	kcol, _ := res.T.Column("K")
	if kcol.DistinctCount() != len(cOf) {
		t.Fatalf("key distinct=%d want %d", kcol.DistinctCount(), len(cOf))
	}
	if err := res.T.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := res.T.ValidateKey(); err != nil {
		t.Fatal(err)
	}
	// The outputs' key columns share dictionary lineage, so the planner's
	// semi-join matches S to T by dictionary id without decoding a row.
	skey, _ := res.S.Column("K")
	if !colquery.SharedLineage(skey, kcol) {
		t.Fatal("decomposed key columns lost dictionary lineage; the semi-join path would not engage")
	}
	// Row order of T follows first occurrence in R.
	firstSeen := map[string]bool{}
	var wantOrder []string
	for _, row := range rows {
		if !firstSeen[row[0]] {
			firstSeen[row[0]] = true
			wantOrder = append(wantOrder, row[0])
		}
	}
	got, _ := res.T.Rows(0, 0)
	for i, w := range wantOrder {
		if got[i][0] != w {
			t.Fatalf("T row %d key=%q want %q", i, got[i][0], w)
		}
	}
}

func TestGeneralMergeEmptyIntersection(t *testing.T) {
	s := buildTable(t, "S", []string{"J", "B"}, nil, [][]string{{"x", "b"}})
	tt := buildTable(t, "T", []string{"J", "C"}, nil, [][]string{{"y", "c"}})
	merged, err := MergeGeneral(s, tt, "R", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumRows() != 0 {
		t.Fatalf("rows=%d want 0", merged.NumRows())
	}
	if err := merged.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUnionDisjointDictionaries(t *testing.T) {
	// Values present in only one input must still union correctly.
	a := buildTable(t, "A", []string{"X"}, nil, [][]string{{"only-a"}, {"shared"}})
	b := buildTable(t, "B", []string{"X"}, nil, [][]string{{"only-b"}, {"shared"}})
	u, err := Union(a, b, "U", Options{})
	if err != nil {
		t.Fatal(err)
	}
	col, _ := u.Column("X")
	if col.DistinctCount() != 3 {
		t.Fatalf("distinct=%d", col.DistinctCount())
	}
	if col.BitmapFor("shared").Count() != 2 {
		t.Fatal("shared value lost an occurrence")
	}
	if p, _ := col.BitmapFor("only-b").FirstOne(); p != 2 {
		t.Fatalf("only-b at position %d want 2", p)
	}
}
