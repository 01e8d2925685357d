package workload

import (
	"testing"

	"cods/internal/rowstore"
)

func TestForEachRowShape(t *testing.T) {
	spec := Spec{Rows: 1000, DistinctKeys: 20, Seed: 1}
	keys := make(map[string]bool)
	cOf := make(map[string]string)
	var n int
	err := ForEachRow(spec, func(row []string) error {
		if len(row) != 3 {
			t.Fatalf("row arity %d", len(row))
		}
		keys[row[0]] = true
		// The FD A -> C must hold.
		if prev, ok := cOf[row[0]]; ok && prev != row[2] {
			t.Fatalf("FD violated for key %s: %s vs %s", row[0], prev, row[2])
		}
		cOf[row[0]] = row[2]
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 1000 {
		t.Fatalf("rows=%d", n)
	}
	if len(keys) == 0 || len(keys) > 20 {
		t.Fatalf("distinct keys=%d", len(keys))
	}
}

func TestReproducibility(t *testing.T) {
	spec := Spec{Rows: 500, DistinctKeys: 50, Seed: 42}
	var a, b []string
	ForEachRow(spec, func(row []string) error {
		a = append(a, row[0]+row[1]+row[2])
		return nil
	})
	ForEachRow(spec, func(row []string) error {
		b = append(b, row[0]+row[1]+row[2])
		return nil
	})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across runs with same seed", i)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	uniform := Spec{Rows: 20000, DistinctKeys: 100, Seed: 3}
	skewed := Spec{Rows: 20000, DistinctKeys: 100, ZipfS: 1.5, Seed: 3}
	maxCount := func(spec Spec) int {
		counts := map[string]int{}
		ForEachRow(spec, func(row []string) error {
			counts[row[0]]++
			return nil
		})
		m := 0
		for _, c := range counts {
			if c > m {
				m = c
			}
		}
		return m
	}
	mu, ms := maxCount(uniform), maxCount(skewed)
	if ms <= mu*2 {
		t.Fatalf("zipf skew not visible: uniform max=%d, skewed max=%d", mu, ms)
	}
}

func TestBuildColstore(t *testing.T) {
	tab, err := BuildColstore(Spec{Rows: 2000, DistinctKeys: 30, Seed: 5}, "R")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2000 || tab.NumColumns() != 3 {
		t.Fatalf("shape: %v", tab)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	a, _ := tab.Column("A")
	if a.DistinctCount() > 30 {
		t.Fatalf("A distinct=%d", a.DistinctCount())
	}
}

func TestBuildRowstore(t *testing.T) {
	db := rowstore.NewDB()
	tab, err := BuildRowstore(Spec{Rows: 1500, DistinctKeys: 10, Seed: 6}, db, "R", rowstore.HeapStorage)
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1500 {
		t.Fatalf("rows=%d", tab.NumRows())
	}
}

func TestBuildColstoreST(t *testing.T) {
	s, tt, err := BuildColstoreST(Spec{Rows: 3000, DistinctKeys: 40, Seed: 7}, "S", "T")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumRows() != 3000 {
		t.Fatalf("S rows=%d", s.NumRows())
	}
	// T has one row per distinct key that appears in S.
	sa, _ := s.Column("A")
	if tt.NumRows() != uint64(sa.DistinctCount()) {
		t.Fatalf("T rows=%d, S distinct=%d", tt.NumRows(), sa.DistinctCount())
	}
	if err := tt.ValidateKey(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRowstoreST(t *testing.T) {
	db := rowstore.NewDB()
	if err := BuildRowstoreST(Spec{Rows: 1000, DistinctKeys: 15, Seed: 8}, db, "S", "T", rowstore.HeapStorage); err != nil {
		t.Fatal(err)
	}
	s, _ := db.Get("S")
	tt, _ := db.Get("T")
	if s.NumRows() != 1000 {
		t.Fatalf("S rows=%d", s.NumRows())
	}
	// Every S key must be in T exactly once.
	keys := map[string]int{}
	tt.Scan(func(row []string) bool { keys[row[0]]++; return true })
	err := s.Scan(func(row []string) bool {
		if keys[row[0]] != 1 {
			t.Fatalf("key %q appears %d times in T", row[0], keys[row[0]])
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEmployeeTable(t *testing.T) {
	tab, err := EmployeeTable("R")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 7 {
		t.Fatalf("rows=%d", tab.NumRows())
	}
}
