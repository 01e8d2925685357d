// Package workload generates the synthetic datasets of the paper's
// evaluation (§2.6): a table R(A, B, C) with a configurable number of rows
// and a controlled number of distinct values in the key attribute A, where
// C depends functionally on A (the paper's Employee → Address shape) and B
// is a per-row attribute (Skill). Figure 3 varies the distinct count from
// 100 to 1M at 10M rows.
package workload

import (
	"fmt"
	"math/rand"

	"cods/internal/colstore"
	"cods/internal/rowstore"
)

// Spec parameterizes a generated dataset.
type Spec struct {
	// Rows is the number of tuples in R (the paper uses 10M).
	Rows int
	// DistinctKeys is the number of distinct values of the key attribute
	// A (the Figure 3 x-axis: 100 … 1M).
	DistinctKeys int
	// DistinctB is the number of distinct values of the non-key, non-FD
	// attribute B. Zero means Rows/10+1 (many distinct skills).
	DistinctB int
	// DistinctC is the number of distinct values C can take; each key
	// maps deterministically to one of them. Zero means DistinctKeys/10+1.
	DistinctC int
	// ZipfS, when > 1, skews the key distribution with a Zipf law of that
	// parameter; 0 (or <=1) draws keys uniformly.
	ZipfS float64
	// Seed makes generation reproducible.
	Seed int64
}

func (s Spec) withDefaults() Spec {
	if s.DistinctB == 0 {
		s.DistinctB = s.Rows/10 + 1
	}
	if s.DistinctC == 0 {
		s.DistinctC = s.DistinctKeys/10 + 1
	}
	return s
}

func (s Spec) String() string {
	return fmt.Sprintf("rows=%d distinct=%d zipf=%.2f seed=%d", s.Rows, s.DistinctKeys, s.ZipfS, s.Seed)
}

// Columns of the generated table R.
var Columns = []string{"A", "B", "C"}

// generator draws rows of R reproducibly.
type generator struct {
	spec Spec
	rng  *rand.Rand
	zipf *rand.Zipf
	keys []string
	bs   []string
	cs   []string
	cOfA []int // key index -> C value index (the FD A→C)
}

func newGenerator(spec Spec) *generator {
	spec = spec.withDefaults()
	g := &generator{spec: spec, rng: rand.New(rand.NewSource(spec.Seed))}
	if spec.ZipfS > 1 {
		g.zipf = rand.NewZipf(g.rng, spec.ZipfS, 1, uint64(spec.DistinctKeys-1))
	}
	g.keys = pool("k", spec.DistinctKeys)
	g.bs = pool("b", spec.DistinctB)
	g.cs = pool("c", spec.DistinctC)
	g.cOfA = make([]int, spec.DistinctKeys)
	for i := range g.cOfA {
		g.cOfA[i] = g.rng.Intn(spec.DistinctC)
	}
	return g
}

func pool(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%07d", prefix, i)
	}
	return out
}

func (g *generator) keyIndex() int {
	if g.zipf != nil {
		return int(g.zipf.Uint64())
	}
	return g.rng.Intn(g.spec.DistinctKeys)
}

// row fills dst with the next generated tuple (A, B, C).
func (g *generator) row(dst []string) {
	k := g.keyIndex()
	dst[0] = g.keys[k]
	dst[1] = g.bs[g.rng.Intn(g.spec.DistinctB)]
	dst[2] = g.cs[g.cOfA[k]]
}

// ForEachRow invokes fn once per generated tuple. The slice is reused
// across calls; fn must copy it to retain it.
func ForEachRow(spec Spec, fn func(row []string) error) error {
	g := newGenerator(spec)
	row := make([]string, 3)
	for i := 0; i < g.spec.Rows; i++ {
		g.row(row)
		if err := fn(row); err != nil {
			return err
		}
	}
	return nil
}

// BuildColstore generates R directly into a bitmap-indexed column-store
// table.
func BuildColstore(spec Spec, name string) (*colstore.Table, error) {
	tb, err := colstore.NewTableBuilder(name, Columns, []string{})
	if err != nil {
		return nil, err
	}
	if err := ForEachRow(spec, tb.AppendRow); err != nil {
		return nil, err
	}
	return tb.Finish()
}

// BuildRowstore generates R into a row-store table registered in db.
func BuildRowstore(spec Spec, db *rowstore.DB, name string, kind rowstore.StorageKind) (*rowstore.Table, error) {
	t, err := db.Create(name, Columns, kind)
	if err != nil {
		return nil, err
	}
	if err := ForEachRow(spec, t.Insert); err != nil {
		return nil, err
	}
	return t, nil
}

// BuildColstoreST generates the mergence experiment's inputs as
// column-store tables: S(A, B) with all rows and T(A, C) with one row per
// distinct key actually drawn (Figure 3(b) merges them back into R).
func BuildColstoreST(spec Spec, nameS, nameT string) (*colstore.Table, *colstore.Table, error) {
	spec = spec.withDefaults()
	g := newGenerator(spec)
	sb, err := colstore.NewTableBuilder(nameS, []string{"A", "B"}, nil)
	if err != nil {
		return nil, nil, err
	}
	seen := make(map[int]bool, spec.DistinctKeys)
	var keyOrder []int
	row := make([]string, 3)
	for i := 0; i < spec.Rows; i++ {
		k := g.keyIndex()
		row[0] = g.keys[k]
		row[1] = g.bs[g.rng.Intn(spec.DistinctB)]
		if err := sb.AppendRow(row[:2]); err != nil {
			return nil, nil, err
		}
		if !seen[k] {
			seen[k] = true
			keyOrder = append(keyOrder, k)
		}
	}
	s, err := sb.Finish()
	if err != nil {
		return nil, nil, err
	}
	tb, err := colstore.NewTableBuilder(nameT, []string{"A", "C"}, []string{"A"})
	if err != nil {
		return nil, nil, err
	}
	for _, k := range keyOrder {
		if err := tb.AppendRow([]string{g.keys[k], g.cs[g.cOfA[k]]}); err != nil {
			return nil, nil, err
		}
	}
	t, err := tb.Finish()
	if err != nil {
		return nil, nil, err
	}
	return s, t, nil
}

// BuildRowstoreST generates the pair (S, T) as row-store tables in db.
func BuildRowstoreST(spec Spec, db *rowstore.DB, nameS, nameT string, kind rowstore.StorageKind) error {
	spec = spec.withDefaults()
	g := newGenerator(spec)
	s, err := db.Create(nameS, []string{"A", "B"}, kind)
	if err != nil {
		return err
	}
	seen := make(map[int]bool, spec.DistinctKeys)
	var keyOrder []int
	row := make([]string, 2)
	for i := 0; i < spec.Rows; i++ {
		k := g.keyIndex()
		row[0] = g.keys[k]
		row[1] = g.bs[g.rng.Intn(spec.DistinctB)]
		if err := s.Insert(row); err != nil {
			return err
		}
		if !seen[k] {
			seen[k] = true
			keyOrder = append(keyOrder, k)
		}
	}
	t, err := db.Create(nameT, []string{"A", "C"}, kind)
	if err != nil {
		return err
	}
	for _, k := range keyOrder {
		if err := t.Insert([]string{g.keys[k], g.cs[g.cOfA[k]]}); err != nil {
			return err
		}
	}
	return nil
}

// EmployeeRows returns the seven tuples of the paper's Figure 1.
func EmployeeRows() [][]string {
	return [][]string{
		{"Jones", "Typing", "425 Grant Ave"},
		{"Jones", "Shorthand", "425 Grant Ave"},
		{"Roberts", "Light Cleaning", "747 Industrial Way"},
		{"Ellis", "Alchemy", "747 Industrial Way"},
		{"Jones", "Whittling", "425 Grant Ave"},
		{"Ellis", "Juggling", "747 Industrial Way"},
		{"Harrison", "Light Cleaning", "425 Grant Ave"},
	}
}

// EmployeeTable builds the paper's Figure 1 table R as a column-store
// table.
func EmployeeTable(name string) (*colstore.Table, error) {
	tb, err := colstore.NewTableBuilder(name, []string{"Employee", "Skill", "Address"}, nil)
	if err != nil {
		return nil, err
	}
	for _, r := range EmployeeRows() {
		if err := tb.AppendRow(r); err != nil {
			return nil, err
		}
	}
	return tb.Finish()
}
