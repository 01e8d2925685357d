package colstore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cods/internal/wah"
)

// figure1R returns the paper's Figure 1 table R.
func figure1R(t *testing.T) *Table {
	t.Helper()
	tb, err := NewTableBuilder("R", []string{"Employee", "Skill", "Address"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"Jones", "Typing", "425 Grant Ave"},
		{"Jones", "Shorthand", "425 Grant Ave"},
		{"Roberts", "Light Cleaning", "747 Industrial Way"},
		{"Ellis", "Alchemy", "747 Industrial Way"},
		{"Jones", "Whittling", "425 Grant Ave"},
		{"Ellis", "Juggling", "747 Industrial Way"},
		{"Harrison", "Light Cleaning", "425 Grant Ave"},
	}
	for _, r := range rows {
		if err := tb.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	tab, err := tb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestBuildAndReadBack(t *testing.T) {
	tab := figure1R(t)
	if tab.NumRows() != 7 || tab.NumColumns() != 3 {
		t.Fatalf("bad shape: %v", tab)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	rows, err := tab.Rows(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0][0] != "Jones" || rows[0][1] != "Typing" {
		t.Fatalf("row 0 = %v", rows[0])
	}
	if rows[6][0] != "Harrison" || rows[6][2] != "425 Grant Ave" {
		t.Fatalf("row 6 = %v", rows[6])
	}
	// Single row access agrees with bulk access.
	for i := uint64(0); i < tab.NumRows(); i++ {
		row, err := tab.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		for c := range row {
			if row[c] != rows[i][c] {
				t.Fatalf("Row(%d)[%d]=%q, Rows gave %q", i, c, row[c], rows[i][c])
			}
		}
	}
}

func TestColumnBitmaps(t *testing.T) {
	tab := figure1R(t)
	emp, err := tab.Column("Employee")
	if err != nil {
		t.Fatal(err)
	}
	if emp.DistinctCount() != 4 {
		t.Fatalf("Employee distinct=%d want 4", emp.DistinctCount())
	}
	jones := emp.BitmapFor("Jones")
	if jones.Count() != 3 {
		t.Fatalf("Jones count=%d want 3", jones.Count())
	}
	got := jones.AppendPositionsTo(nil)
	want := []uint64{0, 1, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Jones rows=%v want %v", got, want)
		}
	}
	absent := emp.BitmapFor("Nobody")
	if absent.Count() != 0 || absent.Len() != 7 {
		t.Fatalf("absent value bitmap: %v", absent)
	}
}

func TestEqScanAndScanWhere(t *testing.T) {
	tab := figure1R(t)
	addr, _ := tab.Column("Address")
	grant := addr.EqScan("425 Grant Ave")
	if grant.Count() != 4 {
		t.Fatalf("EqScan count=%d want 4", grant.Count())
	}
	skill, _ := tab.Column("Skill")
	cleaning := skill.ScanWhere(func(v string) bool { return v == "Light Cleaning" })
	if cleaning.Count() != 2 {
		t.Fatalf("ScanWhere count=%d want 2", cleaning.Count())
	}
	// AND across columns: cleaners at Grant Ave.
	both := wah.And(grant, cleaning)
	if both.Count() != 1 {
		t.Fatalf("conjunction count=%d want 1", both.Count())
	}
	pos := both.AppendPositionsTo(nil)
	if pos[0] != 6 {
		t.Fatalf("conjunction row=%v want [6]", pos)
	}
}

func TestRangeScan(t *testing.T) {
	col := NewColumnFromValues("Age", []string{"30", "25", "41", "7", "30", "100"})
	cases := []struct {
		lo, hi string
		want   uint64
	}{
		{"", "", 6},       // unbounded
		{"25", "30", 3},   // 25, 30, 30 (numeric)
		{"7", "7", 1},     // point
		{"8", "24", 0},    // empty numeric gap
		{"", "30", 4},     // 7, 25, 30, 30
		{"41", "", 2},     // 41, 100
		{"200", "300", 0}, // above all
	}
	for _, c := range cases {
		got := col.RangeScan(c.lo, c.hi)
		if got.Len() != 6 {
			t.Fatalf("[%s,%s]: bitmap len=%d", c.lo, c.hi, got.Len())
		}
		if got.Count() != c.want {
			t.Errorf("[%s,%s]: count=%d want %d", c.lo, c.hi, got.Count(), c.want)
		}
	}
	// Lexicographic for non-numeric values.
	names := NewColumnFromValues("N", []string{"bob", "ann", "carol", "dave"})
	if got := names.RangeScan("b", "cz").Count(); got != 2 {
		t.Errorf("lexicographic range: count=%d want 2", got)
	}
}

func TestRowIDsMatchValues(t *testing.T) {
	tab := figure1R(t)
	for _, name := range tab.ColumnNames() {
		col, _ := tab.Column(name)
		ids := col.RowIDs()
		for i := uint64(0); i < col.NumRows(); i++ {
			want, err := col.ValueAt(i)
			if err != nil {
				t.Fatal(err)
			}
			if got := col.Dict().Value(ids[i]); got != want {
				t.Fatalf("column %s row %d: RowIDs gives %q, ValueAt gives %q", name, i, got, want)
			}
		}
	}
}

func TestSchemaOperations(t *testing.T) {
	tab := figure1R(t)

	renamed := tab.WithName("R2")
	if renamed.Name() != "R2" || renamed.NumRows() != 7 {
		t.Fatalf("WithName: %v", renamed)
	}

	rc, err := tab.WithColumnRenamed("Skill", "Talent")
	if err != nil {
		t.Fatal(err)
	}
	if !rc.HasColumn("Talent") || rc.HasColumn("Skill") {
		t.Fatalf("rename failed: %v", rc.ColumnNames())
	}
	if _, err := tab.WithColumnRenamed("Skill", "Employee"); err == nil {
		t.Fatal("rename onto existing column should fail")
	}
	if _, err := tab.WithColumnRenamed("Nope", "X"); err == nil {
		t.Fatal("rename of missing column should fail")
	}

	dropped, err := tab.WithColumnDropped("Address")
	if err != nil {
		t.Fatal(err)
	}
	if dropped.NumColumns() != 2 || dropped.HasColumn("Address") {
		t.Fatalf("drop failed: %v", dropped.ColumnNames())
	}
	// Original unchanged (immutability).
	if !tab.HasColumn("Address") {
		t.Fatal("drop mutated the source table")
	}

	extra := NewColumnFromValues("Grade", []string{"A", "B", "A", "C", "B", "A", "C"})
	added, err := tab.WithColumnAdded(extra)
	if err != nil {
		t.Fatal(err)
	}
	if added.NumColumns() != 4 {
		t.Fatalf("add failed: %v", added.ColumnNames())
	}
	short := NewColumnFromValues("Bad", []string{"x"})
	if _, err := tab.WithColumnAdded(short); err == nil {
		t.Fatal("adding a short column should fail")
	}
}

func TestProject(t *testing.T) {
	tab := figure1R(t)
	s, err := tab.Project("S", []string{"Employee", "Skill"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumColumns() != 2 || s.NumRows() != 7 {
		t.Fatalf("project shape: %v", s)
	}
	// Shared column object: projection is zero-copy.
	orig, _ := tab.Column("Employee")
	proj, _ := s.Column("Employee")
	if orig != proj {
		t.Fatal("Project copied column data; expected sharing")
	}
	if _, err := tab.Project("X", []string{"Missing"}, nil); err == nil {
		t.Fatal("projecting a missing column should fail")
	}
}

func TestFilterRows(t *testing.T) {
	tab := figure1R(t)
	// Keep rows of employees at 747 Industrial Way.
	addr, _ := tab.Column("Address")
	mask := addr.EqScan("747 Industrial Way")
	ft, err := tab.FilterRows("F", mask)
	if err != nil {
		t.Fatal(err)
	}
	if ft.NumRows() != 3 {
		t.Fatalf("filtered rows=%d want 3", ft.NumRows())
	}
	if err := ft.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, row := range ft.SortedTuples() {
		if row[2] != "747 Industrial Way" {
			t.Fatalf("filter leaked row %v", row)
		}
	}
	// Dropped values must leave the dictionary.
	emp, _ := ft.Column("Employee")
	if emp.DistinctCount() != 2 { // Roberts, Ellis
		t.Fatalf("filtered Employee distinct=%d want 2", emp.DistinctCount())
	}
	short := wah.New()
	short.Extend(3)
	if _, err := tab.FilterRows("F", short); err == nil {
		t.Fatal("mask length mismatch should fail")
	}
}

func TestTableBuilderValidation(t *testing.T) {
	if _, err := NewTableBuilder("T", nil, nil); err == nil {
		t.Fatal("empty schema should fail")
	}
	if _, err := NewTableBuilder("T", []string{"A", "A"}, nil); err == nil {
		t.Fatal("duplicate column should fail")
	}
	if _, err := NewTableBuilder("T", []string{"A"}, []string{"B"}); err == nil {
		t.Fatal("key outside schema should fail")
	}
	tb, err := NewTableBuilder("T", []string{"A", "B"}, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AppendRow([]string{"only-one"}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
}

func TestValidateKey(t *testing.T) {
	tb, _ := NewTableBuilder("T", []string{"K", "V"}, []string{"K"})
	tb.AppendRow([]string{"a", "1"})
	tb.AppendRow([]string{"b", "2"})
	tab, err := tb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.ValidateKey(); err != nil {
		t.Fatal(err)
	}
	tb2, _ := NewTableBuilder("T", []string{"K", "V"}, []string{"K"})
	tb2.AppendRow([]string{"a", "1"})
	tb2.AppendRow([]string{"a", "2"})
	dup, _ := tb2.Finish()
	if err := dup.ValidateKey(); err == nil {
		t.Fatal("duplicate key should fail validation")
	}
}

func TestColumnBuilderWithDict(t *testing.T) {
	src := NewColumnFromValues("X", []string{"p", "q", "p", "r"})
	b := NewColumnBuilderWithDict("Y", src.Dict())
	b.AppendRunID(src.Dict().Lookup("q"), 3)
	b.AppendRunID(src.Dict().Lookup("p"), 2)
	col := b.Finish()
	if col.NumRows() != 5 {
		t.Fatalf("rows=%d", col.NumRows())
	}
	v, _ := col.ValueAt(0)
	if v != "q" {
		t.Fatalf("row 0 = %q", v)
	}
	v, _ = col.ValueAt(4)
	if v != "p" {
		t.Fatalf("row 4 = %q", v)
	}
	// "r" never appended: dropped from the finished dictionary.
	if col.DistinctCount() != 2 {
		t.Fatalf("distinct=%d want 2", col.DistinctCount())
	}
}

func TestNewColumnFromBitmaps(t *testing.T) {
	b1, _ := wah.FromPositions([]uint64{0, 2}, 4)
	b2, _ := wah.FromPositions([]uint64{1, 3}, 4)
	col, err := NewColumnFromBitmaps("C", []string{"x", "y"}, []*wah.Bitmap{b1, b2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewColumnFromBitmaps("C", []string{"x"}, nil, 4); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	if _, err := NewColumnFromBitmaps("C", []string{"x", "x"}, []*wah.Bitmap{b1, b2}, 4); err == nil {
		t.Fatal("duplicate value should fail")
	}
}

func TestStats(t *testing.T) {
	tab := figure1R(t)
	s := tab.Stats()
	if s.Rows != 7 || s.Columns != 3 {
		t.Fatalf("stats: %+v", s)
	}
	if s.DistinctTotal != 4+6+2 {
		t.Fatalf("distinct total=%d", s.DistinctTotal)
	}
	if s.CompressedBytes == 0 {
		t.Fatal("compressed bytes should be nonzero")
	}
}

func TestQuickBuildValidate(t *testing.T) {
	// Property: any table built through the builder validates, and its
	// per-column bitmap counts sum to the row count.
	f := func(seed int64, n uint16, distinct uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := int(n % 400)
		d := int(distinct%20) + 1
		tb, err := NewTableBuilder("T", []string{"A", "B"}, nil)
		if err != nil {
			return false
		}
		for i := 0; i < rows; i++ {
			tb.AppendRow([]string{
				fmt.Sprintf("a%d", rng.Intn(d)),
				fmt.Sprintf("b%d", rng.Intn(d*2)),
			})
		}
		tab, err := tb.Finish()
		if err != nil {
			return false
		}
		return tab.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickFilterRowsPreservesContent(t *testing.T) {
	// Property: filtering with a random mask keeps exactly the masked
	// rows, in order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := rng.Intn(300) + 1
		tb, _ := NewTableBuilder("T", []string{"A", "B"}, nil)
		var raw [][]string
		for i := 0; i < rows; i++ {
			r := []string{fmt.Sprintf("a%d", rng.Intn(5)), fmt.Sprintf("b%d", rng.Intn(50))}
			raw = append(raw, r)
			tb.AppendRow(r)
		}
		tab, _ := tb.Finish()
		mask := wah.New()
		var want [][]string
		for i := 0; i < rows; i++ {
			if rng.Intn(3) == 0 {
				mask.AppendBit(1)
				want = append(want, raw[i])
			} else {
				mask.AppendBit(0)
			}
		}
		ft, err := tab.FilterRows("F", mask)
		if err != nil || ft.Validate() != nil {
			return false
		}
		got, err := ft.Rows(0, 0)
		if err != nil || len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRowsHugeLimit is a regression test: offset+limit used to be computed
// in uint64, so a huge limit wrapped, end underflowed below offset, and
// end-offset became an absurd allocation. Clamping must be overflow-safe.
func TestRowsHugeLimit(t *testing.T) {
	tab := figure1R(t)
	all, err := tab.Rows(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		offset, limit uint64
		want          int
	}{
		{0, math.MaxUint64, 7},
		{0, math.MaxUint64 - 1, 7},
		{3, math.MaxUint64, 4},
		{6, math.MaxUint64, 1},
		{7, math.MaxUint64, 0},
		{math.MaxUint64, math.MaxUint64, 0},
		{math.MaxUint64, 1, 0},
		{2, 2, 2},
	}
	for _, c := range cases {
		got, err := tab.Rows(c.offset, c.limit)
		if err != nil {
			t.Fatalf("Rows(%d, %d): %v", c.offset, c.limit, err)
		}
		if len(got) != c.want {
			t.Fatalf("Rows(%d, %d) returned %d rows, want %d", c.offset, c.limit, len(got), c.want)
		}
		for i, row := range got {
			wantRow := all[c.offset+uint64(i)]
			for j := range row {
				if row[j] != wantRow[j] {
					t.Fatalf("Rows(%d, %d)[%d] = %v, want %v", c.offset, c.limit, i, row, wantRow)
				}
			}
		}
	}
}

// TestRowIDRange checks the paged decode against the full decode,
// including empty and clamped ranges.
func TestRowIDRange(t *testing.T) {
	tab := figure1R(t)
	for i := 0; i < tab.NumColumns(); i++ {
		col := tab.ColumnAt(i)
		full := col.RowIDs()
		n := col.NumRows()
		for start := uint64(0); start <= n; start++ {
			for end := start; end <= n+2; end++ {
				got := col.RowIDRange(start, end)
				wantEnd := end
				if wantEnd > n {
					wantEnd = n
				}
				if start >= wantEnd {
					if len(got) != 0 {
						t.Fatalf("%q [%d,%d): got %d ids, want 0", col.Name(), start, end, len(got))
					}
					continue
				}
				if uint64(len(got)) != wantEnd-start {
					t.Fatalf("%q [%d,%d): got %d ids, want %d", col.Name(), start, end, len(got), wantEnd-start)
				}
				for j, id := range got {
					if id != full[start+uint64(j)] {
						t.Fatalf("%q [%d,%d): id[%d] = %d, want %d", col.Name(), start, end, j, id, full[start+uint64(j)])
					}
				}
			}
		}
	}
}

// RangeScan must follow the system-wide CompareValues total order on
// mixed numeric/non-numeric values: the old split comparators (sort
// lexicographic, search numeric-when-both-parse) made the binary search
// non-monotonic and returned wrong row sets.
func TestRangeScanMixedValuesTotalOrder(t *testing.T) {
	col := NewColumnFromValues("V", []string{"10x", "9", "abc", "10", "2"})
	// Integers sort first: [2 9 10], then [10x abc].
	if got := col.RangeScan("10", "").Count(); got != 3 {
		t.Fatalf("RangeScan(10,∞) = %d rows, want 3 (10, 10x, abc; 9 and 2 excluded)", got)
	}
	if got := col.RangeScan("", "9").Count(); got != 2 {
		t.Fatalf("RangeScan(-∞,9) = %d rows, want 2 (2, 9)", got)
	}
	if got := col.RangeScan("10x", "abc").Count(); got != 2 {
		t.Fatalf("RangeScan(10x,abc) = %d rows, want 2", got)
	}
}
