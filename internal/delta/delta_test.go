package delta

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cods/internal/colstore"
	"cods/internal/expr"
)

func pred(t *testing.T, condition string) expr.Node {
	t.Helper()
	node, err := expr.Parse(condition)
	if err != nil {
		t.Fatal(err)
	}
	return node
}

func baseTable(t *testing.T) *colstore.Table {
	t.Helper()
	tb, err := colstore.NewTableBuilder("emp", []string{"Name", "Skill", "City"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]string{
		{"jones", "typing", "sf"},
		{"ellis", "alchemy", "la"},
		{"smith", "typing", "sf"},
		{"adams", "juggling", "ny"},
	} {
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

func sorted(rows [][]string) [][]string {
	out := append([][]string(nil), rows...)
	sort.Slice(out, func(a, b int) bool {
		return fmt.Sprint(out[a]) < fmt.Sprint(out[b])
	})
	return out
}

// rowsWhere returns the rows of o's flushed table satisfying condition,
// in table order — the read every facade query makes of an overlay.
func rowsWhere(t *testing.T, o *Overlay, condition string) [][]string {
	t.Helper()
	tab, err := o.Table()
	if err != nil {
		t.Fatal(err)
	}
	mask, err := pred(t, condition).Eval(tab)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := tab.FilterRows(tab.Name(), mask)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := hit.Rows(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// assertMerged checks that the overlay's row count and its flushed table
// agree on the expected tuple set — the core invariant: the arithmetic
// NumRows and the compacted base every read goes through describe the
// same rows.
func assertMerged(t *testing.T, o *Overlay, want [][]string) {
	t.Helper()
	if n := o.NumRows(); n != uint64(len(want)) {
		t.Fatalf("NumRows = %d, want %d", n, len(want))
	}
	flushed, err := o.Table()
	if err != nil {
		t.Fatal(err)
	}
	if flushed.NumRows() != uint64(len(want)) {
		t.Fatalf("flushed rows = %d, want %d", flushed.NumRows(), len(want))
	}
	if err := flushed.Validate(); err != nil {
		t.Fatalf("flushed table invalid: %v", err)
	}
	frows, err := flushed.Rows(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sorted(frows), sorted(want)) {
		t.Fatalf("flushed rows = %v, want %v", sorted(frows), sorted(want))
	}
}

func TestInsertDeleteUpdateMerged(t *testing.T) {
	o := Wrap(baseTable(t))
	if o.Dirty() {
		t.Fatal("clean overlay reports dirty")
	}

	o1, err := o.Insert([]string{"brown", "typing", "sf"})
	if err != nil {
		t.Fatal(err)
	}
	assertMerged(t, o1, [][]string{
		{"jones", "typing", "sf"},
		{"ellis", "alchemy", "la"},
		{"smith", "typing", "sf"},
		{"adams", "juggling", "ny"},
		{"brown", "typing", "sf"},
	})

	// Delete hits one base row and one appended row.
	o2, n, err := o1.Delete("Name = 'smith' OR Name = 'brown'")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Delete removed %d rows, want 2", n)
	}
	assertMerged(t, o2, [][]string{
		{"jones", "typing", "sf"},
		{"ellis", "alchemy", "la"},
		{"adams", "juggling", "ny"},
	})

	// Update hits base rows (delete+reinsert) and leaves others alone.
	o3, n, err := o2.Update("City", "oakland", "City = 'sf' OR City = 'la'")
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Update changed %d rows, want 2", n)
	}
	assertMerged(t, o3, [][]string{
		{"jones", "typing", "oakland"},
		{"ellis", "alchemy", "oakland"},
		{"adams", "juggling", "ny"},
	})

	// Update of an appended row rewrites it in place.
	o4, err := o3.Insert([]string{"kim", "typing", "sf"})
	if err != nil {
		t.Fatal(err)
	}
	o5, n, err := o4.Update("Skill", "editing", "Name = 'kim'")
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("Update changed %d rows, want 1", n)
	}
	assertMerged(t, o5, [][]string{
		{"jones", "typing", "oakland"},
		{"ellis", "alchemy", "oakland"},
		{"adams", "juggling", "ny"},
		{"kim", "editing", "sf"},
	})

	// Filtered reads of the flush see base and tail consistently.
	if got := rowsWhere(t, o5, "Skill = 'editing' OR City = 'oakland'"); len(got) != 3 {
		t.Fatalf("filtered rows = %v, want 3 rows", got)
	}
}

// Copy-on-write: DML on a derived overlay must never change what an
// earlier overlay (a published snapshot) observes.
func TestOverlayCopyOnWrite(t *testing.T) {
	o0 := Wrap(baseTable(t))
	o1, err := o0.Insert([]string{"brown", "typing", "sf"})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o1.Delete(""); err != nil {
		t.Fatal(err)
	}
	if _, _, err = o1.Update("City", "x", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := o1.Insert([]string{"pena", "ops", "ny"}); err != nil {
		t.Fatal(err)
	}
	// o0 and o1 are unchanged by everything derived from them.
	if n := o0.NumRows(); n != 4 {
		t.Fatalf("o0.NumRows = %d after derived DML, want 4", n)
	}
	if n := o1.NumRows(); n != 5 {
		t.Fatalf("o1.NumRows = %d after derived DML, want 5", n)
	}
	rows := rowsWhere(t, o1, "Name = 'brown'")
	if len(rows) != 1 || rows[0][2] != "sf" {
		t.Fatalf("o1 brown row = %v, want [brown typing sf]", rows)
	}
}

// Two lineages branching off one overlay (the shape a rollback produces)
// must not share appended slots: the arena lets only the tip extend the
// backing array in place; the branch copies.
func TestInsertBranchingLineages(t *testing.T) {
	o0 := Wrap(baseTable(t))
	parent, err := o0.Insert([]string{"p", "s", "c"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := parent.Insert([]string{"branchA", "s", "c"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := parent.Insert([]string{"branchB", "s", "c"})
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*Overlay{"A": a, "B": b} {
		own, other := "branchA", "branchB"
		if name == "B" {
			own, other = other, own
		}
		if got := rowsWhere(t, o, fmt.Sprintf("Name = '%s'", own)); len(got) != 1 {
			t.Fatalf("branch %s misses its own row: %v", name, got)
		}
		if got := rowsWhere(t, o, fmt.Sprintf("Name = '%s'", other)); len(got) != 0 {
			t.Fatalf("branch %s sees the other branch's row: %v", name, got)
		}
		if n := o.NumRows(); n != 6 {
			t.Fatalf("branch %s NumRows = %d, want 6", name, n)
		}
	}
	if n := parent.NumRows(); n != 5 {
		t.Fatalf("parent NumRows = %d after branch inserts, want 5", n)
	}

	// A derived (Delete/Update) overlay over a shared backing array must
	// also be insulated: inserts after a no-op delete cannot collide with
	// the original lineage's next insert.
	noop, _, err := parent.Delete("Name = 'nobody'")
	if err != nil {
		t.Fatal(err)
	}
	c, err := noop.Insert([]string{"branchC", "s", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsWhere(t, a, "Name = 'branchC'"); len(got) != 0 {
		t.Fatalf("derived-branch insert leaked into lineage A: %v", got)
	}
	if got := rowsWhere(t, c, "Name = 'branchA'"); len(got) != 0 {
		t.Fatalf("lineage A's insert leaked into derived branch: %v", got)
	}
}

// A long linear chain of inserts (the common DML shape) stays correct
// while extending the shared backing array in place.
func TestInsertLinearChain(t *testing.T) {
	o := Wrap(baseTable(t))
	var err error
	for i := 0; i < 500; i++ {
		if o, err = o.Insert([]string{fmt.Sprintf("n%03d", i), "s", "c"}); err != nil {
			t.Fatal(err)
		}
	}
	if n := o.NumRows(); n != 504 {
		t.Fatalf("NumRows = %d, want 504", n)
	}
	if got := rowsWhere(t, o, "Name = 'n037'"); len(got) != 1 {
		t.Fatalf("rows(n037) = %v, want 1 row", got)
	}
	flushed, err := o.Table()
	if err != nil {
		t.Fatal(err)
	}
	if flushed.NumRows() != 504 {
		t.Fatalf("flushed rows = %d, want 504", flushed.NumRows())
	}
	if err := flushed.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAllAndEmptyTable(t *testing.T) {
	o := Wrap(baseTable(t))
	o1, n, err := o.Delete("")
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("Delete(all) removed %d, want 4", n)
	}
	assertMerged(t, o1, nil)
	// Inserting into the emptied table works and flushes.
	o2, err := o1.Insert([]string{"new", "skill", "city"})
	if err != nil {
		t.Fatal(err)
	}
	assertMerged(t, o2, [][]string{{"new", "skill", "city"}})
}

func TestInsertArityAndUnknownColumn(t *testing.T) {
	o := Wrap(baseTable(t))
	if _, err := o.Insert([]string{"too", "few"}); err == nil {
		t.Fatal("short INSERT accepted")
	}
	if _, _, err := o.Update("Ghost", "v", ""); err == nil {
		t.Fatal("UPDATE of unknown column accepted")
	}
	if _, _, err := o.Delete("Ghost = 'x'"); err == nil {
		t.Fatal("DELETE with unknown predicate column accepted")
	}
}

// Flushing preserves dictionary sharing semantics: surviving base values
// keep working, vanished values are dropped, new values appear.
func TestFlushDictionaryHygiene(t *testing.T) {
	o := Wrap(baseTable(t))
	o1, n, err := o.Delete("Skill = 'alchemy'")
	if err != nil || n != 1 {
		t.Fatalf("Delete: n=%d err=%v", n, err)
	}
	o2, err := o1.Insert([]string{"nova", "welding", "sf"})
	if err != nil {
		t.Fatal(err)
	}
	flushed, err := o2.Table()
	if err != nil {
		t.Fatal(err)
	}
	skill, err := flushed.Column("Skill")
	if err != nil {
		t.Fatal(err)
	}
	// typing, juggling survive; alchemy vanished; welding is new.
	if got := skill.DistinctCount(); got != 3 {
		t.Fatalf("Skill distinct = %d, want 3", got)
	}
	if err := flushed.Validate(); err != nil {
		t.Fatal(err)
	}
}

// DML must respect declared keys: the evolution operators' key–FK
// assumptions and ValidateKey depend on them being real.
func TestDMLEnforcesDeclaredKey(t *testing.T) {
	tb, err := colstore.NewTableBuilder("kv", []string{"K", "V"}, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]string{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		tb.AppendRow(r)
	}
	base, err := tb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	o := Wrap(base)

	if _, err := o.Insert([]string{"a", "9"}); err == nil {
		t.Fatal("duplicate-key INSERT accepted")
	}
	o1, err := o.Insert([]string{"d", "4"})
	if err != nil {
		t.Fatal(err)
	}
	// A duplicate against the appended tail is also caught.
	if _, err := o1.Insert([]string{"d", "5"}); err == nil {
		t.Fatal("duplicate-key INSERT against appended row accepted")
	}
	// Deleting a key frees it for re-insertion.
	o2, n, err := o1.Delete("K = 'a'")
	if err != nil || n != 1 {
		t.Fatalf("Delete: n=%d err=%v", n, err)
	}
	o3, err := o2.Insert([]string{"a", "10"})
	if err != nil {
		t.Fatalf("re-insert of deleted key rejected: %v", err)
	}

	// UPDATE of the key column to a colliding value is rejected; to a
	// fresh value it passes.
	if _, _, err := o3.Update("K", "b", "V = '3'"); err == nil {
		t.Fatal("key-colliding UPDATE accepted")
	}
	o4, n, err := o3.Update("K", "z", "V = '3'")
	if err != nil || n != 1 {
		t.Fatalf("key UPDATE to fresh value: n=%d err=%v", n, err)
	}
	flushed, err := o4.Table()
	if err != nil {
		t.Fatal(err)
	}
	if err := flushed.ValidateKey(); err != nil {
		t.Fatal(err)
	}
	// Two matched rows collapsing onto one key value collide with each
	// other, and a rewritten key colliding with an appended row is caught
	// too. (o4 holds {b:2, z:3, d:4, a:10}.)
	if _, _, err := o4.Update("K", "w", "V = '2' OR V = '3'"); err == nil {
		t.Fatal("key UPDATE collapsing two rows accepted")
	}
	if _, _, err := o4.Update("K", "d", "V = '2'"); err == nil {
		t.Fatal("key UPDATE colliding with an appended row accepted")
	}
	// Non-key updates are never key-checked (same value on many rows).
	if _, n, err := o4.Update("V", "0", ""); err != nil || n != 4 {
		t.Fatalf("non-key UPDATE: n=%d err=%v", n, err)
	}
}

// Paging the flushed table yields the merged order at every
// offset/limit: surviving base rows in base order, then the appended tail
// in insertion order (an UPDATE re-appends the base rows it rewrites).
func TestRowsPagingMatchesFlush(t *testing.T) {
	o := Wrap(baseTable(t))
	var err error
	for i := 0; i < 7; i++ {
		if o, err = o.Insert([]string{fmt.Sprintf("n%d", i), "s", "c"}); err != nil {
			t.Fatal(err)
		}
	}
	var n uint64
	if o, n, err = o.Delete("Name = 'ellis' OR Name = 'n3'"); err != nil || n != 2 {
		t.Fatalf("Delete: n=%d err=%v", n, err)
	}
	if o, n, err = o.Update("City", "zz", "Name = 'jones'"); err != nil || n != 1 {
		t.Fatalf("Update: n=%d err=%v", n, err)
	}
	flushed, err := o.Table()
	if err != nil {
		t.Fatal(err)
	}
	merged := [][]string{
		{"smith", "typing", "sf"}, {"adams", "juggling", "ny"},
		{"n0", "s", "c"}, {"n1", "s", "c"}, {"n2", "s", "c"},
		{"n4", "s", "c"}, {"n5", "s", "c"}, {"n6", "s", "c"},
		{"jones", "typing", "zz"},
	}
	total := o.NumRows()
	if flushed.NumRows() != total || total != uint64(len(merged)) {
		t.Fatalf("flushed %d rows, overlay %d, want %d", flushed.NumRows(), total, len(merged))
	}
	for offset := uint64(0); offset <= total+1; offset++ {
		for _, limit := range []uint64{0, 1, 2, 3, total, total + 5} {
			got, err := flushed.Rows(offset, limit)
			if err != nil {
				t.Fatalf("Rows(%d, %d): %v", offset, limit, err)
			}
			lo := min(offset, total)
			hi := total
			if limit > 0 {
				hi = min(lo+limit, total)
			}
			if want := merged[lo:hi]; !reflect.DeepEqual(got, want) {
				t.Fatalf("Rows(%d, %d) = %v, want %v", offset, limit, got, want)
			}
		}
	}
}

// RENAME carries the overlay: same pending DML, new name, no flush.
func TestWithNamePreservesDelta(t *testing.T) {
	o := Wrap(baseTable(t))
	o1, err := o.Insert([]string{"kim", "editing", "ny"})
	if err != nil {
		t.Fatal(err)
	}
	o2, n, err := o1.Delete("Name = 'adams'")
	if err != nil || n != 1 {
		t.Fatalf("Delete: n=%d err=%v", n, err)
	}
	r := o2.WithName("emp2")
	if r.Name() != "emp2" {
		t.Fatalf("Name = %q", r.Name())
	}
	if !r.Dirty() || r.PendingAdded() != 1 || r.PendingDeleted() != 1 {
		t.Fatalf("rename dropped overlay state: added=%d deleted=%d", r.PendingAdded(), r.PendingDeleted())
	}
	if n := r.NumRows(); n != 4 {
		t.Fatalf("NumRows = %d, want 4", n)
	}
	// The renamed lineage keeps inserting through the shared arena.
	r2, err := r.Insert([]string{"lee", "ops", "sf"})
	if err != nil {
		t.Fatal(err)
	}
	if got := rowsWhere(t, r2, "Name = 'lee'"); len(got) != 1 {
		t.Fatalf("post-rename insert: %v", got)
	}
	tab, err := r2.Table()
	if err != nil {
		t.Fatal(err)
	}
	if tab.Name() != "emp2" || tab.NumRows() != 5 {
		t.Fatalf("flushed renamed table = %s/%d rows", tab.Name(), tab.NumRows())
	}
}

// keyedBase builds a keyed K,V table with rows a..c for key-index tests.
func keyedBase(t *testing.T) *colstore.Table {
	t.Helper()
	tb, err := colstore.NewTableBuilder("kv", []string{"K", "V"}, []string{"K"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]string{{"a", "1"}, {"b", "2"}, {"c", "3"}} {
		tb.AppendRow(r)
	}
	base, err := tb.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return base
}

// The arena's key index must honor view lengths across branches: after a
// rollback to an older version, keys claimed only by the abandoned newer
// versions are free again, while keys within the rolled-back view still
// conflict. This is the branch-after-rollback contract of the amortized
// keyConflict.
func TestKeyIndexBranchAfterRollback(t *testing.T) {
	o := Wrap(keyedBase(t))
	v1, err := o.Insert([]string{"d", "4"})
	if err != nil {
		t.Fatal(err)
	}
	v2, err := v1.Insert([]string{"e", "5"})
	if err != nil {
		t.Fatal(err)
	}
	// "Rollback" to v1: v2's key 'e' lives only beyond v1's view of the
	// shared arena and must not conflict there.
	branch, err := v1.Insert([]string{"e", "50"})
	if err != nil {
		t.Fatalf("key abandoned by rollback still conflicts: %v", err)
	}
	// Keys within the rolled-back view still conflict on the branch.
	if _, err := branch.Insert([]string{"d", "40"}); err == nil {
		t.Fatal("duplicate of retained key accepted on branch")
	}
	if _, err := branch.Insert([]string{"a", "9"}); err == nil {
		t.Fatal("duplicate of base key accepted on branch")
	}
	// Both lineages stay internally consistent and flush to valid keys.
	for name, ov := range map[string]*Overlay{"abandoned": v2, "branch": branch} {
		tab, err := ov.Table()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tab.ValidateKey(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tab.NumRows() != 5 {
			t.Fatalf("%s: rows = %d, want 5", name, tab.NumRows())
		}
	}
	// The abandoned tip's own view still sees its key.
	if _, err := v2.Insert([]string{"e", "51"}); err == nil {
		t.Fatal("duplicate key accepted on abandoned tip")
	}
}

// A base-only DELETE (or no-op UPDATE) carries the append arena forward:
// the next INSERT of the lineage extends the shared backing array in
// place instead of copying the pending tail.
func TestDeriveCarriesArena(t *testing.T) {
	o := Wrap(keyedBase(t))
	var err error
	for i := 0; i < 10; i++ {
		if o, err = o.Insert([]string{fmt.Sprintf("n%02d", i), "v"}); err != nil {
			t.Fatal(err)
		}
	}
	del, n, err := o.Delete("K = 'a'")
	if err != nil || n != 1 {
		t.Fatalf("Delete: n=%d err=%v", n, err)
	}
	if del.ar != o.ar {
		t.Fatal("base-only Delete severed the append arena")
	}
	ins, err := del.Insert([]string{"x", "v"})
	if err != nil {
		t.Fatal(err)
	}
	if ins.ar != o.ar {
		t.Fatal("insert after base-only Delete copied the tail (new arena)")
	}
	if &ins.added[0] != &o.added[0] {
		t.Fatal("insert after base-only Delete reallocated the backing array")
	}
	// A key freed by the DELETE is insertable, and lands in the index.
	re, err := ins.Insert([]string{"a", "back"})
	if err != nil {
		t.Fatalf("re-insert of base-deleted key rejected: %v", err)
	}
	if _, err := re.Insert([]string{"a", "again"}); err == nil {
		t.Fatal("duplicate of re-inserted key accepted")
	}
	// Deleting an appended row rebuilds the tail with a fresh arena and a
	// rebuilt index: its key frees, the others still conflict.
	cut, n, err := re.Delete("K = 'n03'")
	if err != nil || n != 1 {
		t.Fatalf("Delete appended: n=%d err=%v", n, err)
	}
	if cut.ar == re.ar {
		t.Fatal("appended-row Delete must own a fresh arena")
	}
	if _, err := cut.Insert([]string{"n03", "v2"}); err != nil {
		t.Fatalf("re-insert of tail-deleted key rejected: %v", err)
	}
	if _, err := cut.Insert([]string{"n04", "v2"}); err == nil {
		t.Fatal("duplicate of surviving tail key accepted after rebuild")
	}
	assertMerged(t, cut, [][]string{
		{"b", "2"}, {"c", "3"},
		{"n00", "v"}, {"n01", "v"}, {"n02", "v"}, {"n04", "v"},
		{"n05", "v"}, {"n06", "v"}, {"n07", "v"}, {"n08", "v"}, {"n09", "v"},
		{"x", "v"}, {"a", "back"},
	})
}
