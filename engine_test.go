package cods

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"cods/internal/colstore"
	"cods/internal/rowstore"
	"cods/internal/workload"
)

// Engine tests: the writer side of the catalog (statement execution,
// staging and publication, rollback, compaction, retention) driven
// through the DB and checked against the published Snapshot.

func buildTable(t *testing.T, name string, rows [][]string) *colstore.Table {
	t.Helper()
	tb, err := colstore.NewTableBuilder(name, []string{"A", "B"}, nil)
	if err != nil {
		t.Fatal(err)
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

// register adds an externally built table to the catalog under the
// writer lock, as the loading paths do.
func register(db *DB, tab *colstore.Table) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.publish()
	return db.registerLocked(tab)
}

// tableOf reads a table, pending DML flushed in, from the published
// catalog.
func tableOf(db *DB, name string) (*colstore.Table, error) {
	return db.Snapshot().table(name)
}

func newDBWithR(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{ValidateFD: true})
	r, err := workload.EmployeeTable("R")
	if err != nil {
		t.Fatal(err)
	}
	if err := register(db, r); err != nil {
		t.Fatal(err)
	}
	return db
}

func apply(t *testing.T, db *DB, stmt string) *Result {
	t.Helper()
	res, err := db.Exec(stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", stmt, err)
	}
	return res
}

// TestCatalogPinsVersion checks copy-on-write publication: a Snapshot
// taken before an SMO keeps showing the pre-SMO schema version forever,
// while a fresh Snapshot sees the committed change.
func TestCatalogPinsVersion(t *testing.T) {
	db := Open(Config{})
	if err := register(db, buildTable(t, "R", [][]string{{"a1", "b1"}, {"a2", "b2"}})); err != nil {
		t.Fatal(err)
	}
	before := db.Snapshot()
	if before.Version() != 0 {
		t.Fatalf("version before SMO = %d, want 0", before.Version())
	}

	apply(t, db, "RENAME TABLE R TO R2")

	// The old snapshot is immutable: same version, same table set.
	if before.Version() != 0 {
		t.Fatalf("pinned snapshot version changed to %d", before.Version())
	}
	if _, err := before.table("R"); err != nil {
		t.Fatalf("pinned snapshot lost table R: %v", err)
	}
	if _, err := before.table("R2"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("pinned snapshot shows future table R2 (err = %v)", err)
	}
	if len(before.History()) != 0 {
		t.Fatalf("pinned snapshot history grew to %d entries", len(before.History()))
	}

	// A fresh snapshot sees the commit.
	after := db.Snapshot()
	if after.Version() != 1 {
		t.Fatalf("version after SMO = %d, want 1", after.Version())
	}
	if _, err := after.table("R2"); err != nil {
		t.Fatal(err)
	}
	if _, err := after.table("R"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("renamed-away table still visible (err = %v)", err)
	}
	if h := after.History(); len(h) != 1 || h[0].Kind != "RENAME TABLE" {
		t.Fatalf("history = %+v", h)
	}
}

// TestErrNoTableSentinel checks that every table-lookup failure — reader
// and writer side — matches ErrNoTable via errors.Is, so servers can map
// it to "not found".
func TestErrNoTableSentinel(t *testing.T) {
	db := Open(Config{})
	if _, err := tableOf(db, "nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Snapshot.table error %v does not match ErrNoTable", err)
	}
	if _, err := db.Snapshot().overlay("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Snapshot.overlay error %v does not match ErrNoTable", err)
	}
	if _, err := db.overlay("nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("DB.overlay error %v does not match ErrNoTable", err)
	}
	if _, err := db.Exec("DROP TABLE nope"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("Exec(DROP TABLE nope) error %v does not match ErrNoTable", err)
	}
}

func TestRegisterAndLookup(t *testing.T) {
	db := newDBWithR(t)
	if _, err := tableOf(db, "R"); err != nil {
		t.Fatal(err)
	}
	if _, err := tableOf(db, "missing"); err == nil {
		t.Fatal("lookup of missing table should fail")
	}
	r, _ := tableOf(db, "R")
	if err := register(db, r); err == nil {
		t.Fatal("duplicate register should fail")
	}
	if got := db.Tables(); len(got) != 1 || got[0] != "R" {
		t.Fatalf("Tables()=%v", got)
	}
}

func TestFullEvolutionScenario(t *testing.T) {
	db := newDBWithR(t)

	// The paper's schema 1 -> schema 2 evolution.
	res := apply(t, db, "DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
	if !reflect.DeepEqual(res.Created, []string{"S", "T"}) || !reflect.DeepEqual(res.Dropped, []string{"R"}) {
		t.Fatalf("catalog delta: +%v -%v", res.Created, res.Dropped)
	}
	if len(res.Steps) == 0 {
		t.Fatal("no status steps recorded")
	}
	if got := db.Tables(); !reflect.DeepEqual(got, []string{"S", "T"}) {
		t.Fatalf("catalog=%v", got)
	}

	// And back: schema 2 -> schema 1.
	apply(t, db, "MERGE TABLES S, T INTO R")
	r, err := tableOf(db, "R")
	if err != nil {
		t.Fatal(err)
	}
	if r.NumRows() != 7 {
		t.Fatalf("merged rows=%d", r.NumRows())
	}
	orig, _ := workload.EmployeeTable("R")
	if !reflect.DeepEqual(r.TupleMultiset(), orig.TupleMultiset()) {
		t.Fatal("round trip lost tuples")
	}
	if db.Version() != 2 {
		t.Fatalf("version=%d", db.Version())
	}
	hist := db.History()
	if len(hist) != 2 || hist[0].Kind != "DECOMPOSE TABLE" || hist[1].Kind != "MERGE TABLES" {
		t.Fatalf("history=%v", hist)
	}
}

func TestCatalogOnlyOperators(t *testing.T) {
	db := newDBWithR(t)
	apply(t, db, "RENAME TABLE R TO People")
	if _, err := tableOf(db, "R"); err == nil {
		t.Fatal("R should be gone after rename")
	}
	apply(t, db, "COPY TABLE People TO People2")
	p, _ := tableOf(db, "People")
	p2, _ := tableOf(db, "People2")
	if p.NumRows() != p2.NumRows() {
		t.Fatal("copy row count mismatch")
	}
	apply(t, db, "RENAME COLUMN Skill TO Talent IN People")
	p, _ = tableOf(db, "People")
	if !p.HasColumn("Talent") {
		t.Fatal("column not renamed")
	}
	// The copy must be unaffected (no aliasing of schema metadata).
	p2, _ = tableOf(db, "People2")
	if p2.HasColumn("Talent") {
		t.Fatal("rename leaked into the copy")
	}
	apply(t, db, "DROP TABLE People2")
	if _, err := tableOf(db, "People2"); err == nil {
		t.Fatal("table not dropped")
	}
}

func TestCreateInsertlessTableAndColumnOps(t *testing.T) {
	db := Open(Config{})
	apply(t, db, "CREATE TABLE Empty (A, B) KEY (A)")
	tab, _ := tableOf(db, "Empty")
	if tab.NumRows() != 0 || tab.NumColumns() != 2 {
		t.Fatalf("shape: %v", tab)
	}
	if got := tab.Key(); len(got) != 1 || got[0] != "A" {
		t.Fatalf("key=%v", got)
	}
}

func TestAddColumnDefaultAndDrop(t *testing.T) {
	db := newDBWithR(t)
	apply(t, db, "ADD COLUMN Country TO R DEFAULT 'USA'")
	r, _ := tableOf(db, "R")
	col, err := r.Column("Country")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := col.ValueAt(3)
	if v != "USA" {
		t.Fatalf("default=%q", v)
	}
	apply(t, db, "DROP COLUMN Country FROM R")
	r, _ = tableOf(db, "R")
	if r.HasColumn("Country") {
		t.Fatal("column still present")
	}
}

func TestAddColumnFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "grades.txt")
	if err := os.WriteFile(path, []byte("A\nB\nA\nC\nB\nA\nC\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db := newDBWithR(t)
	apply(t, db, "ADD COLUMN Grade TO R FROM '"+path+"'")
	r, _ := tableOf(db, "R")
	col, err := r.Column("Grade")
	if err != nil {
		t.Fatal(err)
	}
	if col.DistinctCount() != 3 {
		t.Fatalf("distinct=%d", col.DistinctCount())
	}
}

func TestPartitionAndUnion(t *testing.T) {
	db := newDBWithR(t)
	apply(t, db, "PARTITION TABLE R WHERE Address = '425 Grant Ave' INTO Grant, Rest")
	g, _ := tableOf(db, "Grant")
	rest, _ := tableOf(db, "Rest")
	if g.NumRows() != 4 || rest.NumRows() != 3 {
		t.Fatalf("partition sizes %d/%d", g.NumRows(), rest.NumRows())
	}
	apply(t, db, "UNION TABLES Grant, Rest INTO R")
	r, _ := tableOf(db, "R")
	orig, _ := workload.EmployeeTable("R")
	if !reflect.DeepEqual(r.TupleMultiset(), orig.TupleMultiset()) {
		t.Fatal("partition+union lost tuples")
	}
}

func TestAtomicityOnFailure(t *testing.T) {
	db := newDBWithR(t)
	if _, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee)"); err == nil {
		t.Fatal("invalid decomposition should fail")
	}
	// Catalog untouched, version unchanged.
	if _, err := tableOf(db, "R"); err != nil {
		t.Fatal("R lost after failed operator")
	}
	if _, err := tableOf(db, "S"); err == nil {
		t.Fatal("S should not exist after failed operator")
	}
	if db.Version() != 0 {
		t.Fatalf("version=%d after failure", db.Version())
	}
}

func TestOutputNameConflicts(t *testing.T) {
	db := newDBWithR(t)
	apply(t, db, "CREATE TABLE S (X)")
	if _, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)"); err == nil {
		t.Fatal("output name conflict should fail")
	}
	// Reusing the input's own name is allowed (it is being dropped).
	apply(t, db, "DROP TABLE S")
	apply(t, db, "DECOMPOSE TABLE R INTO R (Employee, Skill), T (Employee, Address)")
	if _, err := tableOf(db, "R"); err != nil {
		t.Fatal(err)
	}
}

func TestApplyScript(t *testing.T) {
	db := newDBWithR(t)
	results, err := db.ExecScript(`
DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)
MERGE TABLES S, T INTO R
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results=%d", len(results))
	}
	// A failing script stops early and reports prior results.
	partial, err := db.ExecScript("DROP TABLE Nope\nDROP TABLE R")
	if err == nil {
		t.Fatal("expected failure")
	}
	if len(partial) != 0 {
		t.Fatalf("partial results=%d", len(partial))
	}
	if _, err := tableOf(db, "R"); err != nil {
		t.Fatal("R must survive the failed script")
	}
}

func TestConcurrentReadersDuringApply(t *testing.T) {
	db := Open(Config{})
	r, err := workload.BuildColstore(workload.Spec{Rows: 5000, DistinctKeys: 100, Seed: 1}, "R")
	if err != nil {
		t.Fatal(err)
	}
	if err := register(db, r); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				names := db.Tables()
				for _, n := range names {
					if tab, err := tableOf(db, n); err == nil {
						_ = tab.NumRows()
					}
				}
			}
		}()
	}
	apply(t, db, "DECOMPOSE TABLE R INTO S (A, B), T (A, C)")
	apply(t, db, "MERGE TABLES S, T INTO R")
	close(stop)
	wg.Wait()
}

func TestStatusCallback(t *testing.T) {
	var events []string
	db := Open(Config{Status: func(s string) { events = append(events, s) }})
	r, _ := workload.EmployeeTable("R")
	if err := register(db, r); err != nil {
		t.Fatal(err)
	}
	apply(t, db, "DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
	if len(events) == 0 {
		t.Fatal("no status events delivered")
	}
	all := strings.Join(events, "\n")
	if !strings.Contains(all, "distinction") {
		t.Fatalf("missing distinction event: %s", all)
	}
}

// TestDMLOverlayLifecycle covers the engine face of the delta overlay:
// DML statements version the catalog with dirty overlays, evolutions
// flush them (with a status step), and Compact retires them without
// changing content or version.
func TestDMLOverlayLifecycle(t *testing.T) {
	db := newDBWithR(t)
	res := apply(t, db, "INSERT INTO R VALUES ('Nguyen', 'Sailing', '9 Pier Ln')")
	if len(res.Created) != 0 || len(res.Dropped) != 0 {
		t.Fatalf("DML reported created=%v dropped=%v", res.Created, res.Dropped)
	}
	apply(t, db, "DELETE FROM R WHERE Employee = 'Roberts'")

	snap := db.Snapshot()
	ov, err := snap.overlay("R")
	if err != nil {
		t.Fatal(err)
	}
	if !ov.Dirty() || ov.PendingAdded() != 1 || ov.PendingDeleted() != 1 {
		t.Fatalf("overlay state: dirty=%v added=%d deleted=%d", ov.Dirty(), ov.PendingAdded(), ov.PendingDeleted())
	}
	if n := ov.NumRows(); n != 7 {
		t.Fatalf("NumRows = %d, want 7 (7 seed + 1 - 1)", n)
	}
	version := snap.Version()
	rowsBefore, err := snap.table("R")
	if err != nil {
		t.Fatal(err)
	}
	before := rowsBefore.TupleMultiset()

	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	snap = db.Snapshot()
	if got := snap.Version(); got != version {
		t.Fatalf("Compact changed version %d -> %d", version, got)
	}
	ov, err = snap.overlay("R")
	if err != nil {
		t.Fatal(err)
	}
	if ov.Dirty() {
		t.Fatal("overlay still dirty after Compact")
	}
	tab, err := snap.table("R")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tab.TupleMultiset(), before) {
		t.Fatal("Compact changed table content")
	}

	// An evolution over a dirty overlay flushes first and reports it.
	apply(t, db, "INSERT INTO R VALUES ('Park', 'Welding', '3 Dock Rd')")
	res = apply(t, db, "DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
	flushed := false
	for _, s := range res.Steps {
		if strings.HasPrefix(s, "delta flush: R") {
			flushed = true
		}
	}
	if !flushed {
		t.Fatalf("no delta-flush step in %v", res.Steps)
	}
	s, err := tableOf(db, "S")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, row := range s.SortedTuples() {
		if row[0] == "Park" {
			found = true
		}
	}
	if !found {
		t.Fatal("decomposed S misses the inserted row")
	}
}

// TestCompactDoesNotAliasPublishedSnapshot is the regression for a map
// aliasing bug: Compact must give the writer working set and the
// stored/published snapshot distinct maps, or the next statement mutates
// rollback history (and the published catalog) in place.
func TestCompactDoesNotAliasPublishedSnapshot(t *testing.T) {
	db := newDBWithR(t)
	apply(t, db, "INSERT INTO R VALUES ('Nguyen', 'Sailing', '9 Pier Ln')")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	compactedVersion := db.Version()

	apply(t, db, "DROP TABLE R")
	if _, err := db.Snapshot().overlay("R"); err == nil {
		t.Fatal("R still published after DROP")
	}
	if err := db.Rollback(compactedVersion); err != nil {
		t.Fatal(err)
	}
	tab, err := tableOf(db, "R")
	if err != nil {
		t.Fatalf("rollback to compacted version lost R: %v", err)
	}
	if n := tab.NumRows(); n != 8 {
		t.Fatalf("restored R has %d rows, want 8", n)
	}
}

// RENAME TABLE is metadata-only even with pending DML: the overlay
// carries over to the new name without a delta flush.
func TestRenameCarriesDeltaWithoutFlush(t *testing.T) {
	db := newDBWithR(t)
	apply(t, db, "INSERT INTO R VALUES ('Nguyen', 'Sailing', '9 Pier Ln')")
	res := apply(t, db, "RENAME TABLE R TO R2")
	for _, s := range res.Steps {
		if strings.HasPrefix(s, "delta flush") {
			t.Fatalf("rename flushed the delta: %v", res.Steps)
		}
	}
	ov, err := db.Snapshot().overlay("R2")
	if err != nil {
		t.Fatal(err)
	}
	if !ov.Dirty() || ov.NumRows() != 8 {
		t.Fatalf("renamed overlay: dirty=%v rows=%d, want dirty with 8", ov.Dirty(), ov.NumRows())
	}
	if _, err := db.Snapshot().overlay("R"); err == nil {
		t.Fatal("old name still present")
	}
}

// TestEngineMatchesQueryLevelRowStore drives the same evolution through
// the CODS engine and through the row-store query-level path and checks
// the resulting tuple multisets are identical — the full-stack version of
// the paper's Figure 2 equivalence.
func TestEngineMatchesQueryLevelRowStore(t *testing.T) {
	spec := workload.Spec{Rows: 5000, DistinctKeys: 120, Seed: 31}

	// CODS engine.
	db := Open(Config{})
	r, err := workload.BuildColstore(spec, "R")
	if err != nil {
		t.Fatal(err)
	}
	if err := register(db, r); err != nil {
		t.Fatal(err)
	}
	apply(t, db, "DECOMPOSE TABLE R INTO S (A, B), T (A, C)")

	// Row-store query level.
	rdb := rowstore.NewDB()
	if _, err := workload.BuildRowstore(spec, rdb, "R", rowstore.HeapStorage); err != nil {
		t.Fatal(err)
	}
	if _, err := rowstore.DecomposeQueryLevel(rdb, "R", "S", []string{"A", "B"}, "T", []string{"A", "C"}, []string{"A"}, rowstore.ProfileCommercial); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"S", "T"} {
		colTab, err := tableOf(db, name)
		if err != nil {
			t.Fatal(err)
		}
		rowTab, err := rdb.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]int{}
		rowTab.Scan(func(tuple []string) bool {
			want[strings.Join(tuple, "\x00")]++
			return true
		})
		if got := colTab.TupleMultiset(); !reflect.DeepEqual(got, want) {
			t.Fatalf("table %s: engine and query-level results differ (%d vs %d tuples)", name, len(got), len(want))
		}
	}

	// And the merge direction.
	apply(t, db, "MERGE TABLES S, T INTO R")
	if _, err := rowstore.MergeQueryLevel(rdb, "S", "T", "R2", []string{"A"}, rowstore.ProfileCommercial); err != nil {
		t.Fatal(err)
	}
	colR, _ := tableOf(db, "R")
	rowR, _ := rdb.Get("R2")
	want := map[string]int{}
	rowR.Scan(func(tuple []string) bool {
		want[strings.Join(tuple, "\x00")]++
		return true
	})
	if got := colR.TupleMultiset(); !reflect.DeepEqual(got, want) {
		t.Fatal("merged tables differ between engine and query level")
	}
}

func TestEngineRollbackSnapshotsAreIsolated(t *testing.T) {
	db := Open(Config{})
	r, err := workload.EmployeeTable("R")
	if err != nil {
		t.Fatal(err)
	}
	if err := register(db, r); err != nil {
		t.Fatal(err)
	}
	apply(t, db, "RENAME TABLE R TO R2")
	// Mutating the catalog after a snapshot must not corrupt the snapshot.
	apply(t, db, "DROP TABLE R2")
	if err := db.Rollback(1); err != nil {
		t.Fatal(err)
	}
	if _, err := tableOf(db, "R2"); err != nil {
		t.Fatal("R2 missing after rollback to version 1")
	}
	if err := db.Rollback(0); err != nil {
		t.Fatal(err)
	}
	if _, err := tableOf(db, "R"); err != nil {
		t.Fatal("R missing after rollback to version 0")
	}
}

// TestOperatorErrorPaths drives every operator's main failure mode through
// the engine and verifies the catalog stays intact.
func TestOperatorErrorPaths(t *testing.T) {
	db := newDBWithR(t)

	bad := []string{
		"CREATE TABLE R (X)",                            // name taken
		"DROP TABLE Nope",                               // unknown table
		"RENAME TABLE Nope TO X",                        // unknown source
		"COPY TABLE Nope TO X",                          // unknown source
		"COPY TABLE R TO R",                             // target taken
		"UNION TABLES R, Nope INTO U",                   // unknown input
		"PARTITION TABLE R WHERE Nope = 1 INTO A, B",    // unknown column
		"PARTITION TABLE R WHERE Skill = 'x' INTO A, A", // same outputs
		"DECOMPOSE TABLE Nope INTO S (A), T (B)",        // unknown input
		"MERGE TABLES R, Nope INTO M",                   // unknown input
		"ADD COLUMN Skill TO R DEFAULT 'x'",             // column exists
		"ADD COLUMN Z TO R FROM '/nonexistent/file'",    // unreadable file
		"DROP COLUMN Nope FROM R",                       // unknown column
		"RENAME COLUMN Nope TO X IN R",                  // unknown column
	}
	for _, text := range bad {
		if _, err := db.Exec(text); err == nil {
			t.Errorf("%q should have failed", text)
		}
	}
	// After all failures the catalog is exactly {R} at version 0.
	if got := db.Tables(); len(got) != 1 || got[0] != "R" {
		t.Fatalf("catalog=%v", got)
	}
	if db.Version() != 0 {
		t.Fatalf("version=%d", db.Version())
	}
	tab, err := tableOf(db, "R")
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterAfterOperators(t *testing.T) {
	db := Open(Config{})
	r, _ := workload.EmployeeTable("R")
	if err := register(db, r); err != nil {
		t.Fatal(err)
	}
	apply(t, db, "RENAME TABLE R TO R2")
	// Registering under the now-free name works and is snapshotted.
	r3, _ := workload.EmployeeTable("R")
	if err := register(db, r3); err != nil {
		t.Fatal(err)
	}
	if err := db.Rollback(1); err != nil {
		t.Fatal(err)
	}
	// Version 1 had R2 only (register of R came after and re-snapshotted
	// version 1; rollback targets the latest snapshot of that version).
	if _, err := tableOf(db, "R2"); err != nil {
		t.Fatal("R2 missing after rollback")
	}
}

// insertBatch appends n distinct rows to R and flushes them into a
// sealed tail segment via Compact.
func insertBatch(t *testing.T, db *DB, from, n int) {
	t.Helper()
	for i := from; i < from+n; i++ {
		apply(t, db, fmt.Sprintf("INSERT INTO R VALUES ('E%04d', 'Skill%d', '%d Main St')", i, i%3, i))
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
}

func TestTieredMergeBoundsSegments(t *testing.T) {
	db := newDBWithR(t)
	for b := 0; b < 12; b++ {
		insertBatch(t, db, b*10, 10)
	}
	ov, err := db.Snapshot().overlay("R")
	if err != nil {
		t.Fatal(err)
	}
	// 12 flushes over a 7-row seed: without merging that is 13 segments;
	// the ratio-2 tier keeps it logarithmic.
	if n := ov.Base().NumSegments(); n > 5 {
		t.Fatalf("segments=%d after 12 flushes; tiered merge not engaging", n)
	}
	if db.MemStats().SegmentMerges == 0 {
		t.Fatal("no merges counted")
	}
	assertRContent(t, db, 7+120)
}

// assertRContent checks R's merged view row count and that the segmented
// base agrees with itself via both read paths (tuples vs stitched rows).
func assertRContent(t *testing.T, db *DB, want int) {
	t.Helper()
	tab, err := tableOf(db, "R")
	if err != nil {
		t.Fatal(err)
	}
	if got := int(tab.NumRows()); got != want {
		t.Fatalf("rows=%d, want %d", got, want)
	}
	rows, err := tab.Rows(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != want {
		t.Fatalf("Rows()=%d, want %d", len(rows), want)
	}
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	// Both read paths over the same table must agree.
	st := tab.SortedTuples()
	again := append([][]string(nil), rows...)
	sort.Slice(again, func(a, b int) bool {
		for i := range again[a] {
			if again[a][i] != again[b][i] {
				return again[a][i] < again[b][i]
			}
		}
		return false
	})
	if !reflect.DeepEqual(st, again) {
		t.Fatal("SortedTuples and Rows disagree")
	}
}

func newKeyedDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	db := Open(cfg)
	apply(t, db, "CREATE TABLE kv (K, V) KEY (K)")
	return db
}

func TestPruneRetiresRollbackTargets(t *testing.T) {
	db := newDBWithR(t)
	for i := 0; i < 5; i++ {
		apply(t, db, fmt.Sprintf("ADD COLUMN C%d TO R DEFAULT 'x'", i))
		apply(t, db, fmt.Sprintf("DROP COLUMN C%d FROM R", i))
	}
	// Register snapshots under version 0; the ten statements take the
	// catalog to version 10.
	if db.Version() != 10 {
		t.Fatalf("version = %d, want 10", db.Version())
	}

	if n := db.Prune(3); n != 7 {
		t.Fatalf("Prune(3) retired %d versions, want 7 (0..6)", n)
	}
	ms := db.MemStats()
	if ms.RetainedVersions != 4 || ms.OldestRetainedVersion != 7 {
		t.Fatalf("MemStats after prune = %+v, want 4 retained from v7", ms)
	}
	// Re-pruning with a wider window must not resurrect anything and
	// must be a no-op.
	if n := db.Prune(100); n != 0 {
		t.Fatalf("wider re-prune retired %d versions, want 0", n)
	}

	// A pruned version fails with the typed error naming the window.
	err := db.Rollback(2)
	if !errors.Is(err, ErrVersionPruned) {
		t.Fatalf("Rollback(pruned) = %v, want ErrVersionPruned", err)
	}
	var pe *VersionPrunedError
	if !errors.As(err, &pe) {
		t.Fatalf("Rollback(pruned) error type = %T", err)
	}
	if pe.Version != 2 || pe.OldestRetained != 7 || pe.Newest != 10 {
		t.Fatalf("pruned-error window = %+v, want {2 7 10}", pe)
	}

	// A version that never existed is a plain lookup failure, not a
	// retention one.
	err = db.Rollback(99)
	if err == nil || errors.Is(err, ErrVersionPruned) {
		t.Fatalf("Rollback(never-existed) = %v, want plain no-such-version error", err)
	}
	if !strings.Contains(err.Error(), "no schema version 99") {
		t.Fatalf("Rollback(never-existed) message = %q", err)
	}

	// A retained version still rolls back.
	if err := db.Rollback(9); err != nil {
		t.Fatalf("Rollback(retained) = %v", err)
	}
}

// Config.RetainVersions enforces the window after every commit: the
// snapshot count stays at RetainVersions+1 no matter how many statements
// run — the bounded-memory contract.
func TestRetainVersionsBoundsSnapshotsContinuously(t *testing.T) {
	db := newKeyedDB(t, Config{RetainVersions: 2})
	for i := 0; i < 20; i++ {
		apply(t, db, fmt.Sprintf("INSERT INTO kv VALUES ('k%02d', 'v')", i))
		if got := db.MemStats().RetainedVersions; got > 3 {
			t.Fatalf("after statement %d: %d retained versions, want <= 3", i, got)
		}
	}
	if ms := db.MemStats(); ms.OldestRetainedVersion != db.Version()-2 {
		t.Fatalf("oldest retained = %d, want %d", ms.OldestRetainedVersion, db.Version()-2)
	}
	// Rollback inside the window works and the window slides with it.
	if err := db.Rollback(db.Version() - 1); err != nil {
		t.Fatal(err)
	}
	if got := db.MemStats().RetainedVersions; got > 3 {
		t.Fatalf("after rollback: %d retained versions, want <= 3", got)
	}
}

// The PRUNE statement flows through Exec like any other statement but
// produces no new schema version and no history entry.
func TestPruneStatementThroughExec(t *testing.T) {
	db := newDBWithR(t)
	apply(t, db, "ADD COLUMN Z TO R DEFAULT 'v'")
	apply(t, db, "DROP COLUMN Z FROM R")
	v := db.Version()
	hist := len(db.History())

	res := apply(t, db, "PRUNE KEEP 1")
	if res.Version != v || db.Version() != v {
		t.Fatalf("PRUNE moved the version: res=%d db=%d, want %d", res.Version, db.Version(), v)
	}
	if len(db.History()) != hist {
		t.Fatalf("PRUNE appended a history entry")
	}
	if len(res.Steps) == 0 || !strings.Contains(res.Steps[0], "rollback window") {
		t.Fatalf("PRUNE steps = %v", res.Steps)
	}
	if ms := db.MemStats(); ms.RetainedVersions != 2 || ms.OldestRetainedVersion != v-1 {
		t.Fatalf("MemStats after PRUNE KEEP 1 = %+v", ms)
	}
	if err := db.Rollback(0); !errors.Is(err, ErrVersionPruned) {
		t.Fatalf("Rollback(0) after PRUNE = %v, want ErrVersionPruned", err)
	}
}

// AutoCompactPending retires an overlay as soon as a DML statement
// leaves it past the threshold: the same version republishes with a
// clean (flushed) overlay, contents unchanged.
func TestAutoCompactionRetiresOverlays(t *testing.T) {
	db := newKeyedDB(t, Config{AutoCompactPending: 3})
	for i := 0; i < 10; i++ {
		apply(t, db, fmt.Sprintf("INSERT INTO kv VALUES ('k%02d', 'v%d')", i, i))
		ov, err := db.Snapshot().overlay("kv")
		if err != nil {
			t.Fatal(err)
		}
		if pending := ov.PendingAdded() + int(ov.PendingDeleted()); pending >= 3 {
			t.Fatalf("after statement %d: %d pending rows survived the threshold", i, pending)
		}
	}
	ms := db.MemStats()
	if ms.Compactions == 0 {
		t.Fatal("no compactions ran")
	}
	tab, err := tableOf(db, "kv")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 10 {
		t.Fatalf("rows after auto-compaction = %d, want 10", tab.NumRows())
	}
	if err := tab.ValidateKey(); err != nil {
		t.Fatal(err)
	}
	// Deletion marks count toward the threshold too.
	before := db.MemStats().Compactions
	apply(t, db, "DELETE FROM kv WHERE K < 'k05'")
	if db.MemStats().Compactions <= before {
		t.Fatal("bulk DELETE past the threshold did not compact")
	}
	tab, _ = tableOf(db, "kv")
	if tab.NumRows() != 5 {
		t.Fatalf("rows after delete = %d, want 5", tab.NumRows())
	}
}

// Compact prunes to the configured retention window even when no
// overlay is dirty — checkpoints route through it, so a checkpoint alone
// must be enough to shrink a catalog that was opened with retention
// configured after the versions piled up.
func TestCompactEnforcesRetention(t *testing.T) {
	db := Open(Config{RetainVersions: 1})
	r, err := workload.EmployeeTable("R")
	if err != nil {
		t.Fatal(err)
	}
	if err := register(db, r); err != nil {
		t.Fatal(err)
	}
	// Register path does not prune (it is not a statement commit), so
	// drive a few statements and then let Compact do the bookkeeping.
	apply(t, db, "ADD COLUMN Z TO R DEFAULT 'v'")
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if ms := db.MemStats(); ms.RetainedVersions > 2 {
		t.Fatalf("retained after Compact = %d, want <= 2", ms.RetainedVersions)
	}
}
