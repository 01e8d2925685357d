package cods_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cods"
)

func sortedRows(rows [][]string) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	sort.Strings(out)
	return out
}

func employeeDB(t *testing.T) *cods.DB {
	t.Helper()
	db := cods.Open(cods.Config{})
	rows := [][]string{
		{"jones", "typing", "sf"},
		{"ellis", "alchemy", "la"},
		{"smith", "typing", "sf"},
	}
	if err := db.CreateTableFromRows("R", []string{"Employee", "Skill", "City"}, nil, rows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDMLThroughExec drives INSERT/UPDATE/DELETE through the public Exec
// path and checks every facade read merges the delta overlay.
func TestDMLThroughExec(t *testing.T) {
	db := employeeDB(t)
	v0 := db.Version()

	res, err := db.Exec("INSERT INTO R VALUES ('brown', 'typing', 'oakland')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "INSERT" || res.Version != v0+1 {
		t.Fatalf("INSERT result = %+v", res)
	}
	if len(res.Created) != 0 || len(res.Dropped) != 0 {
		t.Fatalf("DML reported catalog changes: created=%v dropped=%v", res.Created, res.Dropped)
	}

	if _, err := db.Exec("UPDATE R SET City = 'berkeley' WHERE Employee = 'smith'"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM R WHERE Employee = 'ellis'"); err != nil {
		t.Fatal(err)
	}

	want := [][]string{
		{"jones", "typing", "sf"},
		{"smith", "typing", "berkeley"},
		{"brown", "typing", "oakland"},
	}
	n, err := db.NumRows("R")
	if err != nil || n != 3 {
		t.Fatalf("NumRows = %d (%v), want 3", n, err)
	}
	rows, err := db.Rows("R", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(rows), sortedRows(want)) {
		t.Fatalf("Rows = %v, want %v", rows, want)
	}
	got, err := db.Query("R", "Skill = 'typing'")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("Query(typing) = %v, want 3 rows", got)
	}
	cnt, err := db.Count("R", "City = 'berkeley'")
	if err != nil || cnt != 1 {
		t.Fatalf("Count(berkeley) = %d (%v), want 1", cnt, err)
	}
	// Aggregation flushes the overlay transparently.
	rs, err := db.RunQuery("R", cods.TableQuery{
		GroupBy:    "Skill",
		Aggregates: []cods.Agg{{Func: cods.Count}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][1] != "3" {
		t.Fatalf("grouped count = %v, want [[typing 3]]", rs.Rows)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := db.Version(); got != v0+3 {
		t.Fatalf("Version = %d, want %d (one per DML statement)", got, v0+3)
	}
}

// TestDMLVisibleToEvolution checks the flush-before-evolve rule: an
// evolution over a table with pending DML operates on the merged tuples.
func TestDMLVisibleToEvolution(t *testing.T) {
	db := employeeDB(t)
	script := `
INSERT INTO R VALUES ('brown', 'welding', 'sf')
DELETE FROM R WHERE Employee = 'ellis'
DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, City)
`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	got, err := db.Query("S", "Employee = 'brown'")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0][1] != "welding" {
		t.Fatalf("decomposed S misses inserted row: %v", got)
	}
	cnt, err := db.Count("T", "Employee = 'ellis'")
	if err != nil || cnt != 0 {
		t.Fatalf("deleted row survived decomposition: count=%d err=%v", cnt, err)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRollbackRestoresPreDMLState: DML versions are catalog versions, so
// rollback walks them back like any schema change.
func TestRollbackRestoresPreDMLState(t *testing.T) {
	db := employeeDB(t)
	v0 := db.Version()
	if _, err := db.Exec("DELETE FROM R"); err != nil {
		t.Fatal(err)
	}
	n, _ := db.NumRows("R")
	if n != 0 {
		t.Fatalf("NumRows after DELETE FROM R = %d, want 0", n)
	}
	if err := db.Rollback(v0); err != nil {
		t.Fatal(err)
	}
	n, _ = db.NumRows("R")
	if n != 3 {
		t.Fatalf("NumRows after rollback = %d, want 3", n)
	}
}

// TestCompactInMemory: an in-memory DB can retire overlays without a
// durable checkpoint — content and version unchanged, and DML keeps
// working afterwards.
func TestCompactInMemory(t *testing.T) {
	db := employeeDB(t)
	if _, err := db.Exec("INSERT INTO R VALUES ('kim', 'editing', 'ny')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM R WHERE Employee = 'ellis'"); err != nil {
		t.Fatal(err)
	}
	before, err := db.Rows("R", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := db.Version()
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := db.Version(); got != v {
		t.Fatalf("Compact changed version %d -> %d", v, got)
	}
	after, err := db.Rows("R", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedRows(after), sortedRows(before)) {
		t.Fatalf("Compact changed content: %v -> %v", before, after)
	}
	if _, err := db.Exec("INSERT INTO R VALUES ('post', 'compact', 'sf')"); err != nil {
		t.Fatal(err)
	}
	n, err := db.NumRows("R")
	if err != nil || n != uint64(len(before)+1) {
		t.Fatalf("NumRows after post-compact insert = %d (%v), want %d", n, err, len(before)+1)
	}
}

// TestSnapshotPinsDelta: an explicitly held snapshot keeps observing its
// delta overlay state while later DML commits.
func TestSnapshotPinsDelta(t *testing.T) {
	db := employeeDB(t)
	if _, err := db.Exec("INSERT INTO R VALUES ('kim', 'editing', 'ny')"); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()
	if _, err := db.Exec("DELETE FROM R"); err != nil {
		t.Fatal(err)
	}
	n, err := snap.NumRows("R")
	if err != nil || n != 4 {
		t.Fatalf("pinned snapshot NumRows = %d (%v), want 4", n, err)
	}
	cnt, err := snap.Count("R", "Employee = 'kim'")
	if err != nil || cnt != 1 {
		t.Fatalf("pinned snapshot Count(kim) = %d (%v), want 1", cnt, err)
	}
	if n, _ := db.NumRows("R"); n != 0 {
		t.Fatalf("live NumRows = %d, want 0", n)
	}
}

// TestReadsDuringParkedEvolutionSeeDelta is the acceptance criterion:
// with DML pending on R, park a DECOMPOSE of R mid-operator (it holds
// the write path and has already flushed the delta into its working
// input) and assert readers still observe the pre-evolution snapshot
// including the delta. Under -race this also exercises DML statements
// racing the parked evolution's publication.
func TestReadsDuringParkedEvolutionSeeDelta(t *testing.T) {
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	db := cods.Open(cods.Config{Status: func(step string) {
		// Park only once the evolution proper starts, not on the delta
		// flush event that precedes it.
		if strings.HasPrefix(step, "distinction") {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
	}})
	var rows [][]string
	for i := 0; i < 200; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("e%03d", i%20),
			fmt.Sprintf("s%03d", i),
			fmt.Sprintf("a%02d", i%10),
		})
	}
	if err := db.CreateTableFromRows("R", []string{"Employee", "Skill", "Address"}, nil, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO R VALUES ('e999', 'snew', 'a99')"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DELETE FROM R WHERE Employee = 'e000'"); err != nil {
		t.Fatal(err)
	}
	vPre := db.Version()

	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
		done <- err
	}()
	<-parked

	// Concurrent DML queued behind the parked evolution must neither
	// block readers nor become visible early.
	dmlDone := make(chan error, 1)
	go func() {
		_, err := db.Exec("INSERT INTO S VALUES ('late', 'slate')")
		dmlDone <- err
	}()

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		if got := db.Version(); got != vPre {
			t.Errorf("Version mid-evolution = %d, want %d", got, vPre)
		}
		n, err := db.NumRows("R")
		if err != nil || n != 191 {
			t.Errorf("NumRows mid-evolution = %d (%v), want 191 (200 - 10 deleted + 1 inserted)", n, err)
		}
		cnt, err := db.Count("R", "Employee = 'e999'")
		if err != nil || cnt != 1 {
			t.Errorf("inserted row invisible mid-evolution: %d (%v)", cnt, err)
		}
		cnt, err = db.Count("R", "Employee = 'e000'")
		if err != nil || cnt != 0 {
			t.Errorf("deleted rows visible mid-evolution: %d (%v)", cnt, err)
		}
		if db.HasTable("S") {
			t.Error("half-applied DECOMPOSE output visible")
		}
	}()
	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("reads blocked behind a parked evolution")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := <-dmlDone; err != nil {
		t.Fatal(err)
	}

	// Post-evolution: outputs contain the delta's effects, plus the
	// late DML landed on S.
	cnt, err := db.Count("S", "Employee = 'e999'")
	if err != nil || cnt != 1 {
		t.Fatalf("S misses pre-evolution insert: %d (%v)", cnt, err)
	}
	cnt, err = db.Count("S", "Employee = 'e000'")
	if err != nil || cnt != 0 {
		t.Fatalf("S contains pre-evolution deleted rows: %d (%v)", cnt, err)
	}
	cnt, err = db.Count("S", "Employee = 'late'")
	if err != nil || cnt != 1 {
		t.Fatalf("queued DML lost: %d (%v)", cnt, err)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDMLQueriesAndEvolution races DML writers, snapshot
// readers and an evolution loop on the same DB; run under -race it
// checks the copy-on-write overlay publication.
func TestConcurrentDMLQueriesAndEvolution(t *testing.T) {
	db := cods.Open(cods.Config{})
	var rows [][]string
	for i := 0; i < 1000; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("e%04d", i%100),
			fmt.Sprintf("s%04d", i),
			fmt.Sprintf("a%03d", i%50),
		})
	}
	if err := db.CreateTableFromRows("R", []string{"Employee", "Skill", "Address"}, nil, rows); err != nil {
		t.Fatal(err)
	}
	// W is the DML battleground; R evolves concurrently.
	if err := db.CreateTableFromRows("W", []string{"K", "V"},
		nil, [][]string{{"seed", "0"}}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)"); err != nil {
				errs <- fmt.Errorf("decompose %d: %w", i, err)
				return
			}
			if _, err := db.Exec("MERGE TABLES T, S INTO R"); err != nil {
				errs <- fmt.Errorf("merge %d: %w", i, err)
				return
			}
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				k := fmt.Sprintf("w%d-%d", w, i)
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO W VALUES ('%s', '%d')", k, i)); err != nil {
					errs <- fmt.Errorf("insert %s: %w", k, err)
					return
				}
				if i%3 == 0 {
					if _, err := db.Exec(fmt.Sprintf("UPDATE W SET V = '99' WHERE K = '%s'", k)); err != nil {
						errs <- fmt.Errorf("update %s: %w", k, err)
						return
					}
				}
				if i%5 == 0 {
					if _, err := db.Exec(fmt.Sprintf("DELETE FROM W WHERE K = '%s'", k)); err != nil {
						errs <- fmt.Errorf("delete %s: %w", k, err)
						return
					}
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if _, err := db.Count("W", "V = '99'"); err != nil {
					errs <- fmt.Errorf("count: %w", err)
					return
				}
				snap := db.Snapshot()
				if _, err := snap.NumRows("W"); err != nil {
					errs <- fmt.Errorf("numrows: %w", err)
					return
				}
				db.Tables()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Deterministic final state on W: per writer, inserts minus deletes.
	n, err := db.NumRows("W")
	if err != nil {
		t.Fatal(err)
	}
	// 1 seed + 2 writers × (25 inserts - 5 deletes).
	if want := uint64(1 + 2*20); n != want {
		t.Fatalf("W has %d rows, want %d", n, want)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestCompositeKeyValuesContainingNUL pins that composite key tuples are
// compared column by column: ("a\x00", "b") and ("a", "\x00b") are two
// distinct keys even though joining each tuple's values with NUL bytes
// yields the same string. DECOMPOSE must keep both rows on both outputs,
// with and without the functional-dependency check, DB.Validate must
// accept the unique composite key, and MERGE must give R's rows back.
func TestCompositeKeyValuesContainingNUL(t *testing.T) {
	for _, validateFD := range []bool{false, true} {
		t.Run(fmt.Sprintf("ValidateFD=%v", validateFD), func(t *testing.T) {
			db := cods.Open(cods.Config{ValidateFD: validateFD})
			for _, stmt := range []string{
				"CREATE TABLE R (K1, K2, V) KEY (K1, K2)",
				"INSERT INTO R VALUES ('a\x00', 'b', 'x')",
				"INSERT INTO R VALUES ('a', '\x00b', 'y')",
			} {
				if _, err := db.Exec(stmt); err != nil {
					t.Fatalf("%q: %v", stmt, err)
				}
			}
			want, err := db.Rows("R", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Validate(); err != nil {
				t.Errorf("validate before DECOMPOSE: %v", err)
			}
			if _, err := db.Exec("DECOMPOSE TABLE R INTO S (K1, K2), U (K1, K2, V)"); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"S", "U"} {
				rows, err := db.Rows(name, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != 2 {
					t.Fatalf("%s has %d rows, want 2: %q", name, len(rows), rows)
				}
			}
			if err := db.Validate(); err != nil {
				t.Errorf("validate after DECOMPOSE: %v", err)
			}
			if _, err := db.Exec("MERGE TABLES S, U INTO R"); err != nil {
				t.Fatal(err)
			}
			got, err := db.Rows("R", 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("MERGE gave %q, want R's rows %q", got, want)
			}
		})
	}
}
