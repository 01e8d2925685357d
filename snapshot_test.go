package cods_test

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"cods"
)

// parkedDB returns a DB whose first evolution status event parks the
// executing SMO until release is closed. The returned parked channel
// closes once the evolution is holding the write path mid-operator.
func parkedDB(t *testing.T) (db *cods.DB, parked chan struct{}, release chan struct{}) {
	t.Helper()
	parked = make(chan struct{})
	release = make(chan struct{})
	var once sync.Once
	db = cods.Open(cods.Config{Parallelism: 2, Status: func(string) {
		once.Do(func() {
			close(parked)
			<-release
		})
	}})
	var rows [][]string
	for i := 0; i < 500; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("e%03d", i%50),
			fmt.Sprintf("s%03d", i),
			fmt.Sprintf("a%02d", i%25),
		})
	}
	if err := db.CreateTableFromRows("R", []string{"Employee", "Skill", "Address"}, nil, rows); err != nil {
		t.Fatal(err)
	}
	return db, parked, release
}

// TestReadsDuringParkedEvolution parks a DECOMPOSE mid-operator (via the
// Status hook, while it holds the writer lock) and asserts that every
// read path completes against the pre-evolution snapshot without waiting
// — the paper's online-evolution promise. Run under -race this also
// checks the snapshot publication for data races.
func TestReadsDuringParkedEvolution(t *testing.T) {
	db, parked, release := parkedDB(t)
	v0 := db.Version()

	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
		done <- err
	}()
	<-parked

	// The evolution owns the write path, parked mid-operator. Every read
	// must complete promptly against the prior snapshot.
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		if got := db.Version(); got != v0 {
			t.Errorf("Version during parked evolution = %d, want %d", got, v0)
		}
		if tables := db.Tables(); len(tables) != 1 || tables[0] != "R" {
			t.Errorf("Tables during parked evolution = %v, want [R]", tables)
		}
		if db.HasTable("S") || db.HasTable("T") {
			t.Error("half-applied DECOMPOSE outputs visible to readers")
		}
		got, err := db.Query("R", "Employee = 'e001'")
		if err != nil {
			t.Errorf("Query during parked evolution: %v", err)
		} else if len(got) != 10 {
			t.Errorf("Query returned %d rows, want 10", len(got))
		}
		rs, err := db.RunQuery("R", cods.TableQuery{
			GroupBy:    "Employee",
			Aggregates: []cods.Agg{{Func: cods.Count}},
		})
		if err != nil {
			t.Errorf("RunQuery during parked evolution: %v", err)
		} else if len(rs.Rows) != 50 {
			t.Errorf("RunQuery returned %d groups, want 50", len(rs.Rows))
		}
		if rows, err := db.Rows("R", 0, math.MaxUint64); err != nil {
			t.Errorf("Rows during parked evolution: %v", err)
		} else if len(rows) != 500 {
			t.Errorf("Rows(0, MaxUint64) returned %d rows, want 500", len(rows))
		}
		if n := len(db.History()); n != 0 {
			t.Errorf("History has %d entries mid-evolution, want 0", n)
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

	// After commit, a fresh snapshot observes the whole new version.
	if got := db.Version(); got != v0+1 {
		t.Fatalf("Version after evolution = %d, want %d", got, v0+1)
	}
	if db.HasTable("R") || !db.HasTable("S") || !db.HasTable("T") {
		t.Fatalf("catalog after evolution = %v", db.Tables())
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotPinsSchemaVersion checks that an explicitly held Snapshot
// keeps answering from its schema version after later evolutions and
// rollbacks commit.
func TestSnapshotPinsSchemaVersion(t *testing.T) {
	db := cods.Open(cods.Config{})
	rows := [][]string{{"jones", "typing", "425 Grant Ave"}, {"ellis", "alchemy", "747 Industrial Way"}}
	if err := db.CreateTableFromRows("R", []string{"Employee", "Skill", "Address"}, nil, rows); err != nil {
		t.Fatal(err)
	}
	snap := db.Snapshot()

	if _, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)"); err != nil {
		t.Fatal(err)
	}

	if got := snap.Version(); got != 0 {
		t.Fatalf("pinned snapshot version = %d, want 0", got)
	}
	if !snap.HasTable("R") || snap.HasTable("S") {
		t.Fatalf("pinned snapshot tables = %v, want [R]", snap.Tables())
	}
	n, err := snap.NumRows("R")
	if err != nil || n != 2 {
		t.Fatalf("pinned snapshot NumRows(R) = %d, %v", n, err)
	}
	if _, err := snap.Query("S", "Employee = 'jones'"); !errors.Is(err, cods.ErrNoTable) {
		t.Fatalf("pinned snapshot query of future table: err = %v, want ErrNoTable", err)
	}
	// The live DB sees the new version.
	if !db.HasTable("S") || db.HasTable("R") {
		t.Fatalf("live catalog = %v", db.Tables())
	}

	// Rollback publishes the restored version; the pinned snapshot is
	// still unaffected.
	if err := db.Rollback(0); err != nil {
		t.Fatal(err)
	}
	if !db.HasTable("R") {
		t.Fatalf("catalog after rollback = %v", db.Tables())
	}
	if got := snap.Version(); got != 0 {
		t.Fatalf("pinned snapshot version after rollback = %d, want 0", got)
	}
}

// TestErrNoTableFromReads checks the public sentinel on facade reads.
func TestErrNoTableFromReads(t *testing.T) {
	db := cods.Open(cods.Config{})
	if _, err := db.Query("ghost", "a = 'x'"); !errors.Is(err, cods.ErrNoTable) {
		t.Fatalf("Query: err = %v, want ErrNoTable", err)
	}
	if _, err := db.Count("ghost", "a = 'x'"); !errors.Is(err, cods.ErrNoTable) {
		t.Fatalf("Count: err = %v, want ErrNoTable", err)
	}
	if _, err := db.Query("ghost", ""); !errors.Is(err, cods.ErrNoTable) {
		t.Fatalf("Query with empty condition: err = %v, want ErrNoTable", err)
	}
	if _, err := db.RunQuery("ghost", cods.TableQuery{}); !errors.Is(err, cods.ErrNoTable) {
		t.Fatalf("RunQuery: err = %v, want ErrNoTable", err)
	}
	if _, err := db.NumRows("ghost"); !errors.Is(err, cods.ErrNoTable) {
		t.Fatalf("NumRows: err = %v, want ErrNoTable", err)
	}
	if _, err := db.Rows("ghost", 0, 1); !errors.Is(err, cods.ErrNoTable) {
		t.Fatalf("Rows: err = %v, want ErrNoTable", err)
	}
}

// TestRowsHugeLimitThroughFacade is the public-API face of the
// colstore.Table.Rows overflow regression: a limit of MaxUint64 must
// return all rows, not panic or misallocate.
func TestRowsHugeLimitThroughFacade(t *testing.T) {
	db := cods.Open(cods.Config{})
	var rows [][]string
	for i := 0; i < 100; i++ {
		rows = append(rows, []string{fmt.Sprintf("k%02d", i), fmt.Sprintf("v%02d", i)})
	}
	if err := db.CreateTableFromRows("T", []string{"K", "V"}, nil, rows); err != nil {
		t.Fatal(err)
	}
	got, err := db.Rows("T", 0, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("Rows(0, MaxUint64) returned %d rows, want 100", len(got))
	}
	got, err = db.Rows("T", 90, math.MaxUint64)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0][0] != "k90" {
		t.Fatalf("Rows(90, MaxUint64) = %d rows starting %v", len(got), got[0])
	}
}
