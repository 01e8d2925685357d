package cods_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"cods"
)

// TestConcurrentQueryDuringEvolve races parallel Query/Count/catalog reads
// against SMO execution on the same DB. Under -race this exercises the
// facade's lock-free snapshot reads against the writers' copy-on-write
// catalog publication; the assertions check that every reader observes a
// whole schema version — one of the known catalog states an SMO sequence
// can leave behind, never a half-applied one.
func TestConcurrentQueryDuringEvolve(t *testing.T) {
	db := cods.Open(cods.Config{})
	var rows [][]string
	for i := 0; i < 4000; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("e%04d", i%200),
			fmt.Sprintf("s%04d", i),
			fmt.Sprintf("a%03d", i%200/2),
		})
	}
	if err := db.CreateTableFromRows("R", []string{"Employee", "Skill", "Address"}, nil, rows); err != nil {
		t.Fatal(err)
	}

	const (
		readers      = 4
		readsEach    = 60
		evolveCycles = 12
	)
	var wg sync.WaitGroup
	errs := make(chan error, readers*readsEach+evolveCycles*2)

	// Writer: repeatedly decompose R and merge it back. Between operators
	// the catalog is either {R} or {S, T}; readers must only ever see one
	// of those two states.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < evolveCycles; i++ {
			if _, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)"); err != nil {
				errs <- fmt.Errorf("decompose cycle %d: %w", i, err)
				return
			}
			if _, err := db.Exec("MERGE TABLES T, S INTO R"); err != nil {
				errs <- fmt.Errorf("merge cycle %d: %w", i, err)
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readsEach; i++ {
				hasR, hasS, hasT := db.HasTable("R"), db.HasTable("S"), db.HasTable("T")
				// A consistent catalog within one snapshot would be exactly
				// {R} or {S, T}; HasTable takes three separate snapshots, so
				// only per-call sanity holds. Query against whichever table
				// the instantaneous catalog offers.
				table, where := "R", "Employee = 'e0001'"
				if !hasR && (hasS || hasT) {
					table = "S"
					if !hasS {
						table = "T"
						where = "Employee = 'e0001'"
					}
				}
				got, err := db.Query(table, where)
				if err != nil {
					// The table may evolve away between HasTable and Query —
					// an acceptable race (re-checking HasTable would race
					// again with the table's re-creation). Any other failure
					// is real.
					if !strings.Contains(err.Error(), "no table") {
						errs <- fmt.Errorf("reader %d: Query(%s): %w", r, table, err)
						return
					}
					continue
				}
				for _, row := range got {
					if row[0] != "e0001" {
						errs <- fmt.Errorf("reader %d: Query(%s) returned row for %q", r, table, row[0])
						return
					}
				}
				n, err := db.Count(table, where)
				if err != nil && !strings.Contains(err.Error(), "no table") {
					errs <- fmt.Errorf("reader %d: Count(%s): %w", r, table, err)
					return
				}
				// e0001 has 20 rows in R and in S, which keeps every row;
				// the deduplicated T keeps one.
				if want := map[string]uint64{"R": 20, "S": 20, "T": 1}[table]; err == nil && n != want {
					errs <- fmt.Errorf("reader %d: Count(%s) = %d, want %d", r, table, n, want)
					return
				}
				db.Tables()
				db.Version()
			}
		}(r)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// After all evolutions, R must be back with the original tuple count.
	n, err := db.NumRows("R")
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(rows)) {
		t.Fatalf("R has %d rows after evolve cycles, want %d", n, len(rows))
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentRunQueryAndRollback races aggregate queries with rollbacks,
// the other write path.
func TestConcurrentRunQueryAndRollback(t *testing.T) {
	db := cods.Open(cods.Config{})
	var rows [][]string
	for i := 0; i < 1000; i++ {
		rows = append(rows, []string{fmt.Sprintf("g%d", i%7), fmt.Sprintf("%d", i)})
	}
	if err := db.CreateTableFromRows("T", []string{"G", "V"}, nil, rows); err != nil {
		t.Fatal(err)
	}
	base := db.Version()
	var wg sync.WaitGroup
	errs := make(chan error, 64)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := db.Exec(fmt.Sprintf("ADD COLUMN X%d TO T DEFAULT 'x'", i)); err != nil {
				errs <- err
				return
			}
			if err := db.Rollback(base); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				rs, err := db.RunQuery("T", cods.TableQuery{
					GroupBy:    "G",
					Aggregates: []cods.Agg{{Func: cods.Count}, {Func: cods.Sum, Column: "V"}},
					OrderBy:    "G",
				})
				if err != nil {
					errs <- err
					return
				}
				if len(rs.Rows) != 7 {
					errs <- fmt.Errorf("got %d groups, want 7", len(rs.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
