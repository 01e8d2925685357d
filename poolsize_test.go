package cods_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"cods"
)

// poolStep is one observation of the pool-size script: what was run and
// what it returned.
type poolStep struct {
	name string
	out  any
}

// TestResultsIndependentOfPoolSize runs one evolution-and-query script
// under GOMAXPROCS 1, where every per-distinct-value loop runs inline, and
// under GOMAXPROCS 4, where the same loops fan out over the worker pool.
// The engine sizes its pool from GOMAXPROCS, and index-ordered fan-in must
// make that size invisible: both runs must return identical results at
// every step. Not parallel, since it changes the process-wide GOMAXPROCS.
func TestResultsIndependentOfPoolSize(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	runtime.GOMAXPROCS(1)
	inline := poolScript(t)
	runtime.GOMAXPROCS(4)
	pooled := poolScript(t)
	if len(inline) != len(pooled) {
		t.Fatalf("script ran %d steps inline, %d pooled", len(inline), len(pooled))
	}
	for i := range inline {
		if !reflect.DeepEqual(inline[i], pooled[i]) {
			t.Errorf("%s differs:\n GOMAXPROCS 1: %v\n GOMAXPROCS 4: %v", inline[i].name, inline[i].out, pooled[i].out)
		}
	}
}

// poolScript evolves and queries a two-segment, 200-key table:
// DECOMPOSE, a join SELECT, a GROUP BY aggregate, a key–FK MERGE, then a
// keyed UPDATE read back through DB.Query. No statement sorts its output,
// so the row order the operators produce is compared too.
func poolScript(t *testing.T) []poolStep {
	t.Helper()
	db := cods.Open(cods.Config{})
	var rows [][]string
	for i := 0; i < 2000; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("s%04d", i),            // Skill (unique, the key)
			fmt.Sprintf("e%03d", i%200),        // Employee
			fmt.Sprintf("%d", (i%17)*(i%5)-10), // Hours
			fmt.Sprintf("addr%03d", i%200),     // Address (FD: Employee -> Address)
		})
	}
	cols := []string{"Skill", "Employee", "Hours", "Address"}
	if err := db.CreateTableFromRows("R", cols, []string{"Skill"}, rows[:1900]); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[1900:] {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO R VALUES ('%s', '%s', '%s', '%s')", r[0], r[1], r[2], r[3])); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}

	var steps []poolStep
	exec := func(stmt string) {
		t.Helper()
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	table := func(name string) {
		t.Helper()
		got, err := db.Rows(name, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, poolStep{"rows of " + name, got})
	}
	sel := func(stmt string) {
		t.Helper()
		rs, err := db.Select(stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		steps = append(steps, poolStep{stmt, []any{rs.Columns, rs.Rows}})
	}
	query := func(name, cond string) {
		t.Helper()
		got, err := db.Query(name, cond)
		if err != nil {
			t.Fatal(err)
		}
		steps = append(steps, poolStep{"query " + name + " " + cond, got})
	}

	exec("DECOMPOSE TABLE R INTO S (Skill, Employee, Hours), T (Employee, Address)")
	table("S")
	table("T")
	sel("SELECT Skill, Hours, Address FROM S JOIN T ON (Employee) WHERE Address < 'addr050' AND Hours >= '0'")
	sel("SELECT count(*), sum(Hours), min(Skill), count_distinct(Hours) FROM S WHERE Hours >= '-5' GROUP BY Employee")
	exec("MERGE TABLES S, T INTO M")
	table("M")
	exec("UPDATE M SET Hours = '99' WHERE Skill = 's0042'")
	query("M", "Hours = '99'")
	query("M", "Employee = 'e042' OR Hours > '20'")
	return steps
}
