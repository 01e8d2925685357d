package cods

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func employeeRows() [][]string {
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

func openWithR(t *testing.T) *DB {
	t.Helper()
	db := Open(Config{ValidateFD: true})
	err := db.CreateTableFromRows("R", []string{"Employee", "Skill", "Address"}, nil, employeeRows())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPaperScenarioEndToEnd(t *testing.T) {
	db := openWithR(t)

	res, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "DECOMPOSE TABLE" || res.Version != 1 {
		t.Fatalf("result: %+v", res)
	}
	if !reflect.DeepEqual(db.Tables(), []string{"S", "T"}) {
		t.Fatalf("tables=%v", db.Tables())
	}
	nT, _ := db.NumRows("T")
	if nT != 4 {
		t.Fatalf("T rows=%d", nT)
	}

	if _, err := db.Exec("MERGE TABLES S, T INTO R"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Rows("R", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("R rows=%d", len(rows))
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	if db.Version() != 2 || len(db.History()) != 2 {
		t.Fatalf("version=%d history=%d", db.Version(), len(db.History()))
	}
}

func TestQueryAndCount(t *testing.T) {
	db := openWithR(t)
	rows, err := db.Query("R", "Address = '425 Grant Ave' AND Skill != 'Typing'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows=%v", rows)
	}
	n, err := db.Count("R", "Employee = 'Jones'")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("count=%d", n)
	}
	if _, err := db.Query("R", "bad syntax ~"); err == nil {
		t.Fatal("bad condition should fail")
	}
	// Query and Count filter by a condition: an empty one is a parse
	// error, not "all rows" as RunQuery's empty Where is.
	if _, err := db.Query("R", ""); err == nil {
		t.Fatal("empty Query condition should fail")
	}
	if _, err := db.Count("R", ""); err == nil {
		t.Fatal("empty Count condition should fail")
	}
	// No match is an empty, non-nil result and a zero count.
	rows, err = db.Query("R", "Employee = 'Nobody'")
	if err != nil || rows == nil || len(rows) != 0 {
		t.Fatalf("no-match Query = %#v (%v), want empty non-nil", rows, err)
	}
	if n, err := db.Count("R", "Employee = 'Nobody'"); err != nil || n != 0 {
		t.Fatalf("no-match Count = %d (%v), want 0", n, err)
	}
	if _, err := db.Count("Nope", "x = 1"); err == nil {
		t.Fatal("missing table should fail")
	}
}

func TestDescribe(t *testing.T) {
	db := openWithR(t)
	info, err := db.Describe("R")
	if err != nil {
		t.Fatal(err)
	}
	if info.Rows != 7 || len(info.Columns) != 3 {
		t.Fatalf("info=%+v", info)
	}
	if info.Columns[0].Name != "Employee" || info.Columns[0].DistinctValues != 4 {
		t.Fatalf("columns=%+v", info.Columns)
	}
	if info.Columns[0].Encoding != "bitmap" {
		t.Fatalf("encoding=%s", info.Columns[0].Encoding)
	}
	cols, err := db.Columns("R")
	if err != nil || len(cols) != 3 {
		t.Fatalf("cols=%v err=%v", cols, err)
	}
}

func TestExecScript(t *testing.T) {
	db := openWithR(t)
	results, err := db.ExecScript(`
-- the paper's round trip
DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)
MERGE TABLES S, T INTO R
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results=%d", len(results))
	}
	if results[1].Kind != "MERGE TABLES" {
		t.Fatalf("second result: %+v", results[1])
	}
}

func TestSaveOpenDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "dbdir")
	db := openWithR(t)
	if _, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)"); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db2.Tables(), []string{"S", "T"}) {
		t.Fatalf("tables=%v", db2.Tables())
	}
	// The reopened database evolves correctly.
	if _, err := db2.Exec("MERGE TABLES S, T INTO R"); err != nil {
		t.Fatal(err)
	}
	n, _ := db2.NumRows("R")
	if n != 7 {
		t.Fatalf("rows=%d", n)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.csv")
	db := openWithR(t)
	if err := db.SaveCSV(path, "R"); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadCSV(path, "R2"); err != nil {
		t.Fatal(err)
	}
	a, _ := db.Rows("R", 0, 0)
	b, _ := db.Rows("R2", 0, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("CSV round trip changed rows")
	}
}

func TestStatusEvents(t *testing.T) {
	var steps []string
	db := Open(Config{Status: func(s string) { steps = append(steps, s) }})
	db.CreateTableFromRows("R", []string{"Employee", "Skill", "Address"}, nil, employeeRows())
	if _, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(strings.Join(steps, "\n"), "bitmap filtering") {
		t.Fatalf("steps=%v", steps)
	}
}

func TestRollback(t *testing.T) {
	db := openWithR(t)
	if _, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DROP COLUMN Skill FROM S"); err != nil {
		t.Fatal(err)
	}
	// Back to the original single-table schema (version 0).
	if err := db.Rollback(0); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db.Tables(), []string{"R"}) {
		t.Fatalf("tables=%v", db.Tables())
	}
	n, _ := db.NumRows("R")
	if n != 7 {
		t.Fatalf("rows=%d", n)
	}
	// Rollback is itself versioned; history is append-only.
	if db.Version() != 3 {
		t.Fatalf("version=%d", db.Version())
	}
	// Forward again to version 1 (the decomposed schema).
	if err := db.Rollback(1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(db.Tables(), []string{"S", "T"}) {
		t.Fatalf("tables=%v", db.Tables())
	}
	s, _ := db.Columns("S")
	if len(s) != 2 {
		t.Fatalf("S columns=%v (should have Skill back)", s)
	}
	if err := db.Rollback(99); err == nil {
		t.Fatal("rollback to unknown version should fail")
	}
}

func TestRunQuery(t *testing.T) {
	db := openWithR(t)
	rs, err := db.RunQuery("R", TableQuery{
		GroupBy:    "Address",
		Aggregates: []Agg{{Func: Count}, {Func: CountDistinct, Column: "Employee", As: "employees"}},
		OrderBy:    "Address",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"425 Grant Ave", "4", "2"},
		{"747 Industrial Way", "3", "2"},
	}
	if !reflect.DeepEqual(rs.Rows, want) {
		t.Fatalf("rows=%v", rs.Rows)
	}
	if rs.Columns[2] != "employees" {
		t.Fatalf("columns=%v", rs.Columns)
	}

	sel, err := db.RunQuery("R", TableQuery{
		Select:  []string{"Employee"},
		Where:   "Skill = 'Light Cleaning'",
		OrderBy: "Employee",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sel.Rows, [][]string{{"Harrison"}, {"Roberts"}}) {
		t.Fatalf("rows=%v", sel.Rows)
	}

	if _, err := db.RunQuery("Nope", TableQuery{}); err == nil {
		t.Fatal("unknown table should fail")
	}
	if _, err := db.RunQuery("R", TableQuery{Aggregates: []Agg{{Func: AggFunc(99)}}}); err == nil {
		t.Fatal("unknown aggregate should fail")
	}
}

func TestExecErrors(t *testing.T) {
	db := openWithR(t)
	if _, err := db.Exec("NOT AN OPERATOR"); err == nil {
		t.Fatal("parse error expected")
	}
	if _, err := db.Exec("DROP TABLE Nope"); err == nil {
		t.Fatal("unknown table error expected")
	}
	// Failed ops do not bump the version.
	if db.Version() != 0 {
		t.Fatalf("version=%d", db.Version())
	}
}
