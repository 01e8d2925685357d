package repl

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cods"
)

func newRepl(t *testing.T) (*Repl, *bytes.Buffer) {
	t.Helper()
	db := cods.Open(cods.Config{ValidateFD: true})
	err := db.CreateTableFromRows("R",
		[]string{"Employee", "Skill", "Address"}, nil,
		[][]string{
			{"Jones", "Typing", "425 Grant Ave"},
			{"Jones", "Shorthand", "425 Grant Ave"},
			{"Roberts", "Light Cleaning", "747 Industrial Way"},
			{"Ellis", "Alchemy", "747 Industrial Way"},
			{"Jones", "Whittling", "425 Grant Ave"},
			{"Ellis", "Juggling", "747 Industrial Way"},
			{"Harrison", "Light Cleaning", "425 Grant Ave"},
		})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	return &Repl{DB: db, Out: &out}, &out
}

func runLines(t *testing.T, rp *Repl, out *bytes.Buffer, lines ...string) string {
	t.Helper()
	out.Reset()
	for _, l := range lines {
		rp.Line(l)
	}
	return out.String()
}

func TestOperatorExecution(t *testing.T) {
	rp, out := newRepl(t)
	got := runLines(t, rp, out, "DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
	for _, want := range []string{"ok: DECOMPOSE TABLE", "created: S, T", "dropped: R"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

func TestOperatorError(t *testing.T) {
	rp, out := newRepl(t)
	got := runLines(t, rp, out, "DROP TABLE Nope")
	if !strings.Contains(got, "error:") {
		t.Fatalf("missing error output: %s", got)
	}
}

func TestTablesAndDescribe(t *testing.T) {
	rp, out := newRepl(t)
	got := runLines(t, rp, out, `\tables`)
	if !strings.Contains(got, "R") || !strings.Contains(got, "7 rows") {
		t.Fatalf("tables output: %s", got)
	}
	got = runLines(t, rp, out, `\describe R`)
	for _, want := range []string{"table R: 7 rows", "Employee", "bitmap", "distinct"} {
		if !strings.Contains(got, want) {
			t.Fatalf("describe missing %q: %s", want, got)
		}
	}
}

func TestDisplayAndSelectAndCount(t *testing.T) {
	rp, out := newRepl(t)
	got := runLines(t, rp, out, `\display R 3`)
	if !strings.Contains(got, "(3 rows)") || !strings.Contains(got, "... 4 more rows") {
		t.Fatalf("display output: %s", got)
	}
	got = runLines(t, rp, out, `\select R Employee = 'Jones'`)
	if !strings.Contains(got, "(3 rows)") || !strings.Contains(got, "Whittling") {
		t.Fatalf("select output: %s", got)
	}
	got = runLines(t, rp, out, `\count R Address = '425 Grant Ave'`)
	if !strings.Contains(got, "4 rows") {
		t.Fatalf("count output: %s", got)
	}
}

func TestHistoryRollbackValidate(t *testing.T) {
	rp, out := newRepl(t)
	runLines(t, rp, out, "COPY TABLE R TO R2", "DROP TABLE R2")
	got := runLines(t, rp, out, `\history`)
	if !strings.Contains(got, "COPY TABLE R TO R2") || !strings.Contains(got, "DROP TABLE R2") {
		t.Fatalf("history: %s", got)
	}
	got = runLines(t, rp, out, `\rollback 1`, `\tables`)
	if !strings.Contains(got, "rolled back to schema version 1") || !strings.Contains(got, "R2") {
		t.Fatalf("rollback: %s", got)
	}
	got = runLines(t, rp, out, `\validate`)
	if !strings.Contains(got, "all tables validate") {
		t.Fatalf("validate: %s", got)
	}
	got = runLines(t, rp, out, `\rollback abc`)
	if !strings.Contains(got, "error") {
		t.Fatalf("bad rollback arg: %s", got)
	}
}

func TestLoadExportSave(t *testing.T) {
	rp, out := newRepl(t)
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "r.csv")
	got := runLines(t, rp, out, `\export R `+csvPath)
	if strings.Contains(got, "error") {
		t.Fatalf("export: %s", got)
	}
	got = runLines(t, rp, out, `\load `+csvPath+` R2`)
	if !strings.Contains(got, "loaded 7 rows into R2") {
		t.Fatalf("load: %s", got)
	}
	dbDir := filepath.Join(dir, "db")
	got = runLines(t, rp, out, `\save `+dbDir)
	if !strings.Contains(got, "saved to") {
		t.Fatalf("save: %s", got)
	}
	if _, err := os.Stat(filepath.Join(dbDir, "catalog.json")); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownAndUsageAndComments(t *testing.T) {
	rp, out := newRepl(t)
	got := runLines(t, rp, out, `\frobnicate`)
	if !strings.Contains(got, "unknown command") {
		t.Fatalf("unknown: %s", got)
	}
	got = runLines(t, rp, out, `\describe`)
	if !strings.Contains(got, "usage:") {
		t.Fatalf("usage: %s", got)
	}
	got = runLines(t, rp, out, "", "-- comment", "# comment")
	if got != "" {
		t.Fatalf("comments produced output: %s", got)
	}
	got = runLines(t, rp, out, `\help`)
	if !strings.Contains(got, "DECOMPOSE TABLE") {
		t.Fatalf("help: %s", got)
	}
}

func TestRunLoopQuitAndPrompt(t *testing.T) {
	rp, out := newRepl(t)
	rp.Prompt = "cods> "
	in := strings.NewReader("\\tables\n\\quit\nDROP TABLE R\n")
	if err := rp.Run(in); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "cods> ") {
		t.Fatalf("no prompt: %s", got)
	}
	// The line after \quit must not have executed.
	if !rp.DB.HasTable("R") {
		t.Fatal("input after \\quit was executed")
	}
}

// \history pages from the tail by default; \history 0 prints the full
// log; a bad argument is a usage error.
func TestHistoryPaging(t *testing.T) {
	rp, out := newRepl(t)
	var stmts []string
	for i := 0; i < 25; i++ {
		stmts = append(stmts, "COPY TABLE R TO C", "DROP TABLE C")
	}
	runLines(t, rp, out, stmts...)

	got := runLines(t, rp, out, `\history`)
	if !strings.Contains(got, "... 30 earlier entries") {
		t.Fatalf("default history page missing elision note: %s", got)
	}
	if strings.Count(got, "\n") > 25 {
		t.Fatalf("default history page too long:\n%s", got)
	}
	got = runLines(t, rp, out, `\history 2`)
	if !strings.Contains(got, "... 48 earlier entries") || strings.Count(got, "v") < 2 {
		t.Fatalf("history 2: %s", got)
	}
	got = runLines(t, rp, out, `\history 0`)
	if strings.Contains(got, "earlier entries") || strings.Count(got, "COPY TABLE R TO C") != 25 {
		t.Fatalf("history 0 should show everything: %s", got)
	}
	got = runLines(t, rp, out, `\history nope`)
	if !strings.Contains(got, "usage:") {
		t.Fatalf("bad history arg: %s", got)
	}
}

// \rollback to a pruned version explains the retained window; \memstats
// shows the gauges moving.
func TestRollbackPrunedAndMemstats(t *testing.T) {
	rp, out := newRepl(t)
	runLines(t, rp, out,
		"INSERT INTO R VALUES ('New', 'Welding', '1 Pier St')",
		"INSERT INTO R VALUES ('New2', 'Welding', '2 Pier St')",
		"PRUNE KEEP 1")
	got := runLines(t, rp, out, `\rollback 0`)
	if !strings.Contains(got, "pruned by retention") || !strings.Contains(got, "rollback now reaches versions 1..2") {
		t.Fatalf("pruned rollback message: %s", got)
	}
	got = runLines(t, rp, out, `\memstats`)
	for _, want := range []string{"retained versions:  2", "oldest rollback target: v1", "pending delta rows: 2"} {
		if !strings.Contains(got, want) {
			t.Fatalf("memstats missing %q: %s", want, got)
		}
	}
	// A never-existed version keeps the plain error path.
	got = runLines(t, rp, out, `\rollback 99`)
	if !strings.Contains(got, "no schema version 99") {
		t.Fatalf("never-existed rollback: %s", got)
	}
}
