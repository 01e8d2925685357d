// Package smo defines the Schema Modification Operators of the paper's
// Table 1 (after Curino et al.'s PRISM workbench), the DML statements
// (INSERT, DELETE, UPDATE) that mutate tuples under those evolving
// schemas, and a small text syntax for specifying them, used by the CODS
// platform CLI and the write-ahead log.
package smo

import (
	"fmt"
	"strings"
)

// Op is a schema modification operator. Implementations are plain data;
// execution lives in the engine (package cods, engine.go). Every implementer must
// appear in the engine's statement dispatch (WAL replay runs through it)
// and in AllOps; codslint's walreplay analyzer enforces both.
//
// cods:statement
type Op interface {
	// Kind returns the operator's Table 1 name, e.g. "DECOMPOSE TABLE".
	Kind() string
	// String renders the operator in the parseable text syntax.
	String() string
}

// AllOps holds one representative value of every Op implementation. The
// String/Parse round-trip test iterates it, so adding an operator here
// (codslint's walreplay analyzer fails the build on one that is missing)
// automatically puts its text syntax under test — an operator can never
// be parseable from the WAL yet uncovered.
//
// cods:stmt-registry
var AllOps = []Op{
	AddColumn{Table: "t", Column: "c", Default: "v"},
	CopyTable{From: "a", To: "b"},
	CreateTable{Table: "t", Columns: []string{"c"}},
	DecomposeTable{Table: "r", OutS: "s", SColumns: []string{"c"}, OutT: "t", TColumns: []string{"d"}},
	Delete{Table: "t"},
	DropColumn{Table: "t", Column: "c"},
	DropTable{Table: "t"},
	Insert{Table: "t", Values: []string{"v"}},
	MergeTables{A: "a", B: "b", Out: "c"},
	PartitionTable{Table: "t", Condition: "c = 'v'", OutYes: "y", OutNo: "n"},
	Prune{Keep: 1},
	RenameColumn{Table: "t", From: "a", To: "b"},
	RenameTable{From: "a", To: "b"},
	Select{From: "t"},
	UnionTables{A: "a", B: "b", Out: "c"},
	Update{Table: "t", Column: "c", Value: "v"},
}

// CreateTable creates a new empty table.
type CreateTable struct {
	Table   string
	Columns []string
	Key     []string
}

// Kind implements Op.
func (CreateTable) Kind() string { return "CREATE TABLE" }

func (o CreateTable) String() string {
	s := fmt.Sprintf("CREATE TABLE %s (%s)", o.Table, joinIdents(o.Columns))
	if len(o.Key) > 0 {
		s += fmt.Sprintf(" KEY (%s)", joinIdents(o.Key))
	}
	return s
}

// DropTable deletes a table and its data.
type DropTable struct{ Table string }

// Kind implements Op.
func (DropTable) Kind() string { return "DROP TABLE" }

func (o DropTable) String() string { return fmt.Sprintf("DROP TABLE %s", o.Table) }

// RenameTable renames a table, keeping its data unchanged.
type RenameTable struct{ From, To string }

// Kind implements Op.
func (RenameTable) Kind() string { return "RENAME TABLE" }

func (o RenameTable) String() string { return fmt.Sprintf("RENAME TABLE %s TO %s", o.From, o.To) }

// CopyTable creates a copy of an existing table.
type CopyTable struct{ From, To string }

// Kind implements Op.
func (CopyTable) Kind() string { return "COPY TABLE" }

func (o CopyTable) String() string { return fmt.Sprintf("COPY TABLE %s TO %s", o.From, o.To) }

// UnionTables combines the tuples of two same-schema tables into one,
// consuming the inputs.
type UnionTables struct{ A, B, Out string }

// Kind implements Op.
func (UnionTables) Kind() string { return "UNION TABLES" }

func (o UnionTables) String() string {
	return fmt.Sprintf("UNION TABLES %s, %s INTO %s", o.A, o.B, o.Out)
}

// PartitionTable splits a table's tuples into two same-schema tables by a
// condition, consuming the input.
type PartitionTable struct {
	Table     string
	Condition string
	OutYes    string
	OutNo     string
}

// Kind implements Op.
func (PartitionTable) Kind() string { return "PARTITION TABLE" }

func (o PartitionTable) String() string {
	return fmt.Sprintf("PARTITION TABLE %s WHERE %s INTO %s, %s", o.Table, o.Condition, o.OutYes, o.OutNo)
}

// DecomposeTable splits a table into two tables whose attributes union to
// the input's, consuming the input.
type DecomposeTable struct {
	Table    string
	OutS     string
	SColumns []string
	OutT     string
	TColumns []string
}

// Kind implements Op.
func (DecomposeTable) Kind() string { return "DECOMPOSE TABLE" }

func (o DecomposeTable) String() string {
	return fmt.Sprintf("DECOMPOSE TABLE %s INTO %s (%s), %s (%s)",
		o.Table, o.OutS, joinIdents(o.SColumns), o.OutT, joinIdents(o.TColumns))
}

// MergeTables joins two tables on their common attributes into a new
// table, consuming the inputs.
type MergeTables struct{ A, B, Out string }

// Kind implements Op.
func (MergeTables) Kind() string { return "MERGE TABLES" }

func (o MergeTables) String() string {
	return fmt.Sprintf("MERGE TABLES %s, %s INTO %s", o.A, o.B, o.Out)
}

// AddColumn creates a new column. Exactly one of Default or ValuesFile
// should be set; with neither, the empty string is the default value.
type AddColumn struct {
	Table   string
	Column  string
	Default string
	// ValuesFile names a file with one value per row to load the column
	// from ("load the data from user input", Table 1). Resolved by the
	// CLI layer.
	ValuesFile string
}

// Kind implements Op.
func (AddColumn) Kind() string { return "ADD COLUMN" }

func (o AddColumn) String() string {
	if o.ValuesFile != "" {
		return fmt.Sprintf("ADD COLUMN %s TO %s FROM %s", o.Column, o.Table, quoteLit(o.ValuesFile))
	}
	return fmt.Sprintf("ADD COLUMN %s TO %s DEFAULT %s", o.Column, o.Table, quoteLit(o.Default))
}

// DropColumn deletes a column and its data.
type DropColumn struct{ Table, Column string }

// Kind implements Op.
func (DropColumn) Kind() string { return "DROP COLUMN" }

func (o DropColumn) String() string { return fmt.Sprintf("DROP COLUMN %s FROM %s", o.Column, o.Table) }

// RenameColumn changes a column's name without changing data.
type RenameColumn struct{ Table, From, To string }

// Kind implements Op.
func (RenameColumn) Kind() string { return "RENAME COLUMN" }

func (o RenameColumn) String() string {
	return fmt.Sprintf("RENAME COLUMN %s TO %s IN %s", o.From, o.To, o.Table)
}

// Insert appends one row to a table. INSERT/DELETE/UPDATE are DML, not
// SMOs: they change a table's tuples, not its schema, and execute against
// the table's delta overlay (internal/delta) instead of running a data
// evolution. They live here because they share the operators' whole
// lifecycle — the text syntax, the Parse(op.String()) round trip, WAL
// journaling and replay, versioned catalog publication.
type Insert struct {
	Table string
	// Values holds the new row in schema order; arity is checked at
	// execution time against the live schema, not at parse time.
	Values []string
}

// Kind implements Op.
func (Insert) Kind() string { return "INSERT" }

func (o Insert) String() string {
	vals := make([]string, len(o.Values))
	for i, v := range o.Values {
		vals[i] = quoteLit(v)
	}
	return fmt.Sprintf("INSERT INTO %s VALUES (%s)", o.Table, strings.Join(vals, ", "))
}

// Delete removes a table's rows matching a condition (every row when
// Where is empty). The schema is untouched.
type Delete struct {
	Table string
	// Where is a predicate in the PARTITION condition syntax; empty
	// deletes all rows.
	Where string
}

// Kind implements Op.
func (Delete) Kind() string { return "DELETE" }

func (o Delete) String() string {
	if o.Where == "" {
		return fmt.Sprintf("DELETE FROM %s", o.Table)
	}
	return fmt.Sprintf("DELETE FROM %s WHERE %s", o.Table, o.Where)
}

// Update sets one column to a literal value on the rows matching a
// condition (every row when Where is empty).
type Update struct {
	Table  string
	Column string
	Value  string
	// Where is a predicate in the PARTITION condition syntax; empty
	// updates all rows.
	Where string
}

// Kind implements Op.
func (Update) Kind() string { return "UPDATE" }

func (o Update) String() string {
	s := fmt.Sprintf("UPDATE %s SET %s = %s", o.Table, o.Column, quoteLit(o.Value))
	if o.Where != "" {
		s += " WHERE " + o.Where
	}
	return s
}

// Prune retires rollback snapshots, keeping the current schema version
// plus its Keep predecessors. Like the DML statements it is not an SMO —
// it changes no schema and no tuples, only how far back Rollback can
// reach — but it shares the statement lifecycle (text syntax, Parse
// round trip, WAL journaling) so operators can bound catalog memory from
// a script, the REPL, or the HTTP /exec endpoint.
type Prune struct {
	// Keep is how many previous versions stay rollback-able.
	Keep int
}

// Kind implements Op.
func (Prune) Kind() string { return "PRUNE" }

func (o Prune) String() string { return fmt.Sprintf("PRUNE KEEP %d", o.Keep) }

// IsDML reports whether op manipulates data (INSERT, DELETE, UPDATE)
// rather than schema. The engine uses it to route execution through the
// delta overlay and to skip created/dropped bookkeeping that only schema
// operators produce.
func IsDML(op Op) bool {
	switch op.(type) {
	case Insert, Delete, Update:
		return true
	}
	return false
}

// quoteLit renders a string literal in the parseable syntax, doubling
// embedded quotes, so every Op round-trips through Parse(op.String()) —
// the invariant the write-ahead log relies on.
func quoteLit(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

func joinIdents(ids []string) string {
	out := ""
	for i, id := range ids {
		if i > 0 {
			out += ", "
		}
		out += id
	}
	return out
}
