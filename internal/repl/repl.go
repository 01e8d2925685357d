// Package repl implements the interactive CODS platform loop used by
// cmd/cods — the CLI counterpart of the paper's demo UI (§3, Figure 4). It
// is a separate package so the command surface (operators, meta commands,
// table display, status tracking) is tested like any other component.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"cods"
)

// Repl drives a DB from a line-oriented input stream.
type Repl struct {
	DB  *cods.DB
	Out io.Writer
	// Prompt is written before each input line when non-empty.
	Prompt string
}

// Run processes lines from r until EOF or \quit.
func (rp *Repl) Run(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		if rp.Prompt != "" {
			fmt.Fprint(rp.Out, rp.Prompt)
		}
		if !sc.Scan() {
			return sc.Err()
		}
		if quit := rp.Line(strings.TrimSpace(sc.Text())); quit {
			return nil
		}
	}
}

// Line processes one input line and reports whether the loop should exit.
func (rp *Repl) Line(line string) (quit bool) {
	if line == "" || strings.HasPrefix(line, "--") || strings.HasPrefix(line, "#") {
		return false
	}
	if strings.HasPrefix(line, `\`) {
		return rp.meta(line)
	}
	if field := strings.Fields(line); len(field) > 0 && strings.EqualFold(field[0], "SELECT") {
		// SELECT is read-only and runs through the planner, not Exec —
		// the engine would reject it from the mutation path.
		rs, err := rp.DB.Select(line)
		if err != nil {
			fmt.Fprintln(rp.Out, "error:", err)
			return false
		}
		rp.printRows(rs.Columns, rs.Rows)
		return false
	}
	res, err := rp.DB.Exec(line)
	if err != nil {
		fmt.Fprintln(rp.Out, "error:", err)
		return false
	}
	fmt.Fprintf(rp.Out, "ok: %s in %v (schema version %d)\n", res.Kind, res.Elapsed, res.Version)
	if len(res.Created) > 0 {
		fmt.Fprintf(rp.Out, "  created: %s\n", strings.Join(res.Created, ", "))
	}
	if len(res.Dropped) > 0 {
		fmt.Fprintf(rp.Out, "  dropped: %s\n", strings.Join(res.Dropped, ", "))
	}
	return false
}

const helpText = `meta commands:
  \tables                     list tables
  \describe <table>           schema and storage statistics
  \display <table> [n]        show the first n rows (default 20)
  \select <table> <condition> show rows satisfying a condition
  \count <table> <condition>  count rows satisfying a condition
  \load <file.csv> <table>    load a CSV file
  \export <table> <file.csv>  write a table as CSV
  \save <dir>                 persist the database
  \history [n]                last n executed operators (default 20, 0 = all)
  \rollback <version>         restore an earlier schema version
  \memstats                   retention / delta-overlay / segment gauges
  \validate                   check table invariants
  \quit                       exit
operators: CREATE/DROP/RENAME/COPY TABLE, UNION TABLES, PARTITION TABLE,
DECOMPOSE TABLE, MERGE TABLES, ADD/DROP/RENAME COLUMN
DML: INSERT INTO t VALUES (...), DELETE FROM t [WHERE ...],
UPDATE t SET c = 'v' [WHERE ...]
queries: SELECT <list> FROM t [JOIN u ON (k, ...)]... [WHERE ...]
[GROUP BY g] [ORDER BY c [ASC|DESC]] [LIMIT n] — <list> is *, columns,
or aggregates (count(*), count_distinct/min/max/sum/avg(c))
retention: PRUNE KEEP n retires all but the current version's n
predecessors (n+1 versions stay rollback-able)`

func (rp *Repl) meta(line string) (quit bool) {
	db, out := rp.DB, rp.Out
	fields := strings.Fields(line)
	switch fields[0] {
	case `\quit`, `\q`:
		return true
	case `\help`:
		fmt.Fprintln(out, helpText)
	case `\tables`:
		for _, name := range db.Tables() {
			n, _ := db.NumRows(name)
			fmt.Fprintf(out, "  %-20s %10d rows\n", name, n)
		}
	case `\describe`:
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: \\describe <table>")
			return false
		}
		info, err := db.Describe(fields[1])
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		fmt.Fprintf(out, "table %s: %d rows, key %v\n", info.Name, info.Rows, info.Key)
		for _, c := range info.Columns {
			fmt.Fprintf(out, "  %-20s %-7s %8d distinct %12d bytes compressed\n",
				c.Name, c.Encoding, c.DistinctValues, c.CompressedBytes)
		}
	case `\display`:
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: \\display <table> [n]")
			return false
		}
		limit := uint64(20)
		if len(fields) > 2 {
			if n, err := strconv.ParseUint(fields[2], 10, 64); err == nil {
				limit = n
			}
		}
		cols, err := db.Columns(fields[1])
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		rows, err := db.Rows(fields[1], 0, limit)
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		rp.printRows(cols, rows)
		total, _ := db.NumRows(fields[1])
		if uint64(len(rows)) < total {
			fmt.Fprintf(out, "  ... %d more rows\n", total-uint64(len(rows)))
		}
	case `\select`:
		if len(fields) < 3 {
			fmt.Fprintln(out, "usage: \\select <table> <condition>")
			return false
		}
		cols, err := db.Columns(fields[1])
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		rows, err := db.Query(fields[1], strings.Join(fields[2:], " "))
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		rp.printRows(cols, rows)
	case `\count`:
		if len(fields) < 3 {
			fmt.Fprintln(out, "usage: \\count <table> <condition>")
			return false
		}
		n, err := db.Count(fields[1], strings.Join(fields[2:], " "))
		if err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		fmt.Fprintf(out, "%d rows\n", n)
	case `\load`:
		if len(fields) < 3 {
			fmt.Fprintln(out, "usage: \\load <file.csv> <table>")
			return false
		}
		if err := db.LoadCSV(fields[1], fields[2]); err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		n, _ := db.NumRows(fields[2])
		fmt.Fprintf(out, "loaded %d rows into %s\n", n, fields[2])
	case `\export`:
		if len(fields) < 3 {
			fmt.Fprintln(out, "usage: \\export <table> <file.csv>")
			return false
		}
		if err := db.SaveCSV(fields[2], fields[1]); err != nil {
			fmt.Fprintln(out, "error:", err)
		}
	case `\save`:
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: \\save <dir>")
			return false
		}
		if err := db.Save(fields[1]); err != nil {
			fmt.Fprintln(out, "error:", err)
		} else {
			fmt.Fprintln(out, "saved to", fields[1])
		}
	case `\history`:
		// Paged by default: with DML journaled per statement the full log
		// is O(statements), far too long (and too slow to copy) to dump
		// on a busy catalog. \history 0 still prints everything.
		limit := 20
		if len(fields) > 1 {
			n, err := strconv.Atoi(fields[1])
			if err != nil || n < 0 {
				fmt.Fprintln(out, "usage: \\history [n]   (n = 0 shows all)")
				return false
			}
			limit = n
		}
		snap := db.Snapshot()
		tail := snap.HistoryTail(limit)
		if elided := snap.HistoryLen() - len(tail); elided > 0 {
			fmt.Fprintf(out, "  ... %d earlier entries (\\history 0 shows all)\n", elided)
		}
		for _, h := range tail {
			fmt.Fprintf(out, "  v%-3d %-40s %v\n", h.Version, h.Op, h.Elapsed)
		}
	case `\rollback`:
		if len(fields) < 2 {
			fmt.Fprintln(out, "usage: \\rollback <version>")
			return false
		}
		v, err := strconv.Atoi(fields[1])
		if err != nil {
			fmt.Fprintln(out, "error: version must be a number")
			return false
		}
		if err := db.Rollback(v); err != nil {
			var pe *cods.VersionPrunedError
			if errors.As(err, &pe) {
				// Spell the retained window out for the operator: the
				// requested version existed but retention retired it.
				fmt.Fprintf(out, "error: schema version %d was pruned by retention; rollback now reaches versions %d..%d\n",
					pe.Version, pe.OldestRetained, pe.Newest)
				return false
			}
			fmt.Fprintln(out, "error:", err)
			return false
		}
		fmt.Fprintf(out, "rolled back to schema version %d (now at version %d)\n", v, db.Version())
	case `\memstats`:
		ms := db.MemStats()
		fmt.Fprintf(out, "retained versions:  %d (oldest rollback target: v%d)\n", ms.RetainedVersions, ms.OldestRetainedVersion)
		fmt.Fprintf(out, "pending delta rows: %d\n", ms.PendingRows)
		fmt.Fprintf(out, "compactions:        %d\n", ms.Compactions)
		fmt.Fprintf(out, "segment merges:     %d\n", ms.SegmentMerges)
		for _, t := range ms.Tables {
			fmt.Fprintf(out, "  %s: %d segment(s), rows/segment %d..%d\n", t.Table, t.Segments, t.MinRows, t.MaxRows)
		}
	case `\validate`:
		if err := db.Validate(); err != nil {
			fmt.Fprintln(out, "error:", err)
			return false
		}
		fmt.Fprintln(out, "all tables validate")
	default:
		fmt.Fprintln(out, "unknown command; try \\help")
	}
	return false
}

func (rp *Repl) printRows(cols []string, rows [][]string) {
	widths := make([]int, len(cols))
	for i, c := range cols {
		widths[i] = len(c)
	}
	for _, r := range rows {
		for i, v := range r {
			if len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	for i, c := range cols {
		fmt.Fprintf(rp.Out, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(rp.Out)
	for _, r := range rows {
		for i, v := range r {
			fmt.Fprintf(rp.Out, "%-*s  ", widths[i], v)
		}
		fmt.Fprintln(rp.Out)
	}
	fmt.Fprintf(rp.Out, "(%d rows)\n", len(rows))
}
