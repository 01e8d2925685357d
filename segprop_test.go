package cods_test

import (
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cods"
)

// TestSegmentedFlushPropertyVsRowModel drives one database and the
// independent row model of model_test.go through identical random
// interleavings of keyed DML, flushes, retention pruning and schema
// evolutions (DECOMPOSE/MERGE and PARTITION/UNION cycles, COPY/DROP).
// After every statement the engine must match the model: the same error
// class, the same table set, every table's columns, declared key and
// rows, and the same point-query and count results. Runs under -race via
// the root package's race-matrix entry.
//
// Rows are compared in order everywhere, because every statement the
// test drives promises an order (ARCHITECTURE.md, "Invariants worth
// knowing"): a flush keeps surviving base rows in base order, then
// appended rows in insertion order; PARTITION, UNION and COPY keep their
// inputs' order; DECOMPOSE keeps it on both outputs, the deduplicated
// one holding each key's first row; key–foreign-key MERGE keeps the fact
// side's order. General MERGE, which clusters rows by join value and so
// would need a multiset comparison, never runs: the model rejects it.
func TestSegmentedFlushPropertyVsRowModel(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			runSegProp(t, seed, 140)
		})
	}
}

// segStmt is one statement of a run: the text the engine executes (empty
// for a DB.Compact call) and the same statement applied to the model.
type segStmt struct {
	sql   string
	model func(m *rowModel) error
}

// String renders c in the engine's predicate syntax.
func (c cond) String() string {
	if c.neg {
		return fmt.Sprintf("%s != '%s'", c.col, c.val)
	}
	return fmt.Sprintf("%s = '%s'", c.col, c.val)
}

func insertStmt(table string, row ...string) segStmt {
	return segStmt{
		sql:   fmt.Sprintf("INSERT INTO %s VALUES ('%s')", table, strings.Join(row, "', '")),
		model: func(m *rowModel) error { return m.insert(table, row) },
	}
}

func deleteStmt(table string, c cond) segStmt {
	return segStmt{
		sql:   fmt.Sprintf("DELETE FROM %s WHERE %s", table, c),
		model: func(m *rowModel) error { return m.delete(table, c) },
	}
}

func updateStmt(table, col, val string, c cond) segStmt {
	return segStmt{
		sql:   fmt.Sprintf("UPDATE %s SET %s = '%s' WHERE %s", table, col, val, c),
		model: func(m *rowModel) error { return m.update(table, col, val, c) },
	}
}

func runSegProp(t *testing.T, seed int64, nops int) {
	const autoCompact = 16
	db := cods.Open(cods.Config{AutoCompactPending: autoCompact, RetainVersions: 8})
	m := &rowModel{tables: make(map[string]*modelTable), autoCompact: autoCompact}

	seedRows := make([][]string, 20)
	for i := range seedRows {
		seedRows[i] = []string{fmt.Sprintf("k%04d", i), fmt.Sprintf("g%d", i%4), fmt.Sprintf("v%d", i%6)}
	}
	cols, key := []string{"K", "G", "V"}, []string{"K"}
	if err := db.CreateTableFromRows("T", cols, key, seedRows); err != nil {
		t.Fatal(err)
	}
	m.tables["T"] = &modelTable{cols: cols, key: key, rows: seedRows}

	rng := rand.New(rand.NewSource(seed))
	nextKey := 20
	kv := func(k int) string { return fmt.Sprintf("k%04d", k) }
	// T cycles through three shapes: whole, decomposed into A (K, G) and
	// B (K, V), or partitioned into P1/P2 by a G predicate. DML routes to
	// whichever tables currently exist.
	decomposed := false
	partitioned := false
	partG := 0 // the G group PARTITION sent to P2
	okDML, okEvolve, okPartition := 0, 0, 0
	for step := 0; step < nops; step++ {
		var stmts []segStmt
		evolve := "" // evolution target state: "decomposed" / "partitioned" / "whole"
		switch r := rng.Intn(100); {
		case r < 30: // insert, sometimes a deliberate duplicate key
			k := nextKey
			if !decomposed && rng.Intn(5) == 0 {
				k = rng.Intn(nextKey)
			} else {
				nextKey++
			}
			g := fmt.Sprintf("g%d", rng.Intn(4))
			v := fmt.Sprintf("v%d", rng.Intn(6))
			switch {
			case decomposed:
				// Keep the decomposition join-compatible: the same key
				// lands in both halves.
				stmts = []segStmt{insertStmt("A", kv(k), g), insertStmt("B", kv(k), v)}
			case partitioned:
				// Respect the partition predicate: the row goes to the
				// half its G group belongs to.
				target := "P1"
				if g == fmt.Sprintf("g%d", partG) {
					target = "P2"
				}
				stmts = []segStmt{insertStmt(target, kv(k), g, v)}
			default:
				stmts = []segStmt{insertStmt("T", kv(k), g, v)}
			}
		case r < 45:
			v, k := fmt.Sprintf("v%d", rng.Intn(6)), kv(rng.Intn(nextKey))
			for _, tgt := range updateTargets(decomposed, partitioned) {
				stmts = append(stmts, updateStmt(tgt, "V", v, cond{col: "K", val: k}))
			}
		case r < 55:
			k := kv(rng.Intn(nextKey))
			for _, tgt := range dmlTables(decomposed, partitioned) {
				stmts = append(stmts, deleteStmt(tgt, cond{col: "K", val: k}))
			}
		case r < 62:
			if decomposed {
				// A group-delete on one half would break the join's
				// foreign key; fall back to a keyed delete on both.
				k := kv(rng.Intn(nextKey))
				stmts = []segStmt{deleteStmt("A", cond{col: "K", val: k}), deleteStmt("B", cond{col: "K", val: k})}
			} else {
				g := fmt.Sprintf("g%d", rng.Intn(8))
				for _, tgt := range dmlTables(false, partitioned) {
					stmts = append(stmts, deleteStmt(tgt, cond{col: "G", val: g}))
				}
			}
		case r < 75:
			stmts = []segStmt{{model: func(m *rowModel) error { m.compact(); return nil }}}
		case r < 82:
			stmts = []segStmt{{sql: fmt.Sprintf("PRUNE KEEP %d", 1+rng.Intn(4)), model: func(*rowModel) error { return nil }}}
		case r < 90:
			switch {
			case decomposed:
				evolve = "whole"
				stmts = []segStmt{{"MERGE TABLES A, B INTO T", func(m *rowModel) error { return m.merge("A", "B", "T") }}}
			case partitioned:
				evolve = "whole"
				stmts = []segStmt{{"UNION TABLES P1, P2 INTO T", func(m *rowModel) error { return m.union("P1", "P2", "T") }}}
			case rng.Intn(2) == 0:
				evolve = "partitioned"
				partG = rng.Intn(4)
				c := cond{col: "G", val: fmt.Sprintf("g%d", partG), neg: true}
				stmts = []segStmt{{fmt.Sprintf("PARTITION TABLE T WHERE %s INTO P1, P2", c),
					func(m *rowModel) error { return m.partition("T", c, "P1", "P2") }}}
			default:
				evolve = "decomposed"
				stmts = []segStmt{{"DECOMPOSE TABLE T INTO A (K, G), B (K, V)", func(m *rowModel) error {
					return m.decompose("T", "A", []string{"K", "G"}, "B", []string{"K", "V"})
				}}}
			}
		case r < 95:
			src := "T"
			if decomposed {
				src = "A"
			} else if partitioned {
				src = "P1"
			}
			stmts = []segStmt{
				{"COPY TABLE " + src + " TO Tmp", func(m *rowModel) error { return m.copyTable(src, "Tmp") }},
				{"DROP TABLE Tmp", func(m *rowModel) error { return m.drop("Tmp") }},
			}
		default:
			// pure read step; the comparison below does the work
		}

		for _, st := range stmts {
			if st.sql == "" {
				if err := db.Compact(); err != nil {
					t.Fatalf("step %d: compact: %v", step, err)
				}
				_ = st.model(m)
				continue
			}
			var preDecompose [][]string
			if evolve == "decomposed" {
				preDecompose = m.tables["T"].rows
			}
			_, err := db.Exec(st.sql)
			if want := st.model(m); !errors.Is(errClass(err), want) {
				t.Fatalf("step %d: %q: engine error %v, model %v", step, st.sql, err, want)
			}
			if err != nil {
				continue
			}
			if evolve == "decomposed" {
				checkDecomposeJoinOracle(t, step, db, preDecompose)
			}
			switch {
			case evolve != "":
				okEvolve++
				if evolve == "partitioned" {
					okPartition++
				}
				decomposed = evolve == "decomposed"
				partitioned = evolve == "partitioned"
			case strings.HasPrefix(st.sql, "INSERT"), strings.HasPrefix(st.sql, "UPDATE"), strings.HasPrefix(st.sql, "DELETE"):
				okDML++
			}
		}

		compareWithModel(t, step, db, m, nextKey, rng)
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	// Guard against the run silently degenerating into consistent errors:
	// the interleaving must have landed real DML, real evolutions, and at
	// least one PARTITION (so the UNION leg of the cycle ran too).
	if okDML < nops/4 || okEvolve < 2 || okPartition < 1 {
		t.Fatalf("degenerate run: %d successful DML, %d successful evolutions (%d partitions)", okDML, okEvolve, okPartition)
	}
}

// errClass maps an engine error onto the model's error classes.
func errClass(err error) error {
	switch {
	case err == nil:
		return nil
	case strings.Contains(err.Error(), "violates key"):
		return errModelKey
	case strings.Contains(err.Error(), "foreign-key violation"):
		return errModelFK
	}
	return errModelOther
}

// dmlTables lists the tables a keyed statement must touch in the current
// shape: both halves of a decomposition or partition, T otherwise.
func dmlTables(decomposed, partitioned bool) []string {
	switch {
	case decomposed:
		return []string{"A", "B"}
	case partitioned:
		return []string{"P1", "P2"}
	}
	return []string{"T"}
}

// updateTargets lists the tables a V-column update must touch: only B has
// V while decomposed; a partitioned key lives in exactly one half, so the
// update runs against both (a no-op on the half without the key).
func updateTargets(decomposed, partitioned bool) []string {
	if decomposed {
		return []string{"B"}
	}
	if partitioned {
		return []string{"P1", "P2"}
	}
	return []string{"T"}
}

// checkDecomposeJoinOracle asserts the evolution oracle right after a
// DECOMPOSE lands: SELECT joining the outputs on the shared key must be
// byte-identical — row set and aggregate results — to the
// pre-DECOMPOSE table. The equivalence is the lossless-join guarantee,
// so it only holds when the decomposition's FDs did: with a duplicate key
// in T the join legitimately fans out, and the check skips.
func checkDecomposeJoinOracle(t *testing.T, step int, db *cods.DB, pre [][]string) {
	t.Helper()
	seen := make(map[string]bool, len(pre))
	distinctG := make(map[string]bool)
	for _, r := range pre {
		if seen[r[0]] {
			return // duplicate key: decomposition was lossy by design
		}
		seen[r[0]] = true
		distinctG[r[1]] = true
	}
	rs, err := db.Select("SELECT K, G, V FROM A JOIN B ON (K)")
	if err != nil {
		t.Fatalf("step %d: join over decomposed outputs: %v", step, err)
	}
	if got, want := sortedRows(rs.Rows), sortedRows(pre); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: A⋈B (%d rows) diverged from pre-DECOMPOSE T (%d rows)",
			step, len(got), len(want))
	}
	ag, err := db.Select("SELECT count(*), count_distinct(G) FROM A JOIN B ON (K)")
	if err != nil {
		t.Fatalf("step %d: aggregates over decomposed outputs: %v", step, err)
	}
	want := [][]string{{fmt.Sprint(len(pre)), fmt.Sprint(len(distinctG))}}
	if !reflect.DeepEqual(ag.Rows, want) {
		t.Fatalf("step %d: join aggregates %v, want %v", step, ag.Rows, want)
	}
}

// compareWithModel asserts the engine matches the model: the same table
// set, and per table the same columns, declared key and row sequence,
// one random page of rows, plus matching results for a point query on
// the key and a count on a payload column — these take the planner's
// bitmap scan paths over the flushed table (the equality fast path for
// the non-integer key literal; a predicate scan for !=).
func compareWithModel(t *testing.T, step int, db *cods.DB, m *rowModel, nextKey int, rng *rand.Rand) {
	t.Helper()
	if got, want := db.Tables(), slices.Sorted(maps.Keys(m.tables)); !reflect.DeepEqual(got, want) {
		t.Fatalf("step %d: tables %v, model has %v", step, got, want)
	}
	for _, name := range db.Tables() {
		mt := m.tables[name]
		info, err := db.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		cols, err := db.Columns(name)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(cols, mt.cols) || !slices.Equal(info.Key, mt.key) {
			t.Fatalf("step %d: table %s has columns %v key %v, model %v key %v", step, name, cols, info.Key, mt.cols, mt.key)
		}
		rows, err := db.Rows(name, 0, 0)
		if err != nil {
			t.Fatalf("step %d: rows(%s): %v", step, name, err)
		}
		if !slices.EqualFunc(rows, mt.rows, slices.Equal[[]string]) {
			t.Fatalf("step %d: table %s rows differ from the model\nengine: %v\nmodel:  %v", step, name, rows, mt.rows)
		}
		// One random page, its bounds drawn past both ends: an offset
		// beyond the table is an empty page, a limit of 0 means "to the
		// end".
		off, lim := uint64(rng.Intn(len(mt.rows)+3)), uint64(rng.Intn(len(mt.rows)+2))
		page, err := db.Rows(name, off, lim)
		lo := min(off, uint64(len(mt.rows)))
		hi := uint64(len(mt.rows))
		if lim > 0 {
			hi = min(lo+lim, hi)
		}
		if want := mt.rows[lo:hi]; err != nil || page == nil || !slices.EqualFunc(page, want, slices.Equal[[]string]) {
			t.Fatalf("step %d: rows(%s, %d, %d) = %v (%v), model %v", step, name, off, lim, page, err, want)
		}
		k := cond{col: "K", val: fmt.Sprintf("k%04d", rng.Intn(nextKey))}
		got, err := db.Query(name, k.String())
		if err != nil || !slices.EqualFunc(got, filterRows(mt, k), slices.Equal[[]string]) {
			t.Fatalf("step %d: query %s %s: %v (%v), model %v", step, name, k, got, err, filterRows(mt, k))
		}
		if !slices.Contains(mt.cols, "G") {
			continue
		}
		g := cond{col: "G", val: fmt.Sprintf("g%d", rng.Intn(4)), neg: true}
		n, err := db.Count(name, g.String())
		if want := uint64(len(filterRows(mt, g))); err != nil || n != want {
			t.Fatalf("step %d: count %s %s: %d (%v), model %d", step, name, g, n, err, want)
		}
	}
}

// filterRows returns the model rows of t matching c, in order.
func filterRows(t *modelTable, c cond) [][]string {
	var out [][]string
	hit := t.match(c)
	for _, r := range t.rows {
		if hit(r) {
			out = append(out, r)
		}
	}
	return out
}
