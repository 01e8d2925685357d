package cods_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cods"
)

// TestSelectJoinOracleAfterDecompose is the evolution oracle for joins:
// after DECOMPOSE splits a table along a functional dependency, joining
// the outputs back together on the shared key must reproduce every
// query against the original table byte for byte — plain scans,
// global aggregates, and grouped aggregates alike. The table spans
// multiple storage segments (bulk load + inserts + compaction), so the
// segment-aware scan under the join is exercised across boundaries.
func TestSelectJoinOracleAfterDecompose(t *testing.T) {
	db := cods.Open(cods.Config{})
	var rows [][]string
	for i := 0; i < 300; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("e%02d", i%30),         // Employee
			fmt.Sprintf("s%04d", i),            // Skill (unique)
			fmt.Sprintf("%d", (i%17)*(i%5)-10), // Hours (numeric, signed)
			fmt.Sprintf("addr%02d", i%30),      // Address (FD: Employee -> Address)
		})
	}
	cols := []string{"Employee", "Skill", "Hours", "Address"}
	if err := db.CreateTableFromRows("R", cols, nil, rows[:250]); err != nil {
		t.Fatal(err)
	}
	for _, r := range rows[250:] {
		stmt := fmt.Sprintf("INSERT INTO R VALUES ('%s', '%s', '%s', '%s')", r[0], r[1], r[2], r[3])
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Compact(); err != nil {
		t.Fatal(err)
	}

	// Every oracle query pins its row order (Skill is unique; Employee
	// keys the groups), so "byte-identical" is well-defined.
	queries := []string{
		"SELECT Employee, Skill, Hours, Address FROM %s ORDER BY Skill",
		"SELECT Skill, Address, Hours FROM %s WHERE Employee = 'e07' ORDER BY Skill",
		"SELECT count(*), sum(Hours), avg(Hours), min(Skill), max(Skill), count_distinct(Address) FROM %s",
		"SELECT count(*), sum(Hours) FROM %s WHERE Hours >= '3' GROUP BY Employee ORDER BY Employee",
		"SELECT count_distinct(Skill) FROM %s GROUP BY Address ORDER BY Address DESC LIMIT 7",
	}
	before := make([]*cods.ResultSet, len(queries))
	for i, q := range queries {
		rs, err := db.Select(fmt.Sprintf(q, "R"))
		if err != nil {
			t.Fatalf("pre-decompose %q: %v", q, err)
		}
		before[i] = rs
	}

	if _, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill, Hours), T (Employee, Address)"); err != nil {
		t.Fatal(err)
	}
	// The reused output keeps the input's segments (bulk load plus the
	// compacted inserts) rather than arriving restitched as one.
	segments := map[string]int{}
	for _, ts := range db.MemStats().Tables {
		segments[ts.Table] = ts.Segments
	}
	if segments["S"] < 2 {
		t.Fatalf("DECOMPOSE output S has %d segments, want the input's multi-segment layout", segments["S"])
	}

	joined := "S JOIN T ON (Employee)"
	for i, q := range queries {
		rs, err := db.Select(fmt.Sprintf(q, joined))
		if err != nil {
			t.Fatalf("post-decompose %q: %v", q, err)
		}
		if !reflect.DeepEqual(rs.Columns, before[i].Columns) {
			t.Errorf("%q: columns %v over the join, %v over the original", q, rs.Columns, before[i].Columns)
		}
		if !reflect.DeepEqual(rs.Rows, before[i].Rows) {
			t.Errorf("%q: join-over-decomposed diverged from scan-of-original\n join: %v\n orig: %v",
				q, rs.Rows, before[i].Rows)
		}
	}
}

// joinOracle is the naive nested-loop reference: probe rows in order,
// build rows in order, keys compared as plain strings.
func joinOracle(probe, build [][]string, probeKey, buildKey, buildExtra []int) [][]string {
	var out [][]string
	for _, pr := range probe {
		for _, br := range build {
			match := true
			for i := range probeKey {
				if pr[probeKey[i]] != br[buildKey[i]] {
					match = false
					break
				}
			}
			if !match {
				continue
			}
			row := append([]string(nil), pr...)
			for _, bi := range buildExtra {
				row = append(row, br[bi])
			}
			out = append(out, row)
		}
	}
	return out
}

// TestSelectJoinParityRandomized races randomized join queries (duplicate
// keys, NULL-ish empty-string values, an empty build side, multi-column
// keys) against a naive nested-loop oracle while a DECOMPOSE of an
// unrelated table sits parked mid-operator holding the write path. Under
// -race this pins the facade promise that joined reads are lock-free
// against the snapshot.
func TestSelectJoinParityRandomized(t *testing.T) {
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	db := cods.Open(cods.Config{Status: func(step string) {
		// Park the evolution proper, not the DML/compaction events that
		// precede it.
		if strings.HasPrefix(step, "distinction") {
			once.Do(func() {
				close(parked)
				<-release
			})
		}
	}})

	var evoRows [][]string
	for i := 0; i < 400; i++ {
		evoRows = append(evoRows, []string{
			fmt.Sprintf("e%02d", i%40), fmt.Sprintf("s%03d", i), fmt.Sprintf("a%02d", i%20),
		})
	}
	if err := db.CreateTableFromRows("R", []string{"Employee", "Skill", "Address"}, nil, evoRows); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	keys := []string{"", "k0", "k1", "k2", "k3", "k4", "k5"} // "" is a legal value
	val := func() string {
		if rng.Intn(8) == 0 {
			return ""
		}
		return fmt.Sprintf("v%03d", rng.Intn(500))
	}
	var factRows, dimRows, fact2Rows, dim2Rows [][]string
	for i := 0; i < 150; i++ {
		factRows = append(factRows, []string{keys[rng.Intn(len(keys))], val()})
	}
	for i := 0; i < 30; i++ { // duplicate dim keys: join fan-out > 1
		dimRows = append(dimRows, []string{keys[rng.Intn(len(keys))], val()})
	}
	for i := 0; i < 80; i++ {
		fact2Rows = append(fact2Rows, []string{keys[rng.Intn(3)], keys[rng.Intn(len(keys))], val()})
	}
	for i := 0; i < 25; i++ {
		dim2Rows = append(dim2Rows, []string{keys[rng.Intn(3)], keys[rng.Intn(len(keys))], val()})
	}
	for _, tb := range []struct {
		name string
		cols []string
		rows [][]string
	}{
		{"fact", []string{"K", "F"}, factRows},
		{"dim", []string{"K", "D"}, dimRows},
		{"fact2", []string{"K1", "K2", "F"}, fact2Rows},
		{"dim2", []string{"K1", "K2", "D"}, dim2Rows},
		{"lonely", []string{"K", "L"}, [][]string{{"nowhere", "x"}}},
	} {
		if err := db.CreateTableFromRows(tb.name, tb.cols, nil, tb.rows); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
		done <- err
	}()
	<-parked

	check := func(desc string, got *cods.ResultSet, want [][]string) {
		t.Helper()
		if got.Rows == nil {
			t.Errorf("%s: Rows is nil, want empty non-nil", desc)
		}
		if g, w := sortedRows(got.Rows), sortedRows(want); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: %d rows diverge from the nested-loop oracle\n got: %v\nwant: %v",
				desc, len(g), g, w)
		}
	}

	// Single-key join, duplicate keys and empty-string keys on both sides.
	rs, err := db.RunQuery("fact", cods.TableQuery{Joins: []cods.Join{{Table: "dim", On: []string{"K"}}}})
	if err != nil {
		t.Fatal(err)
	}
	check("fact⋈dim", rs, joinOracle(factRows, dimRows, []int{0}, []int{0}, []int{1}))

	// The same join through the statement text path.
	rs, err = db.Select("SELECT * FROM fact JOIN dim ON (K)")
	if err != nil {
		t.Fatal(err)
	}
	check("fact⋈dim via SELECT", rs, joinOracle(factRows, dimRows, []int{0}, []int{0}, []int{1}))

	// Multi-column key: ("a","b") must not collide with ("ab","").
	rs, err = db.RunQuery("fact2", cods.TableQuery{Joins: []cods.Join{{Table: "dim2", On: []string{"K1", "K2"}}}})
	if err != nil {
		t.Fatal(err)
	}
	check("fact2⋈dim2", rs, joinOracle(fact2Rows, dim2Rows, []int{0, 1}, []int{0, 1}, []int{2}))

	// Empty build sides: no key overlap at all, and a dim predicate that
	// masks out every build row before the hash table fills.
	rs, err = db.RunQuery("fact", cods.TableQuery{Joins: []cods.Join{{Table: "lonely", On: []string{"K"}}}})
	if err != nil {
		t.Fatal(err)
	}
	check("fact⋈lonely", rs, nil)
	rs, err = db.RunQuery("fact", cods.TableQuery{
		Joins: []cods.Join{{Table: "dim", On: []string{"K"}}},
		Where: "D = 'no-such-value'",
	})
	if err != nil {
		t.Fatal(err)
	}
	check("fact⋈dim masked empty", rs, nil)

	// Random predicate shapes over the joined output.
	for i := 0; i < 10; i++ {
		k := keys[rng.Intn(len(keys))]
		rs, err := db.RunQuery("fact", cods.TableQuery{
			Joins: []cods.Join{{Table: "dim", On: []string{"K"}}},
			Where: fmt.Sprintf("K != '%s'", k),
		})
		if err != nil {
			t.Fatal(err)
		}
		var keep [][]string
		for _, r := range joinOracle(factRows, dimRows, []int{0}, []int{0}, []int{1}) {
			if r[0] != k {
				keep = append(keep, r)
			}
		}
		check(fmt.Sprintf("fact⋈dim K != %q", k), rs, keep)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("parked DECOMPOSE failed: %v", err)
	}
}

// TestSelectErrorClassification pins the sentinel wrapping the HTTP
// layer relies on: unknown tables (FROM or JOIN) match ErrNoTable,
// malformed statements match ErrParse.
func TestSelectErrorClassification(t *testing.T) {
	db := cods.Open(cods.Config{})
	if err := db.CreateTableFromRows("t", []string{"K", "V"}, nil, [][]string{{"a", "1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Select("SELECT * FROM nosuch"); !errors.Is(err, cods.ErrNoTable) {
		t.Errorf("unknown FROM table: err = %v, want ErrNoTable", err)
	}
	if _, err := db.Select("SELECT * FROM t JOIN nosuch ON (K)"); !errors.Is(err, cods.ErrNoTable) {
		t.Errorf("unknown JOIN table: err = %v, want ErrNoTable", err)
	}
	if _, err := db.Select("SELECT FROM t"); !errors.Is(err, cods.ErrParse) {
		t.Errorf("malformed statement: err = %v, want ErrParse", err)
	}
	if _, err := db.Select("CREATE TABLE u (A)"); !errors.Is(err, cods.ErrParse) {
		t.Errorf("non-SELECT statement: err = %v, want ErrParse", err)
	}
	if _, err := db.Select("SELECT * FROM t JOIN t ON (Q)"); err == nil {
		t.Error("bad ON column accepted")
	}
}
