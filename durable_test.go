package cods

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cods/internal/storage"
)

func openDurable(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := OpenDurable(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func mustExec(t *testing.T, db *DB, op string) {
	t.Helper()
	if _, err := db.Exec(op); err != nil {
		t.Fatalf("Exec(%q): %v", op, err)
	}
}

// TestDurableRecoveryFromWALOnly crashes (by simply abandoning the DB
// without Close or Checkpoint) after N statements; reopening must recover
// every one from the WAL alone — no snapshot was ever written.
func TestDurableRecoveryFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	stmts := []string{
		"CREATE TABLE r (a, b, c)",
		"ADD COLUMN d TO r DEFAULT 'x'",
		"RENAME COLUMN d TO e IN r",
		"COPY TABLE r TO s",
		"RENAME TABLE s TO t2",
	}
	for _, s := range stmts {
		mustExec(t, db, s)
	}
	// No Close: simulate a crash by dropping the handle.

	re := openDurable(t, dir)
	if v := re.Version(); v != len(stmts) {
		t.Fatalf("recovered version = %d, want %d", v, len(stmts))
	}
	if got, want := re.Tables(), []string{"r", "t2"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables = %v, want %v", got, want)
	}
	cols, err := re.Columns("r")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c", "e"}; !reflect.DeepEqual(cols, want) {
		t.Fatalf("recovered columns = %v, want %v", cols, want)
	}
}

// TestDurableRecoverySnapshotPlusWAL checkpoints mid-stream: recovery
// must load the snapshot and replay only the statements after it.
func TestDurableRecoverySnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	if err := db.CreateTableFromRows("r", []string{"a", "b"}, nil,
		[][]string{{"1", "x"}, {"2", "y"}, {"3", "x"}}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "COPY TABLE r TO s")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "ADD COLUMN c TO s DEFAULT 'd'")
	mustExec(t, db, "DROP TABLE r")

	re := openDurable(t, dir)
	if got, want := re.Tables(), []string{"s"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables = %v, want %v", got, want)
	}
	n, err := re.NumRows("s")
	if err != nil || n != 3 {
		t.Fatalf("recovered s has %d rows (%v), want 3", n, err)
	}
	rows, err := re.Query("s", "b = 'x'")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("query on recovered data returned %d rows, want 2", len(rows))
	}
}

// TestDurableTornWALRecord truncates the log mid-record, as a crash
// during an append would: recovery keeps every whole statement and drops
// the torn one.
func TestDurableTornWALRecord(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE r (a, b)")
	mustExec(t, db, "ADD COLUMN c TO r DEFAULT 'v'")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	walFile := filepath.Join(dir, "wal.log")
	fi, err := os.Stat(walFile)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(walFile, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir)
	if v := re.Version(); v != 1 {
		t.Fatalf("recovered version = %d, want 1 (torn statement dropped)", v)
	}
	cols, err := re.Columns("r")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(cols, want) {
		t.Fatalf("recovered columns = %v, want %v", cols, want)
	}
	// The truncated tail must not poison later appends.
	mustExec(t, re, "ADD COLUMN c2 TO r DEFAULT 'w'")
	re2 := openDurable(t, dir)
	if cols, _ := re2.Columns("r"); !reflect.DeepEqual(cols, []string{"a", "b", "c2"}) {
		t.Fatalf("columns after re-append = %v", cols)
	}
}

// Quoted defaults must survive the WAL's text round trip.
func TestDurableQuotedDefault(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE r (a)")
	mustExec(t, db, "ADD COLUMN c TO r DEFAULT 'it''s'")

	re := openDurable(t, dir)
	if cols, _ := re.Columns("r"); !reflect.DeepEqual(cols, []string{"a", "c"}) {
		t.Fatalf("recovered columns = %v", cols)
	}
}

// A crash between a checkpoint's snapshot publish and its WAL reset must
// not double-apply the logged statements: simulate it by checkpointing,
// then restoring the pre-checkpoint (stale-epoch) WAL bytes.
func TestDurableCrashBetweenSnapshotAndWALReset(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE r (a)")
	mustExec(t, db, "COPY TABLE r TO s")
	preWAL, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// The snapshot is published; put back the old epoch-0 log as if the
	// process died before Reset ran.
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), preWAL, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir)
	if got, want := re.Tables(), []string{"r", "s"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables = %v, want %v (stale WAL must be discarded, not replayed)", got, want)
	}
	// The stale log must have been retired: new statements recover fine.
	mustExec(t, re, "DROP TABLE s")
	re2 := openDurable(t, dir)
	if got, want := re2.Tables(), []string{"r"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("tables after post-recovery exec = %v, want %v", got, want)
	}
}

// Rollback cannot be replayed from text (version numbers restart on
// reopen), so it checkpoints: recovery must land on the rolled-back state.
func TestDurableRollbackCheckpoints(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE r (a)")
	mustExec(t, db, "RENAME TABLE r TO s")
	if err := db.Rollback(1); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir)
	if got, want := re.Tables(), []string{"r"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables = %v, want %v", got, want)
	}
}

// TestDurableWritesPublishAfterCheckpoint checks durability before
// visibility on the checkpointing write paths: while CreateTableFromRows,
// Rollback and a non-replayable Exec write the snapshot that makes their
// change durable, the lock-free Snapshot still shows the catalog without
// the change (while the snapshot being written carries it); once the
// call returns, the change is visible, and later statements publish as
// usual.
func TestDurableWritesPublishAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	var during []*Snapshot
	storage.CrashPoint = func(point string) {
		if point == "manifest-written" {
			during = append(during, db.Snapshot())
		}
	}
	defer func() { storage.CrashPoint = nil }()

	if err := db.CreateTableFromRows("r", []string{"a"}, nil, [][]string{{"1"}}); err != nil {
		t.Fatal(err)
	}
	if len(during) != 1 {
		t.Fatalf("CreateTableFromRows reached manifest-written %d times, want 1", len(during))
	}
	if during[0].HasTable("r") {
		t.Fatal("bulk-loaded table visible before its checkpoint finished")
	}
	if !db.HasTable("r") {
		t.Fatal("bulk-loaded table not visible after CreateTableFromRows returned")
	}

	mustExec(t, db, "RENAME TABLE r TO s") // journaled, no checkpoint
	during = nil
	if err := db.Rollback(0); err != nil {
		t.Fatal(err)
	}
	if len(during) != 1 {
		t.Fatalf("Rollback reached manifest-written %d times, want 1", len(during))
	}
	if got := during[0]; got.Version() != 1 || !got.HasTable("s") || got.HasTable("r") {
		t.Fatalf("during Rollback readers saw version %d with tables %v, want version 1 with [s]", got.Version(), got.Tables())
	}
	if got := db.Snapshot(); got.Version() != 2 || !got.HasTable("r") || got.HasTable("s") {
		t.Fatalf("after Rollback readers see version %d with tables %v, want version 2 with [r]", got.Version(), got.Tables())
	}

	mustExec(t, db, "RENAME TABLE r TO t")
	if got := db.Version(); got != 3 {
		t.Fatalf("version after a later statement = %d, want 3", got)
	}

	// A file-fed column cannot be replayed from the log, so Exec
	// checkpoints it, and readers see it only once Exec returns.
	values := filepath.Join(t.TempDir(), "z.txt")
	if err := os.WriteFile(values, []byte("v\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	during = nil
	mustExec(t, db, fmt.Sprintf("ADD COLUMN z TO t FROM '%s'", values))
	if len(during) != 1 {
		t.Fatalf("Exec(ADD COLUMN ... FROM) reached manifest-written %d times, want 1", len(during))
	}
	if cols, err := during[0].Columns("t"); err != nil || during[0].Version() != 3 || !reflect.DeepEqual(cols, []string{"a"}) {
		t.Fatalf("during Exec readers saw version %d with t columns %v (err %v), want version 3 with [a]", during[0].Version(), cols, err)
	}
	if cols, err := db.Columns("t"); err != nil || db.Version() != 4 || !reflect.DeepEqual(cols, []string{"a", "z"}) {
		t.Fatalf("after Exec readers see version %d with t columns %v (err %v), want version 4 with [a z]", db.Version(), cols, err)
	}

	// The checkpoints persisted the changes they held back from readers:
	// recovery loads the last snapshot (r with its bulk-loaded row,
	// rolled back, renamed and given column z).
	re := openDurable(t, dir)
	if got, want := re.Tables(), []string{"t"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables = %v, want %v", got, want)
	}
	if n, err := re.NumRows("t"); err != nil || n != 1 {
		t.Fatalf("recovered t has %d rows (err %v), want 1", n, err)
	}
	if cols, err := re.Columns("t"); err != nil || !reflect.DeepEqual(cols, []string{"a", "z"}) {
		t.Fatalf("recovered t columns = %v (err %v), want [a z]", cols, err)
	}
}

// ExecScript journals the statements applied before a mid-script failure.
func TestDurableScriptPartialFailure(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	_, err := db.ExecScript("CREATE TABLE r (a)\nCREATE TABLE s (b)\nDROP TABLE nosuch")
	if err == nil {
		t.Fatal("script with bad tail succeeded")
	}

	re := openDurable(t, dir)
	if got, want := re.Tables(), []string{"r", "s"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables = %v, want %v", got, want)
	}
}

func TestDurableClosedRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE r (a)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("DROP TABLE r"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Exec after Close: err = %v, want ErrClosed", err)
	}
	if err := db.CreateTableFromRows("x", []string{"a"}, nil, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateTableFromRows after Close: err = %v, want ErrClosed", err)
	}
	// Reads still serve from memory.
	if !db.HasTable("r") {
		t.Fatal("read after Close failed")
	}
}

// TestDurableDMLRecoveryFromWAL journals DML, crashes (drops the handle
// without Close or Checkpoint) and expects replay to restore the delta
// overlay exactly — inserts present, deletes gone, updates applied.
func TestDurableDMLRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	for _, s := range []string{
		"CREATE TABLE r (k, v)",
		"INSERT INTO r VALUES ('a', '1')",
		"INSERT INTO r VALUES ('b', '2')",
		"INSERT INTO r VALUES ('c', 'x;y')", // hostile literal through the WAL
		"UPDATE r SET v = '20' WHERE k = 'b'",
		"DELETE FROM r WHERE k = 'a'",
	} {
		mustExec(t, db, s)
	}
	// No Close: simulate a crash.

	re := openDurable(t, dir)
	n, err := re.NumRows("r")
	if err != nil || n != 2 {
		t.Fatalf("recovered rows = %d (%v), want 2", n, err)
	}
	rows, err := re.Rows("r", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, r := range rows {
		got[r[0]] = r[1]
	}
	want := map[string]string{"b": "20", "c": "x;y"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered rows = %v, want %v", got, want)
	}
}

// TestDurableDMLCheckpointCompaction: Checkpoint must compact the delta
// into the snapshot's rebuilt base, truncate the WAL, and a reopen must
// return identical query results — with the overlay gone, not replayed.
func TestDurableDMLCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE r (k, v)")
	for i := 0; i < 8; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO r VALUES ('k%d', '%d')", i, i))
	}
	mustExec(t, db, "DELETE FROM r WHERE v < '3'")
	mustExec(t, db, "UPDATE r SET v = '100' WHERE k = 'k5'")
	preRows, err := db.Query("r", "v >= '0'")
	if err != nil {
		t.Fatal(err)
	}
	preCount, err := db.Count("r", "v = '100'")
	if err != nil {
		t.Fatal(err)
	}

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint DML lands in the fresh WAL on top of the compacted
	// snapshot.
	mustExec(t, db, "INSERT INTO r VALUES ('post', '7')")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir)
	postRows, err := re.Query("r", "v >= '0'")
	if err != nil {
		t.Fatal(err)
	}
	if len(postRows) != len(preRows)+1 {
		t.Fatalf("reopened rows = %d, want %d", len(postRows), len(preRows)+1)
	}
	cnt, err := re.Count("r", "v = '100'")
	if err != nil || cnt != preCount {
		t.Fatalf("reopened Count(v=100) = %d (%v), want %d", cnt, err, preCount)
	}
	n, err := re.NumRows("r")
	if err != nil || n != 6 {
		t.Fatalf("reopened rows = %d (%v), want 6 (8 - 3 deleted + 1 post)", n, err)
	}
}

// A DML script is journaled in one batched append, and the statements
// applied before a mid-script failure recover.
func TestDurableDMLScriptPartialFailure(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE r (k)")
	_, err := db.ExecScript("INSERT INTO r VALUES ('a'); INSERT INTO r VALUES ('b'); INSERT INTO nosuch VALUES ('c')")
	if err == nil {
		t.Fatal("script with bad tail succeeded")
	}

	re := openDurable(t, dir)
	n, err := re.NumRows("r")
	if err != nil || n != 2 {
		t.Fatalf("recovered rows = %d (%v), want 2", n, err)
	}
}

func TestExecUnknownStatementTypedError(t *testing.T) {
	db := Open(Config{})
	_, err := db.Exec("TRANSMOGRIFY TABLE r")
	if !errors.Is(err, ErrUnknownStatement) {
		t.Fatalf("err = %v, want errors.Is ErrUnknownStatement", err)
	}
	if !errors.Is(err, ErrParse) {
		t.Fatalf("err = %v, want errors.Is ErrParse", err)
	}
}

// blockCheckpoints makes SaveSnapshot in dir fail by occupying the
// CURRENT.tmp path (the snapshot pointer's staging file) with a
// directory; os.Create on it fails even when running as root, unlike
// permission bits. unblock with os.Remove.
func blockCheckpoints(t *testing.T, dir string) string {
	t.Helper()
	blocker := filepath.Join(dir, "CURRENT.tmp")
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	return blocker
}

// TestCheckpointFailurePoisonsWrites covers the durability hole where a
// catalog change that can only be persisted by checkpointing (here a
// rollback) hits a snapshot failure: the change then exists nowhere on
// disk, so further catalog changes must be refused — otherwise they
// would be WAL-logged on top of the hole and recovery would replay them
// against a snapshot missing it.
func TestCheckpointFailurePoisonsWrites(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE r (a, b)")

	blocker := blockCheckpoints(t, dir)
	if err := db.Rollback(0); err == nil {
		t.Fatal("Rollback with blocked snapshot succeeded")
	}
	// The rollback is live in memory but durable nowhere: the write path
	// must be poisoned...
	if _, err := db.Exec("CREATE TABLE s (x)"); err == nil {
		t.Fatal("Exec after failed checkpoint succeeded")
	}
	// ...while reads keep serving.
	if got := db.Tables(); len(got) != 0 {
		t.Fatalf("tables after rollback = %v, want none", got)
	}

	// A successful Checkpoint re-establishes durability and re-enables
	// writes.
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE s (x)")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir)
	if got, want := re.Tables(), []string{"s"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables = %v, want %v", got, want)
	}
}

// TestExecScriptReturnsCommittedResultsOnCheckpointFailure: when the
// statements applied but making them durable failed, callers (the HTTP
// server) must still see what committed alongside the error.
func TestExecScriptReturnsCommittedResultsOnCheckpointFailure(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	if err := db.CreateTableFromRows("t", []string{"a", "b"}, nil,
		[][]string{{"1", "x"}, {"2", "y"}}); err != nil {
		t.Fatal(err)
	}
	vals := filepath.Join(t.TempDir(), "vals.txt")
	if err := os.WriteFile(vals, []byte("p\nq\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// A file-fed column is non-replayable, so the script persists by
	// checkpointing — which is blocked.
	blockCheckpoints(t, dir)
	results, err := db.ExecScript("ADD COLUMN c TO t FROM '" + vals + "'")
	if err == nil {
		t.Fatal("ExecScript with blocked checkpoint succeeded")
	}
	if len(results) != 1 {
		t.Fatalf("results = %v, want the committed statement alongside the error", results)
	}
	if got, want := results[0].Kind, "ADD COLUMN"; got != want {
		t.Fatalf("results[0].Kind = %q, want %q", got, want)
	}
}

// TestOpenDurableRejectsPlainSaveDir: a directory written by plain Save
// has tables but no CURRENT pointer; opening it as durable must fail
// loudly instead of starting empty and orphaning the data behind the
// first checkpoint's snapshot.
func TestOpenDurableRejectsPlainSaveDir(t *testing.T) {
	dir := t.TempDir()
	db := Open(Config{})
	if err := db.CreateTableFromRows("t", []string{"a"}, nil, [][]string{{"1"}}); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(dir); err != nil {
		t.Fatal(err)
	}

	if _, err := OpenDurable(dir, Config{}); err == nil {
		t.Fatal("OpenDurable on a plain Save directory succeeded")
	}
	// The right opener still works.
	od, err := OpenDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !od.HasTable("t") {
		t.Fatal("OpenDir lost table t")
	}
}

// TestExplicitCheckpointFailureDoesNotPoison: when an explicit
// Checkpoint fails before publishing, every commit is still covered by
// the old snapshot plus the intact WAL, so writes must keep working —
// only checkpoints that were persisting a non-journalable change poison
// the write path.
func TestExplicitCheckpointFailureDoesNotPoison(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	mustExec(t, db, "CREATE TABLE r (a)")

	blocker := blockCheckpoints(t, dir)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("Checkpoint with blocked snapshot succeeded")
	}
	mustExec(t, db, "CREATE TABLE s (x)")
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir)
	if got, want := re.Tables(), []string{"r", "s"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered tables = %v, want %v", got, want)
	}
}

// TestExecReturnsResultOnCheckpointFailure mirrors the ExecScript case
// for the single-op path: a non-replayable statement that commits but
// cannot be made durable must surface its Result alongside the error.
func TestExecReturnsResultOnCheckpointFailure(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir)
	if err := db.CreateTableFromRows("t", []string{"a", "b"}, nil,
		[][]string{{"1", "x"}, {"2", "y"}}); err != nil {
		t.Fatal(err)
	}
	vals := filepath.Join(t.TempDir(), "vals.txt")
	if err := os.WriteFile(vals, []byte("p\nq\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	blockCheckpoints(t, dir)
	res, err := db.Exec("ADD COLUMN c TO t FROM '" + vals + "'")
	if err == nil {
		t.Fatal("Exec with blocked checkpoint succeeded")
	}
	if res == nil {
		t.Fatal("Exec returned nil Result for a committed statement")
	}
	if got, want := res.Kind, "ADD COLUMN"; got != want {
		t.Fatalf("res.Kind = %q, want %q", got, want)
	}
}
