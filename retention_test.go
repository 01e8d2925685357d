// Tests for the bounded-memory write path: version retention (Prune,
// Config.RetainVersions, the PRUNE statement), overlay auto-compaction,
// and the paged history accessors.
package cods_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cods"
)

func keyedDB(t *testing.T, cfg cods.Config) *cods.DB {
	t.Helper()
	db := cods.Open(cfg)
	if _, err := db.Exec("CREATE TABLE kv (K, V) KEY (K)"); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPruneAndRollbackWindow(t *testing.T) {
	db := keyedDB(t, cods.Config{})
	for i := 0; i < 8; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES ('k%d', 'v%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	v := db.Version() // 9: CREATE plus eight INSERTs

	if n := db.Prune(2); n == 0 {
		t.Fatal("Prune(2) retired nothing")
	}
	ms := db.MemStats()
	if ms.RetainedVersions != 3 || ms.OldestRetainedVersion != v-2 {
		t.Fatalf("MemStats after Prune(2) = %+v", ms)
	}

	err := db.Rollback(1)
	if !errors.Is(err, cods.ErrVersionPruned) {
		t.Fatalf("Rollback(pruned) = %v, want ErrVersionPruned", err)
	}
	var pe *cods.VersionPrunedError
	if !errors.As(err, &pe) || pe.Version != 1 || pe.OldestRetained != v-2 || pe.Newest != v {
		t.Fatalf("pruned-error window = %+v (err %v)", pe, err)
	}
	// Never-existed versions keep the plain error, so a typo is not
	// mistaken for retention.
	if err := db.Rollback(v + 50); err == nil || errors.Is(err, cods.ErrVersionPruned) {
		t.Fatalf("Rollback(never-existed) = %v", err)
	}

	// Inside the window rollback still works, including the DML state.
	if err := db.Rollback(v - 1); err != nil {
		t.Fatal(err)
	}
	n, err := db.NumRows("kv")
	if err != nil || n != 7 {
		t.Fatalf("rows after rollback = %d (%v), want 7", n, err)
	}
}

// The PRUNE statement is the scriptable form of Prune: no new schema
// version, no history entry, same window.
func TestPruneStatement(t *testing.T) {
	db := keyedDB(t, cods.Config{})
	for i := 0; i < 5; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES ('k%d', 'v')", i)); err != nil {
			t.Fatal(err)
		}
	}
	v := db.Version()
	histLen := db.Snapshot().HistoryLen()

	res, err := db.Exec("PRUNE KEEP 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "PRUNE" || res.Version != v || db.Version() != v {
		t.Fatalf("PRUNE result = %+v (version now %d), want version unchanged at %d", res, db.Version(), v)
	}
	if got := db.Snapshot().HistoryLen(); got != histLen {
		t.Fatalf("PRUNE grew history: %d -> %d", histLen, got)
	}
	if len(res.Steps) == 0 || !strings.Contains(res.Steps[0], "rollback window") {
		t.Fatalf("PRUNE steps = %v", res.Steps)
	}
	if err := db.Rollback(0); !errors.Is(err, cods.ErrVersionPruned) {
		t.Fatalf("Rollback(0) after PRUNE KEEP 1 = %v", err)
	}
	if err := db.Rollback(v - 1); err != nil {
		t.Fatalf("Rollback inside kept window: %v", err)
	}
}

// Auto-compaction is invisible to results: the same mixed DML script run
// with compaction after every statement (threshold 1), a mid-size
// threshold, and never (0) produces identical contents, versions and
// query answers — only the physical representation differs.
func TestAutoCompactionScriptEquivalence(t *testing.T) {
	script := []string{
		"INSERT INTO kv VALUES ('a', '1')",
		"INSERT INTO kv VALUES ('b', '2')",
		"INSERT INTO kv VALUES ('c', '3')",
		"UPDATE kv SET V = '20' WHERE K = 'b'",
		"INSERT INTO kv VALUES ('d', '4')",
		"DELETE FROM kv WHERE K = 'a'",
		"INSERT INTO kv VALUES ('e', '5')",
		"INSERT INTO kv VALUES ('a', '10')",
		"UPDATE kv SET V = '0' WHERE V < '3'",
		"DELETE FROM kv WHERE K = 'e'",
		"INSERT INTO kv VALUES ('f', '6')",
	}
	type state struct {
		version int
		rows    []string
		filter  []string
		count   uint64
	}
	run := func(threshold int) state {
		db := keyedDB(t, cods.Config{AutoCompactPending: threshold})
		for _, s := range script {
			if _, err := db.Exec(s); err != nil {
				t.Fatalf("threshold %d: %q: %v", threshold, s, err)
			}
		}
		rows, err := db.Rows("kv", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		filter, err := db.Query("kv", "V >= '1'")
		if err != nil {
			t.Fatal(err)
		}
		count, err := db.Count("kv", "K != 'zzz'")
		if err != nil {
			t.Fatal(err)
		}
		return state{db.Version(), sortedRows(rows), sortedRows(filter), count}
	}

	never := run(0)
	each := run(1)
	mid := run(3)
	if !reflect.DeepEqual(never, each) {
		t.Fatalf("threshold 1 diverged:\nnever: %+v\neach:  %+v", never, each)
	}
	if !reflect.DeepEqual(never, mid) {
		t.Fatalf("threshold 3 diverged:\nnever: %+v\nmid:   %+v", never, mid)
	}

	// And the compacting run really compacted: nothing pending at
	// threshold 1, compaction counter moving.
	db := keyedDB(t, cods.Config{AutoCompactPending: 1})
	for _, s := range script {
		if _, err := db.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	ms := db.MemStats()
	if ms.PendingRows != 0 || ms.Compactions == 0 {
		t.Fatalf("threshold-1 run left MemStats = %+v, want 0 pending and >0 compactions", ms)
	}
}

// Acceptance: after Checkpoint with RetainVersions=N the engine retains
// at most N+1 snapshots, and a SIGKILL-shaped reopen (no Close) with the
// same config recovers the data and keeps the bound.
func TestDurableRetainVersionsBound(t *testing.T) {
	const retain = 2
	dir := t.TempDir()
	cfg := cods.Config{RetainVersions: retain, AutoCompactPending: 4}
	db, err := cods.OpenDurable(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE kv (K, V) KEY (K)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES ('k%02d', 'v%d')", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ms := db.MemStats()
	if ms.RetainedVersions > retain+1 {
		t.Fatalf("retained %d versions after Checkpoint, want <= %d", ms.RetainedVersions, retain+1)
	}
	if ms.PendingRows != 0 {
		t.Fatalf("pending rows after Checkpoint = %d, want 0", ms.PendingRows)
	}
	if err := db.Rollback(0); !errors.Is(err, cods.ErrVersionPruned) {
		t.Fatalf("Rollback(0) = %v, want ErrVersionPruned", err)
	}
	// Crash: drop the handle without Close.

	re, err := cods.OpenDurable(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Rollback on a durable DB checkpoints, so the version moved past the
	// insert count; the data is what matters.
	n, err := re.NumRows("kv")
	if err != nil || n != 12 {
		t.Fatalf("recovered rows = %d (%v), want 12", n, err)
	}
	for i := 0; i < 6; i++ {
		if _, err := re.Exec(fmt.Sprintf("INSERT INTO kv VALUES ('r%02d', 'v')", i)); err != nil {
			t.Fatal(err)
		}
	}
	if ms := re.MemStats(); ms.RetainedVersions > retain+1 {
		t.Fatalf("retained %d versions after recovery writes, want <= %d", ms.RetainedVersions, retain+1)
	}
}

func TestHistoryTail(t *testing.T) {
	db := keyedDB(t, cods.Config{})
	for i := 0; i < 6; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES ('k%d', 'v')", i)); err != nil {
			t.Fatal(err)
		}
	}
	full := db.History()
	if db.Snapshot().HistoryLen() != len(full) {
		t.Fatalf("HistoryLen = %d, want %d", db.Snapshot().HistoryLen(), len(full))
	}
	tail := db.HistoryTail(3)
	if !reflect.DeepEqual(tail, full[len(full)-3:]) {
		t.Fatalf("HistoryTail(3) = %v, want last 3 of %v", tail, full)
	}
	if got := db.HistoryTail(0); !reflect.DeepEqual(got, full) {
		t.Fatalf("HistoryTail(0) = %v, want full history", got)
	}
	if got := db.HistoryTail(100); !reflect.DeepEqual(got, full) {
		t.Fatalf("HistoryTail(100) = %v, want full history", got)
	}
	// Retention does not touch history: pruning snapshots keeps the log.
	db.Prune(1)
	if got := db.Snapshot().HistoryLen(); got != len(full) {
		t.Fatalf("Prune shrank history: %d -> %d", len(full), got)
	}
	// The tail is a shared view of the log: appending to an older
	// snapshot's tail must not overwrite entries later versions added.
	for i := 0; i < 8; i++ {
		old := db.Snapshot()
		stmt := fmt.Sprintf("INSERT INTO kv VALUES ('x%d', 'v')", i)
		if _, err := db.Exec(stmt); err != nil {
			t.Fatal(err)
		}
		_ = append(old.HistoryTail(1), cods.HistoryEntry{Op: "bogus"})
		if h := db.HistoryTail(1); h[0].Op != stmt {
			t.Fatalf("after appending to an older tail, the newest entry is %q, want %q", h[0].Op, stmt)
		}
	}
}

// Rollback, Prune, DML (with auto-compaction) and lock-free snapshot
// readers race without torn state: run with -race. Readers must always
// observe a whole schema version; writers may lose rollback targets to
// the pruner, which is the documented contract, never a crash.
func TestConcurrentRollbackPruneSnapshotReaders(t *testing.T) {
	db := keyedDB(t, cods.Config{AutoCompactPending: 8})
	for i := 0; i < 4; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES ('seed%d', 'v')", i)); err != nil {
			t.Fatal(err)
		}
	}

	const iters = 120
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	report := func(err error) {
		select {
		case errc <- err:
		default:
		}
	}

	// Writer: a DML stream (inserts with occasional deletes) that crosses
	// the auto-compaction threshold many times.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES ('w%04d', 'v')", i)); err != nil {
				report(fmt.Errorf("insert: %w", err))
				return
			}
			if i%7 == 6 {
				if _, err := db.Exec(fmt.Sprintf("DELETE FROM kv WHERE K = 'w%04d'", i-3)); err != nil {
					report(fmt.Errorf("delete: %w", err))
					return
				}
			}
		}
	}()

	// Rollbacker: jumps one version back now and then; the target may
	// have been pruned already, which must fail cleanly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			v := db.Version()
			if v == 0 {
				continue
			}
			if err := db.Rollback(v - 1); err != nil && !errors.Is(err, cods.ErrVersionPruned) {
				report(fmt.Errorf("rollback: %w", err))
				return
			}
		}
	}()

	// Pruner: alternates the API and the statement form.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/4; i++ {
			if i%2 == 0 {
				db.Prune(3)
			} else if _, err := db.Exec("PRUNE KEEP 3"); err != nil {
				report(fmt.Errorf("prune statement: %w", err))
				return
			}
		}
	}()

	// Readers: pin snapshots and read everything off them.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				snap := db.Snapshot()
				n, err := snap.NumRows("kv")
				if err != nil {
					report(fmt.Errorf("reader rows: %w", err))
					return
				}
				c, err := snap.Count("kv", "K != ''")
				if err != nil {
					report(fmt.Errorf("reader count: %w", err))
					return
				}
				if c != n {
					report(fmt.Errorf("torn snapshot: Count=%d NumRows=%d", c, n))
					return
				}
				if tl := snap.HistoryTail(5); len(tl) > snap.HistoryLen() {
					report(fmt.Errorf("tail longer than log"))
					return
				}
				_ = db.MemStats()
			}
		}()
	}

	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
}

// Lock-free point reads (Count/Query with the whole key pinned by
// equality — the arena key index fast path) race a keyed INSERT stream
// whose tip claims write the same shared index: run with -race. This is
// the reader-vs-claim interleaving the arena mutex guards.
func TestConcurrentPointReadsVsKeyedInserts(t *testing.T) {
	db := keyedDB(t, cods.Config{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 4)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 300; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES ('p%04d', 'v')", i)); err != nil {
				select {
				case errc <- err:
				default:
				}
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Point predicate: resolved via the key index, not a scan.
				n, err := db.Count("kv", fmt.Sprintf("K = 'p%04d'", i%300))
				if err != nil || n > 1 {
					select {
					case errc <- fmt.Errorf("point count: n=%d err=%w", n, err):
					default:
					}
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
