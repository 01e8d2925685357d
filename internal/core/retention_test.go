package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cods/internal/smo"
	"cods/internal/workload"
)

func newKeyedEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	apply(t, e, "CREATE TABLE kv (K, V) KEY (K)")
	return e
}

func TestPruneRetiresRollbackTargets(t *testing.T) {
	e := newEngineWithR(t)
	for i := 0; i < 5; i++ {
		apply(t, e, fmt.Sprintf("ADD COLUMN C%d TO R DEFAULT 'x'", i))
		apply(t, e, fmt.Sprintf("DROP COLUMN C%d FROM R", i))
	}
	// Register snapshots under version 0; the ten statements take the
	// catalog to version 10.
	if e.Version() != 10 {
		t.Fatalf("version = %d, want 10", e.Version())
	}

	if n := e.Prune(3); n != 7 {
		t.Fatalf("Prune(3) retired %d versions, want 7 (0..6)", n)
	}
	ms := e.MemStats()
	if ms.RetainedVersions != 4 || ms.OldestRetainedVersion != 7 {
		t.Fatalf("MemStats after prune = %+v, want 4 retained from v7", ms)
	}
	// Re-pruning with a wider window must not resurrect anything and
	// must be a no-op.
	if n := e.Prune(100); n != 0 {
		t.Fatalf("wider re-prune retired %d versions, want 0", n)
	}

	// A pruned version fails with the typed error naming the window.
	err := e.Rollback(2)
	if !errors.Is(err, ErrVersionPruned) {
		t.Fatalf("Rollback(pruned) = %v, want ErrVersionPruned", err)
	}
	var pe *VersionPrunedError
	if !errors.As(err, &pe) {
		t.Fatalf("Rollback(pruned) error type = %T", err)
	}
	if pe.Version != 2 || pe.OldestRetained != 7 || pe.Newest != 10 {
		t.Fatalf("pruned-error window = %+v, want {2 7 10}", pe)
	}

	// A version that never existed is a plain lookup failure, not a
	// retention one.
	err = e.Rollback(99)
	if err == nil || errors.Is(err, ErrVersionPruned) {
		t.Fatalf("Rollback(never-existed) = %v, want plain no-such-version error", err)
	}
	if !strings.Contains(err.Error(), "no schema version 99") {
		t.Fatalf("Rollback(never-existed) message = %q", err)
	}

	// A retained version still rolls back.
	if err := e.Rollback(9); err != nil {
		t.Fatalf("Rollback(retained) = %v", err)
	}
}

// Config.RetainVersions enforces the window after every commit: the
// snapshot count stays at RetainVersions+1 no matter how many statements
// run — the tentpole's bounded-memory contract.
func TestRetainVersionsBoundsSnapshotsContinuously(t *testing.T) {
	e := newKeyedEngine(t, Config{RetainVersions: 2})
	for i := 0; i < 20; i++ {
		apply(t, e, fmt.Sprintf("INSERT INTO kv VALUES ('k%02d', 'v')", i))
		if got := e.MemStats().RetainedVersions; got > 3 {
			t.Fatalf("after statement %d: %d retained versions, want <= 3", i, got)
		}
	}
	if ms := e.MemStats(); ms.OldestRetainedVersion != e.Version()-2 {
		t.Fatalf("oldest retained = %d, want %d", ms.OldestRetainedVersion, e.Version()-2)
	}
	// Rollback inside the window works and the window slides with it.
	if err := e.Rollback(e.Version() - 1); err != nil {
		t.Fatal(err)
	}
	if got := e.MemStats().RetainedVersions; got > 3 {
		t.Fatalf("after rollback: %d retained versions, want <= 3", got)
	}
}

// The PRUNE statement flows through Apply like any other statement but
// produces no new schema version and no history entry.
func TestPruneStatementThroughApply(t *testing.T) {
	e := newEngineWithR(t)
	apply(t, e, "ADD COLUMN Z TO R DEFAULT 'v'")
	apply(t, e, "DROP COLUMN Z FROM R")
	v := e.Version()
	hist := len(e.History())

	res, err := e.Apply(smo.Prune{Keep: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != v || e.Version() != v {
		t.Fatalf("PRUNE moved the version: res=%d engine=%d, want %d", res.Version, e.Version(), v)
	}
	if len(e.History()) != hist {
		t.Fatalf("PRUNE appended a history entry")
	}
	if len(res.Steps) == 0 || !strings.Contains(res.Steps[0], "rollback window") {
		t.Fatalf("PRUNE steps = %v", res.Steps)
	}
	if ms := e.MemStats(); ms.RetainedVersions != 2 || ms.OldestRetainedVersion != v-1 {
		t.Fatalf("MemStats after PRUNE KEEP 1 = %+v", ms)
	}
	if err := e.Rollback(0); !errors.Is(err, ErrVersionPruned) {
		t.Fatalf("Rollback(0) after PRUNE = %v, want ErrVersionPruned", err)
	}
}

// AutoCompactPending retires an overlay as soon as a DML statement
// leaves it past the threshold: the same version republishes with a
// clean (flushed) overlay, contents unchanged.
func TestAutoCompactionRetiresOverlays(t *testing.T) {
	e := newKeyedEngine(t, Config{AutoCompactPending: 3})
	for i := 0; i < 10; i++ {
		apply(t, e, fmt.Sprintf("INSERT INTO kv VALUES ('k%02d', 'v%d')", i, i))
		ov, err := e.Catalog().Overlay("kv")
		if err != nil {
			t.Fatal(err)
		}
		if pending := ov.PendingAdded() + int(ov.PendingDeleted()); pending >= 3 {
			t.Fatalf("after statement %d: %d pending rows survived the threshold", i, pending)
		}
	}
	ms := e.MemStats()
	if ms.Compactions == 0 {
		t.Fatal("no compactions ran")
	}
	tab, err := e.Table("kv")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 10 {
		t.Fatalf("rows after auto-compaction = %d, want 10", tab.NumRows())
	}
	if err := tab.ValidateKey(); err != nil {
		t.Fatal(err)
	}
	// Deletion marks count toward the threshold too.
	before := e.MemStats().Compactions
	apply(t, e, "DELETE FROM kv WHERE K < 'k05'")
	if e.MemStats().Compactions <= before {
		t.Fatal("bulk DELETE past the threshold did not compact")
	}
	tab, _ = e.Table("kv")
	if tab.NumRows() != 5 {
		t.Fatalf("rows after delete = %d, want 5", tab.NumRows())
	}
}

// Engine.Compact prunes to the configured retention window even when no
// overlay is dirty — checkpoints route through it, so a checkpoint alone
// must be enough to shrink a catalog that was opened with retention
// configured after the versions piled up.
func TestCompactEnforcesRetention(t *testing.T) {
	e := New(Config{RetainVersions: 1})
	r, err := workload.EmployeeTable("R")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Register(r); err != nil {
		t.Fatal(err)
	}
	// Register path does not prune (it is not a statement commit), so
	// drive a few statements and then let Compact do the bookkeeping.
	apply(t, e, "ADD COLUMN Z TO R DEFAULT 'v'")
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if ms := e.MemStats(); ms.RetainedVersions > 2 {
		t.Fatalf("retained after Compact = %d, want <= 2", ms.RetainedVersions)
	}
}
