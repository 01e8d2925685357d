package cods

import (
	"errors"
	"fmt"

	"cods/internal/smo"
	"cods/internal/storage"
)

// ErrClosed is returned by catalog-changing calls on a durable database
// after Close.
var ErrClosed = errors.New("cods: database closed")

// ErrNotDurable matches (via errors.Is) errors from catalog-changing
// calls on a durable database caused by the storage layer failing to
// make committed state durable — a failed WAL write or checkpoint, or
// the poisoned state those leave behind until a Checkpoint succeeds.
// The statement itself was fine; servers map this to a 5xx, not a
// client error.
var ErrNotDurable = errors.New("durability failure")

// OpenDurable opens a crash-safe database rooted at dir, creating it if
// needed. Recovery loads the latest snapshot (if any) and replays the
// write-ahead log on top of it; afterwards every committed catalog change
// is durable before the call that made it returns. Call Close when done
// and Checkpoint periodically to keep the log short.
func OpenDurable(dir string, cfg Config) (*DB, error) {
	db := Open(cfg)
	// db is not shared until it is returned, so recovery stages changes
	// without the writer lock and publishes once at the end.
	var snapEpoch uint64
	if storage.HasSnapshot(dir) {
		tables, epoch, err := storage.LoadSnapshot(dir)
		if err != nil {
			return nil, err
		}
		snapEpoch = epoch
		for _, t := range tables {
			if err := db.registerLocked(t); err != nil {
				return nil, err
			}
		}
	} else if storage.HasFlatCatalog(dir) {
		// The directory was written by plain Save. Opening it as an empty
		// durable catalog would silently orphan its tables behind the
		// first checkpoint's snapshot; make the mismatch explicit.
		return nil, fmt.Errorf("cods: %s holds a plain Save catalog, not a durable one; open it with OpenDir, or load its tables into a database opened with OpenDurable on a fresh directory", dir)
	}
	wal, err := storage.OpenWAL(dir, snapEpoch)
	if err != nil {
		return nil, err
	}
	if wal.Epoch() == snapEpoch {
		for _, s := range wal.Statements() {
			op, err := smo.Parse(s)
			if err != nil {
				wal.Close()
				return nil, fmt.Errorf("cods: replaying WAL statement %q: %w", s, err)
			}
			if _, err := db.applyLocked(op); err != nil {
				wal.Close()
				return nil, fmt.Errorf("cods: replaying WAL statement %q: %w", s, err)
			}
		}
	} else {
		// The log predates the published snapshot: a crash hit between a
		// checkpoint's snapshot publish and its WAL reset. Every logged
		// statement is already in the snapshot; replaying would apply it
		// twice. Finish the interrupted checkpoint's log reset instead.
		if err := wal.Reset(snapEpoch); err != nil {
			wal.Close()
			return nil, err
		}
	}
	db.dir, db.wal = dir, wal
	db.publish()
	return db, nil
}

// Checkpoint writes a fresh snapshot of a durable database and truncates
// the write-ahead log, bounding recovery time. It takes the exclusive
// lock, so it runs between — never during — catalog changes.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.publish()
	if db.dir == "" {
		return fmt.Errorf("cods: %w: Checkpoint requires a database opened with OpenDurable", errors.ErrUnsupported)
	}
	//lint:ignore codslint/lockscope checkpoints hold the writer lock across the snapshot fsync by design: durability before visibility, and readers never take this lock
	return db.checkpointLocked(false)
}

// checkpointLocked snapshots the catalog and resets the log. mutated
// says the caller already changed the in-memory catalog in a way the
// WAL cannot express (bulk load, rollback, file-fed column): a failure
// before the snapshot publishes then leaves that change durable
// nowhere, so the write path is poisoned — further statements must not
// be logged on top of the hole, or recovery would replay them against a
// snapshot missing it. An explicit Checkpoint of a fully-journaled
// catalog (mutated false) can fail before publishing without poisoning:
// the old snapshot plus the intact log still reproduce every commit.
// Once the new generation publishes, any failure (dir sync, log reset)
// always poisons, since appends would land in a stale-epoch log that
// recovery discards.
//
// cods:blocking — writes and fsyncs the snapshot directory.
func (db *DB) checkpointLocked(mutated bool) error {
	if db.wal == nil {
		return ErrClosed
	}
	fail := func(err error) error {
		if !mutated {
			return err
		}
		db.walBroken = true
		return fmt.Errorf("cods: %w: checkpoint snapshot failed (catalog changes disabled until a Checkpoint succeeds): %w", ErrNotDurable, err)
	}
	// The staged catalog, not the published one: the change this
	// checkpoint makes durable is not published until the caller returns.
	tables, err := db.stagedLocked().flushedTables()
	if err != nil {
		return fail(err)
	}
	// Publish a fresh snapshot generation, then retire the log it
	// subsumes. A crash between the two leaves a stale-epoch log that
	// recovery discards (OpenDurable). Never reuse a published epoch: a
	// prior checkpoint may have published its snapshot and then failed
	// before resetting the log, and rewriting the generation CURRENT
	// points at would leave recovery nothing good to load if we crash
	// mid-write.
	next := db.wal.Epoch() + 1
	cur, ok, err := storage.CurrentEpoch(db.dir)
	if err != nil {
		// The published epoch is unknown; picking one blindly could
		// rewrite the generation CURRENT points at.
		return fail(err)
	}
	if ok && cur >= next {
		next = cur + 1
	}
	published, err := storage.SaveSnapshot(db.dir, tables, next)
	if err != nil {
		if !published {
			return fail(err)
		}
		// The CURRENT swap happened, so recovery may already load the new
		// generation while the log still carries the old epoch; appends
		// would land in a log recovery discards. Poison regardless of
		// mutated.
		db.walBroken = true
		return fmt.Errorf("cods: %w: snapshot published but not finalized (catalog changes disabled until a Checkpoint succeeds): %w", ErrNotDurable, err)
	}
	if err := db.wal.Reset(next); err != nil {
		db.walBroken = true
		return fmt.Errorf("cods: %w: snapshot published but WAL not reset (catalog changes disabled until a Checkpoint succeeds): %w", ErrNotDurable, err)
	}
	db.walBroken = false
	// The snapshot persisted every table with its delta flushed in, and
	// the WAL entries that journaled the DML are gone; compact the
	// in-memory overlays to match, so deltas cannot grow without bound
	// across checkpoints. Compaction reuses the flush computed while
	// collecting tables above, so it cannot fail here — and if it ever
	// did, the overlays just stay pending, which is correct, merely
	// uncompacted.
	_ = db.compactLocked()
	return nil
}

// Close releases a durable database's write-ahead log. Further
// catalog-changing calls fail with ErrClosed; reads keep working on the
// in-memory catalog. Close on an in-memory database is a no-op.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return nil
	}
	//lint:ignore codslint/lockscope closing the WAL under the writer lock is what makes ErrClosed atomic with the log release; readers never take this lock
	err := db.wal.Close()
	db.wal = nil
	return err
}

// replayable reports whether an operator can be re-executed from its text
// form alone. ADD COLUMN ... FROM 'file' depends on an external file that
// may change or vanish, so it is checkpointed instead of logged.
func replayable(op smo.Op) bool {
	a, ok := op.(smo.AddColumn)
	return !ok || a.ValuesFile == ""
}

// journalLocked makes just-applied operators durable: one batched WAL
// append (a single fsync under the writer lock, not one per statement)
// when every operator replays from its text, otherwise one checkpoint.
// Must hold the writer lock; call only when db.wal != nil.
//
// cods:blocking — appends to and fsyncs the write-ahead log.
func (db *DB) journalLocked(ops ...smo.Op) error {
	stmts := make([]string, len(ops))
	for i, op := range ops {
		if !replayable(op) {
			return db.checkpointLocked(true)
		}
		stmts[i] = op.String()
	}
	if err := db.wal.AppendAll(stmts); err != nil {
		// The statements are live in memory but missing from the log;
		// until a snapshot captures them, further changes would log on
		// top of a hole, so poison the write path.
		db.walBroken = true
		return fmt.Errorf("cods: %w: statements applied but not durably logged (catalog changes disabled until a Checkpoint succeeds): %w", ErrNotDurable, err)
	}
	return nil
}

// failIfClosedLocked guards catalog-changing calls on a durable database:
// after Close, or after a failed WAL write or checkpoint left durable
// state missing a committed change, changes are refused rather than
// silently diverging from disk. A successful Checkpoint clears the
// broken state.
func (db *DB) failIfClosedLocked() error {
	if db.dir == "" {
		return nil
	}
	if db.wal == nil {
		return ErrClosed
	}
	if db.walBroken {
		return fmt.Errorf("cods: %w: a committed catalog change is not yet durable after a failed WAL write or checkpoint; run Checkpoint to restore durability", ErrNotDurable)
	}
	return nil
}
