package cods

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cods/internal/colstore"
	"cods/internal/csvio"
	"cods/internal/delta"
	"cods/internal/smo"
	"cods/internal/storage"
)

// ErrUnknownStatement matches (via errors.Is) errors from Exec and
// ExecScript whose input is not a known SMO statement, and ErrParse
// matches any malformed statement. Servers use these to distinguish a
// client error (bad request) from an execution failure.
var (
	ErrUnknownStatement = smo.ErrUnknownStatement
	ErrParse            = smo.ErrParse
)

// ErrNoTable matches (via errors.Is) errors from reads against a table
// that is not in the catalog — including one a concurrent evolution
// dropped after the caller last looked. Servers map it to "not found"
// rather than "bad request".
var ErrNoTable = errors.New("no table")

// Config parameterizes a DB.
type Config struct {
	// ValidateFD makes DECOMPOSE TABLE verify losslessness before
	// evolving data, at the cost of one input scan.
	ValidateFD bool
	// Status, when non-nil, receives live data-evolution progress events
	// ("distinction", "bitmap filtering", ...) as operators execute.
	Status func(step string)
	// RetainVersions bounds how many previous schema versions stay
	// rollback-able: after every committed statement the catalog's
	// snapshot history is pruned to the current version plus its
	// RetainVersions predecessors, so memory no longer grows with
	// statement count (each DML statement is a version). Rollback to a
	// pruned version fails with ErrVersionPruned naming the retained
	// window. 0 (the default) keeps every version — the original
	// contract.
	RetainVersions int
	// AutoCompactPending, when positive, compacts a table's delta
	// overlay as soon as a DML statement leaves it with at least this
	// many pending rows (appended plus deletion marks): the overlay is
	// flushed into a rebuilt base and the same schema version
	// republishes, bounding overlay memory and per-read merge cost on
	// sustained write streams without explicit Compact or Checkpoint
	// calls. Readers are never blocked — compaction changes the physical
	// representation, not the contents. 0 disables auto-compaction.
	AutoCompactPending int
}

// DB is a CODS database: a catalog of bitmap-indexed column-store tables
// evolved in place by Schema Modification Operators.
//
// DB is safe for concurrent use, and reads never block. Every read —
// Query, Count, RunQuery, Rows, Describe, Save and friends — runs
// lock-free against the immutable catalog snapshot that was current when
// the call started (grab one explicitly with Snapshot for multi-step
// reads), so a long-running evolution never stalls query traffic. A
// reader observes a whole schema version — never a half-applied SMO — and
// because tables are immutable, results materialized before an evolution
// commits remain valid afterwards. Catalog-changing calls (Exec,
// ExecScript, Rollback, CreateTableFromRows, LoadCSV, Compact,
// Checkpoint) serialize on one mutex, build the next version off to the
// side, and publish it with one atomic swap when they return.
//
// A DB from Open or OpenDir lives in memory (persist explicitly with
// Save); a DB from OpenDurable additionally write-ahead-logs every
// catalog change, surviving crashes — see OpenDurable, Checkpoint, Close.
type DB struct {
	mu  sync.Mutex // cods:writerlock serializes catalog changes and the WAL; reads never take it
	cfg Config

	// The writer's working state, guarded by mu. tables maps each name
	// to its delta.Overlay: the immutable base table plus pending DML.
	// SMOs consume the flushed table; DML derives a new overlay (copy on
	// write).
	tables  map[string]*delta.Overlay
	version int
	history []HistoryEntry
	// snapshots holds the catalog as of each retained schema version.
	// Overlays are immutable, so a snapshot is a map copy sharing all
	// column data and DML state — versioned schemas cost almost nothing,
	// and any retained version can be rolled back to (the "audibility"
	// PRISM motivates; paper §1). oldestRetained is the oldest version
	// Rollback can restore; pruning advances it and never moves it back.
	snapshots      map[int]map[string]*delta.Overlay
	oldestRetained int

	// published is the catalog readers see: an immutable Snapshot
	// swapped in as each write method returns. The gauges mirror the
	// retained snapshot count, oldestRetained and the compaction and
	// merge counts for the lock-free MemStats.
	published   atomic.Pointer[Snapshot]
	retained    atomic.Int64
	oldestGauge atomic.Int64
	compactions atomic.Uint64
	merges      atomic.Uint64

	// dir and wal are set by OpenDurable: every committed catalog change
	// is made durable before the call returns, either by appending the
	// statement to the write-ahead log or (for changes that cannot be
	// replayed from text: bulk loads, rollbacks, file-fed columns) by
	// checkpointing a fresh snapshot. walBroken is set when a WAL write
	// or checkpoint fails with the catalog already changed in memory: the
	// durable state is then missing a committed change, so further
	// catalog changes are refused until a Checkpoint re-establishes
	// log/state agreement.
	dir       string
	wal       *storage.WAL
	walBroken bool
}

// Open creates an empty in-memory database.
func Open(cfg Config) *DB {
	db := &DB{
		cfg:       cfg,
		tables:    make(map[string]*delta.Overlay),
		snapshots: map[int]map[string]*delta.Overlay{0: {}},
	}
	db.retained.Store(1)
	db.publish()
	return db
}

// OpenDir opens a database previously persisted with Save. The result is
// not durable: later changes are kept only in memory until the next Save.
// Use OpenDurable for crash-safe operation.
func OpenDir(dir string, cfg Config) (*DB, error) {
	db := Open(cfg)
	tables, err := storage.Load(dir)
	if err != nil {
		return nil, err
	}
	// db is not shared yet: register without the writer lock, publish
	// once.
	for _, t := range tables {
		if err := db.registerLocked(t); err != nil {
			return nil, err
		}
	}
	db.publish()
	return db, nil
}

// Compact flushes every table's pending DML into a rebuilt base table,
// bounding the per-read cost of the delta overlay (tail scans, deletion
// masks) without changing any content or the schema version, and
// enforces the configured retention window. On a durable database prefer
// Checkpoint, which compacts and additionally persists the state and
// truncates the write-ahead log; Compact alone never touches disk —
// recovery replays the journaled DML either way — and is the way to
// retire overlays on an in-memory database.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.publish()
	return db.compactLocked()
}

// WaitBackgroundMerges returns immediately: segment merges always run
// inline on the write path, so none is ever pending.
//
// Deprecated: there are no background merges to wait for.
func (db *DB) WaitBackgroundMerges() {}

// Result reports one executed operator.
type Result struct {
	// Op is the operator in canonical text form.
	Op string
	// Kind is the operator's Table 1 name, e.g. "DECOMPOSE TABLE".
	Kind string
	// Version is the schema version after the operator.
	Version int
	// Elapsed is the data-evolution time.
	Elapsed time.Duration
	// Steps lists the evolution status events (the demo UI's "Data
	// Evolution Status").
	Steps []string
	// Created and Dropped list catalog changes.
	Created []string
	Dropped []string
}

// HistoryEntry records one executed operator.
type HistoryEntry struct {
	Version int
	Op      string
	Kind    string
	Elapsed time.Duration
	Steps   []string
}

// Exec parses and executes one Schema Modification Operator. The syntax
// (keywords case-insensitive):
//
//	CREATE TABLE t (c1, c2, ...) [KEY (k1, ...)]
//	DROP TABLE t
//	RENAME TABLE old TO new
//	COPY TABLE src TO dst
//	UNION TABLES a, b INTO out
//	PARTITION TABLE t WHERE <condition> INTO yes, no
//	DECOMPOSE TABLE r INTO s (c1, ...), t (c1, ...)
//	MERGE TABLES a, b INTO out
//	ADD COLUMN c TO t DEFAULT 'v'
//	ADD COLUMN c TO t FROM 'file'
//	DROP COLUMN c FROM t
//	RENAME COLUMN old TO new IN t
//
// and the DML statements, which change tuples rather than schema:
//
//	INSERT INTO t VALUES ('v1', 'v2', ...)
//	DELETE FROM t [WHERE <condition>]
//	UPDATE t SET c = 'v' [WHERE <condition>]
//
// plus the retention statement PRUNE KEEP n, which retires rollback
// snapshots older than the last n versions (the statement form of
// DB.Prune; it produces no new schema version).
//
// DML executes against a per-table delta overlay (appended rows plus a
// deletion bitmap over the immutable base), published copy-on-write like
// every other catalog change: reads see pending DML through the flushed
// table (built once per version and cached), a running evolution never
// observes half a statement, and Checkpoint (or Compact) folds the
// overlay into a rebuilt base. An evolution
// operator over a table with pending DML flushes the delta first, so
// DECOMPOSE/MERGE semantics are unchanged. Declared keys are enforced:
// INSERT rejects duplicate key values and UPDATE of a key column
// validates uniqueness before committing.
//
// Conditions are comparisons (= != < <= > >=) over column values combined
// with AND/OR/NOT. Values that parse as 64-bit integers compare
// numerically and order before all non-integer values; other values
// compare lexicographically — one total order shared with ORDER BY and
// MIN/MAX.
//
// On a durable database, a non-nil Result alongside a non-nil error
// means the statement committed in memory but could not be made durable
// (see Checkpoint); retrying it would re-apply a live statement.
func (db *DB) Exec(op string) (*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.publish()
	if err := db.failIfClosedLocked(); err != nil {
		return nil, err
	}
	parsed, err := smo.Parse(op)
	if err != nil {
		return nil, err
	}
	res, err := db.applyLocked(parsed)
	if err != nil {
		return nil, err
	}
	if db.wal != nil {
		//lint:ignore codslint/lockscope durability before visibility: the WAL fsync (or checkpoint) must complete under the writer lock before the deferred publish makes the version visible; readers never take this lock
		if err := db.journalLocked(parsed); err != nil {
			// The statement committed but could not be made durable;
			// callers must see the result or they would retry a live
			// statement.
			return res, err
		}
	}
	return res, nil
}

// ExecScript executes a sequence of operators separated by newlines or
// semicolons ("--" and "#" start comments), stopping at the first failure.
// Readers see the applied statements together, when the call returns.
func (db *DB) ExecScript(script string) ([]*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.publish()
	if err := db.failIfClosedLocked(); err != nil {
		return nil, err
	}
	ops, err := smo.ParseScript(script)
	if err != nil {
		return nil, err
	}
	results := make([]*Result, 0, len(ops))
	var execErr error
	for _, op := range ops {
		r, err := db.applyLocked(op)
		if err != nil {
			execErr = err
			break
		}
		results = append(results, r)
	}
	// Operators applied before a mid-script failure are committed, so they
	// are journaled even when execErr is non-nil — in one batched append,
	// or one checkpoint when the script holds a non-replayable operator.
	// A journal/checkpoint failure still returns the results: the
	// statements are live in the catalog, and callers (the HTTP server)
	// must see what committed to retry the remainder safely.
	if db.wal != nil {
		//lint:ignore codslint/lockscope durability before visibility: the batched WAL fsync (or checkpoint) must complete under the writer lock before the deferred publish; readers never take this lock
		if err := db.journalLocked(ops[:len(results)]...); err != nil {
			return results, errors.Join(execErr, err)
		}
	}
	return results, execErr
}

// CreateTableFromRows builds a table from in-memory rows and registers it.
func (db *DB) CreateTableFromRows(name string, columns []string, key []string, rows [][]string) error {
	return db.load(func() (*colstore.Table, error) {
		tb, err := colstore.NewTableBuilder(name, columns, key)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			if err := tb.AppendRow(r); err != nil {
				return nil, err
			}
		}
		return tb.Finish()
	})
}

// LoadCSV loads a CSV file (header row first) as a new table.
func (db *DB) LoadCSV(path, table string, key ...string) error {
	return db.load(func() (*colstore.Table, error) {
		return csvio.Load(path, table, key)
	})
}

// load builds a table under the writer lock and registers it. Bulk-loaded
// rows exist nowhere in statement form, so a durable database then
// checkpoints to make the snapshot carry them.
func (db *DB) load(build func() (*colstore.Table, error)) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.publish()
	if err := db.failIfClosedLocked(); err != nil {
		return err
	}
	t, err := build()
	if err != nil {
		return err
	}
	if err := db.registerLocked(t); err != nil {
		return err
	}
	if db.wal != nil {
		//lint:ignore codslint/lockscope bulk loads cannot be replayed from the WAL, so the snapshot must be durable under the writer lock before the deferred publish; readers never take this lock
		return db.checkpointLocked(true)
	}
	return nil
}

// Rollback restores the catalog to an earlier schema version. Versioned
// catalogs share immutable column data, so keeping and restoring versions
// is nearly free. The rollback is itself recorded as a new version.
//
// Retention bounds how far back Rollback reaches: a version retired by
// Config.RetainVersions, Prune, or PRUNE KEEP fails with an error
// matching ErrVersionPruned that names the retained window, while a
// version that never existed fails with a plain "no schema version"
// error.
func (db *DB) Rollback(version int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	defer db.publish()
	if err := db.failIfClosedLocked(); err != nil {
		return err
	}
	if err := db.rollbackLocked(version); err != nil {
		return err
	}
	// Version numbers restart from the recovery point on reopen, so a
	// logged "rollback to N" would be ambiguous; snapshot the rolled-back
	// state instead.
	if db.wal != nil {
		//lint:ignore codslint/lockscope rollbacks cannot be replayed from the WAL, so the snapshot must be durable under the writer lock before the deferred publish; readers never take this lock
		return db.checkpointLocked(true)
	}
	return nil
}
