package cods

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"cods/internal/colquery"
	"cods/internal/colstore"
	"cods/internal/core"
	"cods/internal/csvio"
	"cods/internal/expr"
	"cods/internal/plan"
	"cods/internal/smo"
	"cods/internal/storage"
)

// ErrClosed is returned by catalog-changing calls on a durable database
// after Close.
var ErrClosed = errors.New("cods: database closed")

// ErrUnknownStatement matches (via errors.Is) errors from Exec and
// ExecScript whose input is not a known SMO statement, and ErrParse
// matches any malformed statement. Servers use these to distinguish a
// client error (bad request) from an execution failure.
var (
	ErrUnknownStatement = smo.ErrUnknownStatement
	ErrParse            = smo.ErrParse
)

// ErrNotDurable matches (via errors.Is) errors from catalog-changing
// calls on a durable database caused by the storage layer failing to
// make committed state durable — a failed WAL write or checkpoint, or
// the poisoned state those leave behind until a Checkpoint succeeds.
// The statement itself was fine; servers map this to a 5xx, not a
// client error.
var ErrNotDurable = errors.New("durability failure")

// ErrNoTable matches (via errors.Is) errors from reads against a table
// that is not in the catalog — including one a concurrent evolution
// dropped after the caller last looked. Servers map it to "not found"
// rather than "bad request".
var ErrNoTable = core.ErrNoTable

// ErrVersionPruned matches (via errors.Is) Rollback failures against a
// schema version the retention policy (Config.RetainVersions, Prune, or
// the PRUNE statement) already retired. The concrete error is a
// *VersionPrunedError naming the retained rollback window — distinct
// from the plain "no schema version" error a version that never existed
// produces.
var ErrVersionPruned = core.ErrVersionPruned

// VersionPrunedError is the concrete error behind ErrVersionPruned: the
// requested version plus the inclusive [OldestRetained, Newest] window
// Rollback can still reach.
type VersionPrunedError = core.VersionPrunedError

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
// ExecScript, Rollback, CreateTableFromRows, LoadCSV) serialize on an
// internal mutex, build the next version off to the side, and publish it
// with one atomic swap when they commit.
//
// A DB from Open or OpenDir lives in memory (persist explicitly with
// Save); a DB from OpenDurable additionally write-ahead-logs every
// catalog change, surviving crashes — see OpenDurable, Checkpoint, Close.
type DB struct {
	mu     sync.Mutex // cods:writerlock serializes catalog changes and the WAL; reads never take it
	engine *core.Engine
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
	return &DB{engine: core.New(core.Config{
		ValidateFD:         cfg.ValidateFD,
		Status:             cfg.Status,
		RetainVersions:     cfg.RetainVersions,
		AutoCompactPending: cfg.AutoCompactPending,
	})}
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
	for _, t := range tables {
		if err := db.engine.Register(t); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// OpenDurable opens a crash-safe database rooted at dir, creating it if
// needed. Recovery loads the latest snapshot (if any) and replays the
// write-ahead log on top of it; afterwards every committed catalog change
// is durable before the call that made it returns. Call Close when done
// and Checkpoint periodically to keep the log short.
func OpenDurable(dir string, cfg Config) (*DB, error) {
	db := Open(cfg)
	var snapEpoch uint64
	if storage.HasSnapshot(dir) {
		tables, epoch, err := storage.LoadSnapshot(dir)
		if err != nil {
			return nil, err
		}
		snapEpoch = epoch
		for _, t := range tables {
			if err := db.engine.Register(t); err != nil {
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
			if _, err := db.engine.Apply(op); err != nil {
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
	return db, nil
}

// Save persists every table to a directory in compressed binary form. It
// reads one published catalog snapshot, so it writes a consistent schema
// version without blocking — or being blocked by — a running evolution.
//
// cods:lockfree
func (db *DB) Save(dir string) error {
	return db.Snapshot().Save(dir)
}

// Checkpoint writes a fresh snapshot of a durable database and truncates
// the write-ahead log, bounding recovery time. It takes the exclusive
// lock, so it runs between — never during — catalog changes.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
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
	// The staged catalog, not the published one: when a caller deferred
	// publication, this checkpoint is what makes the pending change
	// durable, so it must capture that change.
	cat := db.engine.StagedCatalog()
	var tables []*colstore.Table
	for _, name := range cat.Tables() {
		t, err := cat.Table(name)
		if err != nil {
			return fail(err)
		}
		tables = append(tables, t)
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
	_ = db.engine.Compact()
	return nil
}

// Compact flushes every table's pending DML into a rebuilt base table,
// bounding the per-read cost of the delta overlay (tail scans, deletion
// masks) without changing any content or the schema version. On a
// durable database prefer Checkpoint, which compacts and additionally
// persists the state and truncates the write-ahead log; Compact alone
// never touches disk — recovery replays the journaled DML either way —
// and is the way to retire overlays on an in-memory database.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.engine.Compact()
}

// Prune retires rollback snapshots, keeping the current schema version
// plus its keepLast predecessors, and returns how many versions it
// retired. It is the explicit form of Config.RetainVersions (which
// enforces the same window automatically after every statement) and of
// the PRUNE KEEP n statement. Rollback to a retired version fails with
// ErrVersionPruned from then on; published snapshots, running readers
// and the history log are unaffected. Pruning is in-memory bookkeeping:
// on a durable database it is not journaled — recovery rebuilds the
// version sequence from snapshot plus log anyway.
func (db *DB) Prune(keepLast int) int {
	return db.engine.Prune(keepLast)
}

// MemStats reports the memory-pressure gauges of the write path: how
// many schema versions are retained for Rollback, how many delta-overlay
// rows are pending compaction, how many compactions and segment merges
// have run, and each table's segment layout. It is lock-free — it
// answers even while an evolution or checkpoint holds the write path —
// so operators can poll it (GET /stats serves it) to watch retention and
// auto-compaction work.
type MemStats = core.MemStats

// TableSegments is one table's segment-layout gauge in MemStats: how
// many base segments the table holds and how skewed their row counts
// are.
type TableSegments = core.TableSegments

// MemStats returns the current memory-pressure gauges, lock-free.
// cods:lockfree
func (db *DB) MemStats() MemStats { return db.engine.MemStats() }

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

// WaitBackgroundMerges returns immediately: segment merges always run
// inline on the write path, so none is ever pending.
//
// Deprecated: there are no background merges to wait for.
func (db *DB) WaitBackgroundMerges() {}

// Snapshot is an immutable, lock-free view of the database at one schema
// version. Every DB read method is equivalent to a one-shot call on a
// fresh Snapshot; grab one explicitly when a multi-step read (list tables,
// then describe and query them) must observe a single schema version even
// while evolutions commit concurrently. A Snapshot stays valid
// indefinitely — tables are immutable — it just stops reflecting catalog
// changes made after it was taken.
type Snapshot struct {
	cat *core.Catalog
}

// Snapshot returns the current published catalog version. It never
// blocks: even while an evolution is mid-operator, it returns the last
// committed version.
// cods:lockfree
func (db *DB) Snapshot() *Snapshot {
	return &Snapshot{cat: db.engine.Catalog()}
}

// Version returns the snapshot's schema version.
func (s *Snapshot) Version() int { return s.cat.Version() }

// Tables lists the snapshot's table names, sorted.
func (s *Snapshot) Tables() []string { return s.cat.Tables() }

// HasTable reports whether a table exists in the snapshot.
func (s *Snapshot) HasTable(name string) bool {
	_, err := s.cat.Overlay(name)
	return err == nil
}

// Columns returns a table's column names in schema order.
func (s *Snapshot) Columns(table string) ([]string, error) {
	ov, err := s.cat.Overlay(table)
	if err != nil {
		return nil, err
	}
	return ov.ColumnNames(), nil
}

// NumRows returns a table's row count, pending DML included.
func (s *Snapshot) NumRows(table string) (uint64, error) {
	ov, err := s.cat.Overlay(table)
	if err != nil {
		return 0, err
	}
	return ov.NumRows(), nil
}

// Rows materializes up to limit rows of a table starting at offset (limit
// 0 means all), pending DML included: surviving base rows in base order,
// then appended rows in insertion order. It pages the flushed table,
// which a dirty overlay builds once per version and caches.
func (s *Snapshot) Rows(table string, offset, limit uint64) ([][]string, error) {
	t, err := s.cat.Table(table)
	if err != nil {
		return nil, err
	}
	return t.Rows(offset, limit)
}

// Describe returns schema and storage statistics for a table. Rows is
// the exact merged count (pending DML included); the per-column storage
// statistics describe the indexed base and pick up pending DML at the
// next flush or checkpoint — Describe never forces a flush, so schema
// polling (GET /schema) stays cheap under a write stream.
func (s *Snapshot) Describe(table string) (*TableInfo, error) {
	ov, err := s.cat.Overlay(table)
	if err != nil {
		return nil, err
	}
	t := ov.Base()
	info := &TableInfo{Name: t.Name(), Rows: ov.NumRows(), Key: t.Key()}
	for i := 0; i < t.NumColumns(); i++ {
		c := t.ColumnAt(i)
		st := c.Stats()
		info.Columns = append(info.Columns, ColumnInfo{
			Name:            c.Name(),
			Encoding:        c.Encoding().String(),
			DistinctValues:  c.DistinctCount(),
			CompressedBytes: c.CompressedSizeBytes(),
			Integer:         st.Integer,
			MinInt:          st.MinInt,
			MaxInt:          st.MaxInt,
		})
	}
	return info, nil
}

// Query returns the rows of a table satisfying a condition (same syntax
// as PARTITION TABLE's WHERE), in table order. It is RunQuery with only
// a WHERE: the condition is evaluated on the flushed table's bitmap
// index, pending DML included.
func (s *Snapshot) Query(table, condition string) ([][]string, error) {
	if err := s.requireCondition(table, condition); err != nil {
		return nil, err
	}
	rs, err := s.RunQuery(table, TableQuery{Where: condition})
	if err != nil {
		return nil, err
	}
	return rs.Rows, nil
}

// Count returns the number of rows satisfying a condition without
// materializing them: RunQuery's count(*), a compressed popcount over
// the flushed table's predicate bitmap.
func (s *Snapshot) Count(table, condition string) (uint64, error) {
	if err := s.requireCondition(table, condition); err != nil {
		return 0, err
	}
	rs, err := s.RunQuery(table, TableQuery{Aggregates: []Agg{{Func: Count}}, Where: condition})
	if err != nil {
		return 0, err
	}
	return strconv.ParseUint(rs.Rows[0][0], 10, 64)
}

// requireCondition rejects an empty condition with the condition
// parser's own error, after the table lookup as for any other condition:
// Query and Count filter by a condition, while RunQuery reads an empty
// Where as "all rows".
func (s *Snapshot) requireCondition(table, condition string) error {
	if condition != "" {
		return nil
	}
	if _, err := s.cat.Overlay(table); err != nil {
		return err
	}
	_, err := expr.Parse(condition)
	return err
}

// RunQuery executes a query with optional joins, filtering, grouping,
// aggregation, ordering and limit against the snapshot. Every table —
// the root and each join — resolves from this one snapshot, so a join
// never observes two catalog versions, even while evolutions commit
// concurrently. Every query goes through the planner (internal/plan):
// single-table WHERE conjuncts are pushed into bitmap scans, joins are
// reordered by estimated cardinality, shared join keys are pre-reduced
// by a WAH semi-join, and aggregates over one table run on its bitmaps
// without decoding a row.
func (s *Snapshot) RunQuery(table string, q TableQuery) (*ResultSet, error) {
	pq := plan.Query{
		Select:  q.Select,
		From:    table,
		Where:   q.Where,
		GroupBy: q.GroupBy,
		OrderBy: q.OrderBy,
		Desc:    q.Desc,
		Limit:   q.Limit,
	}
	for _, j := range q.Joins {
		pq.Joins = append(pq.Joins, plan.Join{Table: j.Table, On: j.On})
	}
	for _, a := range q.Aggregates {
		f, ok := aggFuncs[a.Func]
		if !ok {
			return nil, fmt.Errorf("cods: unknown aggregate function %d", a.Func)
		}
		pq.Aggregates = append(pq.Aggregates, colquery.Agg{Func: f, Column: a.Column, As: a.As})
	}
	rs, err := plan.Run(s.cat.Table, pq)
	if err != nil {
		return nil, err
	}
	return &ResultSet{Columns: rs.Columns, Rows: rs.Rows}, nil
}

// Select parses and executes one SELECT statement against the snapshot:
//
//	SELECT <list> FROM t [JOIN u ON (k1, ...)]... [WHERE <condition>]
//	    [GROUP BY g] [ORDER BY c [ASC|DESC]] [LIMIT n]
//
// <list> is '*', a column list, or an aggregate list (count(*),
// count_distinct(c), min(c), max(c), sum(c), avg(c)). It is the text
// form of RunQuery — same planner, same snapshot isolation — so queries
// can travel the same path as statements (REPL, scripts, HTTP).
func (s *Snapshot) Select(stmt string) (*ResultSet, error) {
	op, err := smo.Parse(stmt)
	if err != nil {
		return nil, err
	}
	sel, ok := op.(smo.Select)
	if !ok {
		return nil, fmt.Errorf("cods: executing %q: %w: expected a SELECT statement, got %s", stmt, ErrParse, op.Kind())
	}
	q := TableQuery{
		Select:  sel.Columns,
		Where:   sel.Where,
		GroupBy: sel.GroupBy,
		OrderBy: sel.OrderBy,
		Desc:    sel.Desc,
		Limit:   sel.Limit,
	}
	for _, j := range sel.Joins {
		q.Joins = append(q.Joins, Join{Table: j.Table, On: j.On})
	}
	for _, a := range sel.Aggs {
		f, ok := aggFuncsByName[a.Func]
		if !ok {
			return nil, fmt.Errorf("cods: unknown aggregate function %q", a.Func)
		}
		q.Aggregates = append(q.Aggregates, Agg{Func: f, Column: a.Column})
	}
	return s.RunQuery(sel.From, q)
}

// History returns the executed-operator log up to the snapshot's version.
// The copy is O(statements) — and DML creates a version per statement —
// so polling paths should use HistoryTail.
func (s *Snapshot) History() []HistoryEntry {
	var out []HistoryEntry
	for _, h := range s.cat.History() {
		out = append(out, HistoryEntry{Version: h.Version, Op: h.Op, Kind: h.Kind, Elapsed: h.Elapsed, Steps: h.Steps})
	}
	return out
}

// HistoryTail returns the most recent limit executed-operator entries
// (all of them when limit <= 0), oldest first. Cost is O(limit), not
// O(statements): the underlying log is append-only, so the tail is a
// view conversion, which keeps REPL history display and HTTP history
// endpoints cheap under sustained write streams.
func (s *Snapshot) HistoryTail(limit int) []HistoryEntry {
	tail := s.cat.HistoryTail(limit)
	out := make([]HistoryEntry, 0, len(tail))
	for _, h := range tail {
		out = append(out, HistoryEntry{Version: h.Version, Op: h.Op, Kind: h.Kind, Elapsed: h.Elapsed, Steps: h.Steps})
	}
	return out
}

// HistoryLen returns the total number of executed-operator entries
// without copying the log.
func (s *Snapshot) HistoryLen() int { return s.cat.HistoryLen() }

// Save persists the snapshot's tables to a directory in compressed binary
// form.
func (s *Snapshot) Save(dir string) error {
	var tables []*colstore.Table
	for _, name := range s.cat.Tables() {
		t, err := s.cat.Table(name)
		if err != nil {
			return err
		}
		tables = append(tables, t)
	}
	return storage.Save(dir, tables)
}

// replayable reports whether an operator can be re-executed from its text
// form alone. ADD COLUMN ... FROM 'file' depends on an external file that
// may change or vanish, so it is checkpointed instead of logged.
func replayable(op smo.Op) bool {
	a, ok := op.(smo.AddColumn)
	return !ok || a.ValuesFile == ""
}

// journalLocked makes one just-applied operator durable. Must hold the
// exclusive lock; call only when db.wal != nil.
//
// cods:blocking — appends to and fsyncs the write-ahead log.
func (db *DB) journalLocked(op smo.Op) error {
	if replayable(op) {
		if err := db.wal.Append(op.String()); err != nil {
			// The statement is live in memory but missing from the log;
			// until a snapshot captures it, further changes would log on
			// top of a hole, so poison the write path.
			db.walBroken = true
			return fmt.Errorf("cods: %w: statement applied but not durably logged (catalog changes disabled until a Checkpoint succeeds): %w", ErrNotDurable, err)
		}
		return nil
	}
	return db.checkpointLocked(true)
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

func toResult(r *core.Result) *Result {
	return &Result{
		Op:      r.Op.String(),
		Kind:    r.Op.Kind(),
		Version: r.Version,
		Elapsed: r.Elapsed,
		Steps:   r.Steps,
		Created: r.Created,
		Dropped: r.Dropped,
	}
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
	if err := db.failIfClosedLocked(); err != nil {
		return nil, err
	}
	parsed, err := smo.Parse(op)
	if err != nil {
		return nil, err
	}
	if db.wal != nil {
		// Durability before visibility: hold the new version back from
		// lock-free readers until it is journaled, so no client acts on a
		// schema version a crash could take back. Publication still runs
		// if journaling fails — the statement is then live in memory by
		// contract (see below), just not yet durable.
		publish := db.engine.DeferPublication()
		defer publish()
	}
	res, err := db.engine.Apply(parsed)
	if err != nil {
		return nil, err
	}
	out := toResult(res)
	if db.wal != nil {
		//lint:ignore codslint/lockscope durability before visibility: the WAL fsync must complete under the writer lock before the deferred publish makes the version visible; readers never take this lock
		if err := db.journalLocked(parsed); err != nil {
			// The statement committed but could not be made durable;
			// callers must see the result or they would retry a live
			// statement.
			return out, err
		}
	}
	return out, nil
}

// ExecScript executes a sequence of operators separated by newlines or
// semicolons ("--" and "#" start comments), stopping at the first failure.
func (db *DB) ExecScript(script string) ([]*Result, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.failIfClosedLocked(); err != nil {
		return nil, err
	}
	ops, err := smo.ParseScript(script)
	if err != nil {
		return nil, err
	}
	if db.wal != nil {
		// As in Exec: committed statements become reader-visible only
		// after the batched journal append (or checkpoint) below.
		publish := db.engine.DeferPublication()
		defer publish()
	}
	results, execErr := db.engine.ApplyScript(ops)
	out := make([]*Result, len(results))
	for i, r := range results {
		out[i] = toResult(r)
	}
	// Operators applied before a mid-script failure are committed, so they
	// are journaled even when execErr is non-nil — in one batched append
	// (a single fsync under the exclusive lock, not one per statement). A
	// script containing a non-replayable operator checkpoints once
	// instead of logging. A journal/checkpoint failure still returns the
	// results: the statements are live in the catalog, and callers (the
	// HTTP server) must see what committed to retry the remainder safely.
	if db.wal != nil && len(results) > 0 {
		journal := true
		for _, r := range results {
			if !replayable(r.Op) {
				journal = false
				break
			}
		}
		if journal {
			stmts := make([]string, len(results))
			for i, r := range results {
				stmts[i] = r.Op.String()
			}
			//lint:ignore codslint/lockscope durability before visibility: the batched WAL fsync must complete under the writer lock before the deferred publish; readers never take this lock
			if err := db.wal.AppendAll(stmts); err != nil {
				// Committed statements are missing from the log; poison
				// the write path as journalLocked would.
				db.walBroken = true
				err = fmt.Errorf("cods: %w: statements applied but not durably logged (catalog changes disabled until a Checkpoint succeeds): %w", ErrNotDurable, err)
				return out, errors.Join(execErr, err)
			}
			//lint:ignore codslint/lockscope a non-replayable statement must be checkpointed under the writer lock before it becomes visible; readers never take this lock
		} else if err := db.checkpointLocked(true); err != nil {
			return out, errors.Join(execErr, err)
		}
	}
	return out, execErr
}

// CreateTableFromRows builds a table from in-memory rows and registers it.
func (db *DB) CreateTableFromRows(name string, columns []string, key []string, rows [][]string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.failIfClosedLocked(); err != nil {
		return err
	}
	tb, err := colstore.NewTableBuilder(name, columns, key)
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := tb.AppendRow(r); err != nil {
			return err
		}
	}
	t, err := tb.Finish()
	if err != nil {
		return err
	}
	if db.wal != nil {
		publish := db.engine.DeferPublication()
		defer publish()
	}
	if err := db.engine.Register(t); err != nil {
		return err
	}
	// Bulk-loaded rows exist nowhere in statement form; checkpoint so the
	// snapshot carries them.
	if db.wal != nil {
		//lint:ignore codslint/lockscope bulk loads cannot be replayed from the WAL, so the snapshot must be durable under the writer lock before the deferred publish; readers never take this lock
		return db.checkpointLocked(true)
	}
	return nil
}

// LoadCSV loads a CSV file (header row first) as a new table.
func (db *DB) LoadCSV(path, table string, key ...string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.failIfClosedLocked(); err != nil {
		return err
	}
	t, err := csvio.Load(path, table, key)
	if err != nil {
		return err
	}
	if db.wal != nil {
		publish := db.engine.DeferPublication()
		defer publish()
	}
	if err := db.engine.Register(t); err != nil {
		return err
	}
	if db.wal != nil {
		//lint:ignore codslint/lockscope file-fed loads cannot be replayed from the WAL, so the snapshot must be durable under the writer lock before the deferred publish; readers never take this lock
		return db.checkpointLocked(true)
	}
	return nil
}

// SaveCSV writes a table to a CSV file.
// cods:lockfree
func (db *DB) SaveCSV(path, table string) error {
	t, err := db.engine.Catalog().Table(table)
	if err != nil {
		return err
	}
	return csvio.Save(path, t)
}

// Tables lists the catalog's table names, sorted.
// cods:lockfree
func (db *DB) Tables() []string {
	return db.Snapshot().Tables()
}

// HasTable reports whether a table exists.
// cods:lockfree
func (db *DB) HasTable(name string) bool {
	return db.Snapshot().HasTable(name)
}

// ColumnInfo describes one column of a table, including the planner's
// cardinality statistics (colstore.Column.Stats).
type ColumnInfo struct {
	Name string
	// Encoding names the column's physical encoding; always "bitmap".
	Encoding        string
	DistinctValues  int
	CompressedBytes uint64
	// Integer reports whether every distinct value parses as an int64;
	// MinInt and MaxInt then bound the values numerically.
	Integer        bool
	MinInt, MaxInt int64
}

// TableInfo describes a table's schema and physical footprint.
type TableInfo struct {
	Name    string
	Rows    uint64
	Key     []string
	Columns []ColumnInfo
}

// Describe returns schema and storage statistics for a table.
// cods:lockfree
func (db *DB) Describe(table string) (*TableInfo, error) {
	return db.Snapshot().Describe(table)
}

// Columns returns a table's column names in schema order.
// cods:lockfree
func (db *DB) Columns(table string) ([]string, error) {
	return db.Snapshot().Columns(table)
}

// NumRows returns a table's row count.
// cods:lockfree
func (db *DB) NumRows(table string) (uint64, error) {
	return db.Snapshot().NumRows(table)
}

// Rows materializes up to limit rows of a table starting at offset (limit
// 0 means all), pending DML included (see Snapshot.Rows).
// cods:lockfree
func (db *DB) Rows(table string, offset, limit uint64) ([][]string, error) {
	return db.Snapshot().Rows(table, offset, limit)
}

// Query returns the rows of a table satisfying a condition (same syntax
// as PARTITION TABLE's WHERE) through the planner, like RunQuery. The
// condition is evaluated on the bitmap index — once per distinct value,
// not once per row, fanned out over a GOMAXPROCS-sized worker pool.
// cods:lockfree
func (db *DB) Query(table, condition string) ([][]string, error) {
	return db.Snapshot().Query(table, condition)
}

// Count returns the number of rows satisfying a condition without
// materializing them (RunQuery's count(*), a compressed popcount).
// cods:lockfree
func (db *DB) Count(table, condition string) (uint64, error) {
	return db.Snapshot().Count(table, condition)
}

// Version returns the schema version (incremented per applied operator).
// Lock-free: it always answers, even mid-evolution, reporting the last
// committed version.
// cods:lockfree
func (db *DB) Version() int {
	return db.Snapshot().Version()
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
	if err := db.failIfClosedLocked(); err != nil {
		return err
	}
	if db.wal != nil {
		publish := db.engine.DeferPublication()
		defer publish()
	}
	if err := db.engine.Rollback(version); err != nil {
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

// AggFunc is an aggregate function for RunQuery.
type AggFunc int

// Aggregate functions.
const (
	Count AggFunc = iota // COUNT(*)
	CountDistinct
	Min
	Max
	Sum
	Avg
)

var aggFuncs = map[AggFunc]colquery.AggFunc{
	Count: colquery.Count, CountDistinct: colquery.CountDistinct,
	Min: colquery.Min, Max: colquery.Max, Sum: colquery.Sum, Avg: colquery.Avg,
}

// aggFuncsByName maps the SELECT statement's aggregate spellings to
// AggFunc values.
var aggFuncsByName = map[string]AggFunc{
	"count": Count, "count_distinct": CountDistinct,
	"min": Min, "max": Max, "sum": Sum, "avg": Avg,
}

// Agg is one aggregate column: Func over Column, named As (optional).
// Column is ignored for Count.
type Agg struct {
	Func   AggFunc
	Column string
	As     string
}

// Join is one inner-join step of a TableQuery.
type Join struct {
	// Table is the table to join against the query so far.
	Table string
	// On lists the shared column names to match on (USING-style): each
	// must exist on both sides, and appears once in the joined output.
	On []string
}

// TableQuery describes a query for RunQuery. Without Joins it reads one
// table; with Joins, Select/Where/GroupBy/OrderBy name columns of the
// joined output (the root table's schema, then each join's non-key
// columns, in written order).
type TableQuery struct {
	// Select lists projected columns (empty = all; ignored with
	// Aggregates).
	Select []string
	// Joins are inner joins applied to the queried table. The planner
	// picks the execution order; the written order fixes the schema.
	Joins []Join
	// Where is an optional predicate in the PARTITION condition syntax.
	Where string
	// GroupBy groups by one column; requires Aggregates.
	GroupBy string
	// Aggregates computes aggregate output columns.
	Aggregates []Agg
	// OrderBy sorts by one output column; Desc reverses.
	OrderBy string
	Desc    bool
	// Limit caps output rows (0 = unlimited; negative is an error).
	Limit int
}

// ResultSet is a materialized query result.
type ResultSet struct {
	Columns []string
	Rows    [][]string
}

// RunQuery executes a query with optional joins, filtering, grouping,
// aggregation, ordering and limit against one table. Predicates and COUNT
// aggregates are evaluated on compressed bitmaps — once per distinct
// value, never per row. Every query, joined or not, runs through the
// cost-based planner; all tables resolve from one snapshot (see
// Snapshot.RunQuery).
// cods:lockfree
func (db *DB) RunQuery(table string, q TableQuery) (*ResultSet, error) {
	return db.Snapshot().RunQuery(table, q)
}

// Select parses and executes one SELECT statement (see Snapshot.Select)
// against the current catalog version.
// cods:lockfree
func (db *DB) Select(stmt string) (*ResultSet, error) {
	return db.Snapshot().Select(stmt)
}

// HistoryEntry records one executed operator.
type HistoryEntry struct {
	Version int
	Op      string
	Kind    string
	Elapsed time.Duration
	Steps   []string
}

// History returns the executed-operator log in order. Prefer HistoryTail
// on polling paths: the full copy is O(statements).
// cods:lockfree
func (db *DB) History() []HistoryEntry {
	return db.Snapshot().History()
}

// HistoryTail returns the most recent limit executed-operator entries
// (all when limit <= 0), oldest first, at O(limit) cost.
// cods:lockfree
func (db *DB) HistoryTail(limit int) []HistoryEntry {
	return db.Snapshot().HistoryTail(limit)
}

// Validate checks the structural invariants of every table (per-value
// bitmaps disjoint and complete, declared keys unique). It validates one
// catalog snapshot, consistent even while evolutions commit concurrently.
// cods:lockfree
func (db *DB) Validate() error {
	cat := db.engine.Catalog()
	for _, name := range cat.Tables() {
		t, err := cat.Table(name)
		if err != nil {
			return err
		}
		if err := t.Validate(); err != nil {
			return err
		}
		if err := t.ValidateKey(); err != nil {
			return fmt.Errorf("cods: %w", err)
		}
	}
	return nil
}
