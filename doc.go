// Package cods is a Go implementation of CODS — "Column Oriented Database
// Schema update" — the data-level data evolution platform for column
// oriented databases described in:
//
//	Liu, Natarajan, He, Hsiao, Chen.
//	CODS: Evolving Data Efficiently and Scalably in Column Oriented
//	Databases. PVLDB 3(2), VLDB 2010.
//
// Tables are stored as bitmap-indexed columns: one value dictionary and
// one WAH-compressed bitmap per distinct value. Schema Modification
// Operators (DECOMPOSE TABLE, MERGE TABLES, PARTITION, UNION, column
// operations, ...) evolve the stored data directly on the compressed
// bitmaps — without materializing query results, without rebuilding
// indexes, and without decompressing columns — which is orders of
// magnitude faster than executing the equivalent INSERT ... SELECT at
// query level.
//
// # Quick start
//
//	db := cods.Open(cods.Config{})
//	db.CreateTableFromRows("R",
//		[]string{"Employee", "Skill", "Address"}, nil, rows)
//	res, err := db.Exec(
//		"DECOMPOSE TABLE R INTO S (Employee, Skill), T (Employee, Address)")
//	...
//	res, err = db.Exec("MERGE TABLES S, T INTO R")
//	res, err = db.Exec("INSERT INTO R VALUES ('Nguyen', 'Juggling', '12 Side St')")
//
// The operator syntax is the paper's Table 1 plus the DML statements
// INSERT INTO t VALUES (...), DELETE FROM t [WHERE ...] and UPDATE t SET
// c = 'v' [WHERE ...]; see the Exec documentation for the full grammar.
// Reads have a statement form of their own — SELECT ... FROM t [JOIN u
// ON (...)] ... — executed by Select, not Exec (see "Queries and the
// join planner" below).
// Lower-level building blocks (the WAH bitmap engine, the column store,
// the DML delta overlay, the evolution algorithms, the row-store
// baselines used by the benchmark harness) live under internal/ and are
// exercised through this facade, the example programs, and the cmd/
// tools.
//
// # DML and the delta overlay
//
// Tables accept row-level writes without giving up immutable storage:
// each catalog entry is a base table plus a delta overlay
// (internal/delta) of appended rows and a deletion bitmap, derived
// copy-on-write per statement and published like any other catalog
// change. Reads see pending DML through the flushed table — the overlay
// folded into its base once per version, cached, then planned like any
// other table; an evolution operator over a table with pending DML
// consumes the same flush; Checkpoint compacts overlays the same way.
// DML statements are WAL-journaled as text and replayed on recovery like
// SMOs. The write path is amortized O(1) per keyed statement: a
// per-lineage key index of the appended tail answers INSERT conflicts
// and point DELETE/UPDATE matches without scanning pending rows.
//
// # Queries and the join planner
//
// DB.Select (and Snapshot.Select) parses and runs one read-only SELECT
// statement:
//
//	SELECT <columns | * | aggregates> FROM t [JOIN u ON (col, ...)]...
//		[WHERE <condition>] [GROUP BY col]
//		[ORDER BY col [ASC|DESC]] [LIMIT n]
//
// Joins are inner equi-joins, USING-style: each ON column must exist on
// both sides and appears once in the output; the written join order
// defines the output schema. RunQuery is the structured equivalent
// (TableQuery with a Joins field). Every query is planned by a small
// cost-based planner (internal/plan): WHERE conjuncts that
// mention only one table's columns are pushed into that table's scan
// and evaluated as compressed per-value bitmaps; joins are reordered
// greedily by estimated cardinality from the column statistics
// (dictionary distinct counts over row counts, surfaced per table in
// Describe and the server's /stats); and when a join key's dictionaries
// share lineage — pointer-equal or value-identical, the natural state
// for tables produced by DECOMPOSE — the probe side is pre-reduced by a
// WAH semi-join mask, so rows that cannot join are never decoded.
// Predicates that genuinely span tables stay as a residual filter above
// the join. A query with no joins aggregates directly on its table's
// bitmaps: COUNT is a compressed popcount, and every other aggregate
// visits each distinct value once, never a row.
//
// Semantically, SELECT over a join is the inverse of DECOMPOSE: joining
// the decomposition back on its shared key returns exactly the rows of
// the original table (when the decomposition was lossless), which the
// test suite exploits as a correctness oracle for data-level evolution.
// SELECT never changes catalog state: Exec rejects it (nothing to
// journal or roll back), it creates no version, and it runs lock-free
// against one pinned snapshot like every other read.
//
// # Segmented base storage
//
// A base table is an ordered list of immutable segments behind a
// manifest (internal/colstore), so a flush seals the appended tail into
// one new small segment and rewrites only the segments deletions touch —
// O(tail) work however large the table is, where the old monolithic
// rebuild was O(table). A tiered merge policy folds small tail segments
// together to keep the segment count logarithmic: a segment at most twice
// the rows behind it is merged with them. The fold runs inline on the
// write path, before the change is published.
// A flush keeps surviving base rows in base order, then appended rows in
// insertion order; the root property test checks that, statement by
// statement, against an independent row model. Durable catalogs persist
// one directory per segment and cross-check the manifest's row counts on
// load.
//
// # Segment-wise evolution
//
// Schema Modification Operators run segment-wise too: each operator maps
// over the input's segments (local dictionaries, local bitmaps — fanned
// out like any other bitmap work) and merges the per-segment results
// under a union dictionary, so evolution cost tracks distinct values and
// touched segments rather than the stitched table size, and evolution
// outputs stay segmented — UNION adopts both inputs' segments outright,
// a key–FK MERGE keeps one output segment per fact segment, and the
// deduplicated DECOMPOSE side packs each segment's surviving rows into a
// segment of its own. Outputs feed back into the tiered merge policy,
// and MemStats reports the per-table segment layout plus the running
// merge count. On a one-segment table the map phase is the whole
// algorithm, so there is one evolution path, checked against the row
// model and against query-level evolution (decode, join, re-encode).
//
// # Bounded memory: retention and auto-compaction
//
// Every statement produces a rollback-able catalog version, so on
// write-heavy workloads memory grows with statement count unless
// bounded. Config.RetainVersions prunes the version history after every
// commit to the current version plus N predecessors (Prune and the
// PRUNE KEEP n statement are the explicit forms); Rollback to a pruned
// version fails with an error matching ErrVersionPruned that names the
// retained window, while a version that never existed keeps the plain
// "no schema version" error. Config.AutoCompactPending compacts a
// table's overlay as soon as a DML statement leaves it with that many
// pending rows — contents and version unchanged, readers never blocked.
// Both default off (keep-everything, compact-at-checkpoint). MemStats
// reports the gauges (retained versions, pending overlay rows,
// compaction count) lock-free; HistoryTail pages the operator log at
// O(limit).
//
// # Parallelism
//
// Per-distinct-value bitmap work — the dominant cost of every evolution
// operator and of bitmap-index query evaluation — fans out over a worker
// pool of GOMAXPROCS goroutines, which the Go runtime's GOMAXPROCS
// environment variable bounds. The pool size changes only wall-clock
// time: evolution outputs, query results and aggregate values are
// bit-identical at any size (fan-in is index-ordered throughout; see
// internal/par).
//
// # Concurrency
//
// A DB is safe for concurrent use by multiple goroutines, and reads never
// block. Committed catalog state is published as an immutable snapshot
// behind an atomic pointer; every read (Query, Count, RunQuery, Rows,
// Describe, Save, ...) loads the pointer once and runs lock-free against
// that snapshot, so even a long DECOMPOSE or MERGE holding the write path
// never stalls query traffic — the paper's online-evolution promise. A
// read observes the whole schema version that was current when it
// started: never a partially applied operator, and never the outputs of
// an SMO that has not committed. Catalog-changing calls (Exec,
// ExecScript, Rollback, CreateTableFromRows, LoadCSV, Compact,
// Checkpoint) serialize on one internal mutex, build the next version off
// to the side, and publish it with one atomic swap as the call returns —
// on a durable database after the change is durable; Rollback publishes
// the restored version the same way, and a script publishes once, after
// its last statement. Tables are immutable, so results already materialized
// stay valid across subsequent evolutions, and DB.Snapshot pins one
// schema version explicitly for multi-step reads.
//
// # Durability and serving
//
// OpenDurable opens a crash-safe catalog: every committed change is
// either appended to a checksummed, fsync'd write-ahead log or captured
// by a snapshot before the call returns, and recovery (snapshot load +
// log replay) restores the last committed schema version after any
// crash. Checkpoint truncates the log; Close releases it. The cods serve
// command (internal/server) exposes a DB over HTTP/JSON — POST /query,
// POST /exec, GET /schema, GET /healthz, GET /stats — with bounded
// request concurrency and graceful shutdown; see README.md for the API.
//
// # Error classification
//
// Errors crossing this API are classified with errors.Is against the
// exported sentinels (ErrClosed, ErrNotDurable, ErrNoTable, ...), so the
// package is marked cods:boundary for codslint: new error paths must
// wrap a sentinel with %w rather than invent anonymous errors. See
// internal/lint.
package cods
