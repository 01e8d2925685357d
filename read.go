package cods

import (
	"fmt"
	"sort"

	"cods/internal/colstore"
	"cods/internal/csvio"
	"cods/internal/delta"
	"cods/internal/storage"
)

// Snapshot is an immutable, lock-free view of the database at one schema
// version: the table set, the version number, and the operator history up
// to it. Every DB read method is equivalent to a one-shot call on a fresh
// Snapshot; grab one explicitly when a multi-step read (list tables, then
// describe and query them) must observe a single schema version even
// while evolutions commit concurrently. A Snapshot stays valid
// indefinitely — tables are immutable and its maps are never mutated
// after publication — it just stops reflecting catalog changes made after
// it was taken.
//
// cods:immutable
type Snapshot struct {
	// tables maps each name to its delta.Overlay: the immutable base
	// table plus pending DML (appended rows, deletion bitmap).
	tables  map[string]*delta.Overlay
	version int
	history []HistoryEntry
}

// Snapshot returns the current published catalog version. It never
// blocks: even while an evolution is mid-operator, it returns the last
// committed version.
// cods:lockfree
func (db *DB) Snapshot() *Snapshot {
	return db.published.Load()
}

// table returns the named table with any pending DML flushed in, or an
// error wrapping ErrNoTable. The flush is computed at most once per
// overlay version and cached, so repeated reads of a DML'd table pay for
// the merge once; a table without pending DML is returned as-is.
func (s *Snapshot) table(name string) (*colstore.Table, error) {
	ov, err := s.overlay(name)
	if err != nil {
		return nil, err
	}
	return ov.Table()
}

// overlay returns the named table's delta overlay — the base table plus
// pending DML — or an error wrapping ErrNoTable. Metadata reads (schema,
// row count, column statistics) use it to skip the flush; every data
// read goes through table.
func (s *Snapshot) overlay(name string) (*delta.Overlay, error) {
	if ov, ok := s.tables[name]; ok {
		return ov, nil
	}
	return nil, fmt.Errorf("cods: %w %q", ErrNoTable, name)
}

// Version returns the snapshot's schema version.
func (s *Snapshot) Version() int { return s.version }

// Tables lists the snapshot's table names, sorted.
func (s *Snapshot) Tables() []string {
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HasTable reports whether a table exists in the snapshot.
func (s *Snapshot) HasTable(name string) bool {
	_, ok := s.tables[name]
	return ok
}

// Columns returns a table's column names in schema order.
func (s *Snapshot) Columns(table string) ([]string, error) {
	ov, err := s.overlay(table)
	if err != nil {
		return nil, err
	}
	return ov.ColumnNames(), nil
}

// NumRows returns a table's row count, pending DML included.
func (s *Snapshot) NumRows(table string) (uint64, error) {
	ov, err := s.overlay(table)
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
	t, err := s.table(table)
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
	ov, err := s.overlay(table)
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

// History returns the executed-operator log up to the snapshot's version
// as a fresh copy the caller may keep or mutate. The copy is
// O(statements) — and DML creates a version per statement — so polling
// paths should use HistoryTail.
func (s *Snapshot) History() []HistoryEntry {
	return append([]HistoryEntry(nil), s.history...)
}

// HistoryTail returns the most recent limit executed-operator entries
// (all of them when limit <= 0 or it exceeds the log length), oldest
// first, as a shared read-only view: the log is append-only and entries
// are never mutated after commit, so the tail costs O(1) regardless of
// how many statements ran, which keeps REPL history display and HTTP
// history endpoints cheap under sustained write streams. Callers must
// not modify the returned entries (enforced by codslint); the view's
// capacity ends at its length, so an append copies instead of writing
// into the log's spare capacity, where later versions append.
//
// cods:shared-view
func (s *Snapshot) HistoryTail(limit int) []HistoryEntry {
	n := len(s.history)
	if limit <= 0 || limit > n {
		limit = n
	}
	return s.history[n-limit : n : n]
}

// HistoryLen returns the total number of executed-operator entries
// without copying the log.
func (s *Snapshot) HistoryLen() int { return len(s.history) }

// Save persists the snapshot's tables to a directory in compressed binary
// form.
func (s *Snapshot) Save(dir string) error {
	tables, err := s.flushedTables()
	if err != nil {
		return err
	}
	return storage.Save(dir, tables)
}

// flushedTables returns every table with its pending DML flushed in, in
// name order.
func (s *Snapshot) flushedTables() ([]*colstore.Table, error) {
	var tables []*colstore.Table
	for _, name := range s.Tables() {
		t, err := s.table(name)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// Save persists every table to a directory in compressed binary form. It
// reads one published catalog snapshot, so it writes a consistent schema
// version without blocking — or being blocked by — a running evolution.
//
// cods:lockfree
func (db *DB) Save(dir string) error {
	return db.Snapshot().Save(dir)
}

// SaveCSV writes a table to a CSV file.
// cods:lockfree
func (db *DB) SaveCSV(path, table string) error {
	t, err := db.Snapshot().table(table)
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

// Version returns the schema version (incremented per applied operator).
// Lock-free: it always answers, even mid-evolution, reporting the last
// committed version.
// cods:lockfree
func (db *DB) Version() int {
	return db.Snapshot().Version()
}

// History returns the executed-operator log in order. Prefer HistoryTail
// on polling paths: the full copy is O(statements).
// cods:lockfree
func (db *DB) History() []HistoryEntry {
	return db.Snapshot().History()
}

// HistoryTail returns the most recent limit executed-operator entries
// (all when limit <= 0), oldest first, at O(1) cost, as a shared
// read-only view (see Snapshot.HistoryTail).
// cods:lockfree
// cods:shared-view
func (db *DB) HistoryTail(limit int) []HistoryEntry {
	return db.Snapshot().HistoryTail(limit)
}

// Validate checks the structural invariants of every table (per-value
// bitmaps disjoint and complete, declared keys unique). It validates one
// catalog snapshot, consistent even while evolutions commit concurrently.
// cods:lockfree
func (db *DB) Validate() error {
	tables, err := db.Snapshot().flushedTables()
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Validate(); err != nil {
			return err
		}
		if err := t.ValidateKey(); err != nil {
			return fmt.Errorf("cods: %w", err)
		}
	}
	return nil
}
