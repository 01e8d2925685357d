// Package core implements the CODS platform engine: a catalog of
// bitmap-indexed column-store tables, execution of Schema Modification
// Operators via the data-level evolution algorithms, schema version
// history, and step-by-step status tracking (the demo's "Data Evolution
// Status" panel, paper §3).
package core

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cods/internal/colstore"
	"cods/internal/delta"
	"cods/internal/evolve"
	"cods/internal/smo"
)

// ErrNoTable matches (via errors.Is) failures to look up a table that is
// not in the catalog. Servers use it to blame the right party: a query
// against a table a concurrent evolution just dropped is "not found", not
// a malformed request.
var ErrNoTable = errors.New("no table")

// Config parameterizes an Engine.
type Config struct {
	// ValidateFD makes DECOMPOSE verify losslessness (Property 2) before
	// evolving data.
	ValidateFD bool
	// Status, when non-nil, receives live evolution progress events.
	Status func(step string)
	// RetainVersions bounds how many previous schema versions stay
	// rollback-able: after every committed change the snapshot history is
	// pruned to the current version plus its RetainVersions predecessors.
	// 0 (the default) keeps every version — the pre-retention contract.
	RetainVersions int
	// AutoCompactPending, when positive, compacts delta overlays as soon
	// as a DML statement leaves a table with at least this many pending
	// rows (appended plus deletion marks), bounding overlay memory and
	// per-read merge cost on sustained write streams without an explicit
	// Compact or Checkpoint. 0 disables auto-compaction.
	AutoCompactPending int
}

// Engine is the CODS platform: it owns the table catalog and executes
// SMOs. Safe for concurrent use. Writers (Apply, Rollback, Register)
// serialize on an internal mutex, build the next catalog version off to
// the side, and publish it with one atomic pointer swap; readers (Table,
// Tables, Version, History, Catalog) load the published pointer and never
// block, even while an SMO is mid-execution.
type Engine struct {
	mu sync.Mutex // cods:writerlock serializes writers; readers never take it
	// tables maps each name to its delta.Overlay: the immutable base
	// table plus pending DML (appended rows, deletion bitmap). SMOs
	// consume the flushed table; DML derives a new overlay (copy on
	// write); readers merge base+delta through the overlay.
	tables  map[string]*delta.Overlay
	version int
	history []HistoryEntry
	// snapshots holds the catalog as of each schema version. Overlays are
	// immutable, so a snapshot is a map copy sharing all column data and
	// DML state — versioned schemas cost almost nothing, and any version
	// can be rolled back to (the "audibility" PRISM motivates; paper §1).
	snapshots map[int]map[string]*delta.Overlay
	// published is the current catalog as readers see it: an immutable
	// Catalog swapped in after each committed change (copy-on-write
	// publication). A reader that loaded it observes that whole schema
	// version for as long as it keeps the pointer.
	published atomic.Pointer[Catalog]
	// deferPublish, when positive, suppresses publication inside commits
	// (see DeferPublication): the facade uses it to make a change durable
	// (WAL fsync or checkpoint) before readers can observe it. A depth
	// counter, not a bool, so overlapping deferred spans compose: only
	// the outermost release publishes.
	deferPublish int
	// oldestRetained is the oldest schema version Rollback can restore;
	// pruning advances it and never moves it back. Guarded by mu; the
	// atomic gauges below mirror it (and the snapshot count and
	// compaction count) for lock-free MemStats.
	oldestRetained int
	retained       atomic.Int64
	oldestGauge    atomic.Int64
	compactions    atomic.Uint64
	merges         atomic.Uint64
	cfg            Config
}

// Catalog is an immutable view of the engine at one schema version: the
// table set, the version number, and the operator history up to it.
// Obtained lock-free from Engine.Catalog; safe to use concurrently and
// indefinitely (tables are immutable, the maps are never mutated after
// publication).
//
// cods:immutable
type Catalog struct {
	tables  map[string]*delta.Overlay
	version int
	history []HistoryEntry
}

// Table returns the named table with any pending DML flushed in, or an
// error wrapping ErrNoTable. The flush is computed at most once per
// overlay version and cached, so repeated reads of a DML'd table pay for
// the merge once; a table without pending DML is returned as-is.
func (c *Catalog) Table(name string) (*colstore.Table, error) {
	ov, err := c.Overlay(name)
	if err != nil {
		return nil, err
	}
	return ov.Table()
}

// Overlay returns the named table's delta overlay — the base table plus
// pending DML — or an error wrapping ErrNoTable. Metadata reads (schema,
// row count, column statistics) use it to skip the flush; every data
// read goes through Table.
func (c *Catalog) Overlay(name string) (*delta.Overlay, error) {
	if ov, ok := c.tables[name]; ok {
		return ov, nil
	}
	return nil, fmt.Errorf("core: %w %q", ErrNoTable, name)
}

// Tables returns the catalog's table names, sorted.
func (c *Catalog) Tables() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Version returns the catalog's schema version.
func (c *Catalog) Version() int { return c.version }

// History returns the executed-operator log up to this version as a
// fresh copy the caller may keep or mutate. O(statements) — use
// HistoryTail for polling paths (servers, REPL display) now that DML
// creates a version per statement.
func (c *Catalog) History() []HistoryEntry {
	return append([]HistoryEntry(nil), c.history...)
}

// HistoryLen returns the number of executed-operator log entries without
// copying the log.
func (c *Catalog) HistoryLen() int { return len(c.history) }

// HistoryTail returns the most recent limit entries (all of them when
// limit <= 0 or exceeds the log length) as a shared read-only view: the
// log is append-only and entries are never mutated after commit, so the
// tail costs O(1) regardless of how many statements ran. Callers must
// not modify the returned entries (enforced by codslint).
//
// cods:shared-view
func (c *Catalog) HistoryTail(limit int) []HistoryEntry {
	if limit <= 0 || limit > len(c.history) {
		limit = len(c.history)
	}
	return c.history[len(c.history)-limit:]
}

// HistoryEntry records one executed operator.
type HistoryEntry struct {
	Version int
	Op      string
	Kind    string
	Elapsed time.Duration
	Steps   []string
}

// Result reports one operator execution.
type Result struct {
	Op      smo.Op
	Version int
	Elapsed time.Duration
	// Steps are the data-evolution status events emitted while executing.
	Steps []string
	// Created and Dropped list catalog changes.
	Created []string
	Dropped []string
}

// New returns an engine with the given configuration.
func New(cfg Config) *Engine {
	e := &Engine{tables: make(map[string]*delta.Overlay), snapshots: make(map[int]map[string]*delta.Overlay), cfg: cfg}
	e.snapshots[0] = map[string]*delta.Overlay{}
	e.retained.Store(1)
	e.publish()
	return e
}

// snapshot records the current catalog under the current version and
// publishes it to readers. Writers call it with the mutex held as the
// last step of a committed change; until then readers keep loading the
// previous version, so a mid-flight SMO is never observable.
func (e *Engine) snapshot() {
	copied := make(map[string]*delta.Overlay, len(e.tables))
	for k, v := range e.tables {
		copied[k] = v
	}
	e.snapshots[e.version] = copied
	e.retained.Store(int64(len(e.snapshots)))
	e.publish()
}

// publish atomically swaps in the current version as the readers' catalog.
// The snapshot map is immutable from here on (Rollback copies it), and
// history is append-only, so the published Catalog never changes.
func (e *Engine) publish() {
	if e.deferPublish > 0 {
		return
	}
	e.published.Store(&Catalog{
		tables:  e.snapshots[e.version],
		version: e.version,
		history: e.history,
	})
}

// DeferPublication holds commits back from lock-free readers until the
// returned publish func runs. Spans nest: each call increments a depth
// counter and its publish decrements it, so an inner span's release
// cannot prematurely expose an outer span's not-yet-durable commits;
// calling the same publish func more than once is harmless. The durable
// facade paths use it so a change becomes durable (WAL fsync or
// checkpoint) before it becomes observable — readers never act on a
// schema version a crash could take back. The caller must serialize with
// other writers for the whole deferred span (the facade's writer mutex
// does) and must call publish even when durability fails: the change is
// then live in memory by contract, merely not yet durable.
func (e *Engine) DeferPublication() (publish func()) {
	e.mu.Lock()
	e.deferPublish++
	e.mu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			e.mu.Lock()
			e.deferPublish--
			e.publish()
			e.mu.Unlock()
		})
	}
}

// StagedCatalog returns the current catalog including commits whose
// publication is deferred. Checkpoints snapshot this — not the published
// catalog — so a deferred change is captured by the very checkpoint that
// makes it durable.
func (e *Engine) StagedCatalog() *Catalog {
	e.mu.Lock()
	defer e.mu.Unlock()
	return &Catalog{
		tables:  e.snapshots[e.version],
		version: e.version,
		history: e.history,
	}
}

// Catalog returns the current published catalog, lock-free. The result is
// immutable: callers may run any number of reads against it and always
// observe the same whole schema version, regardless of concurrent SMOs.
func (e *Engine) Catalog() *Catalog {
	return e.published.Load()
}

func loadValuesFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	return lines, nil
}

// Register adds an externally built table (data loading) to the catalog,
// wrapped in a clean delta overlay.
func (e *Engine) Register(t *colstore.Table) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.tables[t.Name()]; exists {
		return fmt.Errorf("core: table %q already exists", t.Name())
	}
	e.tables[t.Name()] = delta.Wrap(t)
	e.snapshot()
	return nil
}

// Table returns the named table from the published catalog, lock-free.
func (e *Engine) Table(name string) (*colstore.Table, error) {
	return e.Catalog().Table(name)
}

// Tables returns the published catalog's table names, sorted, lock-free.
func (e *Engine) Tables() []string {
	return e.Catalog().Tables()
}

// Version returns the schema version, incremented by each applied SMO.
// Lock-free: it reads the published catalog.
func (e *Engine) Version() int {
	return e.Catalog().Version()
}

// History returns the executed-operator log. Lock-free: it reads the
// published catalog.
func (e *Engine) History() []HistoryEntry {
	return e.Catalog().History()
}

// Apply executes one SMO atomically: either the whole catalog change
// commits or the catalog is untouched.
//
// cods:stmt-dispatch — PRUNE is dispatched here by type assertion; every
// other statement kind falls through to execute's type switch. codslint
// (walreplay) checks the union covers every smo.Op implementer.
func (e *Engine) Apply(op smo.Op) (*Result, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	if p, ok := op.(smo.Prune); ok {
		// PRUNE is catalog bookkeeping, not a catalog change: it retires
		// rollback snapshots without producing a new schema version or a
		// history entry, so it flows through Exec/scripts/WAL replay like
		// any statement but leaves the version sequence untouched.
		res := &Result{Op: op, Version: e.version}
		n := e.pruneLocked(p.Keep)
		step := fmt.Sprintf("prune: %d versions retired; rollback window [%d, %d]", n, e.oldestRetained, e.version)
		res.Steps = append(res.Steps, step)
		if e.cfg.Status != nil {
			e.cfg.Status(step)
		}
		return res, nil
	}

	res := &Result{Op: op}
	opts := evolve.Options{
		ValidateFD: e.cfg.ValidateFD,
		Status: func(step string) {
			res.Steps = append(res.Steps, step)
			if e.cfg.Status != nil {
				e.cfg.Status(step)
			}
		},
	}

	start := time.Now()
	add, drop, err := e.execute(op, opts)
	if err != nil {
		return nil, fmt.Errorf("core: %s: %w", op.Kind(), err)
	}
	res.Elapsed = time.Since(start)

	// DML replaces a table's overlay under its own name: no catalog
	// create/drop to report, just the new version.
	dml := smo.IsDML(op)
	for _, name := range drop {
		delete(e.tables, name)
		res.Dropped = append(res.Dropped, name)
	}
	for _, ov := range add {
		e.tables[ov.Name()] = ov
		if !dml {
			res.Created = append(res.Created, ov.Name())
		}
	}
	e.version++
	res.Version = e.version
	e.history = append(e.history, HistoryEntry{
		Version: e.version,
		Op:      op.String(),
		Kind:    op.Kind(),
		Elapsed: res.Elapsed,
		Steps:   res.Steps,
	})
	e.snapshot()
	// Bounded-memory write path: a DML statement that left an overlay
	// past the pending-rows threshold triggers compaction now (readers
	// are unaffected — the same version republishes with the flushed
	// base), and the retention window is enforced after every commit, so
	// neither overlays nor rollback snapshots grow with statement count.
	if dml && e.cfg.AutoCompactPending > 0 {
		for _, ov := range add {
			pending := ov.PendingAdded() + int(ov.PendingDeleted())
			if pending < e.cfg.AutoCompactPending {
				continue
			}
			opts.Status(fmt.Sprintf("auto-compact: %s at %d pending rows (threshold %d)", ov.Name(), pending, e.cfg.AutoCompactPending))
			if err := e.compactTableLocked(ov.Name()); err != nil {
				// The statement is committed either way; a failed flush
				// just leaves the overlay pending for the next attempt.
				opts.Status(fmt.Sprintf("auto-compact failed (overlay stays pending): %v", err))
			}
			break
		}
	}
	if e.cfg.RetainVersions > 0 {
		e.pruneLocked(e.cfg.RetainVersions)
	}
	return res, nil
}

// Rollback restores the catalog to a previous schema version. The
// rollback itself is recorded as a new version; history is append-only.
// A version retired by the retention policy fails with a
// *VersionPrunedError naming the retained window; a version that never
// existed fails with a plain "no schema version" error — operators can
// tell a too-old target from a typo.
func (e *Engine) Rollback(version int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	snap, ok := e.snapshots[version]
	if !ok {
		if version >= 0 && version < e.oldestRetained {
			return &VersionPrunedError{Version: version, OldestRetained: e.oldestRetained, Newest: e.version}
		}
		return fmt.Errorf("core: no schema version %d (current: %d)", version, e.version)
	}
	restored := make(map[string]*delta.Overlay, len(snap))
	for k, v := range snap {
		restored[k] = v
	}
	e.tables = restored
	e.version++
	e.history = append(e.history, HistoryEntry{
		Version: e.version,
		Op:      fmt.Sprintf("ROLLBACK TO %d", version),
		Kind:    "ROLLBACK",
	})
	e.snapshot()
	if e.cfg.RetainVersions > 0 {
		e.pruneLocked(e.cfg.RetainVersions)
	}
	return nil
}

// ApplyScript executes a sequence of operators, stopping at the first
// failure.
func (e *Engine) ApplyScript(ops []smo.Op) ([]*Result, error) {
	var results []*Result
	for _, op := range ops {
		r, err := e.Apply(op)
		if err != nil {
			return results, err
		}
		results = append(results, r)
	}
	return results, nil
}

// overlay looks a table's delta overlay up in the writer-side working
// set, under the already-held lock.
func (e *Engine) overlay(name string) (*delta.Overlay, error) {
	if ov, ok := e.tables[name]; ok {
		return ov, nil
	}
	return nil, fmt.Errorf("%w %q", ErrNoTable, name)
}

// wrap boxes operator outputs as clean overlays for the catalog.
func (e *Engine) wrap(ts ...*colstore.Table) []*delta.Overlay {
	out := make([]*delta.Overlay, len(ts))
	for i, t := range ts {
		out[i] = delta.Wrap(t)
	}
	return out
}

// wrapEvolved boxes segment-mapped evolution outputs, first running each
// through the tiered merge policy: operators emit one output segment per
// contributing input segment, so without this an evolution chain would
// balloon the segment count. The same policy as post-flush merging
// applies.
func (e *Engine) wrapEvolved(ts ...*colstore.Table) ([]*delta.Overlay, error) {
	out := make([]*delta.Overlay, len(ts))
	for i, t := range ts {
		mt, err := e.mergeAfterFlush(t)
		if err != nil {
			return nil, err
		}
		out[i] = delta.Wrap(mt)
	}
	return out, nil
}

// mergeAfterFlush applies the tiered merge policy (a tail run of segments
// is folded together whenever a segment is at most twice the rows behind
// it, see colstore.MergeTailPlan) to a freshly flushed table, running the
// merge inline and returning the merged table. Segment counts stay
// logarithmic and per-row rewrite work amortized O(log n).
func (e *Engine) mergeAfterFlush(t *colstore.Table) (*colstore.Table, error) {
	if t.NumSegments() < 2 {
		return t, nil
	}
	nt, err := t.CompactSegments()
	if err != nil {
		return nil, err
	}
	if nt != t {
		e.merges.Add(1)
	}
	return nt, nil
}

// SegmentMerges reports how many tiered segment merges have been applied
// since the engine started.
func (e *Engine) SegmentMerges() uint64 { return e.merges.Load() }

// Compact replaces every dirty overlay of the current version with its
// flushed base, republishing the same schema version (the tuple sets are
// identical — only the physical representation changes), and enforces
// the configured retention window. Checkpoint calls it after persisting
// a snapshot: the snapshot wrote the flushed tables, so keeping the
// in-memory deltas would let them grow without bound across truncations
// of the WAL that journaled them.
func (e *Engine) Compact() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cfg.RetainVersions > 0 {
		e.pruneLocked(e.cfg.RetainVersions)
	}
	return e.compactLocked()
}

// compactTableLocked retires one table's overlay, republishing the same
// version. Auto-compaction uses it instead of compactLocked so a hot
// table crossing the threshold never drags an unrelated table's (large,
// barely dirty) rebuild along — flush-everything is a checkpoint
// concern. e.tables is the writer-private working map (snapshots store
// copies), so the in-place entry swap is safe under the mutex.
func (e *Engine) compactTableLocked(name string) error {
	ov, ok := e.tables[name]
	if !ok || !ov.Dirty() {
		return nil
	}
	t, err := ov.Table()
	if err != nil {
		return err
	}
	if t, err = e.mergeAfterFlush(t); err != nil {
		return err
	}
	e.tables[name] = delta.Wrap(t)
	e.compactions.Add(1)
	e.snapshot()
	return nil
}

// compactLocked implements Compact under the writer mutex.
func (e *Engine) compactLocked() error {
	dirty := false
	for _, ov := range e.tables {
		if ov.Dirty() {
			dirty = true
			break
		}
	}
	if !dirty {
		return nil
	}
	compacted := make(map[string]*delta.Overlay, len(e.tables))
	for name, ov := range e.tables {
		if !ov.Dirty() {
			compacted[name] = ov
			continue
		}
		t, err := ov.Table()
		if err != nil {
			return err
		}
		if t, err = e.mergeAfterFlush(t); err != nil {
			return err
		}
		compacted[name] = delta.Wrap(t)
	}
	e.tables = compacted
	e.compactions.Add(1)
	// snapshot() re-freezes the working set under the current version
	// and republishes — same code path as a commit, so the "stored maps
	// are distinct from the writer working set" invariant lives in one
	// place. The version number is unchanged; only the representation
	// is.
	e.snapshot()
	return nil
}

// ensureFree fails when an output name is taken and not about to be
// dropped.
func (e *Engine) ensureFree(name string, dropping ...string) error {
	if _, exists := e.tables[name]; !exists {
		return nil
	}
	for _, d := range dropping {
		if d == name {
			return nil
		}
	}
	return fmt.Errorf("table %q already exists", name)
}

// execute computes an operator's outputs without touching the catalog.
// Evolution operators read tables through get, which flushes any pending
// DML into the base first — the delta overlay is an artifact of the write
// path, and the paper's algorithms must see one plain table. DML
// statements instead derive a new overlay from the current one.
//
// cods:stmt-dispatch — the main statement type switch; together with
// Apply's PRUNE assertion it must cover every smo.Op implementer, and
// codslint (walreplay) fails the build when a new operator is missing,
// so a statement can never parse from the WAL yet be unreplayable.
func (e *Engine) execute(op smo.Op, opts evolve.Options) (add []*delta.Overlay, drop []string, err error) {
	get := func(name string) (*colstore.Table, error) {
		ov, err := e.overlay(name)
		if err != nil {
			return nil, err
		}
		if ov.Dirty() {
			opts.Status(fmt.Sprintf("delta flush: %s (+%d appended, -%d deleted)",
				name, ov.PendingAdded(), ov.PendingDeleted()))
		}
		return ov.Table()
	}

	switch o := op.(type) {
	case smo.Insert:
		ov, err := e.overlay(o.Table)
		if err != nil {
			return nil, nil, err
		}
		nov, err := ov.Insert(o.Values)
		if err != nil {
			return nil, nil, err
		}
		opts.Status(fmt.Sprintf("insert: 1 row appended to delta overlay (%d pending)", nov.PendingAdded()))
		return []*delta.Overlay{nov}, nil, nil

	case smo.Delete:
		ov, err := e.overlay(o.Table)
		if err != nil {
			return nil, nil, err
		}
		nov, n, err := ov.Delete(o.Where)
		if err != nil {
			return nil, nil, err
		}
		opts.Status(fmt.Sprintf("delete: %d rows marked in deletion bitmap", n))
		return []*delta.Overlay{nov}, nil, nil

	case smo.Update:
		ov, err := e.overlay(o.Table)
		if err != nil {
			return nil, nil, err
		}
		nov, n, err := ov.Update(o.Column, o.Value, o.Where)
		if err != nil {
			return nil, nil, err
		}
		opts.Status(fmt.Sprintf("update: %d rows rewritten through delta overlay", n))
		return []*delta.Overlay{nov}, nil, nil

	case smo.CreateTable:
		if err := e.ensureFree(o.Table); err != nil {
			return nil, nil, err
		}
		tb, err := colstore.NewTableBuilder(o.Table, o.Columns, o.Key)
		if err != nil {
			return nil, nil, err
		}
		t, err := tb.Finish()
		if err != nil {
			return nil, nil, err
		}
		return e.wrap(t), nil, nil

	case smo.DropTable:
		// Existence check only — flushing a table about to be dropped
		// would be wasted work.
		if _, err := e.overlay(o.Table); err != nil {
			return nil, nil, err
		}
		return nil, []string{o.Table}, nil

	case smo.RenameTable:
		// Metadata-only: the overlay (pending DML included) carries over
		// under the new name, no flush.
		ov, err := e.overlay(o.From)
		if err != nil {
			return nil, nil, err
		}
		if err := e.ensureFree(o.To, o.From); err != nil {
			return nil, nil, err
		}
		return []*delta.Overlay{ov.WithName(o.To)}, []string{o.From}, nil

	case smo.CopyTable:
		t, err := get(o.From)
		if err != nil {
			return nil, nil, err
		}
		if err := e.ensureFree(o.To); err != nil {
			return nil, nil, err
		}
		out, err := evolve.Copy(t, o.To, opts)
		if err != nil {
			return nil, nil, err
		}
		return e.wrap(out), nil, nil

	case smo.UnionTables:
		a, err := get(o.A)
		if err != nil {
			return nil, nil, err
		}
		b, err := get(o.B)
		if err != nil {
			return nil, nil, err
		}
		if err := e.ensureFree(o.Out, o.A, o.B); err != nil {
			return nil, nil, err
		}
		u, err := evolve.Union(a, b, o.Out, opts)
		if err != nil {
			return nil, nil, err
		}
		add, err := e.wrapEvolved(u)
		if err != nil {
			return nil, nil, err
		}
		return add, []string{o.A, o.B}, nil

	case smo.PartitionTable:
		t, err := get(o.Table)
		if err != nil {
			return nil, nil, err
		}
		if err := e.ensureFree(o.OutYes, o.Table); err != nil {
			return nil, nil, err
		}
		if err := e.ensureFree(o.OutNo, o.Table); err != nil {
			return nil, nil, err
		}
		if o.OutYes == o.OutNo {
			return nil, nil, fmt.Errorf("partition outputs must differ")
		}
		yes, no, err := evolve.Partition(t, o.Condition, o.OutYes, o.OutNo, opts)
		if err != nil {
			return nil, nil, err
		}
		add, err := e.wrapEvolved(yes, no)
		if err != nil {
			return nil, nil, err
		}
		return add, []string{o.Table}, nil

	case smo.DecomposeTable:
		t, err := get(o.Table)
		if err != nil {
			return nil, nil, err
		}
		if err := e.ensureFree(o.OutS, o.Table); err != nil {
			return nil, nil, err
		}
		if err := e.ensureFree(o.OutT, o.Table); err != nil {
			return nil, nil, err
		}
		res, err := evolve.Decompose(t, evolve.DecomposeSpec{
			OutS: o.OutS, SColumns: o.SColumns,
			OutT: o.OutT, TColumns: o.TColumns,
		}, opts)
		if err != nil {
			return nil, nil, err
		}
		add, err := e.wrapEvolved(res.S, res.T)
		if err != nil {
			return nil, nil, err
		}
		return add, []string{o.Table}, nil

	case smo.MergeTables:
		a, err := get(o.A)
		if err != nil {
			return nil, nil, err
		}
		b, err := get(o.B)
		if err != nil {
			return nil, nil, err
		}
		if err := e.ensureFree(o.Out, o.A, o.B); err != nil {
			return nil, nil, err
		}
		res, err := evolve.Merge(a, b, o.Out, opts)
		if err != nil {
			return nil, nil, err
		}
		add, err := e.wrapEvolved(res.Table)
		if err != nil {
			return nil, nil, err
		}
		return add, []string{o.A, o.B}, nil

	case smo.AddColumn:
		t, err := get(o.Table)
		if err != nil {
			return nil, nil, err
		}
		var nt *colstore.Table
		if o.ValuesFile != "" {
			values, err := loadValuesFile(o.ValuesFile)
			if err != nil {
				return nil, nil, fmt.Errorf("loading column values: %w", err)
			}
			nt, err = evolve.AddColumnValues(t, o.Column, values, opts)
			if err != nil {
				return nil, nil, err
			}
		} else {
			nt, err = evolve.AddColumnDefault(t, o.Column, o.Default, opts)
			if err != nil {
				return nil, nil, err
			}
		}
		return e.wrap(nt), []string{o.Table}, nil

	case smo.DropColumn:
		t, err := get(o.Table)
		if err != nil {
			return nil, nil, err
		}
		nt, err := evolve.DropColumn(t, o.Column, opts)
		if err != nil {
			return nil, nil, err
		}
		return e.wrap(nt), []string{o.Table}, nil

	case smo.RenameColumn:
		t, err := get(o.Table)
		if err != nil {
			return nil, nil, err
		}
		nt, err := t.WithColumnRenamed(o.From, o.To)
		if err != nil {
			return nil, nil, err
		}
		return e.wrap(nt), []string{o.Table}, nil

	case smo.Select:
		// Read-only: a query mutates nothing, so it has no business in
		// the mutation path (or the WAL, which this dispatch replays).
		// Apply fails before journaling; the facade routes SELECT text
		// to the planner instead.
		return nil, nil, fmt.Errorf("SELECT is read-only; run it through the query API, not Apply")
	}
	return nil, nil, fmt.Errorf("unsupported operator %T", op)
}
