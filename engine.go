package cods

import (
	"fmt"
	"os"
	"strings"
	"time"

	"cods/internal/colstore"
	"cods/internal/delta"
	"cods/internal/evolve"
	"cods/internal/smo"
)

// The engine: the writer side of the catalog. Every method here runs
// with db.mu held (or before the DB is shared, while Open* builds it). A
// change is staged — the working set recorded as the catalog of its
// schema version — and becomes visible to readers only when the write
// method that made it publishes on exit.

// stageLocked records the working set as the catalog of the current
// version. The stored map is a copy, so later writes to db.tables never
// reach a staged or published catalog.
func (db *DB) stageLocked() {
	copied := make(map[string]*delta.Overlay, len(db.tables))
	for k, v := range db.tables {
		copied[k] = v
	}
	db.snapshots[db.version] = copied
	db.retained.Store(int64(len(db.snapshots)))
}

// stagedLocked returns the current version as an immutable Snapshot,
// published or not. Checkpoints persist it: a checkpoint is what makes a
// not yet published change durable, so it must capture that change.
func (db *DB) stagedLocked() *Snapshot {
	return &Snapshot{tables: db.snapshots[db.version], version: db.version, history: db.history}
}

// publish swaps the staged catalog in as the one readers see. Each write
// method defers it right after taking db.mu, so its change becomes
// visible exactly once, on return: on a durable DB after the WAL append
// or checkpoint made it durable — and also when that failed, since the
// change is then live in memory by contract, just not durable.
func (db *DB) publish() {
	db.published.Store(db.stagedLocked())
}

// registerLocked adds an externally built table (data loading) to the
// catalog, wrapped in a clean delta overlay, under the current version.
func (db *DB) registerLocked(t *colstore.Table) error {
	if _, exists := db.tables[t.Name()]; exists {
		return fmt.Errorf("cods: table %q already exists", t.Name())
	}
	db.tables[t.Name()] = delta.Wrap(t)
	db.stageLocked()
	return nil
}

// applyLocked executes one SMO atomically: either the whole catalog
// change is staged or the catalog is untouched.
//
// cods:stmt-dispatch — PRUNE is dispatched here by type assertion; every
// other statement kind falls through to execute's type switch. codslint
// (walreplay) checks the union covers every smo.Op implementer.
func (db *DB) applyLocked(op smo.Op) (*Result, error) {
	if p, ok := op.(smo.Prune); ok {
		// PRUNE is catalog bookkeeping, not a catalog change: it retires
		// rollback snapshots without producing a new schema version or a
		// history entry, so it flows through Exec/scripts/WAL replay like
		// any statement but leaves the version sequence untouched.
		res := &Result{Op: op.String(), Kind: op.Kind(), Version: db.version}
		n := db.pruneLocked(p.Keep)
		step := fmt.Sprintf("prune: %d versions retired; rollback window [%d, %d]", n, db.oldestRetained, db.version)
		res.Steps = append(res.Steps, step)
		if db.cfg.Status != nil {
			db.cfg.Status(step)
		}
		return res, nil
	}

	res := &Result{Op: op.String(), Kind: op.Kind()}
	opts := evolve.Options{
		ValidateFD: db.cfg.ValidateFD,
		Status: func(step string) {
			res.Steps = append(res.Steps, step)
			if db.cfg.Status != nil {
				db.cfg.Status(step)
			}
		},
	}

	start := time.Now()
	add, drop, err := db.execute(op, opts)
	if err != nil {
		return nil, fmt.Errorf("cods: %s: %w", op.Kind(), err)
	}
	res.Elapsed = time.Since(start)

	// DML replaces a table's overlay under its own name: no catalog
	// create/drop to report, just the new version.
	dml := smo.IsDML(op)
	for _, name := range drop {
		delete(db.tables, name)
		res.Dropped = append(res.Dropped, name)
	}
	for _, ov := range add {
		db.tables[ov.Name()] = ov
		if !dml {
			res.Created = append(res.Created, ov.Name())
		}
	}
	db.version++
	res.Version = db.version
	db.history = append(db.history, HistoryEntry{
		Version: db.version,
		Op:      res.Op,
		Kind:    res.Kind,
		Elapsed: res.Elapsed,
		Steps:   res.Steps,
	})
	db.stageLocked()
	// Bounded-memory write path: a DML statement that left an overlay
	// past the pending-rows threshold triggers compaction now (the same
	// version restages with the flushed base), and the retention window
	// is enforced after every commit, so neither overlays nor rollback
	// snapshots grow with statement count.
	if dml && db.cfg.AutoCompactPending > 0 {
		for _, ov := range add {
			pending := ov.PendingAdded() + int(ov.PendingDeleted())
			if pending < db.cfg.AutoCompactPending {
				continue
			}
			opts.Status(fmt.Sprintf("auto-compact: %s at %d pending rows (threshold %d)", ov.Name(), pending, db.cfg.AutoCompactPending))
			if err := db.compactTableLocked(ov.Name()); err != nil {
				// The statement is committed either way; a failed flush
				// just leaves the overlay pending for the next attempt.
				opts.Status(fmt.Sprintf("auto-compact failed (overlay stays pending): %v", err))
			}
			break
		}
	}
	if db.cfg.RetainVersions > 0 {
		db.pruneLocked(db.cfg.RetainVersions)
	}
	return res, nil
}

// rollbackLocked restores the catalog to a previous schema version. The
// rollback itself is recorded as a new version; history is append-only.
// A version retired by the retention policy fails with a
// *VersionPrunedError naming the retained window; a version that never
// existed fails with a plain "no schema version" error — operators can
// tell a too-old target from a typo.
func (db *DB) rollbackLocked(version int) error {
	snap, ok := db.snapshots[version]
	if !ok {
		if version >= 0 && version < db.oldestRetained {
			return &VersionPrunedError{Version: version, OldestRetained: db.oldestRetained, Newest: db.version}
		}
		return fmt.Errorf("cods: no schema version %d (current: %d)", version, db.version)
	}
	restored := make(map[string]*delta.Overlay, len(snap))
	for k, v := range snap {
		restored[k] = v
	}
	db.tables = restored
	db.version++
	db.history = append(db.history, HistoryEntry{
		Version: db.version,
		Op:      fmt.Sprintf("ROLLBACK TO %d", version),
		Kind:    "ROLLBACK",
	})
	db.stageLocked()
	if db.cfg.RetainVersions > 0 {
		db.pruneLocked(db.cfg.RetainVersions)
	}
	return nil
}

// compactLocked enforces the configured retention window, then replaces
// every dirty overlay of the current version with its flushed base,
// restaging the same schema version (the tuple sets are identical — only
// the physical representation changes).
func (db *DB) compactLocked() error {
	if db.cfg.RetainVersions > 0 {
		db.pruneLocked(db.cfg.RetainVersions)
	}
	dirty := false
	for _, ov := range db.tables {
		if ov.Dirty() {
			dirty = true
			break
		}
	}
	if !dirty {
		return nil
	}
	compacted := make(map[string]*delta.Overlay, len(db.tables))
	for name, ov := range db.tables {
		if !ov.Dirty() {
			compacted[name] = ov
			continue
		}
		t, err := ov.Table()
		if err != nil {
			return err
		}
		if t, err = db.mergeAfterFlush(t); err != nil {
			return err
		}
		compacted[name] = delta.Wrap(t)
	}
	db.tables = compacted
	db.compactions.Add(1)
	db.stageLocked()
	return nil
}

// compactTableLocked retires one table's overlay, restaging the same
// version. Auto-compaction uses it instead of compactLocked so a hot
// table crossing the threshold never drags an unrelated table's (large,
// barely dirty) rebuild along — flush-everything is a checkpoint
// concern. db.tables is the writer-private working map (staged catalogs
// hold copies), so the in-place entry swap is safe.
func (db *DB) compactTableLocked(name string) error {
	ov, ok := db.tables[name]
	if !ok || !ov.Dirty() {
		return nil
	}
	t, err := ov.Table()
	if err != nil {
		return err
	}
	if t, err = db.mergeAfterFlush(t); err != nil {
		return err
	}
	db.tables[name] = delta.Wrap(t)
	db.compactions.Add(1)
	db.stageLocked()
	return nil
}

// mergeAfterFlush applies the tiered merge policy (a tail run of segments
// is folded together whenever a segment is at most twice the rows behind
// it, see colstore.MergeTailPlan) to a freshly flushed or evolved table,
// running the merge inline and returning the merged table. Segment
// counts stay logarithmic and per-row rewrite work amortized O(log n).
func (db *DB) mergeAfterFlush(t *colstore.Table) (*colstore.Table, error) {
	if t.NumSegments() < 2 {
		return t, nil
	}
	nt, err := t.CompactSegments()
	if err != nil {
		return nil, err
	}
	if nt != t {
		db.merges.Add(1)
	}
	return nt, nil
}

// wrap boxes operator outputs as clean overlays for the catalog.
func wrap(ts ...*colstore.Table) []*delta.Overlay {
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
func (db *DB) wrapEvolved(ts ...*colstore.Table) ([]*delta.Overlay, error) {
	out := make([]*delta.Overlay, len(ts))
	for i, t := range ts {
		mt, err := db.mergeAfterFlush(t)
		if err != nil {
			return nil, err
		}
		out[i] = delta.Wrap(mt)
	}
	return out, nil
}

// overlay looks a table's delta overlay up in the writer-side working
// set.
func (db *DB) overlay(name string) (*delta.Overlay, error) {
	if ov, ok := db.tables[name]; ok {
		return ov, nil
	}
	return nil, fmt.Errorf("%w %q", ErrNoTable, name)
}

// ensureFree fails when an output name is taken and not about to be
// dropped.
func (db *DB) ensureFree(name string, dropping ...string) error {
	if _, exists := db.tables[name]; !exists {
		return nil
	}
	for _, d := range dropping {
		if d == name {
			return nil
		}
	}
	return fmt.Errorf("table %q already exists", name)
}

func loadValuesFile(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	return lines, nil
}

// execute computes an operator's outputs without touching the catalog.
// Evolution operators read tables through get, which flushes any pending
// DML into the base first — the delta overlay is an artifact of the write
// path, and the paper's algorithms must see one plain table. DML
// statements instead derive a new overlay from the current one.
//
// cods:stmt-dispatch — the main statement type switch; together with
// applyLocked's PRUNE assertion it must cover every smo.Op implementer,
// and codslint (walreplay) fails the build when a new operator is
// missing, so a statement can never parse from the WAL yet be
// unreplayable.
func (db *DB) execute(op smo.Op, opts evolve.Options) (add []*delta.Overlay, drop []string, err error) {
	get := func(name string) (*colstore.Table, error) {
		ov, err := db.overlay(name)
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
		ov, err := db.overlay(o.Table)
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
		ov, err := db.overlay(o.Table)
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
		ov, err := db.overlay(o.Table)
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
		if err := db.ensureFree(o.Table); err != nil {
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
		return wrap(t), nil, nil

	case smo.DropTable:
		// Existence check only — flushing a table about to be dropped
		// would be wasted work.
		if _, err := db.overlay(o.Table); err != nil {
			return nil, nil, err
		}
		return nil, []string{o.Table}, nil

	case smo.RenameTable:
		// Metadata-only: the overlay (pending DML included) carries over
		// under the new name, no flush.
		ov, err := db.overlay(o.From)
		if err != nil {
			return nil, nil, err
		}
		if err := db.ensureFree(o.To, o.From); err != nil {
			return nil, nil, err
		}
		return []*delta.Overlay{ov.WithName(o.To)}, []string{o.From}, nil

	case smo.CopyTable:
		t, err := get(o.From)
		if err != nil {
			return nil, nil, err
		}
		if err := db.ensureFree(o.To); err != nil {
			return nil, nil, err
		}
		out, err := evolve.Copy(t, o.To, opts)
		if err != nil {
			return nil, nil, err
		}
		return wrap(out), nil, nil

	case smo.UnionTables:
		a, err := get(o.A)
		if err != nil {
			return nil, nil, err
		}
		b, err := get(o.B)
		if err != nil {
			return nil, nil, err
		}
		if err := db.ensureFree(o.Out, o.A, o.B); err != nil {
			return nil, nil, err
		}
		u, err := evolve.Union(a, b, o.Out, opts)
		if err != nil {
			return nil, nil, err
		}
		add, err := db.wrapEvolved(u)
		if err != nil {
			return nil, nil, err
		}
		return add, []string{o.A, o.B}, nil

	case smo.PartitionTable:
		t, err := get(o.Table)
		if err != nil {
			return nil, nil, err
		}
		if err := db.ensureFree(o.OutYes, o.Table); err != nil {
			return nil, nil, err
		}
		if err := db.ensureFree(o.OutNo, o.Table); err != nil {
			return nil, nil, err
		}
		if o.OutYes == o.OutNo {
			return nil, nil, fmt.Errorf("partition outputs must differ")
		}
		yes, no, err := evolve.Partition(t, o.Condition, o.OutYes, o.OutNo, opts)
		if err != nil {
			return nil, nil, err
		}
		add, err := db.wrapEvolved(yes, no)
		if err != nil {
			return nil, nil, err
		}
		return add, []string{o.Table}, nil

	case smo.DecomposeTable:
		t, err := get(o.Table)
		if err != nil {
			return nil, nil, err
		}
		if err := db.ensureFree(o.OutS, o.Table); err != nil {
			return nil, nil, err
		}
		if err := db.ensureFree(o.OutT, o.Table); err != nil {
			return nil, nil, err
		}
		res, err := evolve.Decompose(t, evolve.DecomposeSpec{
			OutS: o.OutS, SColumns: o.SColumns,
			OutT: o.OutT, TColumns: o.TColumns,
		}, opts)
		if err != nil {
			return nil, nil, err
		}
		add, err := db.wrapEvolved(res.S, res.T)
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
		if err := db.ensureFree(o.Out, o.A, o.B); err != nil {
			return nil, nil, err
		}
		res, err := evolve.Merge(a, b, o.Out, opts)
		if err != nil {
			return nil, nil, err
		}
		add, err := db.wrapEvolved(res.Table)
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
		return wrap(nt), []string{o.Table}, nil

	case smo.DropColumn:
		t, err := get(o.Table)
		if err != nil {
			return nil, nil, err
		}
		nt, err := evolve.DropColumn(t, o.Column, opts)
		if err != nil {
			return nil, nil, err
		}
		return wrap(nt), []string{o.Table}, nil

	case smo.RenameColumn:
		t, err := get(o.Table)
		if err != nil {
			return nil, nil, err
		}
		nt, err := t.WithColumnRenamed(o.From, o.To)
		if err != nil {
			return nil, nil, err
		}
		return wrap(nt), []string{o.Table}, nil

	case smo.Select:
		// Read-only: a query mutates nothing, so it has no business in
		// the mutation path (or the WAL, which this dispatch replays).
		// Exec fails before journaling; Select and RunQuery route queries
		// to the planner instead.
		return nil, nil, fmt.Errorf("SELECT is read-only; run it through the query API, not Exec")
	}
	return nil, nil, fmt.Errorf("unsupported operator %T", op)
}
