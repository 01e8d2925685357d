package cods

import (
	"errors"
	"fmt"
	"sort"
)

// ErrVersionPruned matches (via errors.Is) Rollback failures against a
// schema version the retention policy (Config.RetainVersions, Prune, or
// the PRUNE statement) already retired. The concrete error is a
// *VersionPrunedError naming the retained rollback window — distinct
// from the plain "no schema version" error a version that never existed
// produces.
var ErrVersionPruned = errors.New("schema version pruned by retention")

// VersionPrunedError is the concrete error behind ErrVersionPruned: the
// requested version plus the inclusive [OldestRetained, Newest] window
// Rollback can still reach.
type VersionPrunedError struct {
	// Version is the requested (pruned) schema version.
	Version int
	// OldestRetained and Newest bound the retained rollback window,
	// inclusive.
	OldestRetained int
	Newest         int
}

func (e *VersionPrunedError) Error() string {
	return fmt.Sprintf("cods: schema version %d pruned by retention; retained rollback window is [%d, %d]",
		e.Version, e.OldestRetained, e.Newest)
}

// Is makes errors.Is(err, ErrVersionPruned) match.
func (e *VersionPrunedError) Is(target error) bool { return target == ErrVersionPruned }

// Prune retires rollback snapshots, keeping the current schema version
// plus its keepLast predecessors, and returns how many versions it
// retired. It is the explicit form of Config.RetainVersions (which
// enforces the same window automatically after every statement) and of
// the PRUNE KEEP n statement. Rollback to a retired version fails with
// ErrVersionPruned from then on — pruning is deliberate forgetting,
// never undone by a later wider setting. Published snapshots, running
// readers and the history log are unaffected: pruning frees the table
// maps (and the flushed tables and overlays only those versions pinned),
// not the operator record. Pruning is in-memory bookkeeping: on a
// durable database it is not journaled — recovery rebuilds the version
// sequence from snapshot plus log anyway.
func (db *DB) Prune(keepLast int) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.pruneLocked(keepLast)
}

// pruneLocked implements Prune under the writer lock.
func (db *DB) pruneLocked(keepLast int) int {
	if keepLast < 0 {
		keepLast = 0
	}
	oldest := db.version - keepLast
	if oldest <= db.oldestRetained {
		return 0
	}
	pruned := 0
	for v := db.oldestRetained; v < oldest; v++ {
		if _, ok := db.snapshots[v]; ok {
			delete(db.snapshots, v)
			pruned++
		}
	}
	db.oldestRetained = oldest
	db.retained.Store(int64(len(db.snapshots)))
	db.oldestGauge.Store(int64(oldest))
	return pruned
}

// MemStats is a lock-free gauge snapshot of the write path's
// memory-pressure sources: how many schema versions are retained for
// Rollback, how many delta-overlay rows are pending compaction in the
// published catalog, how many compactions and segment merges have run,
// and each table's segment layout. Operators poll it (GET /stats serves
// it as its "memory" object, hence the JSON tags) to watch retention and
// auto-compaction work.
type MemStats struct {
	// RetainedVersions counts catalog snapshots currently kept for
	// Rollback (the current version included).
	RetainedVersions int `json:"retained_versions"`
	// OldestRetainedVersion is the oldest schema version Rollback can
	// restore.
	OldestRetainedVersion int `json:"oldest_retained_version"`
	// PendingRows totals appended rows plus deletion marks across every
	// table's delta overlay in the published catalog.
	PendingRows uint64 `json:"pending_rows"`
	// Compactions counts overlay compactions (explicit, checkpoint, or
	// automatic) since the database was opened.
	Compactions uint64 `json:"compactions"`
	// SegmentMerges counts tiered segment merges since the database was
	// opened (post-flush and post-evolution).
	SegmentMerges uint64 `json:"segment_merges"`
	// Tables holds per-table segment gauges for the published catalog,
	// sorted by table name.
	Tables []TableSegments `json:"tables"`
}

// TableSegments is one table's segment-layout gauge in MemStats: how
// many base segments it holds and how skewed their row counts are. A
// segment count that keeps growing (or a tiny MinRows against a huge
// MaxRows outside the normal tiered layout) means the merge policy is
// not keeping up.
type TableSegments struct {
	// Table is the table name.
	Table string `json:"table"`
	// Segments is the number of base segments.
	Segments int `json:"segments"`
	// MinRows and MaxRows bound the per-segment row counts. Both are 0
	// for an empty table.
	MinRows uint64 `json:"min_rows"`
	MaxRows uint64 `json:"max_rows"`
}

// MemStats returns the current memory-pressure gauges. It is lock-free —
// the counters are atomics and the per-table segment gauges read each
// overlay's immutable base from the published catalog — so it answers
// even while an evolution or checkpoint holds the write path.
// cods:lockfree
func (db *DB) MemStats() MemStats {
	ms := MemStats{
		RetainedVersions:      int(db.retained.Load()),
		OldestRetainedVersion: int(db.oldestGauge.Load()),
		Compactions:           db.compactions.Load(),
		SegmentMerges:         db.merges.Load(),
	}
	for name, ov := range db.Snapshot().tables {
		ms.PendingRows += uint64(ov.PendingAdded()) + ov.PendingDeleted()
		ts := TableSegments{Table: name}
		rows := ov.Base().SegmentRows()
		ts.Segments = len(rows)
		for _, r := range rows {
			if ts.MinRows == 0 || r < ts.MinRows {
				ts.MinRows = r
			}
			if r > ts.MaxRows {
				ts.MaxRows = r
			}
		}
		ms.Tables = append(ms.Tables, ts)
	}
	sort.Slice(ms.Tables, func(i, j int) bool { return ms.Tables[i].Table < ms.Tables[j].Table })
	return ms
}
