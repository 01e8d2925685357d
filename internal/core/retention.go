package core

import (
	"errors"
	"fmt"
	"sort"
)

// ErrVersionPruned matches (via errors.Is) Rollback failures against a
// schema version that existed but was retired by the retention policy —
// distinct from a version that never existed. The concrete error is a
// *VersionPrunedError naming the retained window.
var ErrVersionPruned = errors.New("schema version pruned by retention")

// VersionPrunedError reports a Rollback to a version the retention
// policy already retired, naming the window that is still available. It
// matches ErrVersionPruned via errors.Is.
type VersionPrunedError struct {
	// Version is the requested (pruned) schema version.
	Version int
	// OldestRetained and Newest bound the retained rollback window,
	// inclusive.
	OldestRetained int
	Newest         int
}

func (e *VersionPrunedError) Error() string {
	return fmt.Sprintf("core: schema version %d pruned by retention; retained rollback window is [%d, %d]",
		e.Version, e.OldestRetained, e.Newest)
}

// Is makes errors.Is(err, ErrVersionPruned) match.
func (e *VersionPrunedError) Is(target error) bool { return target == ErrVersionPruned }

// Prune retires catalog snapshots older than the last keepLast versions,
// shrinking the retained rollback window to [version-keepLast, version]
// (the current version plus keepLast predecessors). It returns how many
// snapshots were retired. Rollback to a retired version fails with a
// *VersionPrunedError from then on — pruning is deliberate forgetting,
// never undone by a later wider setting. Published catalogs, running
// readers and the history log are unaffected: pruning frees the table
// maps (and the flushed tables and overlays only those versions pinned),
// not the operator record.
func (e *Engine) Prune(keepLast int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pruneLocked(keepLast)
}

// pruneLocked implements Prune under the writer mutex.
func (e *Engine) pruneLocked(keepLast int) int {
	if keepLast < 0 {
		keepLast = 0
	}
	oldest := e.version - keepLast
	if oldest <= e.oldestRetained {
		return 0
	}
	pruned := 0
	for v := e.oldestRetained; v < oldest; v++ {
		if _, ok := e.snapshots[v]; ok {
			delete(e.snapshots, v)
			pruned++
		}
	}
	e.oldestRetained = oldest
	e.retained.Store(int64(len(e.snapshots)))
	e.oldestGauge.Store(int64(oldest))
	return pruned
}

// MemStats is a lock-free gauge snapshot of the engine's memory-pressure
// sources: how many catalog versions are retained for Rollback, how many
// delta-overlay rows are pending compaction in the published catalog,
// and how many compactions and segment merges have run. Safe to call at
// any time — it never takes the writer mutex, so GET /stats (which
// serves it as its "memory" object, hence the JSON tags) answers even
// while an evolution or checkpoint is mid-operator.
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
	// automatic) since the engine started.
	Compactions uint64 `json:"compactions"`
	// SegmentMerges counts tiered segment merges since the engine started
	// (post-flush and post-evolution).
	SegmentMerges uint64 `json:"segment_merges"`
	// Tables holds per-table segment gauges for the published catalog,
	// sorted by table name.
	Tables []TableSegments `json:"tables"`
}

// TableSegments is one table's segment-layout gauge: how many base
// segments it holds and how skewed their sizes are. A segment count that
// keeps growing (or a tiny MinRows against a huge MaxRows outside the
// normal tiered layout) means the merge policy is not keeping up.
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

// MemStats returns the current memory-pressure gauges, lock-free: the
// per-table segment gauges read each overlay's immutable base from the
// published catalog, so no writer lock is needed even mid-evolution.
func (e *Engine) MemStats() MemStats {
	ms := MemStats{
		RetainedVersions:      int(e.retained.Load()),
		OldestRetainedVersion: int(e.oldestGauge.Load()),
		Compactions:           e.compactions.Load(),
		SegmentMerges:         e.merges.Load(),
	}
	cat := e.Catalog()
	for name, ov := range cat.tables {
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
