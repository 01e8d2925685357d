// Package delta implements the DML overlay that makes tables writable
// without giving up the immutable bitmap-indexed column store: each table
// in the catalog is a base colstore.Table (never mutated) plus an Overlay
// of appended rows and a deletion bitmap over the base. INSERT appends to
// the overlay, DELETE marks base rows in the bitmap (and drops appended
// rows), UPDATE is delete-plus-reinsert of the changed rows. Every DML
// statement produces a new Overlay value (copy-on-write), so the engine's
// published catalog snapshots stay immutable and lock-free readers keep
// working unchanged while writes commit.
//
// Every data read goes through Table (NumRows alone is arithmetic over
// the overlay), which flushes the overlay into a rebuilt base — computed at most once per overlay version and cached —
// and the planner (internal/plan) runs on that table's bitmap index. So
// a query, an evolution operator and a checkpoint "compacting the delta"
// share one code path. The overlay itself never answers a read; it
// evaluates predicates only to find the rows a DELETE or UPDATE hits
// (bitmaps over the base, masked by deletions with one compressed
// AND-NOT, plus a row-wise scan of the small appended tail). Schema
// Modification Operators always consume the flushed table, which keeps
// the paper's evolution algorithms oblivious to DML.
package delta

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"cods/internal/colstore"
	"cods/internal/expr"
	"cods/internal/par"
	"cods/internal/wah"
)

// arena coordinates in-place extension of one shared appended-rows
// backing array across the overlay versions that view prefixes of it.
// tip is the authoritative number of rows written to the array: an
// overlay whose view length equals tip (and with spare capacity) is the
// newest version and may claim the next slot; any other overlay must
// copy. This makes a linear chain of INSERTs — each statement deriving
// from the last — amortized O(1) instead of O(rows-so-far), while a
// branch (e.g. DML after a rollback to an older version) safely copies.
// Readers never touch slots beyond their own view length, so claimed
// slots racing reads of older views is not possible.
//
// Alongside the rows, the arena carries the key index of the tail: the
// declared-key tuple of each appended row mapped to its slot. It shares
// the backing array's protocol exactly — entries are written only when a
// slot is claimed, slots are claimed in order, and a view of length L
// ignores entries at index >= L — so keyConflict is one map lookup
// instead of a scan of the pending tail, and branches copy the index
// when (and only when) they copy the rows. Within one arena no live
// tuple repeats: a claim is made only by the tip view, which checked the
// tuple against every slot below the tip first.
type arena struct {
	mu  sync.Mutex
	tip int
	// keys maps each appended row's key tuple (see appendKeySegment) to
	// its slot in the shared backing array; nil when the table declares
	// no key (the field itself is set at arena construction and never
	// reassigned). Guarded by mu together with tip: claims write it and
	// tailKeyAt probes it (point DELETE/UPDATE and the INSERT key
	// check), so every such access to the map contents holds mu. Bulk
	// iteration (shiftedKeys, the non-key UPDATE carry-over) runs only on
	// the write path, where the engine's writer mutex already excludes
	// the claims that mutate it.
	keys map[string]int
}

// Overlay is an immutable view of one table: a base column-store table
// plus pending DML. The zero overlay (fresh from Wrap) is the base table
// itself. Methods returning *Overlay never mutate the receiver.
type Overlay struct {
	base *colstore.Table
	// byName maps column names to schema positions; built once in Wrap
	// (the schema never changes within a lineage) and shared by every
	// derived overlay.
	byName map[string]int
	// added holds rows appended since the base was built, in schema
	// order. Row slices are never mutated after they enter an overlay;
	// the backing array may be shared with newer versions (see arena).
	added [][]string
	// ar guards extension of added's backing array; nil until the first
	// insert of a lineage.
	ar *arena
	// deleted marks base-row positions removed by DELETE/UPDATE; nil
	// means none. Never mutated once set (bitmap algebra allocates).
	deleted  *wah.Bitmap
	nDeleted uint64
	// parallelism bounds the worker pool for bitmap work (predicate
	// evaluation, filtering, flush); 0 means GOMAXPROCS.
	parallelism int

	// flush cache: an overlay is immutable, so the merged table is
	// computed at most once and shared by every reader of this version.
	flushOnce sync.Once
	flushed   *colstore.Table
	flushErr  error
}

// Wrap returns a clean overlay over a base table. parallelism bounds
// bitmap work for this overlay and its descendants (0 = GOMAXPROCS).
func Wrap(base *colstore.Table, parallelism int) *Overlay {
	byName := make(map[string]int, base.NumColumns())
	for i, c := range base.ColumnNames() {
		byName[c] = i
	}
	return &Overlay{base: base, byName: byName, parallelism: parallelism}
}

// WithName returns an overlay over the same DML state with the base
// renamed. Rename is metadata-only on a column store, so the appended
// tail, deletion bitmap and append arena carry forward untouched — the
// arena in particular must be shared, not copied, so a lineage that
// branches across the rename still coordinates backing-array claims.
func (o *Overlay) WithName(name string) *Overlay {
	return &Overlay{
		base: o.base.WithName(name), byName: o.byName,
		added: o.added, ar: o.ar,
		deleted: o.deleted, nDeleted: o.nDeleted,
		parallelism: o.parallelism,
	}
}

// Base returns the underlying immutable table (schema authority; its row
// set ignores pending DML).
func (o *Overlay) Base() *colstore.Table { return o.base }

// Name returns the table name.
func (o *Overlay) Name() string { return o.base.Name() }

// ColumnNames returns the schema's column names in order. DML never
// changes the schema, so the base is authoritative.
func (o *Overlay) ColumnNames() []string { return o.base.ColumnNames() }

// Dirty reports whether the overlay carries pending DML.
func (o *Overlay) Dirty() bool { return len(o.added) > 0 || o.nDeleted > 0 }

// PendingAdded returns the number of appended rows not yet compacted.
func (o *Overlay) PendingAdded() int { return len(o.added) }

// PendingDeleted returns the number of base rows marked deleted.
func (o *Overlay) PendingDeleted() uint64 { return o.nDeleted }

// NumRows returns the merged row count, without flushing.
func (o *Overlay) NumRows() uint64 {
	return o.base.NumRows() - o.nDeleted + uint64(len(o.added))
}

// derive carries the overlay's DML state forward for a new version with
// the appended tail unchanged (Delete and Update when no appended row is
// touched). The arena comes along with the backing array: the derived
// overlay still views the arena tip, so a later INSERT extends in place
// instead of copying the tail — the old pre-derive version and the new
// one race for the next slot through the arena protocol, and whichever
// claims second copies, exactly the branch semantics. The flush cache is
// deliberately not carried over.
func (o *Overlay) derive(deleted *wah.Bitmap) *Overlay {
	n := &Overlay{base: o.base, byName: o.byName, added: o.added, ar: o.ar, deleted: deleted, parallelism: o.parallelism}
	if deleted != nil {
		n.nDeleted = deleted.Count()
	}
	return n
}

// appendKeySegment renders one key-column value into a tuple being
// built. Segments are length-prefixed, so tuples collide only when
// their values are equal column by column — values are arbitrary
// strings and may contain any delimiter. Every tuple in the system
// (index entries and lookups alike) goes through this one renderer.
func appendKeySegment(sb *strings.Builder, v string) {
	sb.WriteString(strconv.Itoa(len(v)))
	sb.WriteByte(':')
	sb.WriteString(v)
}

// keyTuple renders row's declared-key values as one map key.
func (o *Overlay) keyTuple(kcols []string, row []string) string {
	var sb strings.Builder
	for _, k := range kcols {
		appendKeySegment(&sb, row[o.byName[k]])
	}
	return sb.String()
}

// newArena builds an arena owning added, indexing the tail by key tuple
// when the table declares a key. O(len(added)) — paid on branch and
// rebuild, never on the linear insert chain.
func (o *Overlay) newArena(added [][]string) *arena {
	ar := &arena{tip: len(added)}
	if kcols := o.base.Key(); len(kcols) > 0 {
		ar.keys = make(map[string]int, len(added))
		for i, row := range added {
			ar.keys[o.keyTuple(kcols, row)] = i
		}
	}
	return ar
}

// shiftedKeys derives the key index for a tail rebuilt by dropping the
// slots listed in di (sorted ascending; drop is the same set as a map)
// from this overlay's view: surviving entries keep their interned tuple
// strings and shift down past the dropped slots. One pass of re-hashing
// instead of re-rendering every tuple — the difference between a point
// DELETE costing one map pass and one string build per pending row.
func (o *Overlay) shiftedKeys(drop map[int]bool, di []int) map[string]int {
	if o.ar == nil || o.ar.keys == nil {
		return nil
	}
	keys := make(map[string]int, len(o.ar.keys))
	for kt, slot := range o.ar.keys {
		if slot >= len(o.added) || drop[slot] {
			continue
		}
		keys[kt] = slot - sort.SearchInts(di, slot)
	}
	return keys
}

// tailKeyAt returns the slot of the live appended row holding the key
// tuple kt, or -1. A view of length len(o.added) ignores arena entries
// claimed beyond it (newer versions of the lineage). The lookup takes
// the arena mutex: an overlay is immutable and safe to share, so a DML
// derivation from an older version may probe the map while the lineage
// tip claims a slot — and a claim writes the shared map, so an
// unguarded read would be a map race, not just a stale value. The
// critical section is one map probe.
func (o *Overlay) tailKeyAt(kt string) int {
	if o.ar == nil || o.ar.keys == nil {
		return -1
	}
	o.ar.mu.Lock()
	idx, ok := o.ar.keys[kt]
	o.ar.mu.Unlock()
	if ok && idx < len(o.added) {
		return idx
	}
	return -1
}

// keyConflict reports whether row's values in the declared key columns
// already appear in a live merged row. The evolution operators (MERGE's
// key–FK join in particular) and ValidateKey rely on declared keys being
// real, so the DML write path must not be a hole that lets duplicates
// in. Cost per call: one dictionary EqScan + compressed AND per key
// column, plus one lookup in the arena's key index of the appended tail
// — independent of how many rows are pending, which is what keeps a
// sustained keyed-INSERT stream amortized O(1) per statement.
func (o *Overlay) keyConflict(row []string) (bool, error) {
	key := o.base.Key()
	if len(key) == 0 {
		return false, nil
	}
	hit, err := o.baseKeyMatch(key, row, o.deleted)
	if err != nil {
		return false, err
	}
	if hit {
		return true, nil
	}
	return o.tailKeyAt(o.keyTuple(key, row)) >= 0, nil
}

// baseKeyMatch reports whether any base row not masked out by del holds
// row's values in the kcols columns: one dictionary probe per key column
// per segment (Table.EqBitmap) plus a compressed AND per key column —
// never a whole-table stitch, which is what keeps keyed INSERT flat as
// the base grows.
func (o *Overlay) baseKeyMatch(kcols []string, row []string, del *wah.Bitmap) (bool, error) {
	var mask *wah.Bitmap
	for _, k := range kcols {
		bm, err := o.base.EqBitmap(k, row[o.byName[k]])
		if err != nil {
			return false, err
		}
		if mask == nil {
			mask = bm
		} else {
			mask = wah.And(mask, bm)
		}
		if !mask.Any() {
			return false, nil
		}
	}
	if del != nil {
		mask = wah.AndNot(mask, del)
	}
	return mask.Any(), nil
}

// Insert returns an overlay with one row appended. The row must match
// the schema's arity and respect the table's declared key; values are
// copied.
func (o *Overlay) Insert(row []string) (*Overlay, error) {
	if len(row) != o.base.NumColumns() {
		return nil, fmt.Errorf("delta: INSERT into %s has %d values, schema has %d columns",
			o.Name(), len(row), o.base.NumColumns())
	}
	if conflict, err := o.keyConflict(row); err != nil {
		return nil, err
	} else if conflict {
		return nil, fmt.Errorf("delta: INSERT into %s violates key %v", o.Name(), o.base.Key())
	}
	row = append([]string(nil), row...)
	n := &Overlay{base: o.base, byName: o.byName, deleted: o.deleted, nDeleted: o.nDeleted, parallelism: o.parallelism}
	if o.ar != nil {
		o.ar.mu.Lock()
		if o.ar.tip == len(o.added) && cap(o.added) > len(o.added) {
			// This overlay is the tip of its lineage and the backing array
			// has room: claim the next slot in place, recording the row's
			// key tuple in the shared index. Older views never read past
			// their own length, so both writes are invisible to them.
			n.added = append(o.added, row)
			n.ar = o.ar
			if o.ar.keys != nil {
				o.ar.keys[o.keyTuple(o.base.Key(), row)] = len(o.added)
			}
			o.ar.tip++
			o.ar.mu.Unlock()
			return n, nil
		}
		o.ar.mu.Unlock()
	}
	// First insert of a lineage, a full backing array, or a branch (DML
	// deriving from a non-tip version, e.g. after rollback): copy into a
	// fresh array with doubling headroom, owned by a new arena with a
	// rebuilt key index.
	n.added = make([][]string, len(o.added), 2*(len(o.added)+1))
	copy(n.added, o.added)
	n.added = append(n.added, row)
	n.ar = o.newArena(n.added)
	return n, nil
}

// parse compiles a condition, with "" meaning all rows (nil Node).
func parse(condition string) (expr.Node, error) {
	if condition == "" {
		return nil, nil
	}
	return expr.Parse(condition)
}

// liveBaseMatches returns the bitmap of not-deleted base rows matching
// pred (nil pred = all live rows).
func (o *Overlay) liveBaseMatches(pred expr.Node) (*wah.Bitmap, error) {
	var mask *wah.Bitmap
	if pred == nil {
		mask = wah.New()
		mask.AppendRun(1, o.base.NumRows())
	} else {
		var err error
		if mask, err = pred.EvalP(o.base, o.parallelism); err != nil {
			return nil, err
		}
	}
	if o.deleted == nil {
		return mask, nil
	}
	return wah.AndNot(mask, o.deleted), nil
}

// pointKeyTuple reports whether pred is a point predicate on the
// declared key — a conjunction of exact-match equality comparisons, one
// per key column and nothing else — and if so returns the key tuple it
// pins. A literal that parses as an integer disqualifies its comparison:
// predicate equality is numeric there ('07' matches '7'), wider than the
// exact string identity the key index stores.
func (o *Overlay) pointKeyTuple(pred expr.Node) (string, bool) {
	kcols := o.base.Key()
	if pred == nil || len(kcols) == 0 || o.ar == nil || o.ar.keys == nil {
		return "", false
	}
	eqs := make(map[string]string, len(kcols))
	if !collectExactEqs(pred, eqs) || len(eqs) != len(kcols) {
		return "", false
	}
	var sb strings.Builder
	for _, k := range kcols {
		v, ok := eqs[k]
		if !ok {
			return "", false
		}
		appendKeySegment(&sb, v)
	}
	return sb.String(), true
}

// collectExactEqs walks an AND-only tree of exact-match equality leaves
// into out (column -> literal), reporting false on any other shape.
func collectExactEqs(n expr.Node, out map[string]string) bool {
	switch x := n.(type) {
	case *expr.Comparison:
		if x.Op != expr.OpEq {
			return false
		}
		if _, err := strconv.ParseInt(x.Literal, 10, 64); err == nil {
			// Numeric equality: '7' also matches '07'; the index cannot
			// answer that.
			return false
		}
		if _, dup := out[x.Column]; dup {
			return false
		}
		out[x.Column] = x.Literal
		return true
	case *expr.Logical:
		return x.IsAnd && collectExactEqs(x.L, out) && collectExactEqs(x.R, out)
	}
	return false
}

// matchAdded evaluates pred row-wise over the appended tail, returning
// matching indices (all indices for nil pred). A point predicate on the
// declared key short-circuits to one lookup in the arena's key index —
// the shape a sustained keyed write stream's DELETEs and UPDATEs take —
// so those statements stay amortized O(1) instead of rescanning the
// pending tail.
func (o *Overlay) matchAdded(pred expr.Node) ([]int, error) {
	if kt, ok := o.pointKeyTuple(pred); ok {
		if idx := o.tailKeyAt(kt); idx >= 0 {
			return []int{idx}, nil
		}
		return nil, nil
	}
	idx := make([]int, 0, len(o.added))
	for i, row := range o.added {
		if pred == nil {
			idx = append(idx, i)
			continue
		}
		ok, err := pred.EvalRow(func(col string) (string, bool) {
			ci, ok := o.byName[col]
			if !ok {
				return "", false
			}
			return row[ci], true
		})
		if err != nil {
			return nil, err
		}
		if ok {
			idx = append(idx, i)
		}
	}
	return idx, nil
}

// Delete returns an overlay with the rows matching condition removed
// (every row when condition is empty) and the number of rows it removed.
func (o *Overlay) Delete(condition string) (*Overlay, uint64, error) {
	pred, err := parse(condition)
	if err != nil {
		return nil, 0, err
	}
	hit, err := o.liveBaseMatches(pred)
	if err != nil {
		return nil, 0, err
	}
	removed := hit.Count()
	deleted := o.deleted
	if removed > 0 {
		if deleted == nil {
			deleted = hit
		} else {
			deleted = wah.Or(deleted, hit)
		}
	}
	addedHit, err := o.matchAdded(pred)
	if err != nil {
		return nil, 0, err
	}
	if len(addedHit) == 0 {
		// The appended tail is untouched: carry the arena forward so the
		// lineage's next INSERT still extends in place.
		return o.derive(deleted), removed, nil
	}
	// Dropped appended rows force a tail rebuild (views are prefixes of a
	// shared array, so a gap cannot be represented in place). Built with
	// doubling headroom and a shifted — not re-rendered — key index, the
	// rebuild is one pass over the tail.
	removed += uint64(len(addedHit))
	drop := make(map[int]bool, len(addedHit))
	for _, i := range addedHit {
		drop[i] = true
	}
	keep := len(o.added) - len(addedHit)
	added := make([][]string, 0, 2*(keep+1))
	for i, row := range o.added {
		if !drop[i] {
			added = append(added, row)
		}
	}
	n := &Overlay{base: o.base, byName: o.byName, added: added, deleted: deleted, parallelism: o.parallelism}
	n.ar = &arena{tip: len(added), keys: o.shiftedKeys(drop, addedHit)}
	if deleted != nil {
		n.nDeleted = deleted.Count()
	}
	return n, removed, nil
}

// Update returns an overlay with column set to value on every row
// matching condition (all rows when empty), plus the number of rows
// changed. Matching base rows are marked deleted and re-appended with the
// new value — delete-plus-reinsert — so an updated base row moves to the
// appended tail until the next flush.
func (o *Overlay) Update(column, value, condition string) (*Overlay, uint64, error) {
	ci, ok := o.byName[column]
	if !ok {
		return nil, 0, fmt.Errorf("delta: table %s has no column %q", o.Name(), column)
	}
	pred, err := parse(condition)
	if err != nil {
		return nil, 0, err
	}
	hit, err := o.liveBaseMatches(pred)
	if err != nil {
		return nil, 0, err
	}
	addedHit, err := o.matchAdded(pred)
	if err != nil {
		return nil, 0, err
	}
	changed := hit.Count() + uint64(len(addedHit))
	if changed == 0 {
		return o.derive(o.deleted), 0, nil
	}

	added := make([][]string, 0, 2*(len(o.added)+int(hit.Count())+1))
	rewrite := make(map[int]bool, len(addedHit))
	for _, i := range addedHit {
		rewrite[i] = true
	}
	for i, row := range o.added {
		if rewrite[i] {
			nr := append([]string(nil), row...)
			nr[ci] = value
			row = nr
		}
		added = append(added, row)
	}
	deleted := o.deleted
	if hit.Any() {
		// Materialize the matched base rows (bitmap filtering, the same
		// primitive evolutions use), rewrite the column, re-append.
		matched, err := o.base.FilterRowsP(o.Name(), hit, o.parallelism)
		if err != nil {
			return nil, 0, err
		}
		rows, err := matched.Rows(0, 0)
		if err != nil {
			return nil, 0, err
		}
		for _, row := range rows {
			row[ci] = value
			added = append(added, row)
		}
		if deleted == nil {
			deleted = hit
		} else {
			deleted = wah.Or(deleted, hit)
		}
	}
	// Updating a key column can collide rewritten rows with each other or
	// with untouched rows. Check each rewritten row's new key tuple —
	// against the other rewritten rows, the surviving base (the rewritten
	// base rows' old selves are excluded via the deletion mask), and the
	// unchanged tail via the arena's key index — at O(changed × key
	// columns) like INSERT's check, instead of rebuilding and
	// re-validating the whole table.
	isKey := false
	for _, k := range o.base.Key() {
		if k == column {
			isKey = true
			break
		}
	}
	if isKey && changed > 0 {
		kcols := o.base.Key()
		keyErr := func() error {
			return fmt.Errorf("delta: UPDATE %s violates key %v", o.Name(), kcols)
		}
		seen := make(map[string]bool, changed)
		for i, row := range added {
			if i < len(o.added) && !rewrite[i] {
				continue
			}
			kt := o.keyTuple(kcols, row)
			if seen[kt] {
				return nil, 0, keyErr()
			}
			seen[kt] = true
			if idx := o.tailKeyAt(kt); idx >= 0 && !rewrite[idx] {
				// An untouched appended row already holds this tuple.
				return nil, 0, keyErr()
			}
			inBase, err := o.baseKeyMatch(kcols, row, deleted)
			if err != nil {
				return nil, 0, err
			}
			if inBase {
				return nil, 0, keyErr()
			}
		}
	}
	n := &Overlay{base: o.base, byName: o.byName, added: added, deleted: deleted, parallelism: o.parallelism}
	if deleted != nil {
		n.nDeleted = deleted.Count()
	}
	if isKey {
		// Rewritten tuples changed: re-render the whole index.
		n.ar = o.newArena(added)
		return n, changed, nil
	}
	// A non-key UPDATE leaves every row's key tuple and slot unchanged
	// (rewrites are in place, re-appended base rows extend the tail), so
	// the index carries over with only the new tail entries rendered.
	ar := &arena{tip: len(added)}
	if kcols := o.base.Key(); len(kcols) > 0 {
		keys := make(map[string]int, len(added))
		if o.ar != nil && o.ar.keys != nil {
			for kt, slot := range o.ar.keys {
				if slot < len(o.added) {
					keys[kt] = slot
				}
			}
		}
		for i := len(o.added); i < len(added); i++ {
			keys[o.keyTuple(kcols, added[i])] = i
		}
		ar.keys = keys
	}
	n.ar = ar
	return n, changed, nil
}

// Table returns the merged table: the base itself when the overlay is
// clean, otherwise a rebuilt base with deletions applied and appended
// rows at the tail (flush). The flush runs at most once per overlay and
// is cached — concurrent readers share one result — so repeated heavy
// reads, evolution operators and checkpoints pay for compaction once.
func (o *Overlay) Table() (*colstore.Table, error) {
	if !o.Dirty() {
		return o.base, nil
	}
	o.flushOnce.Do(func() { o.flushed, o.flushErr = o.flush() })
	return o.flushed, o.flushErr
}

// flush applies the overlay to the base segment by segment: deletions
// filter only the segments they actually hit (untouched segments are
// shared into the result without any data operation, and fully-deleted
// segments are dropped), and the appended tail is sealed into one new
// segment with fresh per-column dictionaries. Cost is O(tail + deleted
// segments), not O(table) — the flat per-statement write cost the
// segmented store exists for. Row order is the merged order every read
// sees: surviving base rows in base order, then appended rows in
// insertion order.
func (o *Overlay) flush() (*colstore.Table, error) {
	segs := o.base.Segments()
	out := make([]*colstore.Segment, 0, len(segs)+1)
	var off uint64
	for _, s := range segs {
		n := s.NumRows()
		if o.deleted != nil {
			sub := o.deleted.Slice(off, off+n)
			off += n
			if c := sub.Count(); c == n {
				continue // every row deleted: drop the segment
			} else if c > 0 {
				keep := sub.Not()
				fs, err := s.Filter(keep, o.parallelism)
				if err != nil {
					return nil, err
				}
				out = append(out, fs)
				continue
			}
		} else {
			off += n
		}
		out = append(out, s)
	}
	if len(o.added) > 0 {
		names := o.base.ColumnNames()
		cols := make([]*colstore.Column, len(names))
		if err := par.ForEachErr(len(names), o.parallelism, func(ci int) error {
			b := colstore.NewColumnBuilder(names[ci])
			for _, row := range o.added {
				b.Append(row[ci])
			}
			cols[ci] = b.Finish()
			return nil
		}); err != nil {
			return nil, err
		}
		tail, err := colstore.NewSegment(cols)
		if err != nil {
			return nil, err
		}
		out = append(out, tail)
	}
	return colstore.NewSegmented(o.Name(), o.base.ColumnNames(), out, o.base.Key())
}
