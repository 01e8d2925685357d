// Package evolve implements CODS's data-level data evolution algorithms
// (paper §2.4–§2.5): table decomposition via "distinction" and "bitmap
// filtering", key–foreign-key based mergence via compressed OR
// combination, the two-pass general mergence, and the data-affecting
// column-level and tuple-level SMOs (union, partition, add/drop column).
//
// Every algorithm consumes and produces colstore tables whose columns are
// WAH bitmap indexes. No algorithm materializes query results as tuples
// and none rebuilds an index from scratch: outputs are assembled by
// compressed-form operations (filter, OR, concatenation, fill-run
// construction) on the inputs' bitmaps.
//
// Since the base storage became a list of immutable segments, every
// operator runs segment-wise: each output segment is built from one input
// segment's local dictionaries and bitmaps (bitmap filtering, OR
// combination, shared columns), and what must be decided across segment
// boundaries goes through colstore's two cross-segment kernels. Every
// grouping of rows by key values (distinction, the functional-dependency
// and key tests, both mergences' join keys) is one colstore.Group, which
// identifies a group by its tuple of union-dictionary value ids, never by
// joined value strings; and the one decode of a non-key column re-keys its
// local ids under a union dictionary (RemapInto). Operators emit one
// output segment per contributing input segment, so evolution cost is
// proportional to the segments that actually change, not the logical row
// count. On a one-segment table there is no separate monolithic path.
package evolve

import (
	"cods/internal/par"
)

// Options control tracing and parallelism of the evolution algorithms.
type Options struct {
	// Status, when non-nil, receives progress events ("distinction",
	// "bitmap filtering", ...) as they happen — the demo UI's "Data
	// Evolution Status" panel (paper §3).
	Status func(step string)
	// Parallelism bounds the worker pool the operators' per-value bitmap
	// work runs on (Partition's predicate scan and filtering always use
	// the full pool). Zero means GOMAXPROCS. The engine always leaves it
	// zero; the bound stays for the benchmark's par.*_speedup rungs, which
	// time Parallelism 1 against 0, and the serial-vs-parallel tests.
	Parallelism int
	// ValidateFD makes Decompose verify Property 2 (the functional
	// dependency key → non-key in the input) and fail on violations
	// instead of silently producing a lossy decomposition.
	ValidateFD bool
}

func (o Options) trace(step string) {
	if o.Status != nil {
		o.Status(step)
	}
}

// forEach runs fn(i) for i in [0, n) on a bounded worker pool. fn must be
// safe for concurrent invocation on distinct indexes.
func (o Options) forEach(n int, fn func(i int)) {
	par.ForEachIndexed(n, o.Parallelism, fn)
}

// forEachErr is forEach for fallible per-index work; it returns the error of
// the lowest failing index.
func (o Options) forEachErr(n int, fn func(i int) error) error {
	return par.ForEachErr(n, o.Parallelism, fn)
}
