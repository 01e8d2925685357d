// Package bench is the harness that regenerates the paper's evaluation
// (Figure 3): it builds the synthetic workloads, runs each system's data
// evolution path, times the evolution step only (input loading is
// excluded, as in the paper), and renders the series the figure plots.
//
// Systems, keyed as in the figure caption:
//
//	D    CODS data-level evolution (internal/evolve)
//	C    commercial row-store RDBMS, query level (internal/rowstore)
//	C+I  commercial row-store RDBMS with index rebuilds
//	S    SQLite-like row store (B-tree tables, sort distinct)
//	M    column store, query level (internal/queryevolve)
package bench

import (
	"fmt"
	"io"
	"time"

	"cods/internal/colstore"
	"cods/internal/evolve"
	"cods/internal/queryevolve"
	"cods/internal/rowstore"
	"cods/internal/workload"
)

// System identifies one line of Figure 3.
type System string

// The systems of Figure 3.
const (
	SystemCODS          System = "D"
	SystemCommercial    System = "C"
	SystemCommercialIdx System = "C+I"
	SystemSQLite        System = "S"
	SystemMonet         System = "M"
)

var systemNames = map[System]string{
	SystemCODS:          "CODS (data-level)",
	SystemCommercial:    "commercial row RDBMS",
	SystemCommercialIdx: "commercial row RDBMS + indexes",
	SystemSQLite:        "SQLite-like row store",
	SystemMonet:         "column store, query-level (MonetDB-like)",
}

// Name returns the long description of a system key.
func (s System) Name() string { return systemNames[s] }

// Figure3aSystems are the decomposition panel's lines.
var Figure3aSystems = []System{SystemCODS, SystemCommercial, SystemCommercialIdx, SystemSQLite, SystemMonet}

// Figure3bSystems are the mergence panel's lines (the paper omits S).
var Figure3bSystems = []System{SystemCODS, SystemCommercial, SystemCommercialIdx, SystemMonet}

// Point is one measurement: one system at one distinct-value count.
type Point struct {
	System     System
	Distinct   int
	Elapsed    time.Duration
	OutputRows uint64
}

// Config parameterizes an experiment run.
type Config struct {
	// Rows is the input size (the paper uses 10M; the harness default is
	// smaller so a full sweep fits laptop memory).
	Rows int
	// DistinctCounts is the x-axis; counts above Rows are skipped.
	DistinctCounts []int
	// Systems selects the lines to run.
	Systems []System
	// Seed fixes workload generation.
	Seed int64
	// ZipfS skews key frequencies when > 1.
	ZipfS float64
	// Progress, when non-nil, receives one line per measurement.
	Progress func(format string, args ...any)
}

func (c Config) progress(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// Result is a full experiment: a grid of points.
type Result struct {
	Experiment string
	Rows       int
	Systems    []System
	Distincts  []int
	Points     []Point
}

func (r *Result) point(sys System, distinct int) *Point {
	for i := range r.Points {
		if r.Points[i].System == sys && r.Points[i].Distinct == distinct {
			return &r.Points[i]
		}
	}
	return nil
}

// Format renders the result as the figure's data grid: one row per
// distinct count, one column per system, times in seconds.
func (r *Result) Format(w io.Writer) {
	fmt.Fprintf(w, "# %s, %d input rows (paper Figure 3 shape: time vs #distinct values)\n", r.Experiment, r.Rows)
	fmt.Fprintf(w, "%12s", "#distinct")
	for _, s := range r.Systems {
		fmt.Fprintf(w, " %12s", string(s))
	}
	fmt.Fprintln(w)
	for _, d := range r.Distincts {
		fmt.Fprintf(w, "%12d", d)
		for _, s := range r.Systems {
			if p := r.point(s, d); p != nil {
				fmt.Fprintf(w, " %12.3f", p.Elapsed.Seconds())
			} else {
				fmt.Fprintf(w, " %12s", "-")
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "# columns: ")
	for i, s := range r.Systems {
		if i > 0 {
			fmt.Fprintf(w, "; ")
		}
		fmt.Fprintf(w, "%s = %s", string(s), s.Name())
	}
	fmt.Fprintln(w)
}

// checkOutputs returns an error when two systems report different output
// row counts at the same x-point. Every system runs the same evolution on
// the same input, so a disagreement means one of them computed something
// else and its time is not comparable.
func (r *Result) checkOutputs() error {
	first := make(map[int]Point)
	for _, p := range r.Points {
		f, ok := first[p.Distinct]
		if !ok {
			first[p.Distinct] = p
			continue
		}
		if p.OutputRows != f.OutputRows {
			return fmt.Errorf("bench: %s x=%d: %s wrote %d rows, %s wrote %d",
				r.Experiment, p.Distinct, p.System, p.OutputRows, f.System, f.OutputRows)
		}
	}
	return nil
}

// Speedups returns, per distinct count, the ratio of the slowest non-CODS
// system to CODS — the paper's "orders of magnitude" claim quantified.
func (r *Result) Speedups() map[int]float64 {
	out := make(map[int]float64)
	for _, d := range r.Distincts {
		cods := r.point(SystemCODS, d)
		if cods == nil || cods.Elapsed <= 0 {
			continue
		}
		var worst time.Duration
		for _, s := range r.Systems {
			if s == SystemCODS {
				continue
			}
			if p := r.point(s, d); p != nil && p.Elapsed > worst {
				worst = p.Elapsed
			}
		}
		if worst > 0 {
			out[d] = worst.Seconds() / cods.Elapsed.Seconds()
		}
	}
	return out
}

func (c Config) distincts() []int {
	var out []int
	for _, d := range c.DistinctCounts {
		if d <= c.Rows {
			out = append(out, d)
		}
	}
	return out
}

// RunDecompose regenerates Figure 3(a): decompose R(A,B,C) into S(A,B) and
// T(A,C) at each distinct-value count, on each system.
func RunDecompose(cfg Config) (*Result, error) {
	res := &Result{Experiment: "decompose", Rows: cfg.Rows, Systems: cfg.Systems, Distincts: cfg.distincts()}
	for _, d := range res.Distincts {
		spec := workload.Spec{Rows: cfg.Rows, DistinctKeys: d, Seed: cfg.Seed, ZipfS: cfg.ZipfS}
		for _, sys := range cfg.Systems {
			p, err := runDecomposeOn(sys, spec, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: decompose %s d=%d: %w", sys, d, err)
			}
			res.Points = append(res.Points, p)
			cfg.progress("decompose d=%-8d %-4s %10.3fs", d, sys, p.Elapsed.Seconds())
		}
		if err := res.checkOutputs(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runDecomposeOn(sys System, spec workload.Spec, cfg Config) (Point, error) {
	point := Point{System: sys, Distinct: spec.DistinctKeys}
	switch sys {
	case SystemCODS, SystemMonet:
		r, err := workload.BuildColstore(spec, "R")
		if err != nil {
			return point, err
		}
		start := time.Now()
		if sys == SystemCODS {
			res, err := evolve.Decompose(r, evolve.DecomposeSpec{
				OutS: "S", SColumns: []string{"A", "B"},
				OutT: "T", TColumns: []string{"A", "C"},
			}, evolve.Options{})
			if err != nil {
				return point, err
			}
			point.OutputRows = res.S.NumRows() + res.T.NumRows()
		} else {
			s, t, err := queryevolve.Decompose(r, "S", []string{"A", "B"}, "T", []string{"A", "C"})
			if err != nil {
				return point, err
			}
			point.OutputRows = s.NumRows() + t.NumRows()
		}
		point.Elapsed = time.Since(start)
	case SystemCommercial, SystemCommercialIdx, SystemSQLite:
		profile := profileOf(sys)
		db := rowstore.NewDB()
		if _, err := workload.BuildRowstore(spec, db, "R", profile.Storage()); err != nil {
			return point, err
		}
		start := time.Now()
		stats, err := rowstore.DecomposeQueryLevel(db, "R", "S", []string{"A", "B"}, "T", []string{"A", "C"}, []string{"A"}, profile.Profile())
		if err != nil {
			return point, err
		}
		point.Elapsed = time.Since(start)
		point.OutputRows = stats.RowsWritten
	default:
		return point, fmt.Errorf("unknown system %q", sys)
	}
	return point, nil
}

// RunMerge regenerates Figure 3(b): merge S(A,B) with T(A,C) (key–foreign
// key) back into R at each distinct-value count, on each system.
func RunMerge(cfg Config) (*Result, error) {
	res := &Result{Experiment: "merge", Rows: cfg.Rows, Systems: cfg.Systems, Distincts: cfg.distincts()}
	for _, d := range res.Distincts {
		spec := workload.Spec{Rows: cfg.Rows, DistinctKeys: d, Seed: cfg.Seed, ZipfS: cfg.ZipfS}
		for _, sys := range cfg.Systems {
			p, err := runMergeOn(sys, spec, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: merge %s d=%d: %w", sys, d, err)
			}
			res.Points = append(res.Points, p)
			cfg.progress("merge     d=%-8d %-4s %10.3fs", d, sys, p.Elapsed.Seconds())
		}
		if err := res.checkOutputs(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func runMergeOn(sys System, spec workload.Spec, cfg Config) (Point, error) {
	point := Point{System: sys, Distinct: spec.DistinctKeys}
	switch sys {
	case SystemCODS, SystemMonet:
		s, t, err := workload.BuildColstoreST(spec, "S", "T")
		if err != nil {
			return point, err
		}
		start := time.Now()
		if sys == SystemCODS {
			res, err := evolve.MergeKeyFK(s, t, "R", evolve.Options{})
			if err != nil {
				return point, err
			}
			point.OutputRows = res.Table.NumRows()
		} else {
			r, err := queryevolve.Merge(s, t, "R")
			if err != nil {
				return point, err
			}
			point.OutputRows = r.NumRows()
		}
		point.Elapsed = time.Since(start)
	case SystemCommercial, SystemCommercialIdx, SystemSQLite:
		profile := profileOf(sys)
		db := rowstore.NewDB()
		if err := workload.BuildRowstoreST(spec, db, "S", "T", profile.Storage()); err != nil {
			return point, err
		}
		start := time.Now()
		stats, err := rowstore.MergeQueryLevel(db, "S", "T", "R", []string{"A"}, profile.Profile())
		if err != nil {
			return point, err
		}
		point.Elapsed = time.Since(start)
		point.OutputRows = stats.RowsWritten
	default:
		return point, fmt.Errorf("unknown system %q", sys)
	}
	return point, nil
}

// RunGeneralMerge exercises the two-pass general mergence (§2.5.2, no
// figure in the demo paper — the companion technical report's experiment):
// join S(A,B) with T2(A,C) where A is a key of neither input. T2 carries
// two rows per distinct join value, so the output is about twice the input.
func RunGeneralMerge(cfg Config) (*Result, error) {
	res := &Result{Experiment: "general-merge", Rows: cfg.Rows, Systems: cfg.Systems, Distincts: cfg.distincts()}
	for _, d := range res.Distincts {
		spec := workload.Spec{Rows: cfg.Rows, DistinctKeys: d, Seed: cfg.Seed, ZipfS: cfg.ZipfS}
		for _, sys := range cfg.Systems {
			p, err := runGeneralMergeOn(sys, spec, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: general-merge %s d=%d: %w", sys, d, err)
			}
			res.Points = append(res.Points, p)
			cfg.progress("general   d=%-8d %-4s %10.3fs", d, sys, p.Elapsed.Seconds())
		}
		if err := res.checkOutputs(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// RunScale measures decomposition time as the row count grows at a fixed
// distinct-value count — the scalability axis of the paper's title,
// complementing Figure 3's distinct-value axis. Results are reported as
// Points with Distinct carrying the row count.
func RunScale(cfg Config, rowCounts []int, distinct int) (*Result, error) {
	res := &Result{Experiment: "scale (x-axis = rows)", Rows: distinct, Systems: cfg.Systems, Distincts: rowCounts}
	for _, rows := range rowCounts {
		spec := workload.Spec{Rows: rows, DistinctKeys: min(distinct, rows), Seed: cfg.Seed, ZipfS: cfg.ZipfS}
		for _, sys := range cfg.Systems {
			p, err := runDecomposeOn(sys, spec, cfg)
			if err != nil {
				return nil, fmt.Errorf("bench: scale %s rows=%d: %w", sys, rows, err)
			}
			p.Distinct = rows
			res.Points = append(res.Points, p)
			cfg.progress("scale     n=%-8d %-4s %10.3fs", rows, sys, p.Elapsed.Seconds())
		}
		if err := res.checkOutputs(); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// doubleDim duplicates every row of a (A, C) table with a second distinct
// C value, so the join attribute A stops being a key: exactly the shape
// that forces general mergence.
func doubleDim(t1 *colstore.Table) (*colstore.Table, error) {
	tb, err := colstore.NewTableBuilder("T", []string{"A", "C"}, nil)
	if err != nil {
		return nil, err
	}
	rows, err := t1.Rows(0, 0)
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		if err := tb.AppendRow(row); err != nil {
			return nil, err
		}
		if err := tb.AppendRow([]string{row[0], row[1] + "x"}); err != nil {
			return nil, err
		}
	}
	return tb.Finish()
}

func runGeneralMergeOn(sys System, spec workload.Spec, cfg Config) (Point, error) {
	point := Point{System: sys, Distinct: spec.DistinctKeys}
	switch sys {
	case SystemCODS, SystemMonet:
		s, t1, err := workload.BuildColstoreST(spec, "S", "T1")
		if err != nil {
			return point, err
		}
		// Duplicate T's rows with a second C value so A stops being a key.
		t2, err := doubleDim(t1)
		if err != nil {
			return point, err
		}
		start := time.Now()
		if sys == SystemCODS {
			r, err := evolve.MergeGeneral(s, t2, "R", evolve.Options{})
			if err != nil {
				return point, err
			}
			point.OutputRows = r.NumRows()
		} else {
			r, err := queryevolve.Merge(s, t2, "R")
			if err != nil {
				return point, err
			}
			point.OutputRows = r.NumRows()
		}
		point.Elapsed = time.Since(start)
	case SystemCommercial, SystemCommercialIdx, SystemSQLite:
		profile := profileOf(sys)
		db := rowstore.NewDB()
		if err := workload.BuildRowstoreST(spec, db, "S", "T1", profile.Storage()); err != nil {
			return point, err
		}
		t1, err := db.Get("T1")
		if err != nil {
			return point, err
		}
		t2, err := db.Create("T", []string{"A", "C"}, profile.Storage())
		if err != nil {
			return point, err
		}
		err = t1.Scan(func(row []string) bool {
			t2.Insert(row)
			t2.Insert([]string{row[0], row[1] + "x"})
			return true
		})
		if err != nil {
			return point, err
		}
		start := time.Now()
		stats, err := rowstore.MergeQueryLevel(db, "S", "T", "R", []string{"A"}, profile.Profile())
		if err != nil {
			return point, err
		}
		point.Elapsed = time.Since(start)
		point.OutputRows = stats.RowsWritten
	default:
		return point, fmt.Errorf("unknown system %q", sys)
	}
	return point, nil
}

// profileKind pairs a row-store profile with its storage kind.
type profileKind struct{ p rowstore.Profile }

func profileOf(sys System) profileKind {
	switch sys {
	case SystemCommercialIdx:
		return profileKind{rowstore.ProfileCommercialIndexed}
	case SystemSQLite:
		return profileKind{rowstore.ProfileSQLiteLike}
	default:
		return profileKind{rowstore.ProfileCommercial}
	}
}

func (pk profileKind) Profile() rowstore.Profile { return pk.p }

// Storage returns the storage kind matching the profile.
func (pk profileKind) Storage() rowstore.StorageKind {
	if pk.p == rowstore.ProfileSQLiteLike {
		return rowstore.BTreeStorage
	}
	return rowstore.HeapStorage
}
