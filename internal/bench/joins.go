package bench

import (
	"fmt"
	"io"
	"time"

	"cods/internal/colquery"
	"cods/internal/colstore"
	"cods/internal/evolve"
	"cods/internal/plan"
	"cods/internal/workload"
)

// Join mode keys in JoinResult.Modes.
const (
	JoinModeScan = "scan-original"
	JoinModeSemi = "join-semi"
)

// JoinConfig parameterizes the join benchmark: a generated table R(A, B,
// C) with FactRows rows and DimRows distinct keys (FD A → C) is
// decomposed into a FactRows-row fact S (A, B) and a DimRows-row
// dimension T (A, C); the same selective aggregate then runs two ways.
type JoinConfig struct {
	// FactRows is the fact-table size (the issue's scenario is 1M).
	FactRows int
	// DimRows is the dimension size — the distinct key count (10k).
	DimRows int
	// Seed makes the generated data reproducible.
	Seed int64
	// Progress, when non-nil, receives setup/run notes.
	Progress func(format string, args ...any)
}

// JoinModeRun is one timed execution of the benchmark query.
type JoinModeRun struct {
	// ElapsedMS is the query's wall time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Matched is the count(*) the query returned (identical across
	// modes — the built-in correctness check).
	Matched uint64 `json:"matched"`
	// FactRowsPerSec is FactRows / elapsed: the throughput a mode
	// achieves over the fact table, comparable across modes.
	FactRowsPerSec float64 `json:"fact_rows_per_sec"`
}

// JoinResult is one benchmark run, appended to BENCH_joins.json.
type JoinResult struct {
	Bench    string  `json:"bench"` // always "join-decomposed-vs-scan"
	FactRows int     `json:"fact_rows"`
	DimRows  int     `json:"dim_rows"`
	Seed     int64   `json:"seed"`
	ZipfS    float64 `json:"zipf_s,omitempty"`
	// SharedLineage records whether the decomposed key columns were
	// recognized as drawing from one dictionary id space — the
	// precondition for the id-only semi-join fast path.
	SharedLineage bool `json:"shared_lineage"`
	// Modes: "scan-original" (the pre-DECOMPOSE single-table scan) and
	// "join-semi" (hash join with the WAH semi-join reduction).
	Modes map[string]JoinModeRun `json:"modes"`
}

// RunJoins builds the workload, decomposes it, and times the query
// SELECT count(*) WHERE <dim predicate> in each mode once. Setup is
// excluded from the timings, matching the Figure 3 methodology.
func RunJoins(cfg JoinConfig) (*JoinResult, error) {
	if cfg.FactRows <= 0 {
		cfg.FactRows = 1_000_000
	}
	if cfg.DimRows <= 0 {
		cfg.DimRows = 10_000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}

	spec := workload.Spec{Rows: cfg.FactRows, DistinctKeys: cfg.DimRows, Seed: cfg.Seed}
	progress("joins: building R (%s)", spec)
	r, err := workload.BuildColstore(spec, "R")
	if err != nil {
		return nil, err
	}
	progress("joins: decomposing into S (A, B) x T (A, C)")
	dec, err := evolve.Decompose(r, evolve.DecomposeSpec{
		OutS: "S", SColumns: []string{"A", "B"},
		OutT: "T", TColumns: []string{"A", "C"},
	}, evolve.Options{})
	if err != nil {
		return nil, err
	}
	res := &JoinResult{
		Bench: "join-decomposed-vs-scan", FactRows: cfg.FactRows, DimRows: cfg.DimRows,
		Seed:  cfg.Seed,
		Modes: make(map[string]JoinModeRun),
	}
	sKey, err := dec.S.Column("A")
	if err != nil {
		return nil, err
	}
	tKey, err := dec.T.Column("A")
	if err != nil {
		return nil, err
	}
	res.SharedLineage = colquery.SharedLineage(sKey, tKey)

	resolve := func(name string) (*colstore.Table, error) {
		switch name {
		case "R":
			return r, nil
		case "S":
			return dec.S, nil
		case "T":
			return dec.T, nil
		}
		return nil, fmt.Errorf("bench: no table %q", name)
	}
	// The dimension predicate keeps ~1/DistinctC of the keys — selective
	// enough that the semi-join reduction has rows to prune.
	where := "C = 'c0000001'"
	queries := []struct {
		mode string
		q    plan.Query
	}{
		{JoinModeScan, plan.Query{
			From: "R", Where: where,
			Aggregates: []colquery.Agg{{Func: colquery.Count}},
		}},
		{JoinModeSemi, plan.Query{
			From: "S", Joins: []plan.Join{{Table: "T", On: []string{"A"}}}, Where: where,
			Aggregates: []colquery.Agg{{Func: colquery.Count}},
		}},
	}
	var matched uint64
	for i, e := range queries {
		start := time.Now()
		rs, err := plan.Run(resolve, e.q)
		elapsed := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", e.mode, err)
		}
		var n uint64
		if _, err := fmt.Sscan(rs.Rows[0][0], &n); err != nil {
			return nil, fmt.Errorf("bench: %s count %q: %w", e.mode, rs.Rows[0][0], err)
		}
		if i == 0 {
			matched = n
		} else if n != matched {
			return nil, fmt.Errorf("bench: %s matched %d rows, scan-original matched %d", e.mode, n, matched)
		}
		res.Modes[e.mode] = JoinModeRun{
			ElapsedMS:      float64(elapsed.Microseconds()) / 1000,
			Matched:        n,
			FactRowsPerSec: float64(cfg.FactRows) / elapsed.Seconds(),
		}
		progress("joins: %s: %v (%d rows matched)", e.mode, elapsed, n)
	}
	return res, nil
}

// Format renders the run for a terminal.
func (r *JoinResult) Format(w io.Writer) {
	fmt.Fprintf(w, "# joins fact=%d dim=%d shared-lineage=%v\n",
		r.FactRows, r.DimRows, r.SharedLineage)
	fmt.Fprintf(w, "%-16s %12s %14s %12s\n", "mode", "elapsed-ms", "fact-rows/s", "matched")
	for _, mode := range []string{JoinModeScan, JoinModeSemi} {
		m, ok := r.Modes[mode]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-16s %12.3f %14.0f %12d\n", mode, m.ElapsedMS, m.FactRowsPerSec, m.Matched)
	}
}
