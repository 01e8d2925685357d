// Command codsbench is the benchmark driver. Its default mode
// regenerates the paper's evaluation (Figure 3): the time to decompose a
// table and to merge it back, as a function of the number of distinct
// values, on CODS's data-level path (D) versus the query-level baselines
// (C, C+I, S, M). Its htap mode runs a YCSB-style mixed workload —
// zipfian point reads, GROUP-BY scans, keyed DML and background schema
// evolution — with per-class latency percentiles and optional SLO gates.
//
// Usage:
//
//	codsbench [-experiment decompose|merge|general-merge|scale|all]
//	          [-rows N] [-distinct 100,1000,...] [-systems D,C,C+I,S,M]
//	          [-zipf s] [-seed n] [-quiet]
//
//	codsbench htap [-workload name] [-table R] [-rows N] [-distinct N]
//	          [-zipf s] [-read pct] [-scan pct] [-write pct]
//	          [-smo-interval d] [-workers n] [-duration d] [-rate ops/s]
//	          [-transport inproc|http] [-addr http://host:port]
//	          [-retain n] [-autocompact n]
//	          [-out BENCH_htap.json] [-seed n] [-quiet]
//	          [-slo-read-p99 d] [-slo-scan-p99 d] [-slo-write-p99 d]
//	          [-slo-smo-p99 d]
//
//	codsbench joins [-rows N] [-dim N] [-seed n]
//	          [-out BENCH_joins.json] [-quiet]
//
// In the default mode the default row count (2,000,000) keeps a full
// sweep inside laptop memory; -rows 10000000 reproduces the paper's
// scale. Times are for the evolution step only — input loading is
// excluded, as in the paper.
//
// In htap mode the mix percentages must sum to 100. -transport inproc
// drives the engine directly; -transport http self-hosts an
// internal/server over loopback (or, with -addr, drives an external
// `cods serve`). -smo-interval > 0 adds a background COPY → DECOMPOSE →
// MERGE → DROP evolution cycle. A -slo-*-p99 threshold that is exceeded
// (or that gates a class the run never issued) makes codsbench exit
// with status 3, so CI can gate on latency. -out appends the run to a
// JSON series file; see BENCHMARKS.md for the schema and methodology.
//
// The joins mode benchmarks the multi-table query layer on a decomposed
// star: a -rows fact table joined to a -dim dimension, timing the same
// selective aggregate as a scan of the pre-DECOMPOSE table and as a hash
// join with the WAH semi-join reduction. -out appends to
// BENCH_joins.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"cods/internal/bench"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "htap" {
		htapMain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "joins" {
		joinsMain(os.Args[2:])
		return
	}
	figure3Main()
}

func joinsMain(args []string) {
	fs := flag.NewFlagSet("codsbench joins", flag.ExitOnError)
	rows := fs.Int("rows", 1_000_000, "fact-table rows")
	dim := fs.Int("dim", 10_000, "dimension rows (distinct join keys)")
	seed := fs.Int64("seed", 1, "workload generation seed")
	out := fs.String("out", "", "append the result to this JSON series file (e.g. BENCH_joins.json)")
	quiet := fs.Bool("quiet", false, "suppress setup progress")
	fs.Parse(args)

	cfg := bench.JoinConfig{FactRows: *rows, DimRows: *dim, Seed: *seed}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	res, err := bench.RunJoins(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codsbench: joins:", err)
		os.Exit(1)
	}
	res.Format(os.Stdout)
	if *out != "" {
		if err := bench.AppendSeries(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "codsbench: joins:", err)
			os.Exit(1)
		}
		fmt.Printf("# appended to %s\n", *out)
	}
}

func figure3Main() {
	experiment := flag.String("experiment", "all", "decompose | merge | general-merge | scale | all")
	rows := flag.Int("rows", 2_000_000, "input rows (the paper uses 10000000)")
	distinct := flag.String("distinct", "100,1000,10000,100000,1000000", "comma-separated distinct-value counts (the Figure 3 x-axis)")
	systems := flag.String("systems", "", "comma-separated system keys (default: the figure's lines)")
	zipf := flag.Float64("zipf", 0, "Zipf skew parameter for key frequencies (>1 to enable)")
	seed := flag.Int64("seed", 1, "workload generation seed")
	quiet := flag.Bool("quiet", false, "suppress per-measurement progress")
	flag.Parse()

	counts, err := parseInts(*distinct)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codsbench:", err)
		os.Exit(2)
	}
	cfg := bench.Config{Rows: *rows, DistinctCounts: counts, Seed: *seed, ZipfS: *zipf}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	run := func(name string, defaults []bench.System, fn func(bench.Config) (*bench.Result, error)) {
		cfg := cfg
		cfg.Systems = defaults
		if *systems != "" {
			cfg.Systems = parseSystems(*systems)
		}
		res, err := fn(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "codsbench:", err)
			os.Exit(1)
		}
		res.Format(os.Stdout)
		speedups := res.Speedups()
		for _, d := range res.Distincts {
			if s, ok := speedups[d]; ok {
				fmt.Printf("# d=%d: CODS speedup over slowest query-level system = %.1fx\n", d, s)
			}
		}
		fmt.Println()
	}

	runScale := func() {
		// Row-count scaling at a fixed distinct count: the "scalably"
		// axis of the paper's title.
		rowCounts := []int{*rows / 8, *rows / 4, *rows / 2, *rows}
		run("scale", bench.Figure3aSystems, func(cfg bench.Config) (*bench.Result, error) {
			return bench.RunScale(cfg, rowCounts, 10_000)
		})
	}

	switch *experiment {
	case "decompose":
		run("decompose", bench.Figure3aSystems, bench.RunDecompose)
	case "merge":
		run("merge", bench.Figure3bSystems, bench.RunMerge)
	case "general-merge":
		run("general-merge", []bench.System{bench.SystemCODS, bench.SystemCommercial, bench.SystemCommercialIdx, bench.SystemMonet}, bench.RunGeneralMerge)
	case "scale":
		runScale()
	case "all":
		run("decompose", bench.Figure3aSystems, bench.RunDecompose)
		run("merge", bench.Figure3bSystems, bench.RunMerge)
		run("general-merge", []bench.System{bench.SystemCODS, bench.SystemCommercial, bench.SystemCommercialIdx, bench.SystemMonet}, bench.RunGeneralMerge)
	default:
		fmt.Fprintf(os.Stderr, "codsbench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

func htapMain(args []string) {
	fs := flag.NewFlagSet("codsbench htap", flag.ExitOnError)
	workloadName := fs.String("workload", "", "workload label in output and the series file (default derived from the mix)")
	table := fs.String("table", "R", "table under test (the SMO cycle uses <table>_smo scratch names)")
	rows := fs.Int("rows", 50_000, "initial table size")
	distinct := fs.Int("distinct", 0, "distinct keys in column A (default rows/10)")
	zipf := fs.Float64("zipf", 0, "Zipf skew for data and point-read keys (>1 to enable)")
	readPct := fs.Int("read", 70, "point-read percentage of the mix")
	scanPct := fs.Int("scan", 10, "GROUP-BY scan percentage of the mix")
	writePct := fs.Int("write", 20, "keyed DML percentage of the mix")
	smoInterval := fs.Duration("smo-interval", 0, "background evolution cycle period (0 disables)")
	workers := fs.Int("workers", 4, "concurrent client workers")
	duration := fs.Duration("duration", 5*time.Second, "measured wall time")
	rate := fs.Float64("rate", 0, "total target ops/sec across workers (0 = closed loop)")
	transport := fs.String("transport", bench.TransportInproc, "inproc | http (http self-hosts a server unless -addr is set)")
	addr := fs.String("addr", "", "base URL of an external cods-serve endpoint (implies -transport http)")
	retain := fs.Int("retain", 8, "cods.Config.RetainVersions for the in-process DB")
	autocompact := fs.Int("autocompact", 4096, "cods.Config.AutoCompactPending for the in-process DB")
	out := fs.String("out", "", "append the result to this JSON series file (e.g. BENCH_htap.json)")
	seed := fs.Int64("seed", 1, "seed for data, key choice and mix selection")
	quiet := fs.Bool("quiet", false, "suppress setup progress")
	sloRead := fs.Duration("slo-read-p99", 0, "fail (exit 3) if read p99 exceeds this (0 disables)")
	sloScan := fs.Duration("slo-scan-p99", 0, "fail (exit 3) if scan p99 exceeds this (0 disables)")
	sloWrite := fs.Duration("slo-write-p99", 0, "fail (exit 3) if write p99 exceeds this (0 disables)")
	sloSMO := fs.Duration("slo-smo-p99", 0, "fail (exit 3) if smo p99 exceeds this (0 disables)")
	fs.Parse(args)

	cfg := bench.HTAPConfig{
		Name:         *workloadName,
		Table:        *table,
		Rows:         *rows,
		DistinctKeys: *distinct,
		ZipfS:        *zipf,
		ReadPct:      *readPct,
		ScanPct:      *scanPct,
		WritePct:     *writePct,
		SMOInterval:  *smoInterval,
		Workers:      *workers,
		Duration:     *duration,
		TargetRate:   *rate,
		Seed:         *seed,
		Transport:    *transport,
		Addr:         *addr,
		Retain:       *retain,
		AutoCompact:  *autocompact,
	}
	if *addr != "" {
		cfg.Transport = bench.TransportHTTP
	}
	if !*quiet {
		cfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	res, err := bench.RunHTAP(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codsbench: htap:", err)
		os.Exit(1)
	}
	res.Format(os.Stdout)
	if *out != "" {
		if err := bench.AppendResult(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "codsbench: htap:", err)
			os.Exit(1)
		}
		fmt.Printf("# appended to %s\n", *out)
	}

	violations := res.CheckSLOs(map[string]time.Duration{
		bench.ClassRead:  *sloRead,
		bench.ClassScan:  *sloScan,
		bench.ClassWrite: *sloWrite,
		bench.ClassSMO:   *sloSMO,
	})
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "codsbench:", v)
	}
	if len(violations) > 0 {
		os.Exit(3)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("bad distinct count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseSystems(s string) []bench.System {
	var out []bench.System
	for _, f := range strings.Split(s, ",") {
		out = append(out, bench.System(strings.TrimSpace(f)))
	}
	return out
}
