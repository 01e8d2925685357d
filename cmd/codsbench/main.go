// Command codsbench regenerates the paper's evaluation (Figure 3): the
// time to decompose a table and to merge it back, as a function of the
// number of distinct values, on CODS's data-level path (D) versus the
// query-level baselines (C, C+I, S, M). Every system at one x-point must
// produce the same number of output rows; a disagreement fails the run.
//
// Usage:
//
//	codsbench [-experiment decompose|merge|general-merge|scale|all]
//	          [-rows N] [-distinct 100,1000,...] [-systems D,C,C+I,S,M]
//	          [-zipf s] [-seed n] [-quiet]
//
// The default row count (2,000,000) keeps a full sweep inside laptop
// memory; -rows 10000000 reproduces the paper's scale. Times are for the
// evolution step only — input loading is excluded, as in the paper.
//
// This driver prints the figure; it does not judge changes. The
// repository's benchmark is the benchmark/ directory (benchmark/README.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cods/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "decompose | merge | general-merge | scale | all")
	rows := flag.Int("rows", 2_000_000, "input rows (the paper uses 10000000)")
	distinct := flag.String("distinct", "100,1000,10000,100000,1000000", "comma-separated distinct-value counts (the Figure 3 x-axis)")
	systems := flag.String("systems", "", "comma-separated system keys (default: the figure's lines)")
	zipf := flag.Float64("zipf", 0, "Zipf skew parameter for key frequencies (>1 to enable)")
	seed := flag.Int64("seed", 1, "workload generation seed")
	quiet := flag.Bool("quiet", false, "suppress per-measurement progress")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "codsbench: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

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
