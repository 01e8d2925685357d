package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// benchSpec is BENCHMARK.json as far as this program reads it.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// values groups a report's runs: workload -> metric -> one value per
// run. End-to-end and per-layer names never collide, so traced and
// untraced runs can share a file.
func (r *report) values() map[string]map[string][]float64 {
	out := make(map[string]map[string][]float64)
	for _, run := range r.Runs {
		if out[run.Workload] == nil {
			out[run.Workload] = make(map[string][]float64)
		}
		for name, m := range run.Metrics {
			out[run.Workload][name] = append(out[run.Workload][name], m.Value)
		}
	}
	return out
}

// Verdicts of one compared metric.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge compares the medians of a (the base) and b (the change) for one
// metric. worse is the share of the base median by which b is worse,
// negative when it is better. A difference beyond the bound is "worse";
// within it, the row is "ok" only if both sides' own spread is within
// the bound too — otherwise the runs cannot tell, and it is "unresolved".
func judge(m specMetric, a, b []float64) (worse float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if m.Better == "higher" {
			worse = -worse
		}
	}
	switch {
	case worse > m.Bound:
		return worse, verdictWorse
	case spread(a) > m.Bound || spread(b) > m.Bound:
		return worse, verdictUnresolved
	}
	return worse, verdictOK
}

// compareMain implements `benchmark compare a.json b.json`: one row per
// end-to-end metric and workload, and a non-zero exit on any "worse".
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark declaration holding each metric's direction and bound")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare [-spec BENCHMARK.json] base.json change.json")
		return 2
	}
	var spec benchSpec
	var a, b report
	for path, v := range map[string]any{*specPath: &spec, fs.Arg(0): &a, fs.Arg(1): &b} {
		if err := loadJSON(path, v); err != nil {
			fmt.Fprintf(stderr, "benchmark compare: %v\n", err)
			return 2
		}
	}
	va, vb := a.values(), b.values()
	code := 0
	fmt.Fprintf(stdout, "%-8s %-12s %14s %14s %-6s %8s %6s %7s %7s  %s\n",
		"workload", "metric", "base", "change", "unit", "worse", "bound", "iqr(a)", "iqr(b)", "verdict")
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := va[w.Name][m.Name], vb[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			worse, verdict := judge(m, xa, xb)
			if verdict == verdictWorse {
				code = 1
			}
			fmt.Fprintf(stdout, "%-8s %-12s %14.4f %14.4f %-6s %+7.1f%% %5.1f%% %6.1f%% %6.1f%%  %s\n",
				w.Name, m.Name, median(xa), median(xb), m.Unit, 100*worse, 100*m.Bound, 100*spread(xa), 100*spread(xb), verdict)
		}
	}
	return code
}

// printSpread summarizes a -repeat run: median, quartiles and spread of
// every metric over the sets.
func printSpread(w io.Writer, rep report) {
	fmt.Fprintf(w, "%-8s %-32s %14s %14s %14s %7s\n", "workload", "metric", "median", "q1", "q3", "iqr")
	byWorkload := rep.values()
	for _, wl := range workloads {
		for _, name := range sortedKeys(byWorkload[wl.name]) {
			xs := byWorkload[wl.name][name]
			q1, _, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-8s %-32s %14.4f %14.4f %14.4f %6.1f%%\n", wl.name, name, median(xs), q1, q3, 100*spread(xs))
		}
	}
}
