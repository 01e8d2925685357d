// Command benchmark is the one benchmark of CODS: four named workloads
// (evolve, query, htap, durable), each building a fresh database from
// -seed, verifying what it measures, and printing every metric by name
// with its unit. BENCHMARK.json at the repository root declares the
// workloads, the gated end-to-end metrics with their bounds, and the
// ungated per-layer metrics; README.md in this directory says why each
// was chosen and which layer is predicted to move which number.
//
//	go run ./benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1]
//	                   [-repeat N] [-quick] [-out FILE]
//	go run ./benchmark compare [-spec BENCHMARK.json] a.json b.json
//
// Without -workload all four run in turn. The untraced run (-trace 0)
// gives the end-to-end metrics; the traced run (-trace 1) records one
// span per call the harness makes, replays each layer's calls down a
// ladder of ever-shorter paths, and gives the per-layer metrics. The last
// line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Any failed or wrong-answer operation
// makes the command exit non-zero.
//
// The package measures every layer from outside, through public
// functions only, and carries its own generator and percentile code: it
// imports nothing the ROADMAP plans to move or delete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
)

// workloads lists the four workloads in the order they run. setupReps
// is how often an untraced run builds the workload's database: setup_s is
// the median, and the cheap set-ups need more repetitions to be steady.
var workloads = []struct {
	name      string
	run       func(runConfig) (*outcome, error)
	setupReps int
}{
	{"evolve", runEvolve, 3},
	{"query", runQuery, 5},
	{"htap", runHTAP, 11},
	{"durable", runDurable, 5},
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run in the -out file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// environment is recorded once per -out file.
type environment struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	NumCPU      int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Clients     int     `json:"clients"`
	Seed        int64   `json:"seed"`
	Seconds     float64 `json:"seconds"`
	Quick       bool    `json:"quick"`
	FlushPolicy string  `json:"flush_policy"`
}

// report is the -out file: what compare reads.
type report struct {
	Env  environment `json:"env"`
	Runs []record    `json:"runs"`
}

// buildCommit is set by run.sh through the linker; a plain `go run` or
// `go build` leaves it empty and the commit comes from the VCS stamp.
var buildCommit string

func commit() string {
	if buildCommit != "" {
		return buildCommit
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// finite maps NaN and the infinities to 0: JSON has none of them, and a
// ratio whose base timed as zero (only at the self-test scale) must not
// make the result line unencodable.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// endToEnd computes the gated metrics of one untraced run.
func endToEnd(workload string, o *outcome) (map[string]metric, map[string]string) {
	m := map[string]metric{
		"setup_s":   {p50(o.setups), "s"},
		"ops_per_s": {finite(float64(o.ops) / o.wall.Seconds()), "1/s"},
		"heap_mb":   {o.heapMB, "MiB"},
		"space_amp": {o.spaceAmp, "ratio"},
	}
	notes := map[string]string{"setup_s": fmt.Sprintf("n=%d", len(o.setups))}
	for i, class := range slots[workload] {
		name := fmt.Sprintf("op%d_p50_ms", i+1)
		m[name] = metric{p50(o.log.samples[class]), "ms"}
		notes[name] = fmt.Sprintf("%s, n=%d", class, len(o.log.samples[class]))
	}
	return m, notes
}

// output is one run of one workload: the result line, and what the text
// above it lists.
type output struct {
	res   result
	show  []string          // the metrics listed under this workload, in order
	notes map[string]string // metric -> what stands beside it
	extra []string          // further lines that are not metrics
}

// runOne runs one workload once. Untraced, it reports the end-to-end
// metrics. Traced, it runs the workload twice on one set-up each, a
// fifth of -seconds long — first with tracing off, then on, which gives
// the tracing overhead — and reports the per-layer metrics: the ladder's,
// which the caller measured once for the whole set, and the workload's
// own gauges and per-class tails.
func runOne(w int, cfg runConfig, tr *tracer, ladder map[string]metric) (output, error) {
	name, run := workloads[w].name, workloads[w].run
	runtime.GC()
	if tr == nil {
		cfg.setupReps = workloads[w].setupReps
		o, err := run(cfg)
		if err != nil {
			return output{}, err
		}
		reportErr(name, o.log)
		m, notes := endToEnd(name, o)
		out := output{res: result{o.log.failed == 0, o.log.attempted, o.log.failed, m}, show: sortedKeys(m), notes: notes}
		for _, class := range sortedKeys(o.log.samples) {
			xs := o.log.samples[class]
			out.extra = append(out.extra, fmt.Sprintf("  class %-10s n=%-6d p50=%.4f ms", class, len(xs), p50(xs)))
		}
		return out, nil
	}
	cfg.setupReps = 1
	cfg.seconds /= 5
	plain, err := run(cfg)
	if err != nil {
		return output{}, err
	}
	runtime.GC()
	cfg.tr = tr
	traced, err := run(cfg)
	if err != nil {
		return output{}, err
	}
	// The result line carries every declared per-layer metric; the text
	// lists the ones this workload measured itself.
	own, show := workloadLayerMetrics(traced)
	own["trace_overhead_ratio"] = metric{
		finite((float64(traced.ops) / traced.wall.Seconds()) / (float64(plain.ops) / plain.wall.Seconds())), "ratio",
	}
	show = append(show, "trace_overhead_ratio")
	for n, v := range ladder {
		own[n] = v
	}
	plain.log.merge(traced.log)
	reportErr(name, plain.log)
	return output{res: result{plain.log.failed == 0, plain.log.attempted, plain.log.failed, own}, show: show}, nil
}

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run is main without the exit: it returns the process's exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload: evolve, query, htap or durable (default: all four)")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 10, "length of each workload's measured phase")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	repeat := fs.Int("repeat", 1, "run this many sets and report median and quartiles per metric")
	quick := fs.Bool("quick", false, "self-test sizes, about 1/50 of the real ones")
	out := fs.String("out", "", "write every run as JSON to this file (and the spans to FILE.trace.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *repeat < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	var selected []int
	for i, w := range workloads {
		if *workload == "" || *workload == w.name {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, prof: fullProfile}
	if *quick {
		cfg.prof = quickProfile
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	rep := report{Env: environment{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: clients(), Seed: *seed, Seconds: *seconds, Quick: *quick,
		FlushPolicy: "engine default: one WAL fsync per Exec",
	}}
	fmt.Fprintf(stdout, "benchmark: commit=%s %s nproc=%d GOMAXPROCS=%d clients=%d seed=%d seconds=%g quick=%v flush=%q\n",
		rep.Env.Commit, rep.Env.GoVersion, rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.Clients, *seed, *seconds, *quick, rep.Env.FlushPolicy)

	printMetrics := func(m map[string]metric, names []string, notes map[string]string) {
		for _, n := range names {
			line := fmt.Sprintf("  %-32s %14.4f %s", n, m[n].Value, m[n].Unit)
			if notes[n] != "" {
				line += "  # " + notes[n]
			}
			fmt.Fprintln(stdout, line)
		}
	}
	code := 0
	for set := 0; set < *repeat; set++ {
		// The ladder does not depend on the workload: it runs once per set,
		// is printed once, and goes into every workload's result line.
		var ladder map[string]metric
		if tr != nil {
			var err error
			lcfg := cfg
			lcfg.tr = tr
			if ladder, err = runLadder(lcfg); err != nil {
				fmt.Fprintf(stderr, "benchmark: ladder: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "ladder set=%d\n", set+1)
			printMetrics(ladder, sortedKeys(ladder), nil)
		}
		for _, w := range selected {
			out, err := runOne(w, cfg, tr, ladder)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", workloads[w].name, err)
				return 1
			}
			res := out.res
			if !res.Correct {
				code = 1
			}
			rep.Runs = append(rep.Runs, record{workloads[w].name, *seed, tr != nil, res})
			fmt.Fprintf(stdout, "workload=%s set=%d trace=%d attempted=%d failed=%d fail_ratio=%g\n",
				workloads[w].name, set+1, *trace, res.Attempted, res.Failed, float64(res.Failed)/float64(res.Attempted))
			printMetrics(res.Metrics, out.show, out.notes)
			for _, line := range out.extra {
				fmt.Fprintln(stdout, line)
			}
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", workloads[w].name, err)
				return 1
			}
			fmt.Fprintf(stdout, "%s\n", line)
		}
	}
	if *repeat > 1 {
		printSpread(stdout, rep)
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if tr != nil {
			if err := tr.write(*out + ".trace.json"); err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
		}
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
