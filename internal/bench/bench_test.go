package bench

import (
	"bytes"
	"strings"
	"testing"
)

func smallConfig(systems []System) Config {
	return Config{
		Rows:           4000,
		DistinctCounts: []int{10, 100, 10000 /* skipped: > rows */},
		Systems:        systems,
		Seed:           1,
	}
}

func TestRunDecomposeAllSystems(t *testing.T) {
	res, err := RunDecompose(smallConfig(Figure3aSystems))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Xs) != 2 {
		t.Fatalf("distincts=%v (10000 should be skipped)", res.Xs)
	}
	if len(res.Points) != 2*len(Figure3aSystems) {
		t.Fatalf("points=%d", len(res.Points))
	}
	// Every system must produce the same output cardinality: rows(S) +
	// rows(T) = rows + distinct-drawn.
	for _, d := range res.Xs {
		var want uint64
		for _, sys := range Figure3aSystems {
			p := res.point(sys, d)
			if p == nil {
				t.Fatalf("missing point %s d=%d", sys, d)
			}
			if want == 0 {
				want = p.OutputRows
			}
			if p.OutputRows != want {
				t.Fatalf("d=%d: %s wrote %d rows, others wrote %d", d, sys, p.OutputRows, want)
			}
		}
	}
}

func TestRunMergeAllSystems(t *testing.T) {
	res, err := RunMerge(smallConfig(Figure3bSystems))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range res.Xs {
		for _, sys := range Figure3bSystems {
			p := res.point(sys, d)
			if p == nil || p.OutputRows != 4000 {
				t.Fatalf("merge %s d=%d: %+v", sys, d, p)
			}
		}
	}
}

func TestRunGeneralMergeAllSystems(t *testing.T) {
	res, err := RunGeneralMerge(smallConfig([]System{SystemCODS, SystemCommercial, SystemMonet}))
	if err != nil {
		t.Fatal(err)
	}
	// Every join value has two dimension rows: output = 2x input rows.
	for _, d := range res.Xs {
		for _, sys := range []System{SystemCODS, SystemCommercial, SystemMonet} {
			p := res.point(sys, d)
			if p == nil || p.OutputRows != 8000 {
				t.Fatalf("general merge %s d=%d: %+v", sys, d, p)
			}
		}
	}
}

func TestFormatAndSpeedups(t *testing.T) {
	res, err := RunDecompose(Config{
		Rows:           2000,
		DistinctCounts: []int{50},
		Systems:        []System{SystemCODS, SystemCommercial},
		Seed:           2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Format(&buf)
	out := buf.String()
	for _, want := range []string{"#distinct", "D", "C", "50", "decompose"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted output missing %q:\n%s", want, out)
		}
	}
	sp := res.Speedups()
	if _, ok := sp[50]; !ok {
		t.Fatalf("speedups=%v", sp)
	}
}

// TestFormatScaleAxis checks a scale result labels its x-axis as row
// counts and its fixed parameter as a distinct-value count.
func TestFormatScaleAxis(t *testing.T) {
	res := &Result{
		Experiment: "scale",
		Axis:       AxisRows,
		Fixed:      10000,
		Systems:    []System{SystemCODS},
		Xs:         []int{5000, 20000},
		Points:     []Point{{System: SystemCODS, X: 5000}, {System: SystemCODS, X: 20000}},
	}
	var buf bytes.Buffer
	res.Format(&buf)
	lines := strings.Split(buf.String(), "\n")
	if want := "# scale, at most 10000 distinct values (time vs #rows)"; lines[0] != want {
		t.Fatalf("header = %q, want %q", lines[0], want)
	}
	if f := strings.Fields(lines[1]); len(f) != 2 || f[0] != "#rows" || f[1] != "D" {
		t.Fatalf("grid header = %q, want #rows then D", lines[1])
	}
	if f := strings.Fields(lines[2]); len(f) != 2 || f[0] != "5000" {
		t.Fatalf("first grid row = %q, want x = 5000", lines[2])
	}
	if strings.Contains(buf.String(), "#distinct") || strings.Contains(buf.String(), "input rows") {
		t.Fatalf("scale result labelled with the distinct axis:\n%s", buf.String())
	}
}

func TestProgressCallback(t *testing.T) {
	var lines int
	cfg := Config{
		Rows:           1000,
		DistinctCounts: []int{10},
		Systems:        []System{SystemCODS},
		Seed:           3,
		Progress:       func(format string, args ...any) { lines++ },
	}
	if _, err := RunDecompose(cfg); err != nil {
		t.Fatal(err)
	}
	if lines != 1 {
		t.Fatalf("progress lines=%d", lines)
	}
}

func TestRunScale(t *testing.T) {
	cfg := Config{Systems: []System{SystemCODS, SystemCommercial}, Seed: 5}
	res, err := RunScale(cfg, []int{500, 1000}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 4 {
		t.Fatalf("points=%d", len(res.Points))
	}
	for _, rows := range []int{500, 1000} {
		p := res.point(SystemCODS, rows)
		if p == nil {
			t.Fatalf("missing point rows=%d", rows)
		}
		// decompose outputs: rows(S)=rows plus rows(T)=distinct drawn.
		if p.OutputRows < uint64(rows) {
			t.Fatalf("rows=%d output=%d", rows, p.OutputRows)
		}
	}
}

func TestUnknownSystem(t *testing.T) {
	cfg := Config{Rows: 100, DistinctCounts: []int{10}, Systems: []System{"Z"}, Seed: 4}
	if _, err := RunDecompose(cfg); err == nil {
		t.Fatal("unknown system should fail")
	}
	if _, err := RunMerge(cfg); err == nil {
		t.Fatal("unknown system should fail")
	}
	if _, err := RunGeneralMerge(cfg); err == nil {
		t.Fatal("unknown system should fail")
	}
}

func TestCheckOutputsRejectsDisagreement(t *testing.T) {
	res := &Result{Experiment: "decompose", Points: []Point{
		{System: SystemCODS, X: 10, OutputRows: 110},
		{System: SystemMonet, X: 10, OutputRows: 110},
		{System: SystemCODS, X: 100, OutputRows: 200},
		{System: SystemCommercial, X: 100, OutputRows: 199},
	}}
	err := res.checkOutputs()
	if err == nil {
		t.Fatal("disagreeing output rows at d=100 passed the check")
	}
	for _, want := range []string{"x=100", "C wrote 199", "D wrote 200"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not name %q", err, want)
		}
	}
	res.Points[3].OutputRows = 200
	if err := res.checkOutputs(); err != nil {
		t.Fatalf("agreeing points rejected: %v", err)
	}
}
