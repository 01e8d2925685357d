package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runQuick runs the command in-process at the self-test scale and returns
// the report it wrote.
func runQuick(t *testing.T, args ...string) report {
	t.Helper()
	t.Setenv("TMPDIR", t.TempDir())
	out := filepath.Join(t.TempDir(), "out.json")
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"-quick", "-seconds", "0.5", "-out", out}, args...), &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d\nstderr: %s\nstdout: %s", code, &stderr, &stdout)
	}
	var rep report
	if err := loadJSON(out, &rep); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line of standard output is not a JSON object: %v", err)
	}
	for _, key := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := last[key]; !ok || len(last) != 4 {
			t.Errorf("last line has keys %v, want exactly correct, attempted, failed, metrics", sortedKeys(last))
		}
	}
	return rep
}

// checkDeclared asserts that a run reports exactly the declared metrics,
// each with its declared unit and a finite value.
func checkDeclared(t *testing.T, run record, declared []specMetric) {
	t.Helper()
	if !run.Correct || run.Failed != 0 || run.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", run.Workload, run.Correct, run.Attempted, run.Failed)
	}
	want := make(map[string]string)
	for _, m := range declared {
		want[m.Name] = m.Unit
	}
	for name, m := range run.Metrics {
		if unit, ok := want[name]; !ok {
			t.Errorf("%s reports %s, which BENCHMARK.json does not declare", run.Workload, name)
		} else if unit != m.Unit {
			t.Errorf("%s reports %s in %q, BENCHMARK.json declares %q", run.Workload, name, m.Unit, unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s reports %s = %v", run.Workload, name, m.Value)
		}
	}
	for name := range want {
		if _, ok := run.Metrics[name]; !ok {
			t.Errorf("%s does not report %s, which BENCHMARK.json declares", run.Workload, name)
		}
	}
}

func TestQuickRunMatchesDeclaration(t *testing.T) {
	var spec benchSpec
	if err := loadJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}

	untraced := runQuick(t)
	if len(untraced.Runs) != len(workloads) {
		t.Fatalf("got %d runs, want one per workload", len(untraced.Runs))
	}
	for i, run := range untraced.Runs {
		if run.Workload != workloads[i].name {
			t.Errorf("run %d is %q, want %q", i, run.Workload, workloads[i].name)
		}
		checkDeclared(t, run, spec.EndToEnd)
		for name, m := range run.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", run.Workload, name, m.Value)
			}
		}
	}

	// durable has one client and a fixed statement list, so its byte
	// counts repeat exactly at a fixed seed.
	first := runQuick(t, "-workload", "durable", "-trace", "1").Runs[0]
	second := runQuick(t, "-workload", "durable", "-trace", "1").Runs[0]
	checkDeclared(t, first, spec.PerLayer)
	for _, name := range []string{"storage.wal_bytes_per_stmt", "storage.snapshot_bytes", "core.compactions"} {
		if a, b := first.Metrics[name].Value, second.Metrics[name].Value; a != b || a == 0 {
			t.Errorf("%s is %v then %v at the same seed, want equal and non-zero", name, a, b)
		}
	}
	again := runQuick(t, "-workload", "durable").Runs[0]
	if a, b := untraced.Runs[3].Metrics["space_amp"].Value, again.Metrics["space_amp"].Value; a != b {
		t.Errorf("durable space_amp is %v then %v at the same seed", a, b)
	}
}

func TestStatementStreamsFollowSeed(t *testing.T) {
	stream := func(seed int64) string {
		data := genData(seed, 500, 50)
		var b strings.Builder
		for _, r := range data.rows {
			b.WriteString(strings.Join(r, ",") + "\n")
		}
		g := newDMLGen(seed+1, "R", "0", data)
		for i := 0; i < 200; i++ {
			b.WriteString(g.next().text + "\n")
		}
		m := newMixClient(nil, nil, data, seed, "0", nil)
		for i := 0; i < 200; i++ {
			b.WriteString(keyName(m.keys.next()) + "\n")
		}
		return b.String()
	}
	if stream(1) != stream(1) {
		t.Error("the same seed gave two different input streams")
	}
	if stream(1) == stream(2) {
		t.Error("two seeds gave the same input stream")
	}
}

// query and htap release the generated rows before they measure, so that
// heap_mb does not count them. The statement stream and the model's row
// count must be the same with the rows gone.
func TestDMLStreamSurvivesReleasedRows(t *testing.T) {
	stream := func(release bool) (texts []string, bs map[string]bool) {
		data := genData(5, 500, 50)
		if release {
			data.rows = nil
		}
		if data.nrows != 500 {
			t.Fatalf("the model counts %d rows, want 500", data.nrows)
		}
		g := newDMLGen(6, "R", "0", data)
		bs = make(map[string]bool)
		for i := 0; i < 200; i++ {
			s := g.next()
			texts = append(texts, s.text)
			if s.kind != kindDelete {
				bs[s.b] = true
			}
		}
		return texts, bs
	}
	kept, _ := stream(false)
	released, bs := stream(true)
	if strings.Join(kept, "\n") != strings.Join(released, "\n") {
		t.Error("releasing the generated rows changed the DML stream")
	}
	if len(bs) < 20 {
		t.Errorf("150 INSERTs and UPDATEs after the rows were released carry %d distinct B values, want them spread over %d", len(bs), 500/10+1)
	}
}

func TestGeneratedDataCoversEveryKey(t *testing.T) {
	data := genData(7, 1000, 100)
	if len(data.rows) != 1000 || len(data.perKey) != 100 {
		t.Fatalf("got %d rows over %d keys", len(data.rows), len(data.perKey))
	}
	cOf := make(map[string]string)
	for _, r := range data.rows {
		if c, ok := cOf[r[0]]; ok && c != r[2] {
			t.Fatalf("key %s maps to both %s and %s: the FD A -> C is broken", r[0], c, r[2])
		}
		cOf[r[0]] = r[2]
	}
	if len(cOf) != 100 {
		t.Errorf("%d distinct keys occur, want 100", len(cOf))
	}
	if data.hash != hashRows(data.rows) {
		t.Error("dataset hash disagrees with hashRows")
	}
}

func TestModelVerify(t *testing.T) {
	data := genData(3, 200, 20)
	g := newDMLGen(4, "R", "0", data)
	m := newModel(data)
	rows := append([][]string(nil), data.rows...)
	for i := 0; i < 40; i++ {
		s := g.next()
		m.apply(s)
		switch s.kind {
		case kindInsert:
			rows = append(rows, []string{s.key, s.b, s.c})
		case kindUpdate:
			for j, r := range rows {
				if r[0] == s.key {
					rows[j] = []string{r[0], s.b, r[2]}
				}
			}
		case kindDelete:
			for j, r := range rows {
				if r[0] == s.key {
					rows = append(rows[:j:j], rows[j+1:]...)
					break
				}
			}
		}
	}
	if checked, wrong := m.verify(rows); wrong != 0 || checked < 30 {
		t.Errorf("a faithful table: %d of %d checks wrong", wrong, checked)
	}
	if _, wrong := m.verify(rows[:len(rows)-1]); wrong == 0 {
		t.Error("a table missing its last acknowledged insert passed verification")
	}
}

func TestPercentilesAgainstKnownVectors(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for p, want := range map[float64]float64{5: 15, 30: 20, 40: 20, 50: 35, 95: 50, 100: 50} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, p, got, want)
		}
	}
	if got := percentile([]float64{3, 1, 2, 4}, 50); got != 2 {
		t.Errorf("nearest-rank median of four = %v, want 2", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "latency", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "rate", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, c := range []struct {
		m    specMetric
		a, b []float64
		want string
	}{
		{lower, steady, []float64{105, 104, 106, 105}, verdictOK},
		{lower, steady, []float64{120, 121, 119, 120}, verdictWorse},
		{lower, steady, []float64{80, 81, 79, 80}, verdictOK},
		{higher, steady, []float64{80, 81, 79, 80}, verdictWorse},
		{higher, steady, []float64{120, 121, 119, 120}, verdictOK},
		{lower, steady, []float64{70, 130, 100, 101}, verdictUnresolved},
	} {
		if _, got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.Better, c.a, c.b, got, c.want)
		}
	}
}
