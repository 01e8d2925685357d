package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"cods"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server, *cods.DB) {
	t.Helper()
	db := cods.Open(cods.Config{})
	if err := db.CreateTableFromRows("emp",
		[]string{"Employee", "Skill", "Address"}, nil,
		[][]string{
			{"alice", "go", "1 Main St"},
			{"bob", "sql", "2 Oak Ave"},
			{"carol", "go", "3 Pine Rd"},
		}); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, db
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestHealthz(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var body map[string]any
	resp := getJSON(t, ts.URL+"/healthz", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if body["status"] != "ok" {
		t.Fatalf("body = %v", body)
	}
}

func TestQueryEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)

	resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{Table: "emp", Where: "Skill = 'go'"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != 2 || len(qr.Rows) != 2 {
		t.Fatalf("row_count = %d, rows = %v", qr.RowCount, qr.Rows)
	}

	// Aggregate with grouping.
	resp, raw = postJSON(t, ts.URL+"/query", QueryRequest{
		Table:      "emp",
		GroupBy:    "Skill",
		Aggregates: []AggSpec{{Func: "count", As: "n"}},
		OrderBy:    "n",
		Desc:       true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate status = %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 2 || qr.Rows[0][0] != "go" || qr.Rows[0][1] != "2" {
		t.Fatalf("aggregate rows = %v", qr.Rows)
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cases := []struct {
		name string
		req  any
		want int
	}{
		{"missing table", QueryRequest{}, http.StatusBadRequest},
		{"unknown table", QueryRequest{Table: "nope"}, http.StatusNotFound},
		{"bad where", QueryRequest{Table: "emp", Where: "Skill ="}, http.StatusBadRequest},
		{"bad aggregate", QueryRequest{Table: "emp", Aggregates: []AggSpec{{Func: "median"}}}, http.StatusBadRequest},
		{"unknown field", map[string]any{"table": "emp", "nonsense": 1}, http.StatusBadRequest},
		{"negative limit", QueryRequest{Table: "emp", Limit: -1}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, raw := postJSON(t, ts.URL+"/query", c.req)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, resp.StatusCode, c.want, raw)
		}
		var e map[string]string
		if err := json.Unmarshal(raw, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: error body = %s", c.name, raw)
		}
	}
}

func TestExecEndpoint(t *testing.T) {
	_, ts, db := newTestServer(t)

	resp, raw := postJSON(t, ts.URL+"/exec", ExecRequest{
		Op: "DECOMPOSE TABLE emp INTO skills (Employee, Skill), addrs (Employee, Address)",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, raw)
	}
	var er ExecResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Results) != 1 || er.Results[0].Kind != "DECOMPOSE TABLE" || er.Results[0].Version != 1 {
		t.Fatalf("results = %+v", er.Results)
	}
	if !db.HasTable("skills") || db.HasTable("emp") {
		t.Fatalf("catalog after exec = %v", db.Tables())
	}

	// A script runs multiple statements.
	resp, raw = postJSON(t, ts.URL+"/exec", ExecRequest{
		Script: "COPY TABLE skills TO s2; DROP TABLE s2",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("script status = %d: %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Results) != 2 {
		t.Fatalf("script results = %+v", er.Results)
	}
}

func TestExecErrorMapping(t *testing.T) {
	_, ts, _ := newTestServer(t)
	cases := []struct {
		name string
		req  ExecRequest
		want int
	}{
		{"unknown statement", ExecRequest{Op: "TRANSMOGRIFY emp"}, http.StatusBadRequest},
		{"parse error", ExecRequest{Op: "CREATE TABLE"}, http.StatusBadRequest},
		{"execution failure", ExecRequest{Op: "DROP TABLE nosuch"}, http.StatusUnprocessableEntity},
		{"neither op nor script", ExecRequest{}, http.StatusBadRequest},
		{"both op and script", ExecRequest{Op: "DROP TABLE a", Script: "DROP TABLE b"}, http.StatusBadRequest},
	}
	for _, c := range cases {
		resp, raw := postJSON(t, ts.URL+"/exec", c.req)
		if resp.StatusCode != c.want {
			t.Errorf("%s: status = %d, want %d (%s)", c.name, resp.StatusCode, c.want, raw)
		}
	}
}

// A body one byte over the 16 MiB cap is refused as too large (413),
// not reported as a truncated-JSON client error (400).
func TestOversizedBodyIs413(t *testing.T) {
	_, ts, _ := newTestServer(t)
	const limit = 16 << 20
	prefix, suffix := `{"script":"`, `"}`
	body := append([]byte(prefix), bytes.Repeat([]byte("x"), limit+1-len(prefix)-len(suffix))...)
	body = append(body, suffix...)
	if len(body) != limit+1 {
		t.Fatalf("test body is %d bytes, want %d", len(body), limit+1)
	}
	resp, err := http.Post(ts.URL+"/exec", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("413 body is not JSON: %v", err)
	}
	if e.Error == "" {
		t.Fatal("413 body has no error message")
	}
}

// A mid-script failure commits (and journals) the leading statements;
// the error response must carry them so the client knows what happened.
func TestExecScriptPartialFailureReportsResults(t *testing.T) {
	_, ts, db := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/exec", ExecRequest{
		Script: "COPY TABLE emp TO e2; DROP TABLE nosuch",
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (%s)", resp.StatusCode, raw)
	}
	var body struct {
		Error   string       `json:"error"`
		Results []ExecResult `json:"results"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Error == "" {
		t.Fatalf("no error in body: %s", raw)
	}
	if len(body.Results) != 1 || body.Results[0].Kind != "COPY TABLE" {
		t.Fatalf("partial results = %+v, want the committed COPY TABLE", body.Results)
	}
	if !db.HasTable("e2") {
		t.Fatal("committed statement missing from catalog")
	}
}

func TestSchemaEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	var sr SchemaResponse
	resp := getJSON(t, ts.URL+"/schema", &sr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if len(sr.Tables) != 1 || sr.Tables[0].Name != "emp" || sr.Tables[0].Rows != 3 {
		t.Fatalf("schema = %+v", sr)
	}
	if len(sr.Tables[0].Columns) != 3 {
		t.Fatalf("columns = %+v", sr.Tables[0].Columns)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, ts, _ := newTestServer(t)
	postJSON(t, ts.URL+"/query", QueryRequest{Table: "emp"})
	postJSON(t, ts.URL+"/query", QueryRequest{Table: "nope"})

	var st StatsResponse
	resp := getJSON(t, ts.URL+"/stats", &st)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	q := st.Endpoints["/query"]
	if q.Requests != 2 || q.Errors != 1 {
		t.Fatalf("/query stats = %+v", q)
	}
	if st.MaxInFlight <= 0 {
		t.Fatalf("max_in_flight = %d", st.MaxInFlight)
	}
}

func TestCheckpointEndpointOnDurableDB(t *testing.T) {
	dir := t.TempDir()
	db, err := cods.OpenDurable(dir, cods.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/exec", ExecRequest{Op: "CREATE TABLE r (a)"})
	resp, raw := postJSON(t, ts.URL+"/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkpoint status = %d: %s", resp.StatusCode, raw)
	}

	// In-memory databases cannot checkpoint.
	_, ts2, _ := newTestServer(t)
	resp, _ = postJSON(t, ts2.URL+"/checkpoint", struct{}{})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("in-memory checkpoint status = %d", resp.StatusCode)
	}
}

// TestConcurrentQueriesVsExec hammers /query from many goroutines while
// /exec evolves the schema underneath them. Every query must see a whole
// schema version: either the old table or the new ones, never an error
// other than 404 (the old name disappearing is expected).
func TestConcurrentQueriesVsExec(t *testing.T) {
	_, ts, _ := newTestServer(t)

	const readers = 8
	const queriesPerReader = 30
	var wg sync.WaitGroup
	errs := make(chan string, readers*queriesPerReader)

	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < queriesPerReader; j++ {
				// Either name may 404 while the evolution loop has the
				// other schema live; a successful response must always
				// show that name's complete schema — never a half-applied
				// decomposition.
				for table, wantCols := range map[string]int{"emp": 3, "skills": 2} {
					resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{Table: table})
					switch resp.StatusCode {
					case http.StatusNotFound:
					case http.StatusOK:
						var qr QueryResponse
						if err := json.Unmarshal(raw, &qr); err != nil {
							errs <- fmt.Sprintf("%s: bad body %s", table, raw)
							continue
						}
						if len(qr.Columns) != wantCols || qr.RowCount != 3 {
							errs <- fmt.Sprintf("%s: saw %d columns, %d rows (want %d, 3): torn schema", table, len(qr.Columns), qr.RowCount, wantCols)
						}
					default:
						errs <- fmt.Sprintf("%s query status %d: %s", table, resp.StatusCode, raw)
					}
				}
			}
		}()
	}

	// Evolve mid-flight: decompose, then merge back, repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k < 5; k++ {
			resp, raw := postJSON(t, ts.URL+"/exec", ExecRequest{
				Op: "DECOMPOSE TABLE emp INTO skills (Employee, Skill), addrs (Employee, Address)",
			})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("decompose: %d %s", resp.StatusCode, raw)
				return
			}
			resp, raw = postJSON(t, ts.URL+"/exec", ExecRequest{
				Op: "MERGE TABLES skills, addrs INTO emp",
			})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Sprintf("merge: %d %s", resp.StatusCode, raw)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestMaxInFlightQueuesRequests runs many concurrent queries through a
// single request slot: all must succeed (queued, not rejected), and the
// stats gauge must never exceed the cap.
func TestMaxInFlightQueuesRequests(t *testing.T) {
	db := cods.Open(cods.Config{})
	if err := db.CreateTableFromRows("r", []string{"a"}, nil, [][]string{{"1"}}); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{MaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 16
	var wg sync.WaitGroup
	statuses := make(chan int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/query", QueryRequest{Table: "r"})
			statuses <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(statuses)
	for code := range statuses {
		if code != http.StatusOK {
			t.Errorf("status = %d, want 200 (requests must queue, not fail)", code)
		}
	}
	if got := s.inFlight.Load(); got != 0 {
		t.Errorf("in-flight gauge = %d after drain, want 0", got)
	}
}

func TestGracefulShutdown(t *testing.T) {
	db := cods.Open(cods.Config{})
	s := New(db, Config{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve(l) }()

	url := "http://" + l.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("serve returned %v", err)
	}
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatal("server still accepting after shutdown")
	}
}

// TestShutdownBeforeServe: a server shut down before (or while) Serve
// starts must not serve — Serve returns a clean nil instead of running
// indefinitely past its own Shutdown.
func TestShutdownBeforeServe(t *testing.T) {
	db := cods.Open(cods.Config{})
	s := New(db, Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan error, 1)
	go func() { done <- s.Serve(l) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Shutdown: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve after Shutdown did not return")
	}
}

// TestProbesBypassAdmission: /healthz and /stats must answer while every
// request slot is held by slow queries, or an orchestrator mistakes a
// busy server for a dead one.
func TestProbesBypassAdmission(t *testing.T) {
	db := cods.Open(cods.Config{})
	s := New(db, Config{MaxInFlight: 1})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Saturate the only request slot.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	client := &http.Client{Timeout: 2 * time.Second}
	for _, path := range []string{"/healthz", "/stats"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s while saturated: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while saturated: status %d", path, resp.StatusCode)
		}
	}
}

// TestExecOpDurabilityFailureReportsResult: a single op that commits
// but cannot be made durable (checkpoint blocked) must carry its result
// in the error body, like the script path, so the client does not retry
// a live statement.
func TestExecOpDurabilityFailureReportsResult(t *testing.T) {
	dir := t.TempDir()
	db, err := cods.OpenDurable(dir, cods.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateTableFromRows("t", []string{"a"}, nil,
		[][]string{{"1"}, {"2"}}); err != nil {
		t.Fatal(err)
	}
	vals := filepath.Join(t.TempDir(), "vals.txt")
	if err := os.WriteFile(vals, []byte("p\nq\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Occupy the snapshot pointer's staging path so the op's checkpoint
	// (file-fed columns are non-replayable) fails after the op commits.
	if err := os.Mkdir(filepath.Join(dir, "CURRENT.tmp"), 0o755); err != nil {
		t.Fatal(err)
	}

	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, raw := postJSON(t, ts.URL+"/exec",
		ExecRequest{Op: "ADD COLUMN c TO t FROM '" + vals + "'"})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503: %s", resp.StatusCode, raw)
	}
	var body struct {
		Error   string       `json:"error"`
		Results []ExecResult `json:"results"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatal(err)
	}
	if body.Error == "" {
		t.Fatal("missing error")
	}
	if len(body.Results) != 1 || body.Results[0].Kind != "ADD COLUMN" {
		t.Fatalf("results = %+v, want the committed ADD COLUMN", body.Results)
	}
}

// TestProbesAnswerDuringEvolution: /healthz and /stats must answer while
// an evolution holds the catalog's exclusive lock — which also blocks
// new readers — not just while the admission queue is full. The Status
// hook parks the evolution mid-flight with the lock held.
func TestProbesAnswerDuringEvolution(t *testing.T) {
	entered := make(chan struct{})
	gate := make(chan struct{})
	var once sync.Once
	db := cods.Open(cods.Config{Status: func(string) {
		once.Do(func() { close(entered) })
		<-gate
	}})
	if err := db.CreateTableFromRows("emp",
		[]string{"Employee", "Skill", "Address"}, nil,
		[][]string{
			{"alice", "go", "1 Main St"},
			{"bob", "sql", "2 Oak Ave"},
		}); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	execDone := make(chan error, 1)
	go func() {
		_, err := db.Exec("DECOMPOSE TABLE emp INTO s1 (Employee, Skill), s2 (Employee, Address)")
		execDone <- err
	}()
	<-entered // the evolution now holds the exclusive lock

	client := &http.Client{Timeout: 2 * time.Second}
	for _, path := range []string{"/healthz", "/stats"} {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s during evolution: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s during evolution: status %d", path, resp.StatusCode)
		}
	}

	close(gate)
	if err := <-execDone; err != nil {
		t.Fatal(err)
	}
}

// TestProbesAndReadsDuringParkedEvolution parks an SMO mid-operator (via
// the facade's Status hook, while it owns the write path) and asserts
// that /healthz, /stats, /schema and /query all answer from the
// pre-evolution snapshot without waiting — no endpoint stalls behind a
// running evolution.
func TestProbesAndReadsDuringParkedEvolution(t *testing.T) {
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	db := cods.Open(cods.Config{Status: func(string) {
		once.Do(func() {
			close(parked)
			<-release
		})
	}})
	if err := db.CreateTableFromRows("emp",
		[]string{"Employee", "Skill", "Address"}, nil,
		[][]string{
			{"alice", "go", "1 Main St"},
			{"bob", "sql", "2 Oak Ave"},
			{"carol", "go", "3 Pine Rd"},
		}); err != nil {
		t.Fatal(err)
	}
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	done := make(chan error, 1)
	go func() {
		_, err := db.Exec("DECOMPOSE TABLE emp INTO skills (Employee, Skill), addrs (Employee, Address)")
		done <- err
	}()
	<-parked

	// Only t.Errorf (never the t.Fatal-based helpers) inside the
	// goroutine: FailNow must run on the test goroutine.
	get := func(url string, v any) (int, error) {
		resp, err := http.Get(url)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
	}
	post := func(url string, body any) (int, []byte, error) {
		data, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		resp, err := http.Post(url, "application/json", bytes.NewReader(data))
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return 0, nil, err
		}
		return resp.StatusCode, buf.Bytes(), nil
	}
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var health struct {
			Status        string `json:"status"`
			SchemaVersion int    `json:"schema_version"`
		}
		if code, err := get(ts.URL+"/healthz", &health); err != nil || code != http.StatusOK {
			t.Errorf("healthz status = %d, err = %v", code, err)
		}
		if health.Status != "ok" || health.SchemaVersion != 0 {
			t.Errorf("healthz = %+v, want ok/version 0", health)
		}
		var stats StatsResponse
		if code, err := get(ts.URL+"/stats", &stats); err != nil || code != http.StatusOK {
			t.Errorf("stats status = %d, err = %v", code, err)
		}
		if stats.SchemaVersion != 0 {
			t.Errorf("stats schema_version = %d, want 0", stats.SchemaVersion)
		}
		var schema SchemaResponse
		if code, err := get(ts.URL+"/schema", &schema); err != nil || code != http.StatusOK {
			t.Errorf("schema status = %d, err = %v", code, err)
		}
		if schema.Version != 0 || len(schema.Tables) != 1 || schema.Tables[0].Name != "emp" {
			t.Errorf("schema during parked evolution = %+v, want version 0 with [emp]", schema)
		}
		code, raw, err := post(ts.URL+"/query", QueryRequest{Table: "emp"})
		if err != nil || code != http.StatusOK {
			t.Errorf("query status = %d, err = %v: %s", code, err, raw)
		}
		var qr QueryResponse
		if err := json.Unmarshal(raw, &qr); err != nil {
			t.Errorf("query body: %v", err)
		} else if qr.RowCount != 3 || len(qr.Columns) != 3 {
			t.Errorf("query saw %d rows, %d columns: torn or missed snapshot", qr.RowCount, len(qr.Columns))
		}
		// The decomposition outputs must not be visible yet.
		code, _, err = post(ts.URL+"/query", QueryRequest{Table: "skills"})
		if err != nil || code != http.StatusNotFound {
			t.Errorf("query of mid-flight output table = %d (err %v), want 404", code, err)
		}
	}()

	select {
	case <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("an endpoint blocked behind a parked evolution")
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	var schema SchemaResponse
	getJSON(t, ts.URL+"/schema", &schema)
	if schema.Version != 1 || len(schema.Tables) != 2 {
		t.Fatalf("schema after evolution = %+v, want version 1 with 2 tables", schema)
	}
}

// TestQueryErrorClassification is the TOCTOU regression: /query resolves
// the table inside RunQuery's snapshot (no pre-check), and classifies the
// error — 404 for a table the catalog lacks, 400 for a query the client
// got wrong.
func TestQueryErrorClassification(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/query", QueryRequest{Table: "ghost"})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown table status = %d (%s), want 404", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/query", QueryRequest{Table: "emp", Where: "NoSuchColumn = 'x'"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad predicate status = %d (%s), want 400", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/query", QueryRequest{Table: "emp", OrderBy: "NoSuchColumn"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad order-by status = %d (%s), want 400", resp.StatusCode, raw)
	}
}

// TestExecDML drives INSERT/UPDATE/DELETE through POST /exec and checks
// /query sees the merged delta overlay — the HTTP face of the DML
// subsystem.
func TestExecDML(t *testing.T) {
	_, ts, _ := newTestServer(t)
	resp, raw := postJSON(t, ts.URL+"/exec", ExecRequest{
		Op: "INSERT INTO emp VALUES ('dave', 'go', '4 Elm St')",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("insert status = %d (%s)", resp.StatusCode, raw)
	}
	var er ExecResponse
	if err := json.Unmarshal(raw, &er); err != nil {
		t.Fatal(err)
	}
	if len(er.Results) != 1 || er.Results[0].Kind != "INSERT" {
		t.Fatalf("insert results = %+v", er.Results)
	}
	if len(er.Results[0].Created) != 0 || len(er.Results[0].Dropped) != 0 {
		t.Fatalf("DML reported catalog changes: %+v", er.Results[0])
	}

	resp, raw = postJSON(t, ts.URL+"/exec", ExecRequest{
		Script: "UPDATE emp SET Skill = 'rust' WHERE Employee = 'dave'\nDELETE FROM emp WHERE Employee = 'bob'",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dml script status = %d (%s)", resp.StatusCode, raw)
	}

	resp, raw = postJSON(t, ts.URL+"/query", QueryRequest{Table: "emp", Where: "Skill = 'rust'"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d (%s)", resp.StatusCode, raw)
	}
	var qr QueryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.RowCount != 1 || qr.Rows[0][0] != "dave" {
		t.Fatalf("query rows = %v, want dave's updated row", qr.Rows)
	}

	// Aggregates run over the merged table too.
	resp, raw = postJSON(t, ts.URL+"/query", QueryRequest{
		Table:      "emp",
		Aggregates: []AggSpec{{Func: "count"}},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("count status = %d (%s)", resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Rows[0][0] != "3" {
		t.Fatalf("count = %v, want 3 (3 seed + 1 insert - 1 delete)", qr.Rows)
	}

	// A DML statement the catalog cannot apply is the client's error.
	resp, raw = postJSON(t, ts.URL+"/exec", ExecRequest{Op: "INSERT INTO emp VALUES ('too', 'few')"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad arity status = %d (%s), want 422", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, ts.URL+"/exec", ExecRequest{Op: "DELETE FROM ghost"})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown table status = %d (%s), want 422", resp.StatusCode, raw)
	}
}

// The /stats memory gauges must show the retention and compaction
// subsystems working: pending rows while an overlay is dirty, zero plus
// a compaction tick once auto-compaction fires, and a bounded retained
// version count under Config.RetainVersions.
func TestStatsMemoryGauges(t *testing.T) {
	db := cods.Open(cods.Config{RetainVersions: 2, AutoCompactPending: 4})
	s := New(db, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJSON(t, ts.URL+"/exec", ExecRequest{Op: "CREATE TABLE kv (K, V) KEY (K)"})
	postJSON(t, ts.URL+"/exec", ExecRequest{Op: "INSERT INTO kv VALUES ('a', '1')"})
	postJSON(t, ts.URL+"/exec", ExecRequest{Op: "INSERT INTO kv VALUES ('b', '2')"})

	var st StatsResponse
	if resp := getJSON(t, ts.URL+"/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if st.Memory.PendingRows != 2 {
		t.Fatalf("pending_rows = %d, want 2", st.Memory.PendingRows)
	}
	if st.Memory.RetainedVersions == 0 || st.Memory.RetainedVersions > 3 {
		t.Fatalf("retained_versions = %d, want 1..3", st.Memory.RetainedVersions)
	}

	// Two more inserts cross the threshold: the overlay compacts.
	postJSON(t, ts.URL+"/exec", ExecRequest{Op: "INSERT INTO kv VALUES ('c', '3')"})
	postJSON(t, ts.URL+"/exec", ExecRequest{Op: "INSERT INTO kv VALUES ('d', '4')"})
	if resp := getJSON(t, ts.URL+"/stats", &st); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if st.Memory.PendingRows != 0 || st.Memory.Compactions == 0 {
		t.Fatalf("after threshold: memory = %+v, want 0 pending and >0 compactions", st.Memory)
	}
	if st.Memory.OldestRetainedVersion == 0 {
		t.Fatalf("oldest_retained_version = 0, want pruned forward (memory = %+v)", st.Memory)
	}

	// The "memory" object's keys, in order, are part of the wire format.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var mem struct {
		Tables []json.RawMessage `json:"tables"`
	}
	if err := json.Unmarshal(top["memory"], &mem); err != nil {
		t.Fatal(err)
	}
	wantMem := []string{"retained_versions", "oldest_retained_version", "pending_rows", "compactions", "segment_merges", "tables"}
	if got := objectKeys(t, top["memory"]); !reflect.DeepEqual(got, wantMem) {
		t.Fatalf("memory keys = %v, want %v", got, wantMem)
	}
	if len(mem.Tables) != 1 {
		t.Fatalf("memory.tables = %d entries, want 1", len(mem.Tables))
	}
	wantTable := []string{"table", "segments", "min_rows", "max_rows"}
	if got := objectKeys(t, mem.Tables[0]); !reflect.DeepEqual(got, wantTable) {
		t.Fatalf("memory.tables[0] keys = %v, want %v", got, wantTable)
	}
}

// objectKeys returns a JSON object's top-level keys in wire order.
func objectKeys(t *testing.T, raw json.RawMessage) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object: %s", raw)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// GET /history pages the executed-operator log from the tail: the
// default page, an explicit limit, newest first, and a total that counts
// the whole log.
func TestHistoryEndpoint(t *testing.T) {
	_, ts, db := newTestServer(t)
	stmts := []string{
		"ADD COLUMN Grade TO emp DEFAULT 'junior'",
		"INSERT INTO emp VALUES ('dave', 'go', '4 Elm St', 'senior')",
		"DELETE FROM emp WHERE Employee = 'bob'",
	}
	for _, op := range stmts {
		if _, err := db.Exec(op); err != nil {
			t.Fatal(err)
		}
	}

	var hr HistoryResponse
	if resp := getJSON(t, ts.URL+"/history", &hr); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if hr.Total != 3 || len(hr.Entries) != 3 {
		t.Fatalf("history = %+v, want 3 entries", hr)
	}
	// Newest first, versions descending.
	if hr.Entries[0].Kind != "DELETE" || hr.Entries[0].Version != 3 || hr.Entries[2].Kind != "ADD COLUMN" {
		t.Fatalf("history order = %+v", hr.Entries)
	}

	if resp := getJSON(t, ts.URL+"/history?limit=2", &hr); resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if hr.Total != 3 || len(hr.Entries) != 2 || hr.Entries[0].Kind != "DELETE" || hr.Entries[1].Kind != "INSERT" {
		t.Fatalf("paged history = %+v", hr)
	}

	for _, bad := range []string{"0", "-3", "x"} {
		if resp := getJSON(t, ts.URL+"/history?limit="+bad, nil); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("limit=%s status = %d, want 400", bad, resp.StatusCode)
		}
	}
}
