// HTAP workload driver: a YCSB-style mixed workload — zipfian point
// reads, analytic GROUP-BY scans, keyed DML, and a background schema-
// evolution cycle — executed by N concurrent workers against either an
// in-process cods.DB or a `cods serve` HTTP endpoint, with per-class
// log-bucketed latency histograms (internal/bench/hdr) merged at fan-in
// and optional latency SLOs for CI gating. This is the regression net
// the ROADMAP's scaling work is measured against; BENCHMARKS.md is the
// methodology document.

package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"cods"
	"cods/internal/bench/hdr"
	"cods/internal/server"
	"cods/internal/workload"
)

// Operation classes of the HTAP mix; each gets its own histogram.
const (
	ClassRead  = "read"  // point read: WHERE A = '<zipfian key>'
	ClassScan  = "scan"  // analytic scan: GROUP BY C, COUNT(*)
	ClassWrite = "write" // keyed DML: INSERT / UPDATE / DELETE
	ClassSMO   = "smo"   // background evolution cycle statements
)

// Transports the driver can execute against.
const (
	TransportInproc = "inproc" // direct cods.DB calls
	TransportHTTP   = "http"   // POST /query + /exec via internal/server
)

// HTAPConfig is the declarative workload spec of one HTAP run.
type HTAPConfig struct {
	// Name labels the run in output and BENCH_htap.json.
	Name string
	// Table is the table under test (default "R"); the background SMO
	// cycle uses <Table>_smo scratch names.
	Table string
	// Rows is the initial table size; DistinctKeys the key space of the
	// key attribute A (default Rows/10). ZipfS > 1 skews both the data
	// and the point-read key choice.
	Rows         int
	DistinctKeys int
	ZipfS        float64
	// ReadPct/ScanPct/WritePct is the operation mix in percent; they
	// must sum to 100. The background SMO stream is not part of the mix:
	// SMOInterval > 0 runs one COPY → DECOMPOSE → MERGE → DROP cycle
	// immediately and then every interval, on a dedicated goroutine.
	ReadPct, ScanPct, WritePct int
	SMOInterval                time.Duration
	// Workers is the client concurrency; Duration the measured wall
	// time; TargetRate a total ops/sec pacing target across all workers
	// (0 = closed loop: each worker issues its next operation as soon as
	// the previous one returns).
	Workers    int
	Duration   time.Duration
	TargetRate float64
	// Seed fixes every generator (data, reads, DML, mix choice).
	Seed int64
	// Transport selects TransportInproc or TransportHTTP. With
	// TransportHTTP and an empty Addr the driver self-hosts an
	// internal/server over a loopback listener (table setup stays
	// in-process, only measured traffic pays HTTP); a non-empty Addr
	// drives an external `cods serve` — setup then also runs over
	// /exec, so keep Rows modest.
	Transport string
	Addr      string
	// Retain/AutoCompact configure the in-process (or self-hosted) DB:
	// cods.Config.RetainVersions and AutoCompactPending. Ignored with an
	// external Addr.
	Retain      int
	AutoCompact int
	// Progress, when non-nil, receives setup/run progress lines.
	Progress func(format string, args ...any)
}

func (c HTAPConfig) progress(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

func (c HTAPConfig) withDefaults() HTAPConfig {
	if c.Name == "" {
		c.Name = fmt.Sprintf("htap-r%ds%dw%d", c.ReadPct, c.ScanPct, c.WritePct)
	}
	if c.Table == "" {
		c.Table = "R"
	}
	if c.DistinctKeys == 0 {
		c.DistinctKeys = c.Rows/10 + 1
	}
	if c.Transport == "" {
		c.Transport = TransportInproc
	}
	return c
}

func (c HTAPConfig) validate() error {
	if c.Rows <= 0 {
		return fmt.Errorf("htap: Rows must be positive, got %d", c.Rows)
	}
	if c.ReadPct < 0 || c.ScanPct < 0 || c.WritePct < 0 || c.ReadPct+c.ScanPct+c.WritePct != 100 {
		return fmt.Errorf("htap: mix read=%d scan=%d write=%d must be non-negative and sum to 100",
			c.ReadPct, c.ScanPct, c.WritePct)
	}
	if c.Workers <= 0 {
		return fmt.Errorf("htap: Workers must be positive, got %d", c.Workers)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("htap: Duration must be positive, got %v", c.Duration)
	}
	if c.Transport != TransportInproc && c.Transport != TransportHTTP {
		return fmt.Errorf("htap: unknown transport %q (want %s or %s)", c.Transport, TransportInproc, TransportHTTP)
	}
	if c.Addr != "" && c.Transport != TransportHTTP {
		return fmt.Errorf("htap: Addr requires Transport %q", TransportHTTP)
	}
	return nil
}

// ClassStats summarizes one operation class of an HTAP run.
type ClassStats struct {
	Ops       int64   `json:"ops"`
	Errors    int64   `json:"errors"`
	OpsPerSec float64 `json:"ops_per_sec"`
	P50MS     float64 `json:"p50_ms"`
	P95MS     float64 `json:"p95_ms"`
	P99MS     float64 `json:"p99_ms"`
	MaxMS     float64 `json:"max_ms"`
}

// HTAPResult is one run's record — the schema of BENCH_htap.json entries.
type HTAPResult struct {
	Workload      string                `json:"workload"`
	Transport     string                `json:"transport"`
	Rows          int                   `json:"rows"`
	DistinctKeys  int                   `json:"distinct_keys"`
	ZipfS         float64               `json:"zipf_s"`
	Mix           map[string]int        `json:"mix"` // read/scan/write percentages
	SMOIntervalMS float64               `json:"smo_interval_ms,omitempty"`
	Workers       int                   `json:"workers"`
	DurationMS    float64               `json:"duration_ms"`
	TargetRate    float64               `json:"target_rate,omitempty"`
	Seed          int64                 `json:"seed"`
	Classes       map[string]ClassStats `json:"classes"`
	// Memory gauges sampled from DB.MemStats (or GET /stats) when the
	// run ends: is retention bounding versions, is auto-compaction
	// keeping the overlay small under the write stream?
	PendingRows      uint64 `json:"pending_rows"`
	RetainedVersions int    `json:"retained_versions"`
	Compactions      uint64 `json:"compactions"`
}

// htapConn is one transport to the system under test. Implementations
// must be safe for concurrent use.
type htapConn interface {
	exec(stmt string) error
	pointRead(table, cond string) error
	scan(table string) error
	memStats() (pending uint64, retained int, compactions uint64, err error)
}

// inprocConn drives a cods.DB directly — no serialization, no sockets:
// the engine-limit numbers.
type inprocConn struct{ db *cods.DB }

func (c inprocConn) exec(stmt string) error { _, err := c.db.Exec(stmt); return err }

func (c inprocConn) pointRead(table, cond string) error {
	_, err := c.db.Query(table, cond)
	return err
}

func (c inprocConn) scan(table string) error {
	_, err := c.db.RunQuery(table, cods.TableQuery{
		GroupBy:    workload.ScanColumn(),
		Aggregates: []cods.Agg{{Func: cods.Count, As: "n"}},
	})
	return err
}

func (c inprocConn) memStats() (uint64, int, uint64, error) {
	ms := c.db.MemStats()
	return ms.PendingRows, ms.RetainedVersions, ms.Compactions, nil
}

// httpConn drives a `cods serve` endpoint through internal/server's
// Client, so the measured latency includes JSON encoding, the admission
// queue and the socket — the server overhead itself becomes measurable
// by diffing against an inproc run of the same spec.
type httpConn struct{ c *server.Client }

func (c httpConn) exec(stmt string) error { _, err := c.c.Exec(stmt); return err }

func (c httpConn) pointRead(table, cond string) error {
	_, err := c.c.Query(server.QueryRequest{Table: table, Where: cond})
	return err
}

func (c httpConn) scan(table string) error {
	_, err := c.c.Query(server.QueryRequest{
		Table:      table,
		GroupBy:    workload.ScanColumn(),
		Aggregates: []server.AggSpec{{Func: "count", As: "n"}},
	})
	return err
}

func (c httpConn) memStats() (uint64, int, uint64, error) {
	st, err := c.c.Stats()
	if err != nil {
		return 0, 0, 0, err
	}
	return st.Memory.PendingRows, st.Memory.RetainedVersions, st.Memory.Compactions, nil
}

// workerStats is one worker's private recording state, merged at fan-in
// in worker-index order (hdr merging is associative, so the totals are
// identical at any concurrency).
type workerStats struct {
	hists  map[string]*hdr.Histogram
	errors map[string]int64
}

func newWorkerStats() *workerStats {
	return &workerStats{
		hists:  map[string]*hdr.Histogram{ClassRead: hdr.New(), ClassScan: hdr.New(), ClassWrite: hdr.New(), ClassSMO: hdr.New()},
		errors: make(map[string]int64),
	}
}

func (w *workerStats) record(class string, d time.Duration, err error) {
	w.hists[class].Record(d)
	if err != nil {
		w.errors[class]++
	}
}

// RunHTAP executes one HTAP workload run and returns its result. Errors
// are returned only for setup/teardown failures; operation-level errors
// during the measured window are counted per class instead (a saturated
// or degraded server is a data point, not a crash).
func RunHTAP(cfg HTAPConfig) (*HTAPResult, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	spec := workload.Spec{Rows: cfg.Rows, DistinctKeys: cfg.DistinctKeys, ZipfS: cfg.ZipfS, Seed: cfg.Seed}

	conn, cleanup, err := connect(cfg, spec)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Workers: one goroutine per worker, each with its own generators
	// (reads seeded per worker, DML keys prefixed per worker so insert
	// key ranges are disjoint) and its own histograms.
	stats := make([]*workerStats, cfg.Workers)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stats[w] = runWorker(cfg, spec, conn, w, start, deadline)
		}(w)
	}

	// The background evolution stream: COPY (flushes the table's pending
	// DML) → DECOMPOSE → MERGE back → DROP, exercising the snapshot-read
	// invariant (reads must stay flat while the writer mutex is held for
	// the whole cycle) and the delta-flush path under live writes.
	smoStats := newWorkerStats()
	if cfg.SMOInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runSMOCycles(cfg, conn, smoStats, deadline)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Fan-in: merge per-worker histograms in worker-index order.
	merged := newWorkerStats()
	for _, ws := range stats {
		for class, h := range ws.hists {
			merged.hists[class].Add(h)
		}
		for class, n := range ws.errors {
			merged.errors[class] += n
		}
	}
	for class, h := range smoStats.hists {
		merged.hists[class].Add(h)
	}
	for class, n := range smoStats.errors {
		merged.errors[class] += n
	}

	res := &HTAPResult{
		Workload:     cfg.Name,
		Transport:    cfg.Transport,
		Rows:         cfg.Rows,
		DistinctKeys: cfg.DistinctKeys,
		ZipfS:        cfg.ZipfS,
		Mix:          map[string]int{ClassRead: cfg.ReadPct, ClassScan: cfg.ScanPct, ClassWrite: cfg.WritePct},
		Workers:      cfg.Workers,
		DurationMS:   float64(elapsed.Microseconds()) / 1000,
		TargetRate:   cfg.TargetRate,
		Seed:         cfg.Seed,
		Classes:      make(map[string]ClassStats),
	}
	if cfg.SMOInterval > 0 {
		res.SMOIntervalMS = float64(cfg.SMOInterval.Microseconds()) / 1000
	}
	for class, h := range merged.hists {
		if h.Count() == 0 {
			continue
		}
		res.Classes[class] = ClassStats{
			Ops:       h.Count(),
			Errors:    merged.errors[class],
			OpsPerSec: float64(h.Count()) / elapsed.Seconds(),
			P50MS:     ms(h.Quantile(0.50)),
			P95MS:     ms(h.Quantile(0.95)),
			P99MS:     ms(h.Quantile(0.99)),
			MaxMS:     ms(h.Max()),
		}
	}
	if pending, retained, compactions, err := conn.memStats(); err == nil {
		res.PendingRows, res.RetainedVersions, res.Compactions = pending, retained, compactions
	}
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// connect builds the table under test and returns the measured transport.
func connect(cfg HTAPConfig, spec workload.Spec) (htapConn, func(), error) {
	noop := func() {}
	if cfg.Addr != "" {
		// External server: setup runs over /exec too.
		client := &server.Client{Base: cfg.Addr}
		if _, err := client.Healthz(); err != nil {
			return nil, noop, fmt.Errorf("htap: probing %s: %w", cfg.Addr, err)
		}
		cfg.progress("loading %d rows into %s over HTTP (batched INSERT scripts)", cfg.Rows, cfg.Addr)
		if err := loadOverHTTP(client, cfg.Table, spec); err != nil {
			return nil, noop, err
		}
		cleanup := func() { client.Exec("DROP TABLE " + cfg.Table) } // best effort
		return httpConn{client}, cleanup, nil
	}

	// In-process DB, shared by both remaining transports.
	db := cods.Open(cods.Config{
		RetainVersions:     cfg.Retain,
		AutoCompactPending: cfg.AutoCompact,
	})
	cfg.progress("building %s: %d rows, %d distinct keys", cfg.Table, cfg.Rows, cfg.DistinctKeys)
	var rows [][]string
	if err := workload.ForEachRow(spec, func(row []string) error {
		rows = append(rows, append([]string(nil), row...))
		return nil
	}); err != nil {
		return nil, noop, err
	}
	if err := db.CreateTableFromRows(cfg.Table, workload.Columns, nil, rows); err != nil {
		return nil, noop, err
	}
	if cfg.Transport == TransportInproc {
		return inprocConn{db}, noop, nil
	}

	// Self-hosted HTTP: serve the same DB over a loopback listener, so
	// the spec is identical to inproc and the diff isolates server cost.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, noop, err
	}
	srv := server.New(db, server.Config{})
	go srv.Serve(l)
	cfg.progress("self-hosted server on %s", l.Addr())
	cleanup := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}
	return httpConn{&server.Client{Base: "http://" + l.Addr().String()}}, cleanup, nil
}

// loadOverHTTP creates and populates the table on an external server in
// batched INSERT scripts (one /exec round trip and one WAL fsync per
// batch, not per row).
func loadOverHTTP(client *server.Client, table string, spec workload.Spec) error {
	if _, err := client.Exec(fmt.Sprintf("CREATE TABLE %s (%s)", table, strings.Join(workload.Columns, ", "))); err != nil {
		return fmt.Errorf("htap: creating %s: %w", table, err)
	}
	const batch = 500
	var stmts []string
	flush := func() error {
		if len(stmts) == 0 {
			return nil
		}
		if _, err := client.ExecScript(strings.Join(stmts, "\n")); err != nil {
			return fmt.Errorf("htap: loading %s: %w", table, err)
		}
		stmts = stmts[:0]
		return nil
	}
	err := workload.ForEachRow(spec, func(row []string) error {
		stmts = append(stmts, fmt.Sprintf("INSERT INTO %s VALUES ('%s', '%s', '%s')", table, row[0], row[1], row[2]))
		if len(stmts) == batch {
			return flush()
		}
		return nil
	})
	if err != nil {
		return err
	}
	return flush()
}

// runWorker issues the read/scan/write mix until the deadline. With
// TargetRate set the worker paces operations on a fixed schedule and
// measures latency from the *scheduled* start (coordinated-omission
// corrected: a stalled server accrues queueing delay into the recorded
// latency); in closed-loop mode it measures service time.
func runWorker(cfg HTAPConfig, spec workload.Spec, conn htapConn, w int, start, deadline time.Time) *workerStats {
	ws := newWorkerStats()
	rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*1_000_003))
	reads := workload.NewReads(spec, cfg.Seed+int64(w)*7_000_003)
	dml := workload.NewDMLGen(spec, cfg.Table, fmt.Sprintf("w%d-", w))

	var interval time.Duration
	if cfg.TargetRate > 0 {
		interval = time.Duration(float64(time.Second) * float64(cfg.Workers) / cfg.TargetRate)
	}
	scheduled := start

	for {
		t0 := time.Now()
		if interval > 0 {
			if scheduled.After(deadline) {
				return ws
			}
			if d := time.Until(scheduled); d > 0 {
				time.Sleep(d)
			}
			t0 = scheduled
			scheduled = scheduled.Add(interval)
		} else if !t0.Before(deadline) {
			return ws
		}

		var class string
		var err error
		switch p := rng.Intn(100); {
		case p < cfg.ReadPct:
			class = ClassRead
			err = conn.pointRead(cfg.Table, reads.PointCondition())
		case p < cfg.ReadPct+cfg.ScanPct:
			class = ClassScan
			err = conn.scan(cfg.Table)
		default:
			class = ClassWrite
			err = conn.exec(dml.Next())
		}
		ws.record(class, time.Since(t0), err)
	}
}

// runSMOCycles runs the background evolution cycle: immediately once,
// then every SMOInterval until the deadline. Each statement is timed
// into the smo class individually. A failed statement aborts the cycle
// and best-effort drops the scratch tables so the next cycle starts
// clean.
func runSMOCycles(cfg HTAPConfig, conn htapConn, ws *workerStats, deadline time.Time) {
	t := cfg.Table
	scratch := []string{t + "_smo", t + "_smo_s", t + "_smo_t"}
	cycle := []string{
		fmt.Sprintf("COPY TABLE %s TO %s_smo", t, t),
		fmt.Sprintf("DECOMPOSE TABLE %s_smo INTO %s_smo_s (A, B), %s_smo_t (A, C)", t, t, t),
		fmt.Sprintf("MERGE TABLES %s_smo_s, %s_smo_t INTO %s_smo", t, t, t),
		fmt.Sprintf("DROP TABLE %s_smo", t),
	}
	for {
		ok := true
		for _, stmt := range cycle {
			t0 := time.Now()
			err := conn.exec(stmt)
			ws.record(ClassSMO, time.Since(t0), err)
			if err != nil {
				ok = false
				break
			}
		}
		if !ok {
			for _, name := range scratch {
				conn.exec("DROP TABLE " + name) // best effort, untimed
			}
		}
		if time.Now().Add(cfg.SMOInterval).After(deadline) {
			return
		}
		time.Sleep(cfg.SMOInterval)
	}
}

// CheckSLOs evaluates per-class p99 SLO thresholds against the result,
// returning one violation message per breached threshold (empty = all
// SLOs met). A threshold on a class the run never exercised is itself a
// violation — a gate that silently gates nothing is worse than a failing
// one. cmd/codsbench turns violations into a nonzero exit for CI.
func (r *HTAPResult) CheckSLOs(p99 map[string]time.Duration) []string {
	var out []string
	classes := make([]string, 0, len(p99))
	for class := range p99 {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	for _, class := range classes {
		limit := p99[class]
		if limit <= 0 {
			continue
		}
		cs, ok := r.Classes[class]
		if !ok {
			out = append(out, fmt.Sprintf("slo: class %q has a p99 threshold (%v) but the run issued no %s operations", class, limit, class))
			continue
		}
		if got := time.Duration(cs.P99MS * float64(time.Millisecond)); got > limit {
			out = append(out, fmt.Sprintf("slo: %s p99 = %.3fms exceeds %v", class, cs.P99MS, limit))
		}
	}
	return out
}

// Format renders the result as a human-readable table.
func (r *HTAPResult) Format(w io.Writer) {
	fmt.Fprintf(w, "# htap workload=%s transport=%s rows=%d keys=%d zipf=%.2f workers=%d duration=%.1fs",
		r.Workload, r.Transport, r.Rows, r.DistinctKeys, r.ZipfS, r.Workers, r.DurationMS/1000)
	fmt.Fprintf(w, " mix read=%d/scan=%d/write=%d", r.Mix[ClassRead], r.Mix[ClassScan], r.Mix[ClassWrite])
	if r.SMOIntervalMS > 0 {
		fmt.Fprintf(w, " smo-every=%.1fs", r.SMOIntervalMS/1000)
	}
	if r.TargetRate > 0 {
		fmt.Fprintf(w, " rate=%.0f/s", r.TargetRate)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-8s %10s %7s %10s %10s %10s %10s %10s\n",
		"class", "ops", "err", "ops/s", "p50ms", "p95ms", "p99ms", "maxms")
	for _, class := range []string{ClassRead, ClassScan, ClassWrite, ClassSMO} {
		cs, ok := r.Classes[class]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "%-8s %10d %7d %10.1f %10.3f %10.3f %10.3f %10.3f\n",
			class, cs.Ops, cs.Errors, cs.OpsPerSec, cs.P50MS, cs.P95MS, cs.P99MS, cs.MaxMS)
	}
	fmt.Fprintf(w, "# memory: pending_rows=%d retained_versions=%d compactions=%d\n",
		r.PendingRows, r.RetainedVersions, r.Compactions)
}

// AppendResult appends an HTAP run to its series file (BENCH_htap.json).
func AppendResult(path string, r *HTAPResult) error {
	return AppendSeries(path, r)
}

// AppendSeries appends one JSON-marshalable entry to a JSON-array series
// file (BENCH_htap.json, BENCH_joins.json): read-modify-write with a
// temp-file rename, so a crash mid-write never truncates the accumulated
// trajectory.
func AppendSeries(path string, e any) error {
	var series []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &series); err != nil {
			return fmt.Errorf("bench: %s exists but is not a JSON array: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	entry, err := json.Marshal(e)
	if err != nil {
		return err
	}
	series = append(series, entry)
	out, err := json.MarshalIndent(series, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(out, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
