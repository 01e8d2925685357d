package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"

	"cods"
)

// profile fixes every size of the benchmark; only durations come from
// flags. quick is the self-test's scale, about 1/50 of full.
type profile struct {
	evolveRows, evolveKeys   int
	queryRows, queryKeys     int
	htapRows, htapKeys       int
	durableRows, durableKeys int
	// durableStmtsPerSec sizes durable's fixed statement list from
	// -seconds, so its byte and flush counts depend on the flags and the
	// seed only, never on how fast the machine is.
	durableStmtsPerSec int
	warmOps            int // fixed-count warm-up inside set-up
	ladderReps         int // repetitions of each costly per-layer call
	ladderOps          int // repetitions of each cheap per-layer call
	smoInterval        time.Duration
}

var (
	fullProfile = profile{
		evolveRows: 1_000_000, evolveKeys: 100_000,
		queryRows: 200_000, queryKeys: 20_000,
		htapRows: 50_000, htapKeys: 5_000,
		durableRows: 200_000, durableKeys: 20_000,
		durableStmtsPerSec: 150, warmOps: 30, ladderReps: 3, ladderOps: 50,
		smoInterval: time.Second,
	}
	quickProfile = profile{
		evolveRows: 20_000, evolveKeys: 2_000,
		queryRows: 4_000, queryKeys: 400,
		htapRows: 1_000, htapKeys: 100,
		durableRows: 4_000, durableKeys: 400,
		durableStmtsPerSec: 150, warmOps: 5, ladderReps: 1, ladderOps: 5,
		smoInterval: 200 * time.Millisecond,
	}
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	seed      int64
	seconds   float64
	prof      profile
	setupReps int
	tr        *tracer
}

func (c runConfig) duration() time.Duration {
	return time.Duration(c.seconds * float64(time.Second))
}

// clients is the number of closed-loop client goroutines of the
// concurrent workloads: min(2, nproc).
func clients() int { return min(2, runtime.NumCPU()) }

// Operation classes. The names are the ones the per-class diagnostics
// carry (point_p95_ms, ...).
const (
	classCycle      = "cycle"
	classCopy       = "copy"
	classDecompose  = "decompose"
	classMerge      = "merge"
	classDrop       = "drop"
	classPoint      = "point"
	classAgg        = "agg"
	classJoin       = "join"
	classCheckpoint = "checkpoint"
	classRecover    = "recover"
)

// diagClasses are the classes whose tails the traced run reports; the
// DML kinds of gen.go are classes too.
var diagClasses = []string{classCycle, classDecompose, classMerge, classPoint, classAgg, classJoin, kindInsert, kindUpdate, kindDelete, classCheckpoint, classRecover}

// slots names, per workload, the three operation classes behind the
// workload-neutral end-to-end metrics op1_p50_ms, op2_p50_ms and
// op3_p50_ms. The driver takes every end-to-end metric from every
// workload, so the gated medians cannot be called decompose_p50_ms or
// join_p50_ms: each workload reports its own three classes under the
// shared names, and this table (repeated in README.md and in each
// workload's "why") says which they are. op1 is the class the workload
// exists for.
//
// htap's agg and insert are not here: their medians moved 15 % and 11 %
// between identical runs, so by the issue's own rule they are
// diagnostics (agg_p50_ms, insert_p50_ms in the traced run) until a later
// benchmark change shows that they repeat.
var slots = map[string][3]string{
	"evolve":  {classDecompose, classMerge, classCycle},
	"query":   {classJoin, classPoint, classAgg},
	"htap":    {classPoint, kindUpdate, kindDelete},
	"durable": {classCheckpoint, classRecover, kindInsert},
}

var errWrong = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// oplog is one client's record: retained latency samples per class and
// the attempted/failed counts. Each client goroutine owns one; they are
// merged after the clients have stopped.
type oplog struct {
	tr        *tracer
	samples   map[string][]float64 // class -> latencies of successful operations, ms
	attempted int
	failed    int
	firstErr  error
	span, op  int // the open root span, parent of the transport's child spans
}

func newOplog(tr *tracer) *oplog {
	return &oplog{tr: tr, samples: make(map[string][]float64)}
}

// do times call as one operation of class, then runs check (which may be
// nil) outside the timed region. An error from either counts the
// operation as failed and drops its sample. It returns the latency in ms.
func (l *oplog) do(class string, call, check func() error) float64 {
	l.op = l.tr.newOp()
	l.span = l.tr.begin(class, -1, l.op)
	start := time.Now()
	err := call()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	l.tr.end(l.span)
	if err == nil && check != nil {
		err = check()
	}
	l.attempted++
	if err != nil {
		l.fail(fmt.Errorf("%s: %w", class, err))
		return ms
	}
	l.samples[class] = append(l.samples[class], ms)
	return ms
}

// verify counts one untimed end-of-run check as an operation.
func (l *oplog) verify(err error) {
	l.attempted++
	if err != nil {
		l.fail(err)
	}
}

func (l *oplog) fail(err error) {
	l.failed++
	if l.firstErr == nil {
		l.firstErr = err
	}
}

// child records a transport-level child span of the open operation.
func (l *oplog) child(name string, fn func()) {
	s := l.tr.begin(name, l.span, l.op)
	fn()
	l.tr.end(s)
}

func (l *oplog) merge(o *oplog) {
	for class, xs := range o.samples {
		l.samples[class] = append(l.samples[class], xs...)
	}
	l.attempted += o.attempted
	l.failed += o.failed
	if l.firstErr == nil {
		l.firstErr = o.firstErr
	}
}

// outcome is what a workload hands back for the metrics to be computed
// from.
type outcome struct {
	log      *oplog
	setups   []float64     // seconds, one per set-up repetition
	wall     time.Duration // the measured phase
	ops      int           // successful operations inside wall
	heapMB   float64
	spaceAmp float64
	mem      cods.MemStats
	mergeMS  float64 // WaitBackgroundMerges at the end of the run
}

// repeatSetup builds a workload's database reps times, discarding all
// but the last, and returns each build's duration: setup_s is their
// median, so one slow build does not decide it.
func repeatSetup[T any](reps int, build func() (T, error), discard func(T)) (T, []float64, error) {
	var kept T
	var secs []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			discard(kept)
			runtime.GC()
		}
		start := time.Now()
		v, err := build()
		if err != nil {
			return kept, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
		kept = v
	}
	return kept, secs, nil
}

// liveHeapMB forces a collection and returns the bytes of live heap
// objects, MiB. HeapAlloc, not HeapInuse: the latter counts whole spans
// and on a 10 MiB heap moved 8 % between identical runs with how full
// the spans happened to be.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// storedBytes sums the compressed column bytes of the named tables: what
// an in-memory database stores for them.
func storedBytes(db *cods.DB, tables ...string) (uint64, error) {
	var n uint64
	for _, t := range tables {
		info, err := db.Describe(t)
		if err != nil {
			return 0, err
		}
		for _, c := range info.Columns {
			n += c.CompressedBytes
		}
	}
	return n, nil
}

// gauges reads the engine's own counters at the end of the measured
// phase, after waiting for background segment merges.
func (o *outcome) gauges(db *cods.DB) {
	start := time.Now()
	db.WaitBackgroundMerges()
	o.mergeMS = float64(time.Since(start).Nanoseconds()) / 1e6
	o.mem = db.MemStats()
}

// finish is gauges plus heap_mb with db as the only thing kept alive.
func (o *outcome) finish(db *cods.DB) {
	o.gauges(db)
	o.heapMB = liveHeapMB()
	runtime.KeepAlive(db)
}

// stmt is one statement of a schema-evolution cycle with its class.
type stmt struct{ class, text string }

// smoCycle is the paper's round trip on a scratch copy of table: copy,
// decompose on the FD A -> C, merge back, drop. The names it creates are
// prefixed with the table's, so it can run beside traffic on table.
func smoCycle(table string) []stmt {
	w, s, t := table+"_w", table+"_s", table+"_t"
	return []stmt{
		{classCopy, fmt.Sprintf("COPY TABLE %s TO %s", table, w)},
		{classDecompose, fmt.Sprintf("DECOMPOSE TABLE %s INTO %s (A, B), %s (A, C)", w, s, t)},
		{classMerge, fmt.Sprintf("MERGE TABLES %s, %s INTO %s", s, t, w)},
		{classDrop, fmt.Sprintf("DROP TABLE %s", w)},
	}
}

const aggStmt = "SELECT count(*) FROM R GROUP BY C"

func pointCond(key string) string { return "A = '" + key + "'" }

func joinStmt(c string) string {
	return "SELECT count(*) FROM S JOIN T ON (A) WHERE C = '" + c + "'"
}

// conn is one way of reaching the database: direct calls on cods.DB, or
// JSON over HTTP. Both materialize the rows they return.
type conn interface {
	point(key string) ([][]string, error)
	agg() ([][]string, error)
	exec(stmt string) error
}

type inproc struct{ db *cods.DB }

func (c inproc) point(key string) ([][]string, error) {
	return c.db.Query("R", pointCond(key))
}

func (c inproc) agg() ([][]string, error) {
	rs, err := c.db.Select(aggStmt)
	if err != nil {
		return nil, err
	}
	return rs.Rows, nil
}

func (c inproc) exec(stmt string) error {
	_, err := c.db.Exec(stmt)
	return err
}

// httpConn speaks the server's JSON protocol with net/http directly. One
// httpConn is one keep-alive connection, owned by one client goroutine.
type httpConn struct {
	client    *http.Client
	base      string
	log       *oplog // receives the encode/round-trip/decode child spans
	respBytes int    // body size of the last response
}

func newHTTPConn(base string, log *oplog) *httpConn {
	return &httpConn{
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}},
		base:   base,
		log:    log,
	}
}

func (c *httpConn) close() { c.client.CloseIdleConnections() }

// post sends one JSON request and decodes the JSON reply into out.
func (c *httpConn) post(path string, req, out any) error {
	var body []byte
	var err error
	c.log.child("client.encode", func() { body, err = json.Marshal(req) })
	if err != nil {
		return err
	}
	var data []byte
	var status int
	c.log.child("http.roundtrip", func() {
		var resp *http.Response
		resp, err = c.client.Post(c.base+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		data, err = io.ReadAll(resp.Body)
	})
	if err != nil {
		return err
	}
	c.respBytes = len(data)
	if status != http.StatusOK {
		return fmt.Errorf("POST %s: status %d: %s", path, status, bytes.TrimSpace(data))
	}
	c.log.child("client.decode", func() { err = json.Unmarshal(data, out) })
	return err
}

type queryReply struct {
	Rows [][]string `json:"rows"`
}

func (c *httpConn) point(key string) ([][]string, error) {
	var out queryReply
	err := c.post("/query", map[string]string{"table": "R", "where": pointCond(key)}, &out)
	return out.Rows, err
}

func (c *httpConn) agg() ([][]string, error) {
	var out queryReply
	err := c.post("/query", map[string]string{"stmt": aggStmt}, &out)
	return out.Rows, err
}

func (c *httpConn) exec(stmt string) error {
	var out struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := c.post("/exec", map[string]string{"op": stmt}, &out); err != nil {
		return err
	}
	if len(out.Results) != 1 {
		return wrongf("/exec acknowledged %d statements, want 1", len(out.Results))
	}
	return nil
}

// mixClient is one closed-loop client of the query and htap workloads:
// it issues its next operation only when the previous one has returned.
type mixClient struct {
	c    conn
	db   *cods.DB // join goes to the facade; only the query workload uses it
	data *dataset
	rng  *rand.Rand
	keys keyChooser
	dml  *dmlGen
	log  *oplog
}

func newMixClient(c conn, db *cods.DB, data *dataset, seed int64, prefix string, log *oplog) *mixClient {
	rng := rand.New(rand.NewSource(seed))
	return &mixClient{
		c: c, db: db, data: data, rng: rng,
		keys: newKeyChooser(rng, data.keys),
		dml:  newDMLGen(seed+1, "R", prefix, data),
		log:  log,
	}
}

// point reads one key's rows. UPDATE changes only B and inserted keys
// are never generated keys, so the model's per-key count holds under
// concurrent writes too.
func (m *mixClient) point() {
	k := m.keys.next()
	var rows [][]string
	m.log.do(classPoint, func() (err error) {
		rows, err = m.c.point(keyName(k))
		return err
	}, func() error {
		if len(rows) != m.data.perKey[k] {
			return wrongf("point %s returned %d rows, model has %d", keyName(k), len(rows), m.data.perKey[k])
		}
		return nil
	})
}

// agg groups R by C. Inserts reuse generated C values and deletes remove
// only inserted rows, so the group set is the generator's and the total
// never falls below the generated row count.
func (m *mixClient) agg() {
	var rows [][]string
	m.log.do(classAgg, func() (err error) {
		rows, err = m.c.agg()
		return err
	}, func() error {
		total := 0
		for _, r := range rows {
			var n int
			if _, err := fmt.Sscan(r[len(r)-1], &n); err != nil {
				return wrongf("agg count %q: %v", r[len(r)-1], err)
			}
			total += n
		}
		if len(rows) != len(m.data.cValues) || total < m.data.nrows {
			return wrongf("agg returned %d groups over %d rows, model has %d groups over at least %d rows",
				len(rows), total, len(m.data.cValues), m.data.nrows)
		}
		return nil
	})
}

// join counts S ⋈ T under a predicate on C and checks it against the
// generator's count of R rows with that C — the answer the undecomposed
// table gives.
func (m *mixClient) join() {
	c := m.data.cValues[m.rng.Intn(len(m.data.cValues))]
	var rs *cods.ResultSet
	m.log.do(classJoin, func() (err error) {
		rs, err = m.db.Select(joinStmt(c))
		return err
	}, func() error {
		want := fmt.Sprint(m.data.perC[c])
		if len(rs.Rows) != 1 || rs.Rows[0][0] != want {
			return wrongf("join on C = %s returned %v, model counts %s", c, rs.Rows, want)
		}
		return nil
	})
}

func (m *mixClient) write() {
	s := m.dml.next()
	m.log.do(s.kind, func() error { return m.c.exec(s.text) }, nil)
}

// step issues one operation drawn from the mix: pointPct percent point
// reads, aggPct percent aggregates, and the rest joins (query) or writes
// (htap).
func (m *mixClient) step(pointPct, aggPct int, rest func()) {
	switch p := m.rng.Intn(100); {
	case p < pointPct:
		m.point()
	case p < pointPct+aggPct:
		m.agg()
	default:
		rest()
	}
}

// reportErr prints the first failure of a run to standard error.
func reportErr(workload string, l *oplog) {
	if l.firstErr != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %d of %d operations failed; first: %v\n", workload, l.failed, l.attempted, l.firstErr)
	}
}
