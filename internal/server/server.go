// Package server exposes a cods.DB over HTTP/JSON: online queries and
// schema evolution (SMO execution) against one shared catalog, the
// network face of the platform. Every read runs lock-free against the
// catalog snapshot published by the last committed change, so query
// traffic keeps flowing at full speed while an evolution executes —
// clients always observe whole schema versions (the version that was
// current when their request started), never a half-applied SMO and
// never a stall behind one. This is the paper's online-evolution promise
// at the network layer.
//
// Endpoints (all JSON; errors are {"error": "..."} with a 4xx/5xx status):
//
//	POST /query      run a query (filter/group/aggregate/order/limit)
//	POST /exec       execute SMO or DML statements (one op or a script)
//	POST /checkpoint snapshot a durable catalog and truncate its WAL
//	GET  /schema     catalog: schema version + every table's shape
//	GET  /history    executed-operator log, most recent first (?limit=n)
//	GET  /healthz    liveness probe
//	GET  /stats      request/error/latency counters per endpoint, plus
//	                 the write path's memory gauges (retained versions,
//	                 pending overlay rows, compaction count)
//
// The server bounds concurrently served requests (Config.MaxInFlight);
// excess requests queue until a slot frees or the client gives up, so a
// traffic burst degrades to queueing instead of unbounded goroutines.
// GET /healthz and GET /stats bypass the admission queue, so a server
// saturated with slow queries still answers liveness probes and an
// orchestrator never kills it for being busy.
//
// The package maps engine errors to HTTP statuses with errors.Is against
// the cods sentinels, so it is marked cods:boundary for codslint: error
// paths here must wrap sentinels with %w, never invent anonymous errors
// or compare errors with ==.
//
// cods:boundary
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cods"
)

// Config parameterizes a Server.
type Config struct {
	// MaxInFlight caps concurrently served requests; further requests
	// queue. 0 means 4×GOMAXPROCS.
	MaxInFlight int
	// Log, when non-nil, receives one line per served request.
	Log *log.Logger
}

// Server serves a cods.DB over HTTP. Create with New, mount via Handler
// (or run with Serve/ListenAndServe), stop with Shutdown.
type Server struct {
	db    *cods.DB
	cfg   Config
	sem   chan struct{}
	start time.Time

	inFlight atomic.Int64
	stats    map[string]*endpointStats

	// hs is created in New, never replaced: Shutdown before (or racing)
	// Serve still reaches the same http.Server, so a shut-down server
	// refuses to serve instead of running indefinitely.
	hs       *http.Server
	mux      *http.ServeMux
	done     chan struct{}
	doneOnce sync.Once
}

// endpointStats counts one endpoint's traffic. All fields are atomic;
// latency is tracked as a running total plus a max.
type endpointStats struct {
	requests  atomic.Int64
	errors    atomic.Int64
	totalNS   atomic.Int64
	maxNS     atomic.Int64
	lastIsErr atomic.Bool
}

func (s *endpointStats) record(d time.Duration, isErr bool) {
	s.requests.Add(1)
	if isErr {
		s.errors.Add(1)
	}
	s.lastIsErr.Store(isErr)
	ns := d.Nanoseconds()
	s.totalNS.Add(ns)
	for {
		cur := s.maxNS.Load()
		if ns <= cur || s.maxNS.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// New returns a server over db. The db is shared: the caller may keep
// using it directly (and closing it after Shutdown is the caller's job).
func New(db *cods.DB, cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	s := &Server{
		db:    db,
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxInFlight),
		start: time.Now(),
		stats: make(map[string]*endpointStats),
		mux:   http.NewServeMux(),
		done:  make(chan struct{}),
	}
	// Probes bypass admission: they must answer while every request slot
	// is held by slow queries, or an orchestrator mistakes busy for dead.
	s.route("GET /healthz", s.handleHealthz, false)
	s.route("GET /stats", s.handleStats, false)
	s.route("GET /schema", s.handleSchema, true)
	s.route("GET /history", s.handleHistory, true)
	s.route("POST /query", s.handleQuery, true)
	s.route("POST /exec", s.handleExec, true)
	s.route("POST /checkpoint", s.handleCheckpoint, true)
	s.hs = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	return s
}

// route registers one "METHOD /path" pattern with the accounting
// middleware applied; admit additionally puts the request through the
// MaxInFlight admission queue.
func (s *Server) route(pattern string, h func(w http.ResponseWriter, r *http.Request) *httpError, admit bool) {
	path := pattern[strings.Index(pattern, " ")+1:]
	st := &endpointStats{}
	s.stats[path] = st
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		if admit {
			// Admission: take a slot or queue until one frees; a client
			// that disconnects while queued costs nothing further.
			select {
			case s.sem <- struct{}{}:
				defer func() { <-s.sem }()
			case <-r.Context().Done():
				return
			}
		}
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)

		begin := time.Now()
		herr := h(w, r)
		elapsed := time.Since(begin)
		if herr != nil {
			body := map[string]any{"error": herr.msg}
			for k, v := range herr.extra {
				body[k] = v
			}
			writeJSON(w, herr.status, body)
		}
		st.record(elapsed, herr != nil)
		if s.cfg.Log != nil {
			status := http.StatusOK
			if herr != nil {
				status = herr.status
			}
			s.cfg.Log.Printf("%s %s %d %s", r.Method, path, status, elapsed.Round(time.Microsecond))
		}
	})
}

// Handler returns the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until Shutdown. It blocks, returning
// nil after a clean shutdown — immediately, without serving, if Shutdown
// already ran.
func (s *Server) Serve(l net.Listener) error {
	err := s.hs.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		// Shutdown was called; wait for it to finish draining.
		<-s.done
		return nil
	}
	return err
}

// ListenAndServe listens on addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Shutdown stops accepting connections and waits (bounded by ctx) for
// in-flight requests to finish. Called before Serve, it prevents the
// server from ever serving.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.hs.Shutdown(ctx)
	s.doneOnce.Do(func() { close(s.done) })
	return err
}

// httpError is a handler failure mapped to a status code and a JSON body
// of {"error": msg} plus any extra fields (e.g. the results committed
// before a mid-script failure).
type httpError struct {
	status int
	msg    string
	extra  map[string]any
}

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// classifyExecErr maps an Exec failure to a status: statements the
// client got wrong are 400, statements the catalog cannot apply are
// 422, and durability failures — the statement was fine, the storage
// layer is degraded — are 503 so clients and monitoring see a server
// problem, not a client one.
func classifyExecErr(err error) *httpError {
	if errors.Is(err, cods.ErrUnknownStatement) || errors.Is(err, cods.ErrParse) {
		return errf(http.StatusBadRequest, "%v", err)
	}
	if errors.Is(err, cods.ErrNotDurable) {
		return errf(http.StatusServiceUnavailable, "%v", err)
	}
	return errf(http.StatusUnprocessableEntity, "%v", err)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// maxBodyBytes caps a request body; a larger one is answered 413.
const maxBodyBytes = 16 << 20

// readJSON decodes a request body, rejecting trailing garbage.
func readJSON(w http.ResponseWriter, r *http.Request, v any) *httpError {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return errf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
		}
		return errf(http.StatusBadRequest, "invalid request body: %v", err)
	}
	if dec.More() {
		return errf(http.StatusBadRequest, "invalid request body: trailing data")
	}
	return nil
}

// --- /healthz ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) *httpError {
	// db.Version reads the published catalog snapshot without locking, so
	// the probe always answers — even while an evolution is mid-operator.
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"schema_version": s.db.Version(),
	})
	return nil
}

// --- /schema ---

// SchemaResponse is GET /schema's body.
type SchemaResponse struct {
	Version int           `json:"version"`
	Tables  []SchemaTable `json:"tables"`
}

// SchemaTable describes one table.
type SchemaTable struct {
	Name    string         `json:"name"`
	Rows    uint64         `json:"rows"`
	Key     []string       `json:"key,omitempty"`
	Columns []SchemaColumn `json:"columns"`
}

// SchemaColumn describes one column.
type SchemaColumn struct {
	Name            string `json:"name"`
	Encoding        string `json:"encoding"`
	DistinctValues  int    `json:"distinct_values"`
	CompressedBytes uint64 `json:"compressed_bytes"`
}

func (s *Server) handleSchema(w http.ResponseWriter, r *http.Request) *httpError {
	// One snapshot for the whole response: the version and every table
	// shape describe the same schema version, even while evolutions
	// commit concurrently.
	snap := s.db.Snapshot()
	resp := SchemaResponse{Version: snap.Version(), Tables: []SchemaTable{}}
	for _, name := range snap.Tables() {
		info, err := snap.Describe(name)
		if err != nil {
			// Unreachable within one snapshot; skip defensively.
			continue
		}
		st := SchemaTable{Name: info.Name, Rows: info.Rows, Key: info.Key}
		for _, c := range info.Columns {
			st.Columns = append(st.Columns, SchemaColumn{
				Name:            c.Name,
				Encoding:        c.Encoding,
				DistinctValues:  c.DistinctValues,
				CompressedBytes: c.CompressedBytes,
			})
		}
		resp.Tables = append(resp.Tables, st)
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// --- /history ---

// HistoryEntry is one executed operator in GET /history.
type HistoryEntry struct {
	Version   int     `json:"version"`
	Op        string  `json:"op"`
	Kind      string  `json:"kind"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// HistoryResponse is GET /history's body: the most recent entries,
// newest first, plus the full log length so clients can tell how much
// was elided.
type HistoryResponse struct {
	Version int            `json:"version"`
	Total   int            `json:"total"`
	Entries []HistoryEntry `json:"entries"`
}

// handleHistory serves the tail of the executed-operator log. The
// default page is 50 entries; ?limit=n asks for more (or fewer). Cost is
// O(page), not O(statements) — DML creates a version per statement, so
// the full log can be arbitrarily long on a write-heavy catalog.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request) *httpError {
	limit := 50
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			return errf(http.StatusBadRequest, "limit must be a positive integer, got %q", q)
		}
		limit = n
	}
	snap := s.db.Snapshot()
	tail := snap.HistoryTail(limit)
	resp := HistoryResponse{Version: snap.Version(), Total: snap.HistoryLen(), Entries: []HistoryEntry{}}
	for i := len(tail) - 1; i >= 0; i-- {
		h := tail[i]
		resp.Entries = append(resp.Entries, HistoryEntry{
			Version:   h.Version,
			Op:        h.Op,
			Kind:      h.Kind,
			ElapsedMS: float64(h.Elapsed.Microseconds()) / 1000,
		})
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}

// --- /query ---

// AggSpec is one aggregate in a QueryRequest. Func is one of count,
// count_distinct, min, max, sum, avg.
type AggSpec struct {
	Func   string `json:"func"`
	Column string `json:"column,omitempty"`
	As     string `json:"as,omitempty"`
}

// JoinSpec is one inner-join step in a QueryRequest, mirroring
// cods.Join.
type JoinSpec struct {
	Table string   `json:"table"`
	On    []string `json:"on"`
}

// QueryRequest is POST /query's body. Either Stmt carries a full SELECT
// statement (text form), or Table is required and the remaining fields
// mirror cods.TableQuery; the two shapes cannot mix.
type QueryRequest struct {
	Stmt       string     `json:"stmt,omitempty"`
	Table      string     `json:"table,omitempty"`
	Select     []string   `json:"select,omitempty"`
	Joins      []JoinSpec `json:"joins,omitempty"`
	Where      string     `json:"where,omitempty"`
	GroupBy    string     `json:"group_by,omitempty"`
	Aggregates []AggSpec  `json:"aggregates,omitempty"`
	OrderBy    string     `json:"order_by,omitempty"`
	Desc       bool       `json:"desc,omitempty"`
	Limit      int        `json:"limit,omitempty"`
}

// QueryResponse is POST /query's body on success.
type QueryResponse struct {
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	RowCount  int        `json:"row_count"`
	ElapsedMS float64    `json:"elapsed_ms"`
}

var aggFuncs = map[string]cods.AggFunc{
	"count":          cods.Count,
	"count_distinct": cods.CountDistinct,
	"min":            cods.Min,
	"max":            cods.Max,
	"sum":            cods.Sum,
	"avg":            cods.Avg,
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) *httpError {
	var req QueryRequest
	if herr := readJSON(w, r, &req); herr != nil {
		return herr
	}
	var rs *cods.ResultSet
	var err error
	begin := time.Now()
	if req.Stmt != "" {
		if req.Table != "" {
			return errf(http.StatusBadRequest, "set stmt or table, not both")
		}
		rs, err = s.db.Select(req.Stmt)
	} else {
		if req.Table == "" {
			return errf(http.StatusBadRequest, "missing table")
		}
		q := cods.TableQuery{
			Select:  req.Select,
			Where:   req.Where,
			GroupBy: req.GroupBy,
			OrderBy: req.OrderBy,
			Desc:    req.Desc,
			Limit:   req.Limit,
		}
		for _, j := range req.Joins {
			q.Joins = append(q.Joins, cods.Join{Table: j.Table, On: j.On})
		}
		for _, a := range req.Aggregates {
			f, ok := aggFuncs[strings.ToLower(a.Func)]
			if !ok {
				return errf(http.StatusBadRequest, "unknown aggregate function %q", a.Func)
			}
			q.Aggregates = append(q.Aggregates, cods.Agg{Func: f, Column: a.Column, As: a.As})
		}
		// No existence pre-check: it would race a concurrent evolution (the
		// table could vanish between the check and the query) and cost a
		// redundant catalog lookup. RunQuery resolves every table — root
		// and joins — in the same snapshot it queries; classify its error
		// instead.
		rs, err = s.db.RunQuery(req.Table, q)
	}
	if err != nil {
		if errors.Is(err, cods.ErrNoTable) {
			// An unknown table — queried directly or named in a JOIN —
			// is "not found", so clients do not retry it as written.
			return errf(http.StatusNotFound, "%v", err)
		}
		// The tables exist, so the failure is a malformed SELECT, bad
		// predicate, column, or query shape — the client's to fix.
		return errf(http.StatusBadRequest, "%v", err)
	}
	rows := rs.Rows
	if rows == nil {
		rows = [][]string{}
	}
	writeJSON(w, http.StatusOK, QueryResponse{
		Columns:   rs.Columns,
		Rows:      rows,
		RowCount:  len(rows),
		ElapsedMS: float64(time.Since(begin).Microseconds()) / 1000,
	})
	return nil
}

// --- /exec ---

// ExecRequest is POST /exec's body: exactly one of Op (a single SMO
// statement) or Script (newline/semicolon-separated statements).
type ExecRequest struct {
	Op     string `json:"op,omitempty"`
	Script string `json:"script,omitempty"`
}

// ExecResult reports one executed operator.
type ExecResult struct {
	Op        string   `json:"op"`
	Kind      string   `json:"kind"`
	Version   int      `json:"version"`
	ElapsedMS float64  `json:"elapsed_ms"`
	Steps     []string `json:"steps,omitempty"`
	Created   []string `json:"created,omitempty"`
	Dropped   []string `json:"dropped,omitempty"`
}

// ExecResponse is POST /exec's body on success.
type ExecResponse struct {
	Results []ExecResult `json:"results"`
}

func toExecResult(r *cods.Result) ExecResult {
	return ExecResult{
		Op:        r.Op,
		Kind:      r.Kind,
		Version:   r.Version,
		ElapsedMS: float64(r.Elapsed.Microseconds()) / 1000,
		Steps:     r.Steps,
		Created:   r.Created,
		Dropped:   r.Dropped,
	}
}

func (s *Server) handleExec(w http.ResponseWriter, r *http.Request) *httpError {
	var req ExecRequest
	if herr := readJSON(w, r, &req); herr != nil {
		return herr
	}
	switch {
	case req.Op != "" && req.Script != "":
		return errf(http.StatusBadRequest, "set op or script, not both")
	case req.Op != "":
		res, err := s.db.Exec(req.Op)
		if err != nil {
			herr := classifyExecErr(err)
			if res != nil {
				// The statement committed but could not be made durable;
				// the client must see it or a retry re-applies a live
				// statement.
				herr.extra = map[string]any{"results": []ExecResult{toExecResult(res)}}
			}
			return herr
		}
		writeJSON(w, http.StatusOK, ExecResponse{Results: []ExecResult{toExecResult(res)}})
		return nil
	case req.Script != "":
		results, err := s.db.ExecScript(req.Script)
		execResults := []ExecResult{}
		for _, r := range results {
			execResults = append(execResults, toExecResult(r))
		}
		if err != nil {
			// Statements before the failure committed (and are durable);
			// the client must see them or a whole-script retry will fail
			// in new ways.
			herr := classifyExecErr(err)
			herr.extra = map[string]any{"results": execResults}
			return herr
		}
		writeJSON(w, http.StatusOK, ExecResponse{Results: execResults})
		return nil
	default:
		return errf(http.StatusBadRequest, "missing op or script")
	}
}

// --- /checkpoint ---

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) *httpError {
	if err := s.db.Checkpoint(); err != nil {
		status := http.StatusUnprocessableEntity
		if errors.Is(err, cods.ErrNotDurable) {
			// Same contract as /exec: durability failures are the
			// server's problem, not the client's.
			status = http.StatusServiceUnavailable
		}
		return errf(status, "%v", err)
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "schema_version": s.db.Version()})
	return nil
}

// --- /stats ---

// EndpointStats is one endpoint's counters in GET /stats.
type EndpointStats struct {
	Requests  int64   `json:"requests"`
	Errors    int64   `json:"errors"`
	TotalMS   float64 `json:"total_ms"`
	MeanMS    float64 `json:"mean_ms"`
	MaxMS     float64 `json:"max_ms"`
	LastError bool    `json:"last_error"`
}

// TableColumnStats is one table's planner statistics in GET /stats:
// the row count plus each column's cardinality inputs (the numbers the
// query planner's join ordering and selectivity estimates run on).
type TableColumnStats struct {
	Table   string        `json:"table"`
	Rows    uint64        `json:"rows"`
	Columns []ColumnStats `json:"columns"`
}

// ColumnStats is one column's cardinality statistics in GET /stats,
// from colstore.Column.Stats: the dictionary's distinct count, and —
// when every distinct value parses as an int64 — the numeric bounds.
type ColumnStats struct {
	Name     string `json:"name"`
	Distinct int    `json:"distinct"`
	Integer  bool   `json:"integer,omitempty"`
	MinInt   int64  `json:"min_int,omitempty"`
	MaxInt   int64  `json:"max_int,omitempty"`
}

// StatsResponse is GET /stats's body.
type StatsResponse struct {
	UptimeMS      float64                  `json:"uptime_ms"`
	SchemaVersion int                      `json:"schema_version"`
	InFlight      int64                    `json:"in_flight"`
	MaxInFlight   int                      `json:"max_in_flight"`
	Memory        cods.MemStats            `json:"memory"`
	TableStats    []TableColumnStats       `json:"table_stats,omitempty"`
	Endpoints     map[string]EndpointStats `json:"endpoints"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) *httpError {
	resp := StatsResponse{
		UptimeMS:      float64(time.Since(s.start).Microseconds()) / 1000,
		SchemaVersion: s.db.Version(),
		InFlight:      s.inFlight.Load(),
		MaxInFlight:   s.cfg.MaxInFlight,
		Memory:        s.db.MemStats(),
		Endpoints:     make(map[string]EndpointStats, len(s.stats)),
	}
	// One snapshot for the whole listing, so the per-table statistics
	// describe a single schema version even under concurrent evolutions.
	snap := s.db.Snapshot()
	for _, name := range snap.Tables() {
		info, err := snap.Describe(name)
		if err != nil {
			continue
		}
		ts := TableColumnStats{Table: name, Rows: info.Rows}
		for _, c := range info.Columns {
			ts.Columns = append(ts.Columns, ColumnStats{
				Name:     c.Name,
				Distinct: c.DistinctValues,
				Integer:  c.Integer,
				MinInt:   c.MinInt,
				MaxInt:   c.MaxInt,
			})
		}
		resp.TableStats = append(resp.TableStats, ts)
	}
	for path, st := range s.stats {
		n := st.requests.Load()
		es := EndpointStats{
			Requests:  n,
			Errors:    st.errors.Load(),
			TotalMS:   float64(st.totalNS.Load()) / 1e6,
			MaxMS:     float64(st.maxNS.Load()) / 1e6,
			LastError: st.lastIsErr.Load(),
		}
		if n > 0 {
			es.MeanMS = es.TotalMS / float64(n)
		}
		resp.Endpoints[path] = es
	}
	writeJSON(w, http.StatusOK, resp)
	return nil
}
