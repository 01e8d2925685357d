package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"cods"
	"cods/internal/server"
)

// runEvolve is the paper's Figure 3 through the engine: one closed-loop
// client runs COPY, DECOMPOSE, MERGE, DROP cycles on an in-memory
// database, timing each statement. Nothing is parsed but SMOs, nothing is
// queried, nothing is logged.
func runEvolve(cfg runConfig) (*outcome, error) {
	data := genData(cfg.seed, cfg.prof.evolveRows, cfg.prof.evolveKeys)
	cycle := smoCycle("R")
	db, setups, err := repeatSetup(cfg.setupReps, func() (*cods.DB, error) {
		// Bounded retention, or every cycle's tables stay reachable for
		// Rollback and heap_mb measures how many cycles the run got through.
		db := cods.Open(cods.Config{RetainVersions: htapConfig.RetainVersions})
		if err := db.CreateTableFromRows("R", columns, nil, data.rows); err != nil {
			return nil, err
		}
		for i := 0; i < 2; i++ { // warm-up cycles
			for _, st := range cycle {
				if _, err := db.Exec(st.text); err != nil {
					return nil, err
				}
			}
		}
		return db, nil
	}, func(*cods.DB) {})
	if err != nil {
		return nil, err
	}
	wantRows, wantHash, userBytes := uint64(len(data.rows)), data.hash, data.userBytes
	data = nil // the generated rows must not sit in heap_mb

	log := newOplog(cfg.tr)
	start := time.Now()
	deadline := start.Add(cfg.duration())
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		var total float64
		for _, st := range cycle {
			var check func() error
			if st.class == classMerge {
				check = func() error {
					if got, err := db.NumRows("R_w"); err != nil || got != wantRows {
						return wrongf("MERGE produced %d rows (%v), R has %d", got, err, wantRows)
					}
					return nil
				}
			}
			total += log.do(st.class, func() error {
				_, err := db.Exec(st.text)
				return err
			}, check)
		}
		log.samples[classCycle] = append(log.samples[classCycle], total)
	}
	o := &outcome{log: log, setups: setups, wall: time.Since(start), ops: log.attempted - log.failed}

	// One more cycle, untimed, to compare the merged table's content with
	// the generated R: materializing a million rows inside the measured
	// phase would swamp the statements being timed.
	log.verify(func() error {
		for _, st := range cycle[:3] {
			if _, err := db.Exec(st.text); err != nil {
				return err
			}
		}
		rows, err := db.Rows("R_w", 0, 0)
		if err != nil {
			return err
		}
		if uint64(len(rows)) != wantRows || hashRows(rows) != wantHash {
			return wrongf("MERGE output differs from R: %d rows, hash %x; want %d rows, hash %x",
				len(rows), hashRows(rows), wantRows, wantHash)
		}
		_, err = db.Exec(cycle[3].text)
		return err
	}())

	stored, err := storedBytes(db, "R")
	if err != nil {
		return nil, err
	}
	o.spaceAmp = float64(stored) / float64(userBytes)
	o.finish(db)
	return o, nil
}

// runClients runs n closed-loop clients until the deadline and merges
// their logs. make builds client i with its own log; step issues one
// operation.
func runClients(n int, d time.Duration, tr *tracer, mk func(i int, log *oplog) *mixClient, step func(m *mixClient)) (*oplog, time.Duration) {
	logs := make([]*oplog, n)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for i := 0; i < n; i++ {
		logs[i] = newOplog(tr)
		m := mk(i, logs[i])
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				step(m)
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	total := newOplog(tr)
	for _, l := range logs {
		total.merge(l)
	}
	return total, wall
}

// warm issues the fixed-count warm-up of a mixed workload inside set-up.
func warm(m *mixClient, ops int, step func(m *mixClient)) error {
	for i := 0; i < ops; i++ {
		step(m)
	}
	if m.log.firstErr != nil {
		return fmt.Errorf("warm-up: %w", m.log.firstErr)
	}
	return nil
}

// runQuery is read-only analytics on a settled catalog: R and its
// decomposition S, T, no pending delta, no writes, in-process calls.
// Point reads, GROUP BY counts and joins over the decomposition are drawn
// 60/20/20.
func runQuery(cfg runConfig) (*outcome, error) {
	data := genData(cfg.seed, cfg.prof.queryRows, cfg.prof.queryKeys)
	step := func(m *mixClient) { m.step(60, 20, m.join) }
	db, setups, err := repeatSetup(cfg.setupReps, func() (*cods.DB, error) {
		db := cods.Open(cods.Config{})
		if err := db.CreateTableFromRows("R", columns, nil, data.rows); err != nil {
			return nil, err
		}
		for _, s := range []string{"COPY TABLE R TO R_c", "DECOMPOSE TABLE R_c INTO S (A, B), T (A, C)"} {
			if _, err := db.Exec(s); err != nil {
				return nil, err
			}
		}
		m := newMixClient(inproc{db}, db, data, cfg.seed+100, "w", newOplog(nil))
		return db, warm(m, cfg.prof.warmOps, step)
	}, func(*cods.DB) {})
	if err != nil {
		return nil, err
	}
	userBytes := data.userBytes
	data.rows = nil // the counts stay for the checks; the rows must not sit in heap_mb

	log, wall := runClients(clients(), cfg.duration(), cfg.tr, func(i int, log *oplog) *mixClient {
		return newMixClient(inproc{db}, db, data, cfg.seed+int64(i+1)*1000, "", log)
	}, step)
	o := &outcome{log: log, setups: setups, wall: wall, ops: log.attempted - log.failed}
	stored, err := storedBytes(db, "R", "S", "T")
	if err != nil {
		return nil, err
	}
	o.spaceAmp = float64(stored) / float64(userBytes)
	o.finish(db)
	return o, nil
}

// served is an in-memory database behind the HTTP server on a loopback
// listener in this process.
type served struct {
	db   *cods.DB
	hs   *http.Server
	base string
	done chan struct{}
}

func serve(db *cods.DB) (*served, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{
		db:   db,
		hs:   &http.Server{Handler: server.New(db, server.Config{}).Handler()},
		base: "http://" + l.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		s.hs.Serve(l) // returns ErrServerClosed once stop is called
	}()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx)
	<-s.done
}

// htapConfig is the `cods serve` production shape.
var htapConfig = cods.Config{RetainVersions: 8, AutoCompactPending: 4096}

// runHTAP runs the read classes beside keyed writes and a background
// schema-evolution cycle, all over HTTP: 70 point / 10 agg / 20 write
// from min(2, nproc) closed-loop keep-alive clients, plus one SMO cycle on
// a copy of R every second from a connection of its own.
func runHTAP(cfg runConfig) (*outcome, error) {
	data := genData(cfg.seed, cfg.prof.htapRows, cfg.prof.htapKeys)
	step := func(m *mixClient) { m.step(70, 10, m.write) }
	var warmLive int // rows the kept set-up's warm-up left in R
	srv, setups, err := repeatSetup(cfg.setupReps, func() (*served, error) {
		db := cods.Open(htapConfig)
		if err := db.CreateTableFromRows("R", columns, nil, data.rows); err != nil {
			return nil, err
		}
		srv, err := serve(db)
		if err != nil {
			return nil, err
		}
		log := newOplog(nil)
		c := newHTTPConn(srv.base, log)
		defer c.close()
		m := newMixClient(c, nil, data, cfg.seed+100, "w", log)
		if err := warm(m, cfg.prof.warmOps, step); err != nil {
			srv.stop()
			return nil, err
		}
		warmLive = len(m.dml.live)
		return srv, nil
	}, func(s *served) { s.stop() })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	userBytes := data.userBytes
	data.rows = nil

	// The background evolution stream: the only timer in the benchmark.
	smoLog := newOplog(cfg.tr)
	smoConn := newHTTPConn(srv.base, smoLog)
	defer smoConn.close()
	stopSMO := make(chan struct{})
	smoDone := make(chan struct{})
	go func() {
		defer close(smoDone)
		tick := time.NewTicker(cfg.prof.smoInterval)
		defer tick.Stop()
		for {
			select {
			case <-stopSMO:
				return
			case <-tick.C:
			}
			var total float64
			for _, st := range smoCycle("R") {
				total += smoLog.do(st.class, func() error { return smoConn.exec(st.text) }, nil)
			}
			smoLog.samples[classCycle] = append(smoLog.samples[classCycle], total)
		}
	}()

	var conns []*httpConn
	var mixes []*mixClient
	log, wall := runClients(clients(), cfg.duration(), cfg.tr, func(i int, log *oplog) *mixClient {
		c := newHTTPConn(srv.base, log)
		conns = append(conns, c)
		m := newMixClient(c, nil, data, cfg.seed+int64(i+1)*1000, fmt.Sprint(i), log)
		mixes = append(mixes, m)
		return m
	}, step)
	close(stopSMO)
	<-smoDone
	for _, c := range conns {
		c.close()
	}
	log.merge(smoLog)
	o := &outcome{log: log, setups: setups, wall: wall, ops: log.attempted - log.failed}

	// Roll the retention window past the last SMO cycle: whether its
	// scratch tables are still among the retained versions depends on
	// when the run stopped, and makes heap_mb 25 or 35 MiB at random.
	settle := newMixClient(inproc{srv.db}, nil, data, cfg.seed, "z", newOplog(nil))
	for i := 0; i <= htapConfig.RetainVersions; i++ {
		settle.write()
	}
	log.verify(settle.log.firstErr)

	// Every acknowledged insert that was not deleted again must be there,
	// and nothing else.
	want := uint64(cfg.prof.htapRows + warmLive)
	for _, m := range append(mixes, settle) {
		want += uint64(len(m.dml.live))
	}
	got, err := srv.db.NumRows("R")
	if err == nil && got != want {
		err = wrongf("R holds %d rows after the run, the clients' acknowledged writes leave %d", got, want)
	}
	log.verify(err)

	stored, err := storedBytes(srv.db, "R")
	if err != nil {
		return nil, err
	}
	o.spaceAmp = float64(stored) / float64(userBytes)
	o.finish(srv.db)
	return o, nil
}
