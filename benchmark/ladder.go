package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"

	"cods"
	"cods/internal/colstore"
	"cods/internal/evolve"
	"cods/internal/expr"
	"cods/internal/smo"
	"cods/internal/storage"
	"cods/internal/wah"
)

// The ladder measures every layer from outside: it calls a layer's
// public functions directly on inputs of the workloads' shapes, and
// where a layer has no entry point of its own it times two call paths
// that differ by that layer and reports the difference. It runs in the
// traced run only; no end-to-end number comes from it.

// ladder carries one ladder run: the rungs record spans and samples
// through log and leave their metrics in out.
type ladder struct {
	cfg runConfig
	log *oplog
	out map[string]metric
}

// ladderErr carries a failed call out of the rungs to runLadder.
type ladderErr struct{ err error }

func (l *ladder) must(err error) {
	if err != nil {
		panic(ladderErr{err})
	}
}

func (l *ladder) set(name string, v float64, unit string) {
	l.out[name] = metric{Value: finite(v), Unit: unit}
}

// time calls fn n times as rung name and returns the latencies in ms.
func (l *ladder) time(name string, n int, fn func(i int) error) []float64 {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		ms := l.log.do(name, func() error { return fn(i) }, nil)
		l.must(l.log.firstErr)
		xs = append(xs, ms)
	}
	return xs
}

// once is time for a single call.
func (l *ladder) once(name string, fn func() error) float64 {
	return l.time(name, 1, func(int) error { return fn() })[0]
}

// runLadder runs every rung and returns the ladder's per-layer metrics.
// It is the same whatever workload the run selects: the driver wants
// every per-layer metric from every traced run.
func runLadder(cfg runConfig) (out map[string]metric, err error) {
	l := &ladder{cfg: cfg, log: newOplog(cfg.tr), out: make(map[string]metric)}
	defer func() {
		if r := recover(); r != nil {
			le, ok := r.(ladderErr)
			if !ok {
				panic(r)
			}
			err = le.err
		}
	}()
	for _, rungs := range []func(){l.evolveRungs, l.queryRungs, l.htapRungs, l.storageRungs} {
		rungs()
		runtime.GC() // each group builds its own tables; do not let one's garbage time the next
	}
	return l.out, nil
}

// sink keeps kernel results alive so the calls are not optimized away.
var sink uint64

func buildTable(name string, rows [][]string) (*colstore.Table, error) {
	tb, err := colstore.NewTableBuilder(name, columns, nil)
	if err != nil {
		return nil, err
	}
	for _, r := range rows {
		if err := tb.AppendRow(r); err != nil {
			return nil, err
		}
	}
	return tb.Finish()
}

// evolveRungs calls the evolution operators directly on harness-built
// tables of the evolve workload's size at two points of the paper's
// x-axis (distinct keys = 1/100 of the workload's, and the workload's),
// then the parallel speed-up, the engine's overhead over the bare
// operator, and the WAH kernels on the table's own bitmaps.
func (l *ladder) evolveRungs() {
	p, reps := l.cfg.prof, l.cfg.prof.ladderReps
	spec := evolve.DecomposeSpec{OutS: "S", SColumns: []string{"A", "B"}, OutT: "T", TColumns: []string{"A", "C"}}
	par, serial := evolve.Options{}, evolve.Options{Parallelism: 1}
	for _, pt := range []struct {
		suffix string
		keys   int
	}{{"d1k", p.evolveKeys / 100}, {"d100k", p.evolveKeys}} {
		data := genData(l.cfg.seed, p.evolveRows, pt.keys)
		var r *colstore.Table
		build := l.once("colstore.build", func() (err error) {
			r, err = buildTable("R", data.rows)
			return err
		})
		var dec *evolve.DecomposeResult
		decompose := l.time("evolve.decompose", reps, func(int) (err error) {
			dec, err = evolve.Decompose(r, spec, par)
			return err
		})
		keyFK := l.time("evolve.merge_keyfk", reps, func(int) error {
			_, err := evolve.MergeKeyFK(dec.S, dec.T, "M", par)
			return err
		})
		// MergeGeneral and Partition take 0.4 s and 1.4 s a call at this
		// size: one call each, or the ladder outlasts the workload it explains.
		general := l.once("evolve.merge_general", func() error {
			_, err := evolve.MergeGeneral(dec.S, dec.T, "M", par)
			return err
		})
		l.set("evolve.decompose_ms."+pt.suffix, p50(decompose), "ms")
		l.set("evolve.merge_keyfk_ms."+pt.suffix, p50(keyFK), "ms")
		l.set("evolve.merge_general_ms."+pt.suffix, general, "ms")
		if pt.keys != p.evolveKeys {
			continue
		}

		l.set("colstore.build_krows_per_s", float64(len(data.rows))/build, "krows/s")
		l.set("evolve.copy_ms", p50(l.time("evolve.copy", reps, func(int) error {
			_, err := evolve.Copy(r, "R2", par)
			return err
		})), "ms")
		var yes, no *colstore.Table
		cond := fmt.Sprintf("C < 'c%07d'", (pt.keys/10+1)/2)
		l.set("evolve.partition_ms", l.once("evolve.partition", func() (err error) {
			yes, no, err = evolve.Partition(r, cond, "L", "H", par)
			return err
		}), "ms")
		l.set("evolve.union_ms", p50(l.time("evolve.union", reps, func(int) error {
			_, err := evolve.Union(yes, no, "U", par)
			return err
		})), "ms")

		l.set("par.decompose_speedup", p50(l.time("evolve.decompose.serial", reps, func(int) error {
			_, err := evolve.Decompose(r, spec, serial)
			return err
		}))/p50(decompose), "ratio")
		l.set("par.merge_speedup", p50(l.time("evolve.merge_keyfk.serial", reps, func(int) error {
			_, err := evolve.MergeKeyFK(dec.S, dec.T, "M", serial)
			return err
		}))/p50(keyFK), "ratio")

		// The same DECOMPOSE through parse, catalog and publication.
		db := cods.Open(cods.Config{})
		l.must(db.CreateTableFromRows("R", columns, nil, data.rows))
		var viaExec []float64
		for i := 0; i <= reps; i++ {
			for _, st := range smoCycle("R") {
				ms := l.once("cods.exec."+st.class, func() error {
					_, err := db.Exec(st.text)
					return err
				})
				if st.class == classDecompose && i > 0 { // the first cycle warms up
					viaExec = append(viaExec, ms)
				}
			}
		}
		l.set("core.exec_over_evolve_ms", p50(viaExec)-p50(decompose), "ms")

		l.wahRungs(r)
	}
}

// wahRungs times the compressed-bitmap kernels on up to 10,000 of the
// key column's own bitmaps.
func (l *ladder) wahRungs(r *colstore.Table) {
	reps := l.cfg.prof.ladderReps
	colA, err := r.Column("A")
	l.must(err)
	colC, err := r.Column("C")
	l.must(err)
	bms := make([]*wah.Bitmap, min(colA.DistinctCount(), 10_000))
	words := 0
	for i := range bms {
		bms[i] = colA.BitmapForID(uint32(i))
		words += bms[i].Words()
	}
	l.set("wah.words_per_bitmap", float64(words)/float64(len(bms)), "words")
	l.set("wah.or_all_ms", p50(l.time("wah.or_all", reps, func(int) error {
		sink += wah.OrAllP(bms, 0).Len()
		return nil
	})), "ms")
	and := l.time("wah.and", reps, func(int) error {
		for i := 0; i+1 < len(bms); i++ {
			sink += wah.And(bms[i], bms[i+1]).Len()
		}
		return nil
	})
	pairWords := 2*words - bms[0].Words() - bms[len(bms)-1].Words()
	l.set("wah.and_ns_per_word", p50(and)*1e6/float64(pairWords), "ns/word")
	count := l.time("wah.count", reps, func(int) error {
		for _, b := range bms {
			sink += b.Count()
		}
		return nil
	})
	l.set("wah.count_ns_per_word", p50(count)*1e6/float64(words), "ns/word")
	mask := colC.BitmapForID(0)
	l.set("wah.filter_ms", p50(l.time("wah.filter", reps, func(int) error {
		for _, b := range bms[:min(len(bms), 1000)] {
			sink += wah.Filter(b, mask).Len()
		}
		return nil
	})), "ms")
}

// queryRungs uses the query workload's catalog: the read classes called
// in-process one at a time, the join against the scan of the
// undecomposed table, the plan cache's miss penalty, and the parsers on
// the workloads' own statements.
func (l *ladder) queryRungs() {
	p, ops, reps := l.cfg.prof, l.cfg.prof.ladderOps, l.cfg.prof.ladderReps
	data := genData(l.cfg.seed, p.queryRows, p.queryKeys)
	db := cods.Open(cods.Config{})
	l.must(db.CreateTableFromRows("R", columns, nil, data.rows))
	for _, s := range []string{"COPY TABLE R TO R_c", "DECOMPOSE TABLE R_c INTO S (A, B), T (A, C)"} {
		_, err := db.Exec(s)
		l.must(err)
	}
	rng := rand.New(rand.NewSource(l.cfg.seed))
	keys := newKeyChooser(rng, data.keys)
	cs := make([]string, ops)
	for i := range cs {
		cs[i] = data.cValues[rng.Intn(len(data.cValues))]
	}

	l.set("colquery.agg_ms", p50(l.time("cods.select.agg", ops, func(int) error {
		_, err := db.Select(aggStmt)
		return err
	})), "ms")
	join := p50(l.time("cods.select.join", ops, func(i int) error {
		_, err := db.Select(joinStmt(cs[i]))
		return err
	}))
	scan := p50(l.time("cods.count.scan", ops, func(i int) error {
		_, err := db.Count("R", "C = '"+cs[i]+"'")
		return err
	}))
	l.set("colquery.join_vs_scan_ratio", join/scan, "ratio")
	l.set("colquery.join_us_per_krow", join*1000/(float64(p.queryRows)/1000), "us/krow")
	l.set("plan.join_minus_scan_ms", join-scan, "ms")

	var pointRows int
	var pointMS float64
	for _, ms := range l.time("cods.query.point", ops, func(int) error {
		rows, err := db.Query("R", pointCond(keyName(keys.next())))
		pointRows += len(rows)
		return err
	}) {
		pointMS += ms
	}
	l.set("colquery.point_rows_per_ms", float64(pointRows)/pointMS, "rows/ms")
	l.set("colstore.rows_decode_per_ms", float64(p.queryRows)/p50(l.time("cods.rows", reps, func(int) error {
		_, err := db.Rows("R", 0, 0)
		return err
	})), "rows/ms")

	// Every Exec bumps the catalog version the plan cache keys on, so the
	// first join after one plans afresh and the second reuses the plan.
	var first, again []float64
	for i := 0; i < max(3*reps, 5); i++ {
		_, err := db.Exec("CREATE TABLE Z (x)")
		l.must(err)
		sel := func() error {
			_, err := db.Select(joinStmt(cs[0]))
			return err
		}
		first = append(first, l.once("cods.select.join.miss", sel))
		again = append(again, l.once("cods.select.join.hit", sel))
		_, err = db.Exec("DROP TABLE Z")
		l.must(err)
	}
	l.set("plan.miss_penalty_us", (p50(first)-p50(again))*1000, "us")

	dml := newDMLGen(l.cfg.seed, "R", "p", data)
	var dmlTexts, smoTexts []string
	for i := 0; i < 4; i++ {
		dmlTexts = append(dmlTexts, dml.next().text)
	}
	for _, st := range smoCycle("R") {
		smoTexts = append(smoTexts, st.text)
	}
	parse := func(name string, texts []string, fn func(string) error) {
		const rounds = 200
		ms := l.once(name, func() error {
			for i := 0; i < rounds; i++ {
				for _, t := range texts {
					if err := fn(t); err != nil {
						return err
					}
				}
			}
			return nil
		})
		l.set(name+"_us", ms*1000/float64(rounds*len(texts)), "us")
	}
	smoParse := func(s string) error { _, err := smo.Parse(s); return err }
	parse("smo.parse_select", []string{aggStmt, joinStmt(cs[0])}, smoParse)
	parse("smo.parse_dml", dmlTexts, smoParse)
	parse("smo.parse_smo", smoTexts, smoParse)
	parse("expr.parse", []string{pointCond(keyName(0)), "C = '" + cs[0] + "'"}, func(s string) error { _, err := expr.Parse(s); return err })
}

// inserts returns the next n INSERT statements of a DML stream.
func inserts(g *dmlGen, n int) []string {
	var out []string
	for len(out) < n {
		if s := g.next(); s.kind == kindInsert {
			out = append(out, s.text)
		}
	}
	return out
}

// htapRungs uses the htap workload's table: the HTTP round trip against
// the identical in-process call, the cost a pending delta adds to reads
// and the flush it adds to the first aggregate, in-memory DML by kind,
// and the merge of eight tail segments.
func (l *ladder) htapRungs() {
	p, ops, reps := l.cfg.prof, l.cfg.prof.ladderOps, l.cfg.prof.ladderReps
	data := genData(l.cfg.seed, p.htapRows, p.htapKeys)
	rng := rand.New(rand.NewSource(l.cfg.seed))
	chooser := newKeyChooser(rng, data.keys)
	keys := make([]string, ops)
	for i := range keys {
		keys[i] = keyName(chooser.next())
	}
	open := func(cfg cods.Config) *cods.DB {
		db := cods.Open(cfg)
		l.must(db.CreateTableFromRows("R", columns, nil, data.rows))
		return db
	}
	pointP50 := func(name string, c conn) float64 {
		return p50(l.time(name, ops, func(i int) error {
			_, err := c.point(keys[i])
			return err
		}))
	}

	db := open(htapConfig)
	srv, err := serve(db)
	l.must(err)
	hc := newHTTPConn(srv.base, l.log)
	var respBytes int
	overHTTP := p50(l.time("http.point", ops, func(i int) error {
		_, err := hc.point(keys[i])
		respBytes += hc.respBytes
		return err
	}))
	l.set("server.point_overhead_ms", overHTTP-pointP50("cods.point", inproc{db}), "ms")
	l.set("server.resp_bytes_per_point", float64(respBytes)/float64(ops), "bytes")
	aggP50 := func(name string, c conn) float64 {
		return p50(l.time(name, max(ops/5, 3), func(int) error {
			_, err := c.agg()
			return err
		}))
	}
	l.set("server.agg_overhead_ms", aggP50("http.agg", hc)-aggP50("cods.agg", inproc{db}), "ms")
	execP50 := func(name, prefix string, c conn) float64 {
		stmts := inserts(newDMLGen(l.cfg.seed, "R", prefix, data), ops)
		return p50(l.time(name, ops, func(i int) error { return c.exec(stmts[i]) }))
	}
	l.set("server.exec_overhead_ms", execP50("http.exec", "h", hc)-execP50("cods.exec", "i", inproc{db}), "ms")
	hc.close()
	srv.stop()

	// A database that never compacts by itself, so the pending tail is
	// exactly what the rung put there.
	db = open(cods.Config{})
	dml := newDMLGen(l.cfg.seed, "R", "d", data)
	burst := func(n int) {
		for _, s := range inserts(dml, n) {
			_, err := db.Exec(s)
			l.must(err)
		}
	}
	for _, pending := range []int{1000, 4000} {
		burst(pending * p.htapRows / fullProfile.htapRows)
		before := pointP50("cods.point.pending", inproc{db})
		l.must(db.Compact())
		l.set(fmt.Sprintf("delta.read_penalty_ms.p%d", pending), before-pointP50("cods.point.compacted", inproc{db}), "ms")
	}
	var first, steady []float64
	agg := func() error { _, err := db.Select(aggStmt); return err }
	for i := 0; i < max(2*reps, 3); i++ {
		burst(ops)
		first = append(first, l.once("cods.agg.after_writes", agg))
		steady = append(steady, l.once("cods.agg.steady", agg))
	}
	l.set("delta.flush_ms", p50(first)-p50(steady), "ms")
	byKind := make(map[string][]float64)
	for i := 0; i < 4*ops; i++ {
		s := dml.next()
		byKind[s.kind] = append(byKind[s.kind], l.once("cods.exec."+s.kind, func() error {
			_, err := db.Exec(s.text)
			return err
		}))
	}
	for _, kind := range []string{kindInsert, kindUpdate, kindDelete} {
		l.set("delta."+kind+"_us", p50(byKind[kind])*1000, "us")
	}

	const tails = 8
	segs := make([]*colstore.Segment, tails)
	n := len(data.rows) / 50
	for i := range segs {
		t, err := buildTable("R", data.rows[i*n:(i+1)*n])
		l.must(err)
		segs[i] = t.Segments()[0]
	}
	l.set("colstore.merge_segments_ms", p50(l.time("colstore.merge_segments", reps, func(int) error {
		_, err := colstore.MergeSegments(segs, 0)
		return err
	})), "ms")
}

// storageRungs calls the storage layer directly in a temporary
// directory, on the durable workload's table: snapshot save and load,
// WAL appends with their fsync, and replay per logged statement (a
// reopen minus the snapshot load it contains).
func (l *ladder) storageRungs() {
	p, reps := l.cfg.prof, l.cfg.prof.ladderReps
	data := genData(l.cfg.seed, p.durableRows, p.durableKeys)
	tail := 2 * p.ladderOps
	root, err := os.MkdirTemp("", "cods-bench-storage-")
	l.must(err)
	defer os.RemoveAll(root)

	dbDir := filepath.Join(root, "db")
	db, err := cods.OpenDurable(dbDir, htapConfig)
	l.must(err)
	l.must(db.CreateTableFromRows("R", columns, nil, data.rows))
	dml := newDMLGen(l.cfg.seed, "R", "s", data)
	stmts := make([]string, tail)
	for i := range stmts {
		stmts[i] = dml.next().text
		_, err := db.Exec(stmts[i])
		l.must(err)
	}
	l.must(db.Close())
	reopen := l.time("cods.open_durable", reps, func(int) error {
		db, err := cods.OpenDurable(dbDir, htapConfig)
		if err != nil {
			return err
		}
		return db.Close()
	})
	var tables []*colstore.Table
	load := l.time("storage.load_snapshot", reps, func(int) (err error) {
		tables, _, err = storage.LoadSnapshot(dbDir)
		return err
	})
	l.set("storage.snapshot_load_ms", p50(load), "ms")
	l.set("storage.replay_ms_per_stmt", (p50(reopen)-p50(load))/float64(tail), "ms")

	snapDir := filepath.Join(root, "snap")
	l.set("storage.snapshot_save_ms", p50(l.time("storage.save_snapshot", reps, func(i int) error {
		_, err := storage.SaveSnapshot(snapDir, tables, uint64(i+1))
		return err
	})), "ms")
	snapBytes, err := dirBytes(snapDir)
	l.must(err)
	l.set("storage.snapshot_bytes", float64(snapBytes), "bytes")

	wal, err := storage.OpenWAL(filepath.Join(root, "wal"), 0)
	l.must(err)
	defer wal.Close()
	size := func() int64 {
		info, err := os.Stat(wal.Path())
		l.must(err)
		return info.Size()
	}
	empty := size()
	l.set("storage.wal_append_us", p50(l.time("storage.wal_append", tail, func(i int) error {
		return wal.Append(stmts[i])
	}))*1000, "us")
	l.set("storage.wal_bytes_per_stmt", float64(size()-empty)/float64(tail), "bytes")
}

// workloadLayerMetrics turns one traced workload run into the per-layer
// metrics that only a whole run can give: the engine's end-of-run
// gauges and every class's tail. A class the workload does not run has
// a count of 0 and nothing else to say, so its names are not among ran,
// the ones the text output lists.
func workloadLayerMetrics(o *outcome) (out map[string]metric, ran []string) {
	out = make(map[string]metric)
	set := func(name string, v float64, unit string, list bool) {
		out[name] = metric{Value: v, Unit: unit}
		if list {
			ran = append(ran, name)
		}
	}
	segments := 0
	for _, t := range o.mem.Tables {
		segments += t.Segments
	}
	set("core.compactions", float64(o.mem.Compactions), "count", true)
	set("core.segment_merges", float64(o.mem.SegmentMerges), "count", true)
	set("core.segments_end", float64(segments), "count", true)
	set("core.pending_rows_end", float64(o.mem.PendingRows), "count", true)
	set("core.retained_versions_end", float64(o.mem.RetainedVersions), "count", true)
	set("core.merge_wait_ms", o.mergeMS, "ms", true)
	for _, class := range diagClasses {
		xs := o.log.samples[class]
		set(class+"_n", float64(len(xs)), "count", len(xs) > 0)
		set(class+"_p50_ms", p50(xs), "ms", len(xs) > 0)
		set(class+"_p95_ms", percentile(xs, 95), "ms", len(xs) > 0)
		set(class+"_p99_ms", percentile(xs, 99), "ms", len(xs) > 0)
		set(class+"_max_ms", percentile(xs, 100), "ms", len(xs) > 0)
	}
	return out, ran
}
