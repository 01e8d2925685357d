package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"cods"
)

// durableDB is a crash-safe database in its own temporary directory,
// with the DML stream and the model that belong to it.
type durableDB struct {
	db    *cods.DB
	dir   string
	dml   *dmlGen
	model *model
}

func (d *durableDB) remove() {
	d.db.Close()
	os.RemoveAll(d.dir)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (uint64, error) {
	var n uint64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += uint64(info.Size())
		}
		return err
	})
	return n, err
}

// checkpoints is how many checkpoints a run takes, and recoverReps how
// often the closed directory is reopened: both classes report a median,
// and one checkpoint or one reopen is one sample.
const (
	checkpoints = 7
	recoverReps = 3
)

// runDurable is the write path to disk and back: one closed-loop client
// issues a fixed list of keyed DML statements against an OpenDurable
// database (the engine's default flush policy: one WAL fsync per Exec),
// checkpoints seven times along the way, leaves a WAL tail, closes, and
// reopens. Afterwards every acknowledged write is checked against the
// model.
func runDurable(cfg runConfig) (*outcome, error) {
	data := genData(cfg.seed, cfg.prof.durableRows, cfg.prof.durableKeys)
	const warmStmts = 20
	d, setups, err := repeatSetup(cfg.setupReps, func() (*durableDB, error) {
		dir, err := os.MkdirTemp("", "cods-bench-durable-")
		if err != nil {
			return nil, err
		}
		d := &durableDB{dir: dir, dml: newDMLGen(cfg.seed+1, "R", "0", data), model: newModel(data)}
		if d.db, err = cods.OpenDurable(dir, htapConfig); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		if err := d.db.CreateTableFromRows("R", columns, nil, data.rows); err != nil {
			d.remove()
			return nil, err
		}
		for i := 0; i < warmStmts; i++ {
			s := d.dml.next()
			if _, err := d.db.Exec(s.text); err != nil {
				d.remove()
				return nil, err
			}
			d.model.apply(s)
		}
		return d, nil
	}, (*durableDB).remove)
	if err != nil {
		return nil, err
	}
	defer d.remove()

	// The statement list is fixed by the flags: equal stretches, each
	// ended by a checkpoint, then a tail half as long that only the WAL
	// holds when the database is closed.
	stretch := max(int(cfg.seconds*float64(cfg.prof.durableStmtsPerSec))*2/(2*checkpoints+1), 5)
	log := newOplog(cfg.tr)
	write := func() {
		s := d.dml.next()
		log.do(s.kind, func() error {
			_, err := d.db.Exec(s.text)
			return err
		}, func() error {
			d.model.apply(s) // acknowledged
			return nil
		})
	}
	start := time.Now()
	for c := 0; c < checkpoints; c++ {
		for i := 0; i < stretch; i++ {
			write()
		}
		log.do(classCheckpoint, d.db.Checkpoint, nil)
	}
	o := &outcome{log: log, setups: setups}
	disk, err := dirBytes(d.dir)
	if err != nil {
		return nil, err
	}
	_, _, userBytes := d.model.expected()
	o.spaceAmp = float64(disk) / float64(userBytes)
	for i := 0; i < stretch/2; i++ {
		write()
	}
	o.wall = time.Since(start)
	o.ops = log.attempted - log.failed
	o.gauges(d.db) // before Close: the counters are the writing database's

	// Close, then reopen: snapshot load plus replay of the WAL tail. A
	// reopen that is closed again without a checkpoint leaves the log as
	// it was, so each repetition recovers the same bytes.
	for i := 0; i < recoverReps; i++ {
		if err := d.db.Close(); err != nil {
			return nil, err
		}
		var reopened *cods.DB
		log.do(classRecover, func() (err error) {
			reopened, err = cods.OpenDurable(d.dir, htapConfig)
			return err
		}, nil)
		if reopened == nil {
			return nil, log.firstErr
		}
		d.db = reopened
	}
	rows, err := d.db.Rows("R", 0, 0)
	if err != nil {
		return nil, err
	}
	checked, wrong := d.model.verify(rows)
	log.attempted += checked
	if wrong > 0 {
		log.failed += wrong
		log.firstErr = wrongf("%d of %d acknowledged writes are not as the model has them after recovery", wrong, checked)
	}

	// heap_mb is the recovered database alone: the model and the dump
	// are the harness's, not the engine's.
	rows, data, d.model, d.dml = nil, nil, nil, nil
	o.heapMB = liveHeapMB()
	return o, nil // the deferred remove keeps d.db alive until here
}
