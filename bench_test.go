// Benchmarks regenerating the paper's evaluation at go-test scale, plus
// ablations of CODS's design choices. Inputs are built once per
// configuration outside the timed region (tables are immutable, so
// iterations share them); the timed region is the data evolution only,
// matching the paper's methodology. cmd/codsbench runs the same
// experiments at full scale.
package cods_test

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"cods/internal/bench"
	"cods/internal/bitset"
	"cods/internal/colquery"
	"cods/internal/colstore"
	"cods/internal/evolve"
	"cods/internal/plan"
	"cods/internal/queryevolve"
	"cods/internal/rowstore"
	"cods/internal/wah"
	"cods/internal/workload"

	"cods"
)

const benchRows = 200_000

var benchDistincts = []int{100, 10_000}

// --- Figure 3(a): decomposition ---

func BenchmarkFigure3aDecompose(b *testing.B) {
	for _, d := range benchDistincts {
		spec := workload.Spec{Rows: benchRows, DistinctKeys: d, Seed: 1}

		colInput, err := workload.BuildColstore(spec, "R")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("D/distinct=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := evolve.Decompose(colInput, evolve.DecomposeSpec{
					OutS: "S", SColumns: []string{"A", "B"},
					OutT: "T", TColumns: []string{"A", "C"},
				}, evolve.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("M/distinct=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := queryevolve.Decompose(colInput, "S", []string{"A", "B"}, "T", []string{"A", "C"}); err != nil {
					b.Fatal(err)
				}
			}
		})

		for _, sys := range []struct {
			key     string
			profile rowstore.Profile
			kind    rowstore.StorageKind
		}{
			{"C", rowstore.ProfileCommercial, rowstore.HeapStorage},
			{"C+I", rowstore.ProfileCommercialIndexed, rowstore.HeapStorage},
			{"S", rowstore.ProfileSQLiteLike, rowstore.BTreeStorage},
		} {
			db := rowstore.NewDB()
			if _, err := workload.BuildRowstore(spec, db, "R", sys.kind); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/distinct=%d", sys.key, d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					outS, outT := fmt.Sprintf("S%d", i), fmt.Sprintf("T%d", i)
					_, err := rowstore.DecomposeQueryLevel(db, "R", outS, []string{"A", "B"}, outT, []string{"A", "C"}, []string{"A"}, sys.profile)
					if err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					db.Drop(outS)
					db.Drop(outT)
					b.StartTimer()
				}
			})
		}
	}
}

// --- Figure 3(b): mergence ---

func BenchmarkFigure3bMerge(b *testing.B) {
	for _, d := range benchDistincts {
		spec := workload.Spec{Rows: benchRows, DistinctKeys: d, Seed: 2}

		s, t, err := workload.BuildColstoreST(spec, "S", "T")
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("D/distinct=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := evolve.MergeKeyFK(s, t, "R", evolve.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("M/distinct=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := queryevolve.Merge(s, t, "R"); err != nil {
					b.Fatal(err)
				}
			}
		})

		for _, sys := range []struct {
			key     string
			profile rowstore.Profile
			kind    rowstore.StorageKind
		}{
			{"C", rowstore.ProfileCommercial, rowstore.HeapStorage},
			{"C+I", rowstore.ProfileCommercialIndexed, rowstore.HeapStorage},
		} {
			db := rowstore.NewDB()
			if err := workload.BuildRowstoreST(spec, db, "S", "T", sys.kind); err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/distinct=%d", sys.key, d), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					out := fmt.Sprintf("R%d", i)
					if _, err := rowstore.MergeQueryLevel(db, "S", "T", out, []string{"A"}, sys.profile); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					db.Drop(out)
					b.StartTimer()
				}
			})
		}
	}
}

// --- §2.5.2: general mergence (companion technical report experiment) ---

func BenchmarkGeneralMerge(b *testing.B) {
	for _, d := range benchDistincts {
		spec := workload.Spec{Rows: benchRows / 2, DistinctKeys: d, Seed: 3}
		s, t1, err := workload.BuildColstoreST(spec, "S", "T1")
		if err != nil {
			b.Fatal(err)
		}
		// Double the dimension rows so the join attribute is a key of
		// neither side.
		tb, err := colstore.NewTableBuilder("T", []string{"A", "C"}, nil)
		if err != nil {
			b.Fatal(err)
		}
		rows, err := t1.Rows(0, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			tb.AppendRow(row)
			tb.AppendRow([]string{row[0], row[1] + "x"})
		}
		t2, err := tb.Finish()
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("D/distinct=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := evolve.MergeGeneral(s, t2, "R", evolve.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("M/distinct=%d", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := queryevolve.Merge(s, t2, "R"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: bitmap filtering on compressed form vs decompress +
// filter + recompress (the §2.1 claim that avoiding the codec round trip
// matters) ---

func BenchmarkAblationFilter(b *testing.B) {
	const n = 1_000_000
	col := wah.New()
	// A realistic value vector: clustered runs.
	for i := 0; i < 50; i++ {
		col.AppendRun(uint32(i%2), n/50)
	}
	var positions []uint64
	for i := uint64(0); i < 1000; i++ {
		positions = append(positions, i*(n/1000))
	}
	mask := wah.New()
	for _, p := range positions {
		mask.Add(p)
	}
	mask.Extend(n)

	b.Run("compressed-filter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wah.Filter(col, mask)
		}
	})
	b.Run("decompress-recompress", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Decompress both to bit slices, filter, re-compress.
			colBits := make([]bool, n)
			col.Ones(func(p uint64) bool { colBits[p] = true; return true })
			out := wah.New()
			mask.Ones(func(p uint64) bool {
				if colBits[p] {
					out.AppendBit(1)
				} else {
					out.AppendBit(0)
				}
				return true
			})
		}
	})
}

// --- Ablation: WAH compressed bitmaps vs uncompressed bitsets for the
// evolution primitives, across value densities (§2.2's representation
// choice) ---

func BenchmarkAblationWAHvsBitset(b *testing.B) {
	const n = 2_000_000
	for _, distinct := range []int{100, 100_000} {
		// One value's bitmap in a column with `distinct` values: n/distinct
		// set bits, clustered.
		setBits := uint64(n / distinct)
		wb := wah.New()
		wb.AppendRun(0, n/3)
		wb.AppendRun(1, setBits)
		wb.Extend(n)
		bs := bitset.New(n)
		wb.Ones(func(p uint64) bool { bs.Set(p); return true })
		// The distinction position list.
		positions := make([]uint64, distinct)
		for i := range positions {
			positions[i] = uint64(i) * (n / uint64(distinct))
		}
		b.Run(fmt.Sprintf("filter/wah/distinct=%d", distinct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wah.FilterPositions(wb, positions)
			}
			b.ReportMetric(float64(wb.SizeBytes()), "bytes")
		})
		b.Run(fmt.Sprintf("filter/bitset/distinct=%d", distinct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bs.FilterPositions(positions)
			}
			b.ReportMetric(float64(bs.SizeBytes()), "bytes")
		})
		b.Run(fmt.Sprintf("or/wah/distinct=%d", distinct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wah.Or(wb, wb)
			}
		})
		b.Run(fmt.Sprintf("or/bitset/distinct=%d", distinct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bs.Clone().Or(bs)
			}
		})
	}
}

// --- Ablation: balanced pairwise OR vs sequential left fold in key-FK
// mergence's vector combination ---

func BenchmarkAblationOrAll(b *testing.B) {
	const n = 500_000
	var vectors []*wah.Bitmap
	for i := 0; i < 256; i++ {
		bm := wah.New()
		bm.AppendRun(0, uint64(i)*(n/256))
		bm.AppendRun(1, n/256)
		bm.Extend(n)
		vectors = append(vectors, bm)
	}
	b.Run("balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wah.OrAll(vectors)
		}
	})
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc := vectors[0].Clone()
			for _, v := range vectors[1:] {
				acc = wah.Or(acc, v)
			}
		}
	})
}

// --- Ablation: key skew sensitivity (uniform vs Zipf) for decomposition ---

func BenchmarkAblationSkew(b *testing.B) {
	for _, zipf := range []float64{0, 1.3} {
		spec := workload.Spec{Rows: benchRows, DistinctKeys: 10_000, ZipfS: zipf, Seed: 4}
		r, err := workload.BuildColstore(spec, "R")
		if err != nil {
			b.Fatal(err)
		}
		name := "uniform"
		if zipf > 0 {
			name = fmt.Sprintf("zipf=%.1f", zipf)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := evolve.Decompose(r, evolve.DecomposeSpec{
					OutS: "S", SColumns: []string{"A", "B"},
					OutT: "T", TColumns: []string{"A", "C"},
				}, evolve.Options{})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Ablation: decomposition parallelism across bitmap vectors ---

func BenchmarkAblationParallelism(b *testing.B) {
	spec := workload.Spec{Rows: benchRows, DistinctKeys: 50_000, Seed: 5}
	r, err := workload.BuildColstore(spec, "R")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := evolve.Decompose(r, evolve.DecomposeSpec{
					OutS: "S", SColumns: []string{"A", "B"},
					OutT: "T", TColumns: []string{"A", "C"},
				}, evolve.Options{Parallelism: workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Parallel scaling: the Parallelism knob on multi-million-row tables ---

// BenchmarkParallelScaling measures DECOMPOSE and MERGE throughput on a
// ≥1M-row, high-cardinality table at Parallelism=1 versus GOMAXPROCS. The
// per-distinct-value bitmap work is embarrassingly parallel, so on
// multi-core hardware the GOMAXPROCS runs should scale with core count;
// on a single core both configurations converge (the pool runs inline).
// Skipped in -short mode: building the million-row inputs dominates there.
func BenchmarkParallelScaling(b *testing.B) {
	if testing.Short() {
		b.Skip("1M-row inputs are too expensive for -short")
	}
	procs := runtime.GOMAXPROCS(0)
	configs := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{fmt.Sprintf("gomaxprocs=%d", procs), procs},
	}

	spec := workload.Spec{Rows: 1_200_000, DistinctKeys: 150_000, Seed: 8}
	r, err := workload.BuildColstore(spec, "R")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range configs {
		b.Run("decompose/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := evolve.Decompose(r, evolve.DecomposeSpec{
					OutS: "S", SColumns: []string{"A", "B"},
					OutT: "T", TColumns: []string{"A", "C"},
				}, evolve.Options{Parallelism: c.workers})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	s, t, err := workload.BuildColstoreST(spec, "S", "T")
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range configs {
		b.Run("merge/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := evolve.MergeKeyFK(s, t, "R", evolve.Options{Parallelism: c.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Table 1: per-operator microbenchmarks through the public API ---

func BenchmarkSMOOperators(b *testing.B) {
	setup := func(b *testing.B) *cods.DB {
		db := cods.Open(cods.Config{})
		spec := workload.Spec{Rows: 100_000, DistinctKeys: 1000, Seed: 6}
		r, err := workload.BuildColstore(spec, "R")
		if err != nil {
			b.Fatal(err)
		}
		if err := dbRegister(db, r); err != nil {
			b.Fatal(err)
		}
		return db
	}
	cases := []struct {
		name string
		ops  []string
	}{
		{"CopyTable", []string{"COPY TABLE R TO R2", "DROP TABLE R2"}},
		{"RenameTable", []string{"RENAME TABLE R TO R2", "RENAME TABLE R2 TO R"}},
		{"RenameColumn", []string{"RENAME COLUMN B TO B2 IN R", "RENAME COLUMN B2 TO B IN R"}},
		{"AddDropColumnDefault", []string{"ADD COLUMN Z TO R DEFAULT 'v'", "DROP COLUMN Z FROM R"}},
		{"PartitionUnion", []string{"PARTITION TABLE R WHERE A < 'k0000500' INTO P1, P2", "UNION TABLES P1, P2 INTO R"}},
		{"DecomposeMerge", []string{"DECOMPOSE TABLE R INTO S (A, B), T (A, C)", "MERGE TABLES S, T INTO R"}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			db := setup(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, op := range c.ops {
					if _, err := db.Exec(op); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// dbRegister loads a prebuilt table into a public DB via its rows (the
// public API has no internal-table ingestion, deliberately).
func dbRegister(db *cods.DB, t *colstore.Table) error {
	rows, err := t.Rows(0, 0)
	if err != nil {
		return err
	}
	return db.CreateTableFromRows(t.Name(), t.ColumnNames(), t.Key(), rows)
}

// BenchmarkReadLatencyDuringEvolution measures read latency (p99 and max,
// reported as metrics) while a DECOMPOSE/MERGE loop runs concurrently on
// another table of the same DB.
//
// The "snapshot" case is the live code path: reads load the published
// catalog snapshot and never wait, so read latency is independent of
// evolution duration. The "rwmutex" case emulates the retired design —
// readers take a shared lock that each evolution holds exclusively — so
// its p99 degrades to roughly the length of an evolution. The gap between
// the two is what copy-on-write catalog publication buys.
func BenchmarkReadLatencyDuringEvolution(b *testing.B) {
	setup := func(b *testing.B) *cods.DB {
		db := cods.Open(cods.Config{})
		var evolveRows, queryRows [][]string
		for i := 0; i < 3000; i++ {
			evolveRows = append(evolveRows, []string{
				fmt.Sprintf("e%04d", i%300),
				fmt.Sprintf("s%04d", i),
				fmt.Sprintf("a%03d", i%150),
			})
		}
		for i := 0; i < 10_000; i++ {
			queryRows = append(queryRows, []string{fmt.Sprintf("k%05d", i%500), fmt.Sprintf("v%05d", i)})
		}
		if err := db.CreateTableFromRows("E", []string{"Employee", "Skill", "Address"}, nil, evolveRows); err != nil {
			b.Fatal(err)
		}
		if err := db.CreateTableFromRows("Q", []string{"K", "V"}, nil, queryRows); err != nil {
			b.Fatal(err)
		}
		return db
	}

	// gate non-nil emulates the old RWMutex contract around the DB.
	run := func(b *testing.B, gate *sync.RWMutex) {
		db := setup(b)
		stop := make(chan struct{})
		evolveErr := make(chan error, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if gate != nil {
					gate.Lock()
				}
				_, err1 := db.Exec("DECOMPOSE TABLE E INTO S (Employee, Skill), T (Employee, Address)")
				_, err2 := db.Exec("MERGE TABLES T, S INTO E")
				if gate != nil {
					gate.Unlock()
				}
				if err1 != nil || err2 != nil {
					select {
					case evolveErr <- fmt.Errorf("evolution loop: %w / %w", err1, err2):
					default:
					}
					return
				}
			}
		}()

		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			if gate != nil {
				gate.RLock()
			}
			n, err := db.Count("Q", "K = 'k00042'")
			if gate != nil {
				gate.RUnlock()
			}
			if err != nil {
				b.Fatal(err)
			}
			if n != 20 {
				b.Fatalf("Count = %d, want 20", n)
			}
			lat = append(lat, time.Since(start))
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
		select {
		case err := <-evolveErr:
			b.Fatal(err)
		default:
		}

		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p99 := lat[len(lat)*99/100]
		b.ReportMetric(float64(p99.Nanoseconds())/1e6, "p99-ms")
		b.ReportMetric(float64(lat[len(lat)-1].Nanoseconds())/1e6, "max-ms")
	}

	b.Run("snapshot", func(b *testing.B) { run(b, nil) })
	b.Run("rwmutex", func(b *testing.B) { run(b, new(sync.RWMutex)) })
}

// BenchmarkMixedWorkload is the HTAP-shaped counterpart of
// BenchmarkReadLatencyDuringEvolution: one DB takes interleaved DML
// (through the delta overlay), bitmap count queries and grouped
// aggregates (both on the flushed table, built once per version), and a
// periodic PARTITION/UNION evolution cycle (which flushes before
// evolving). It tracks the cost of the write path the delta overlay
// opens, so the perf trajectory covers writes, not just reads and
// evolutions.
func BenchmarkMixedWorkload(b *testing.B) {
	db := cods.Open(cods.Config{})
	spec := workload.Spec{Rows: 20_000, DistinctKeys: 500, Seed: 11}
	r, err := workload.BuildColstore(spec, "R")
	if err != nil {
		b.Fatal(err)
	}
	if err := dbRegister(db, r); err != nil {
		b.Fatal(err)
	}
	stmts := workload.DML(spec, "R", 3*b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range stmts[3*i : 3*i+3] {
			if _, err := db.Exec(s); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := db.Count("R", "A = 'k0000042'"); err != nil {
			b.Fatal(err)
		}
		if i%5 == 0 {
			if _, err := db.RunQuery("R", cods.TableQuery{
				Where:      "C >= 'c0000000'",
				Aggregates: []cods.Agg{{Func: cods.Count}, {Func: cods.CountDistinct, Column: "A"}},
			}); err != nil {
				b.Fatal(err)
			}
		}
		if i%25 == 24 {
			// Generated keys are 'k…', DML-inserted ones 'n…': the split is
			// clean and the union restores R, delta flushed into the base.
			if _, err := db.Exec("PARTITION TABLE R WHERE A < 'n0000000' INTO Rk, Rn"); err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec("UNION TABLES Rk, Rn INTO R"); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSustainedKeyedWrites measures the hot write path the delta
// overlay's arena key index amortizes: b.N keyed INSERTs through Exec,
// interleaved with a DELETE of an earlier key every 100 statements, and
// no manual compaction — the workload that was O(pending²) before the
// key index (every INSERT scanned the appended tail for conflicts, and
// the first INSERT after each DELETE copied the tail). Run with
// -benchtime=50000x for the 50k-pending-rows reference point recorded in
// BENCH_writes.json; ns/op should stay flat as b.N grows (near-linear
// total).
//
// The "bounded" variant runs the same stream with the retention and
// auto-compaction knobs on, the recommended production configuration:
// slightly more work per statement on average (periodic flushes), but
// memory stays O(threshold) instead of O(statements).
func BenchmarkSustainedKeyedWrites(b *testing.B) {
	run := func(b *testing.B, cfg cods.Config) {
		db := cods.Open(cfg)
		if err := db.CreateTableFromRows("kv", []string{"K", "V"}, []string{"K"},
			[][]string{{"seed", "0"}}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES ('k%08d', 'v')", i)); err != nil {
				b.Fatal(err)
			}
			if i%100 == 99 {
				if _, err := db.Exec(fmt.Sprintf("DELETE FROM kv WHERE K = 'k%08d'", i-50)); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		ms := db.MemStats()
		b.ReportMetric(float64(ms.PendingRows), "pending-rows")
		b.ReportMetric(float64(ms.RetainedVersions), "retained-versions")
	}
	b.Run("retain-all", func(b *testing.B) { run(b, cods.Config{}) })
	b.Run("bounded", func(b *testing.B) {
		run(b, cods.Config{RetainVersions: 8, AutoCompactPending: 4096})
	})
}

// BenchmarkHarnessSmoke runs the figure harness end to end at a tiny scale
// so `go test -bench .` exercises the exact code path codsbench uses.
func BenchmarkHarnessSmoke(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := bench.RunDecompose(bench.Config{
			Rows:           20_000,
			DistinctCounts: []int{100},
			Systems:        bench.Figure3aSystems,
			Seed:           7,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHugeTableSustainedWrites is the segmentation acceptance
// benchmark: the same sustained keyed write stream as
// BenchmarkSustainedKeyedWrites, but over a large pre-existing base
// table. An overlay flush seals only the appended tail into a new
// segment, so per-statement cost must stay flat as the base grows. Run
// with a fixed -benchtime=Nx so ns/op is comparable across base sizes;
// scripts/bench_writes.sh records the series in BENCH_writes.json. The 10M-row point is gated behind CODS_BENCH_HUGE=1
// (it needs several GB of RAM).
func BenchmarkHugeTableSustainedWrites(b *testing.B) {
	bases := []struct {
		name string
		rows int
	}{
		{"base100k", 100_000},
		{"base1M", 1_000_000},
	}
	if os.Getenv("CODS_BENCH_HUGE") != "" {
		bases = append(bases, struct {
			name string
			rows int
		}{"base10M", 10_000_000})
	}
	for _, base := range bases {
		b.Run(base.name+"/segmented", func(b *testing.B) {
			db := cods.Open(cods.Config{RetainVersions: 8, AutoCompactPending: 2048})
			// Build the base outside the timed region. Keys are
			// non-integer ('k…') so key probes take the per-segment
			// dictionary fast path, exactly like production keys.
			tb := make([][]string, base.rows)
			for i := range tb {
				tb[i] = []string{fmt.Sprintf("k%08d", i), fmt.Sprintf("v%d", i%100)}
			}
			if err := db.CreateTableFromRows("kv", []string{"K", "V"}, []string{"K"}, tb); err != nil {
				b.Fatal(err)
			}
			tb = nil
			// Collect the build garbage (and any previous sub-benchmark's
			// heap) before timing: GC marking of a polluted multi-GB heap
			// otherwise bleeds into ns/op and masks the flush cost being
			// measured.
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Exec(fmt.Sprintf("INSERT INTO kv VALUES ('n%08d', 'v')", i)); err != nil {
					b.Fatal(err)
				}
				if i%100 == 99 {
					if _, err := db.Exec(fmt.Sprintf("DELETE FROM kv WHERE K = 'n%08d'", i-50)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			ms := db.MemStats()
			b.ReportMetric(float64(ms.Compactions), "flushes")
		})
	}
}

// BenchmarkJoinDecomposedVsScan measures the multi-table query layer on
// the decomposed star the evolution oracle produces: a 1M-row fact table
// S (A, B) joined to its 10k-row dimension T (A, C) on the shared key,
// against the same selective aggregate scanned off the pre-DECOMPOSE
// table R. "semi" is the production path — the dimension's predicate
// bitmap is turned into a WAH semi-join mask over the fact scan without
// decoding a row (the key columns share dictionary lineage, asserted
// here); "scan" is the single-table baseline. Both must return the same
// count. Run with -benchtime=10x for the
// BENCH_joins.json series.
func BenchmarkJoinDecomposedVsScan(b *testing.B) {
	spec := workload.Spec{Rows: 1_000_000, DistinctKeys: 10_000, Seed: 1}
	r, err := workload.BuildColstore(spec, "R")
	if err != nil {
		b.Fatal(err)
	}
	dec, err := evolve.Decompose(r, evolve.DecomposeSpec{
		OutS: "S", SColumns: []string{"A", "B"},
		OutT: "T", TColumns: []string{"A", "C"},
	}, evolve.Options{})
	if err != nil {
		b.Fatal(err)
	}
	sKey, _ := dec.S.Column("A")
	tKey, _ := dec.T.Column("A")
	if !colquery.SharedLineage(sKey, tKey) {
		b.Fatal("decomposed key columns lost dictionary lineage; the semi-join path would not engage")
	}
	resolve := func(name string) (*colstore.Table, error) {
		switch name {
		case "R":
			return r, nil
		case "S":
			return dec.S, nil
		case "T":
			return dec.T, nil
		}
		return nil, fmt.Errorf("no table %q", name)
	}
	const where = "C = 'c0000001'"
	count := []colquery.Agg{{Func: colquery.Count}}
	modes := []struct {
		name string
		q    plan.Query
	}{
		{"scan", plan.Query{From: "R", Where: where, Aggregates: count}},
		{"semi", plan.Query{From: "S", Joins: []plan.Join{{Table: "T", On: []string{"A"}}},
			Where: where, Aggregates: count}},
	}
	want := ""
	for _, m := range modes {
		m := m
		b.Run(m.name, func(b *testing.B) {
			runtime.GC()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rs, err := plan.Run(resolve, m.q)
				if err != nil {
					b.Fatal(err)
				}
				if want == "" {
					want = rs.Rows[0][0]
				} else if rs.Rows[0][0] != want {
					b.Fatalf("%s counted %s rows, other modes counted %s", m.name, rs.Rows[0][0], want)
				}
			}
			b.ReportMetric(float64(spec.Rows)*float64(b.N)/b.Elapsed().Seconds(), "fact-rows/s")
		})
	}
}

// BenchmarkEvolutionDecompose measures a schema evolution on a segmented
// 1M-row table: 99% of the rows sit in one merged base segment and 1% in
// a flushed tail, the steady state the tiered merge policy converges to
// (a segment more than twice the rows behind it is not merged with them,
// so 990k + 10k stays two segments).
// Each iteration inserts one row (so the evolution always sees a fresh
// table — no memoized stitching survives between iterations), runs
// DECOMPOSE through the segment-wise map/merge evolution path, and rolls
// back. Run with -benchtime=20x for the BENCH_writes.json "evolution"
// series.
func BenchmarkEvolutionDecompose(b *testing.B) {
	const baseRows = 990_000
	const tailRows = 10_000
	b.Run("segmentwise", func(b *testing.B) {
		db := cods.Open(cods.Config{RetainVersions: 8})
		rows := make([][]string, baseRows)
		for i := range rows {
			g := i % 32
			rows[i] = []string{fmt.Sprintf("k%08d", i), fmt.Sprintf("g%02d", g), fmt.Sprintf("d%d", g%7)}
		}
		if err := db.CreateTableFromRows("T", []string{"K", "G", "D"}, []string{"K"}, rows); err != nil {
			b.Fatal(err)
		}
		rows = nil
		for i := 0; i < tailRows; i++ {
			g := i % 32
			stmt := fmt.Sprintf("INSERT INTO T VALUES ('t%08d', 'g%02d', 'd%d')", i, g, g%7)
			if _, err := db.Exec(stmt); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Compact(); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v := db.Version()
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO T VALUES ('x%08d', 'g00', 'd0')", i)); err != nil {
				b.Fatal(err)
			}
			if _, err := db.Exec("DECOMPOSE TABLE T INTO A (K, G), B (G, D)"); err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				// The reused output must keep the input's segmentation
				// (merged base + tail + fresh flush), not arrive
				// restitched as one segment.
				for _, ts := range db.MemStats().Tables {
					if ts.Table == "A" {
						b.ReportMetric(float64(ts.Segments), "a-segments")
						if ts.Segments < 2 {
							b.Fatalf("evolution output A has %d segments, want multi-segment", ts.Segments)
						}
					}
				}
			}
			if err := db.Rollback(v); err != nil {
				b.Fatal(err)
			}
		}
	})
}
