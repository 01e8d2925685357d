// Command cods is the interactive CODS platform — the CLI counterpart of
// the paper's demo UI (Figure 4). It creates tables, loads data, executes
// Schema Modification Operators with live data-evolution status, and
// displays tables.
//
// Usage:
//
//	cods [-dir dbdir] [-validate] [-quiet] [script.smo ...]
//	cods serve [-addr :8344] [-dir dbdir] [-max-inflight N]
//	           [-parallelism N] [-retain N] [-autocompact N]
//	           [-merge-ratio N] [-quiet]
//
// With script arguments, each file is executed and the process exits;
// otherwise an interactive prompt starts. Type \help at the prompt for the
// meta commands (display, load, save, rollback, ...); any other
// line is parsed as a Schema Modification Operator.
//
// The serve subcommand runs the HTTP/JSON serving layer (see
// internal/server and README.md for the API). With -dir the catalog is
// durable: every executed statement is write-ahead-logged, and a restart
// — even after a hard kill — recovers the last committed schema version
// from snapshot plus log. Without -dir the catalog is in-memory only.
// -retain N bounds memory on write-heavy workloads by keeping only the
// current schema version plus its N predecessors rollback-able, and
// -autocompact N folds a table's delta overlay into its base once N rows
// are pending; GET /stats reports both at work. SIGINT/SIGTERM shut the
// server down gracefully, draining in-flight requests.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cods"
	"cods/internal/repl"
	"cods/internal/server"
	"cods/internal/storage"
)

// installCrashPoint arms the storage layer's crash injection for the
// crash-recovery E2E matrix: when CODS_CRASH_POINT names a checkpoint
// barrier ("segment-written", "manifest-written", "current-swapped"),
// reaching that barrier kills the process on the spot — no deferred
// cleanup, no WAL close — simulating a crash at exactly that durability
// step. Unset (the production state) this is a no-op.
func installCrashPoint() {
	point := os.Getenv("CODS_CRASH_POINT")
	if point == "" {
		return
	}
	storage.CrashPoint = func(p string) {
		if p == point {
			syscall.Kill(syscall.Getpid(), syscall.SIGKILL)
			select {} // SIGKILL is not handleable; never proceed past the barrier
		}
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "cods serve:", err)
			os.Exit(1)
		}
		return
	}
	dir := flag.String("dir", "", "open a persisted database directory")
	validate := flag.Bool("validate", true, "verify losslessness of decompositions")
	quiet := flag.Bool("quiet", false, "suppress data-evolution status output")
	flag.Parse()

	cfg := cods.Config{ValidateFD: *validate}
	if !*quiet {
		cfg.Status = func(step string) { fmt.Printf("  [status] %s\n", step) }
	}
	var db *cods.DB
	var err error
	if *dir != "" {
		db, err = cods.OpenDir(*dir, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cods:", err)
			os.Exit(1)
		}
		fmt.Printf("opened %s: tables %s\n", *dir, strings.Join(db.Tables(), ", "))
	} else {
		db = cods.Open(cfg)
	}

	if flag.NArg() > 0 {
		for _, path := range flag.Args() {
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cods:", err)
				os.Exit(1)
			}
			if _, err := db.ExecScript(string(data)); err != nil {
				fmt.Fprintln(os.Stderr, "cods:", err)
				os.Exit(1)
			}
		}
		return
	}

	fmt.Println("CODS — column-oriented database schema update platform")
	fmt.Println(`type an SMO (e.g. DECOMPOSE TABLE R INTO S (A, B), T (A, C)) or \help`)
	r := &repl.Repl{DB: db, Out: os.Stdout, Prompt: "cods> "}
	if err := r.Run(os.Stdin); err != nil {
		fmt.Fprintln(os.Stderr, "cods:", err)
		os.Exit(1)
	}
	fmt.Println()
}

// runServe starts the HTTP serving layer and blocks until a signal or a
// listener error.
func runServe(args []string) error {
	fs := flag.NewFlagSet("cods serve", flag.ExitOnError)
	addr := fs.String("addr", ":8344", "listen address")
	dir := fs.String("dir", "", "durable database directory (in-memory when empty)")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrently served requests (0 = 4×GOMAXPROCS)")
	parallelism := fs.Int("parallelism", 0, "per-request bitmap-work parallelism (0 = GOMAXPROCS)")
	retain := fs.Int("retain", 0, "rollback-able previous schema versions kept after each statement (0 = all)")
	autoCompact := fs.Int("autocompact", 0, "compact a table's delta overlay once it holds this many pending rows (0 = only at checkpoints)")
	mergeRatio := fs.Int("merge-ratio", 0, "tiered segment-merge size ratio (0 = default 2, negative = never merge)")
	quiet := fs.Bool("quiet", false, "suppress the per-request log")
	if err := fs.Parse(args); err != nil {
		return err
	}

	installCrashPoint()
	logger := log.New(os.Stderr, "cods-serve ", log.LstdFlags)
	cfg := cods.Config{
		Parallelism: *parallelism, RetainVersions: *retain, AutoCompactPending: *autoCompact,
		SegmentMergeRatio: *mergeRatio,
	}
	var db *cods.DB
	var err error
	if *dir != "" {
		db, err = cods.OpenDurable(*dir, cfg)
		if err != nil {
			return err
		}
		defer db.Close()
		logger.Printf("durable catalog %s: version %d, tables [%s]", *dir, db.Version(), strings.Join(db.Tables(), " "))
	} else {
		db = cods.Open(cfg)
		logger.Printf("in-memory catalog (no -dir): schema changes will not survive restart")
	}

	scfg := server.Config{MaxInFlight: *maxInFlight}
	if !*quiet {
		scfg.Log = logger
	}
	srv := server.New(db, scfg)

	// Install the signal handler before announcing readiness: a signal
	// arriving after "listening on" but before Notify would hit the
	// default handler and kill the process instead of draining it.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	// Listen before forking the serve goroutine so the bound address is
	// known (and printable — ":0" picks a free port) when we report ready.
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(l) }()
	logger.Printf("listening on %s", l.Addr())

	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Printf("%v: shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		logger.Printf("drained; bye")
		return nil
	}
}
