// Command mvolapd serves a temporal multidimensional warehouse over
// HTTP — the front-end tier of the paper's Figure 1 architecture.
//
// Usage:
//
//	mvolapd -addr :8080 -schema warehouse.json
//	mvolapd -addr :8080 -demo -allow-evolve
//	mvolapd -addr :8080 -demo -allow-evolve -data-dir /var/lib/mvolap
//	mvolapd -addr :8081 -replicate-from http://leader:8080
//
// Then:
//
//	curl 'localhost:8080/query?q=SELECT+Amount+BY+Org.Division,+TIME.YEAR+MODE+tcm'
//	curl 'localhost:8080/query?q=...&trace=1'          # per-stage span tree
//	curl 'localhost:8080/modes'
//	curl 'localhost:8080/schema'
//	curl 'localhost:8080/metrics'                      # Prometheus text format
//	curl 'localhost:8080/debug/vars'                   # same metrics as JSON
//	curl -X POST --data-binary @changes.evo 'localhost:8080/evolve'
//	curl -X POST --data-binary @facts.json 'localhost:8080/facts'
//	curl -X POST 'localhost:8080/admin/snapshot'
//
// With -data-dir, every accepted mutation is written ahead to a
// CRC-checksummed log and the warehouse is periodically snapshotted;
// on startup the daemon listens immediately (GET /readyz answers 503)
// while crash recovery replays the log, then flips ready. See
// docs/persistence.md.
//
// With -replicate-from, the daemon runs as a read-only follower: it
// bootstraps from the leader's latest snapshot, applies its streamed
// WAL, serves /query and /schema with warm caches, and answers 403
// (pointing at the leader) on mutating endpoints. See
// docs/replication.md.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: the listener
// closes immediately, in-flight requests get -shutdown-timeout to
// finish.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mvolap/internal/buildinfo"
	"mvolap/internal/casestudy"
	"mvolap/internal/core"
	"mvolap/internal/obs"
	"mvolap/internal/schemaio"
	"mvolap/internal/server"
	"mvolap/internal/store"
)

// config collects the daemon's flags; separated from main so tests can
// exercise the wiring without a process.
type config struct {
	addr            string
	schemaPath      string
	demo            bool
	version         bool
	allowEvolve     bool
	pprof           bool
	logJSON         bool
	dataDir         string
	replicateFrom   string
	fsync           string
	snapshotEvery   int
	readTimeout     time.Duration
	writeTimeout    time.Duration
	idleTimeout     time.Duration
	queryTimeout    time.Duration
	slowQuery       time.Duration
	shutdownTimeout time.Duration
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("mvolapd", flag.ContinueOnError)
	c := &config{}
	fs.StringVar(&c.addr, "addr", ":8080", "listen address")
	fs.StringVar(&c.schemaPath, "schema", "", "path to a schema JSON file")
	fs.BoolVar(&c.demo, "demo", false, "serve the built-in ICDE 2003 case study")
	fs.BoolVar(&c.version, "version", false, "print the build version and exit")
	fs.BoolVar(&c.allowEvolve, "allow-evolve", false, "enable POST /evolve")
	fs.BoolVar(&c.pprof, "pprof", false, "mount /debug/pprof/ handlers")
	fs.BoolVar(&c.logJSON, "log-json", false, "emit the access log as JSON instead of text")
	fs.StringVar(&c.dataDir, "data-dir", "", "directory for the write-ahead log and snapshots (empty disables persistence)")
	fs.StringVar(&c.replicateFrom, "replicate-from", "", "leader base URL; run as a read-only follower replicating its WAL (e.g. http://leader:8080)")
	fs.StringVar(&c.fsync, "fsync", "always", "WAL durability: always, interval or off")
	fs.IntVar(&c.snapshotEvery, "snapshot-every", 256, "auto-snapshot after this many WAL records (0 disables)")
	fs.DurationVar(&c.readTimeout, "read-timeout", 30*time.Second, "max duration to read a request (0 disables)")
	fs.DurationVar(&c.writeTimeout, "write-timeout", 60*time.Second, "max duration to write a response (0 disables)")
	fs.DurationVar(&c.idleTimeout, "idle-timeout", 2*time.Minute, "keep-alive idle timeout (0 disables)")
	fs.DurationVar(&c.queryTimeout, "query-timeout", 30*time.Second, "per-request deadline for /query (0 disables)")
	fs.DurationVar(&c.slowQuery, "slow-query", 500*time.Millisecond, "slow-query log threshold (0 disables)")
	fs.DurationVar(&c.shutdownTimeout, "shutdown-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	return c, nil
}

// newLogger builds the daemon's structured logger.
func newLogger(c *config) *slog.Logger {
	if c.logJSON {
		return slog.New(slog.NewJSONHandler(os.Stderr, nil))
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}

// newHTTPServer wires the hardened http.Server: every timeout the
// stdlib offers, not just ReadHeaderTimeout, so a slow or stalled
// client cannot hold a connection open forever.
func newHTTPServer(c *config, handler http.Handler) *http.Server {
	return &http.Server{
		Addr:              c.addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       c.readTimeout,
		WriteTimeout:      c.writeTimeout,
		IdleTimeout:       c.idleTimeout,
	}
}

// serverOptions maps the flags onto server options.
func serverOptions(c *config, logger *slog.Logger) []server.Option {
	opts := []server.Option{
		server.WithLogger(logger),
		server.WithQueryTimeout(c.queryTimeout),
		server.WithSlowQueryThreshold(c.slowQuery),
	}
	if c.allowEvolve {
		opts = append(opts, server.WithEvolution())
	}
	if c.pprof {
		opts = append(opts, server.WithPprof())
	}
	return opts
}

// serve runs srv until ctx is cancelled, then shuts it down gracefully
// within grace. stop, if non-nil, runs before the drain begins — it
// ends the otherwise-infinite WAL streams so Shutdown can finish. It
// returns the error that ended the listener, or the shutdown error if
// draining timed out.
func serve(ctx context.Context, srv *http.Server, grace time.Duration, stop func()) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	if stop != nil {
		stop()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func main() {
	c, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if c.version {
		fmt.Println("mvolapd", buildinfo.Get())
		return
	}
	// The build-identity gauge joins every other metric of this process
	// to the binary that produced it (and /metrics exposes it), so a
	// bench report can name the build it measured.
	buildinfo.Register(obs.Default())
	logger := newLogger(c)

	if c.replicateFrom != "" {
		// A follower's only source of truth is the leader's WAL; a local
		// data dir (or a seed schema) would fork the history.
		if c.dataDir != "" || c.demo || c.schemaPath != "" {
			fmt.Fprintln(os.Stderr, "mvolapd: -replicate-from cannot be combined with -data-dir, -schema or -demo")
			os.Exit(2)
		}
		if c.allowEvolve {
			fmt.Fprintln(os.Stderr, "mvolapd: -allow-evolve is meaningless on a follower; evolve on the leader")
			os.Exit(2)
		}
	}

	// The seed schema is optional when a data dir may hold a snapshot,
	// and unused by a follower (it bootstraps from the leader); without
	// either, it is the only schema source.
	var seed *core.Schema
	if c.demo || c.schemaPath != "" {
		if seed, err = loadSchema(c.schemaPath, c.demo); err != nil {
			fmt.Fprintln(os.Stderr, "mvolapd:", err)
			os.Exit(1)
		}
	} else if c.dataDir == "" && c.replicateFrom == "" {
		fmt.Fprintln(os.Stderr, "mvolapd: need -schema FILE, -demo, -data-dir DIR or -replicate-from URL")
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	type recoveryResult struct {
		st  *store.Store
		err error
	}
	var s *server.Server
	recovered := make(chan recoveryResult, 1)
	switch {
	case c.replicateFrom != "":
		// Follower: no local store. The replica bootstraps from the
		// leader's snapshot and publishes each applied clone-swap into
		// the server; /readyz answers 503 until the first publish.
		rep := store.NewReplica(c.replicateFrom, store.ReplicaOptions{Logger: logger})
		s = server.New(nil, append(serverOptions(c, logger), server.WithReplica(rep))...)
		go rep.Run(ctx)
		logger.Info("mvolapd following", "leader", c.replicateFrom, "addr", c.addr,
			"queryTimeout", c.queryTimeout)
	case c.dataDir == "":
		s = server.New(seed, serverOptions(c, logger)...)
		logger.Info("mvolapd serving", "schema", seed.Name, "addr", c.addr,
			"evolve", c.allowEvolve, "pprof", c.pprof, "queryTimeout", c.queryTimeout)
	default:
		// Listen first, recover in the background: /healthz is alive and
		// /readyz answers 503 while the WAL replays, then flips ready.
		storeOpts, err := storeOptions(c, logger)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mvolapd:", err)
			os.Exit(2)
		}
		s = server.New(nil, serverOptions(c, logger)...)
		logger.Info("mvolapd listening; recovering warehouse", "addr", c.addr, "dataDir", c.dataDir,
			"fsync", c.fsync, "snapshotEvery", c.snapshotEvery)
		go func() {
			st, sch, applier, err := store.Open(c.dataDir, seed, storeOpts)
			if err != nil {
				recovered <- recoveryResult{err: err}
				stop()
				return
			}
			s.Install(sch, applier, st)
			stats := st.RecoveryStats()
			logger.Info("mvolapd ready", "schema", sch.Name,
				"replayed", stats.Replayed, "snapshotSeq", stats.SnapshotSeq,
				"recoveryMs", float64(stats.Duration)/float64(time.Millisecond))
			recovered <- recoveryResult{st: st}
		}()
	}

	srv := newHTTPServer(c, s.Handler())
	err = serve(ctx, srv, c.shutdownTimeout, s.Stop)
	select {
	case res := <-recovered:
		if res.err != nil {
			logger.Error("mvolapd recovery failed", "err", res.err)
			os.Exit(1)
		}
		// Flush and close the WAL; a kill without this close recovers
		// identically (minus the fsync policy's permitted tail).
		if cerr := res.st.Close(); cerr != nil {
			logger.Error("store close failed", "err", cerr)
		}
	default: // no store, or recovery still in flight at exit
	}
	if err != nil {
		logger.Error("mvolapd exiting", "err", err)
		os.Exit(1)
	}
	logger.Info("mvolapd stopped gracefully")
}

// storeOptions maps the persistence flags onto store options.
func storeOptions(c *config, logger *slog.Logger) (store.Options, error) {
	policy, err := store.ParseFsyncPolicy(c.fsync)
	if err != nil {
		return store.Options{}, err
	}
	return store.Options{
		Fsync:         policy,
		SnapshotEvery: c.snapshotEvery,
		Logger:        logger,
	}, nil
}

func loadSchema(path string, demo bool) (*core.Schema, error) {
	switch {
	case demo:
		return casestudy.New(casestudy.Config{WithFacts: true, WithSplitMappings: true})
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return schemaio.Read(f)
	}
	return nil, fmt.Errorf("need -schema FILE or -demo")
}
