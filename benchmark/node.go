package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/url"
	"os"
	"time"

	"mvolap/internal/core"
	"mvolap/internal/schemaio"
	"mvolap/internal/server"
	"mvolap/internal/store"
	"mvolap/internal/workload"
)

// discard is the logger every server and store of the benchmark gets:
// an access-log line per request would time the terminal.
var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

// storeOptions are mvolapd's flag defaults (fsync=always,
// snapshot-every=256, warm snapshots on). They are part of the
// benchmark definition: changing them changes what every write metric
// means.
func storeOptions() store.Options {
	return store.Options{
		Fsync:         store.FsyncAlways,
		SnapshotEvery: 256,
		SnapshotWarm:  true,
		Logger:        discard,
	}
}

// warehouseConfig sizes a synthetic organization; only Departments
// varies between the tiers (M = 2000, S = 500). The warehouse is the
// stated input size, the same for every --seed.
func warehouseConfig(departments int) workload.Config {
	return workload.Config{
		Seed:              fixedSeed,
		Divisions:         8,
		Departments:       departments,
		Years:             6,
		EvolutionsPerYear: 20,
		FactsPerYear:      12,
		Measures:          2,
	}
}

// node is a single-node mvolapd assembled in-process: the same
// store.Open -> server.New -> Install -> Handler wiring as cmd/mvolapd,
// listening on a loopback port.
type node struct {
	cfg  workload.Config
	seed *workload.Workload // as generated; the store serves (and clones) its schema
	st   *store.Store
	srv  *server.Server
	hs   *http.Server
	url  string
	dir  string

	closed bool
}

// startNode generates the warehouse, opens a store over a fresh data
// directory, serves it, and warms every temporal mode with one query
// per mode over HTTP. Its duration is the setup_s metric.
func startNode(cfg workload.Config, dir string, cacheSize int) (*node, error) {
	w, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, sch, applier, err := store.Open(dir, w.Schema, storeOptions())
	if err != nil {
		return nil, err
	}
	srv := server.New(nil,
		server.WithLogger(discard),
		server.WithEvolution(),
		server.WithQueryTimeout(30*time.Second),
		server.WithQueryCache(cacheSize))
	srv.Install(sch, applier, st)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.Close()
		return nil, err
	}
	n := &node{
		cfg: cfg, seed: w, st: st, srv: srv, dir: dir,
		url: "http://" + ln.Addr().String(),
		hs: &http.Server{
			Handler:           srv.Handler(),
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
	}
	go n.hs.Serve(ln)
	c := newClient()
	defer c.CloseIdleConnections()
	for _, m := range sch.Modes() {
		status, _, err := get(c, n.url+queryPath("SELECT * BY Org.Division, TIME.ALL MODE "+m.String()))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err != nil {
			n.close()
			return nil, fmt.Errorf("warming mode %s: %w", m, err)
		}
	}
	return n, nil
}

// close stops the listener and the store and waits for both. Closing
// twice is harmless.
func (n *node) close() {
	if n.closed {
		return
	}
	n.closed = true
	n.srv.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	n.hs.Shutdown(ctx)
	cancel()
	n.st.Close()
}

func queryPath(stmt string) string { return "/query?q=" + url.QueryEscape(stmt) }

// get issues one GET and returns the status and the whole body.
func get(c *http.Client, u string) (int, []byte, error) {
	resp, err := c.Get(u)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// warehouseDigest pins what was generated: a later edit to
// internal/workload that changes the warehouse changes this.
type warehouseDigest struct {
	Facts             int    `json:"facts"`
	StructureVersions int    `json:"structure_versions"`
	SHA256            string `json:"sha256"`
}

func digestWarehouse(s *core.Schema) (warehouseDigest, error) {
	h := sha256.New()
	if err := schemaio.Write(h, s); err != nil {
		return warehouseDigest{}, fmt.Errorf("digest: %w", err)
	}
	return warehouseDigest{
		Facts:             s.Facts().Len(),
		StructureVersions: len(s.StructureVersions()),
		SHA256:            hex.EncodeToString(h.Sum(nil)),
	}, nil
}
