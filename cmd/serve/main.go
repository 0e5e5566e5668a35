// Command serve runs the online matching service: it loads a
// transer.model/v1 artifact (exported by cmd/transer -model-out) and
// serves match decisions over a JSON HTTP API.
//
// Usage:
//
//	serve -model model.json [-addr :8080] [-timeout 10s] \
//	      [-max-in-flight 0] [-max-queue 64] [-max-batch 10000] \
//	      [-workers 0] [-metrics-out report.json] \
//	      [-log-out serve.jsonl] [-log-level info]
//
// Endpoints (see internal/serve):
//
//	POST /v1/match         {"a": {attr: value, ...}, "b": {...}}
//	POST /v1/match/batch   {"pairs": [{"a": {...}, "b": {...}}, ...]}
//	POST /v1/ingest        {"records": [{"id": ..., "attrs": {...}}, ...]} (with -stream)
//	POST /v1/resolve       {"id": ..., "attrs": {...}} (with -stream)
//	GET  /v1/models        active model metadata (+ catalog with -repo)
//	POST /v1/models/select {"a": [...], "b": [...]} or {"signature": {...}} (with -repo)
//	POST /v1/models/reload hot-swap the artifact from disk
//	GET  /healthz          liveness + runtime/stream gauges
//	GET  /metrics          transer.serve.metrics/v1 JSON snapshot
//	GET  /metrics?format=prom  Prometheus text exposition (0.0.4)
//	GET  /debug/traces     tail-based trace capture (recent/errors/slowest)
//
// Every scored request carries a W3C traceparent: an incoming header
// continues the client's trace, otherwise a fresh one is minted; the
// response echoes it. -log-out enables trace-correlated JSONL event
// logging (one "serve.request" event per scored request, one
// "stream.ingest" decision event per admitted record); with logging
// off the instrumented paths cost zero allocations. Appending
// ?explain=1 to /v1/resolve or /v1/query returns decision provenance:
// candidate comparison vectors, the model's SHA-256 fingerprint, and
// the winning entity's journaled merge path.
//
// -stream enables the live entity store (internal/stream): ingested
// records resolve against everything already stored, with stable
// journaled entity IDs. -stream-wal gives the store a write-ahead log
// (replayed on start, torn tail truncated); -stream-snapshot loads a
// snapshot on start and writes one on graceful shutdown.
//
// -repo attaches a model repository (a catalog directory managed by
// cmd/repo): GET /v1/models appends the catalog after the active
// model, POST /v1/models/select ranks catalogued models against a
// target domain's signature or sample records, and the scoring
// endpoints accept a model=<selector> query parameter (fingerprint,
// unique prefix, model name, or a weighted "fp@w,fp@w" ensemble).
//
// A served model scores pairs byte-identically to the cmd/transer run
// that exported it, and batch responses are byte-identical for every
// -workers value. Requests beyond the in-flight + queue capacity are
// shed with 429 and a Retry-After hint.
//
// On SIGINT/SIGTERM the server stops accepting connections and drains
// in-flight requests (bounded by -drain) before exiting. -metrics-out
// writes a transer.obs.report/v1 run report on shutdown.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"transer/internal/obs"
	"transer/internal/repo"
	"transer/internal/serve"
	"transer/internal/stream"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		modelPath   = flag.String("model", "", "transer.model/v1 artifact to serve (required)")
		addr        = flag.String("addr", ":8080", "listen address")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request scoring deadline")
		maxInFlight = flag.Int("max-in-flight", 0, "max concurrently scored requests (0 = one per CPU)")
		maxQueue    = flag.Int("max-queue", 64, "max requests waiting for a slot before shedding with 429 (0 = shed as soon as every slot is busy)")
		maxBatch    = flag.Int("max-batch", 10000, "max pairs per batch request")
		workers     = flag.Int("workers", 0, "batch scoring worker pool (0 = one per CPU; responses identical for any value)")
		drain       = flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
		metricsOut  = flag.String("metrics-out", "", "write a JSON run report (spans + metrics) to `file` on shutdown")
		logOut      = flag.String("log-out", "", "write structured JSONL event logs to `file` (\"-\" or \"stderr\" for stderr; empty = logging disabled)")
		logLevel    = flag.String("log-level", "info", "minimum structured log level: debug, info, warn, error")
		streamOn    = flag.Bool("stream", false, "enable the live entity store and the /v1/ingest + /v1/resolve endpoints")
		streamWAL   = flag.String("stream-wal", "", "write-ahead log `file` for the entity store (replayed on start, torn tail truncated; implies -stream)")
		streamSnap  = flag.String("stream-snapshot", "", "snapshot `file` for the entity store (loaded on start if present, written on shutdown; implies -stream)")
		repoDir     = flag.String("repo", "", "model repository `directory` (enables /v1/models/select and the model= selector)")
	)
	flag.Parse()
	if *modelPath == "" {
		return errors.New("missing required flag -model")
	}

	reg, err := serve.NewModelRegistry(*modelPath)
	if err != nil {
		return err
	}
	// On the flag, 0 intuitively means "no queue"; serve.Config keeps 0
	// as "use the default" and takes negative for that.
	queue := *maxQueue
	if queue <= 0 {
		queue = -1
	}
	tr := obs.New("serve")
	lw, err := obs.OpenLogOutput(*logOut)
	if err != nil {
		return err
	}
	var logger *obs.Logger
	if lw != nil {
		lv, err := obs.ParseLevel(*logLevel)
		if err != nil {
			return err
		}
		logger = obs.NewLogger(lw, lv)
		logger.Instrument(tr.Metrics())
	}
	var store *stream.Store
	if *streamOn || *streamWAL != "" || *streamSnap != "" {
		cfg := stream.FromMatcher(reg.Matcher())
		cfg.Workers = *workers
		cfg.Metrics = tr.Metrics()
		cfg.Logger = logger
		store, err = stream.Recover(cfg, *streamSnap, *streamWAL)
		if err != nil {
			return fmt.Errorf("stream store recovery: %w", err)
		}
		stats := store.Stats()
		fmt.Fprintf(os.Stderr, "serve: entity store ready (%d records, %d entities)\n",
			stats.Records, stats.Entities)
	}
	var catalog *repo.Catalog
	if *repoDir != "" {
		catalog, err = repo.Open(*repoDir)
		if err != nil {
			// Open returns a usable catalog alongside an error listing
			// invalid artifact files; serve what is valid, but say so.
			if catalog == nil {
				return fmt.Errorf("model repository: %w", err)
			}
			fmt.Fprintln(os.Stderr, "serve: model repository:", err)
		}
		fmt.Fprintf(os.Stderr, "serve: model repository %s (%d models)\n", *repoDir, catalog.Len())
	}
	srv, err := serve.New(serve.Config{
		Registry:      reg,
		MaxInFlight:   *maxInFlight,
		MaxQueue:      queue,
		Timeout:       *timeout,
		Workers:       *workers,
		MaxBatchPairs: *maxBatch,
		Tracer:        tr,
		Logger:        logger,
		Stream:        store,
		Catalog:       catalog,
	})
	if err != nil {
		return err
	}

	// Catch SIGINT/SIGTERM before the address is announced: a client
	// that reads it may signal at once, and the default action would
	// kill the process without draining.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	info := reg.Info()
	fmt.Fprintf(os.Stderr, "serve: model %q (%s classifier, %d features) on http://%s\n",
		info.Name, info.Classifier, len(info.Features), ln.Addr())

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "serve: shutting down, draining in-flight requests")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}

	if store != nil {
		if *streamSnap != "" {
			if err := store.SnapshotFile(*streamSnap); err != nil {
				return fmt.Errorf("stream snapshot: %w", err)
			}
			fmt.Fprintf(os.Stderr, "serve: entity store snapshot written to %s\n", *streamSnap)
		}
		if err := store.CloseWAL(); err != nil {
			return fmt.Errorf("stream wal close: %w", err)
		}
	}

	if lw != nil {
		// The flush is spanned so run reports account for log shutdown
		// cost (benchreport's "log" phase).
		lsp := tr.Root().Child("log:flush")
		err := lw.Close()
		lsp.End()
		if err != nil {
			return fmt.Errorf("log close: %w", err)
		}
	}

	if *metricsOut != "" {
		report := obs.BuildReport("serve", os.Args[1:], tr)
		if err := report.WriteFile(*metricsOut); err != nil {
			return err
		}
	}
	fmt.Fprintln(os.Stderr, "serve: drained, bye")
	return nil
}
