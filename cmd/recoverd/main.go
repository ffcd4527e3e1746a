// Command recoverd serves recovery controllers over HTTP: the deployable
// form of the bounded-POMDP framework. At startup it loads a recovery
// model, verifies the paper's conditions, computes the RA-Bound, optionally
// bootstraps it (or loads a previously saved bound set), and then serves
// the episode API of internal/server.
//
// Usage:
//
//	recoverd -addr :7947 -model emn -bootstrap 10
//	recoverd -model my-system.json -top 3600 -bounds bounds.json
//
// A typical monitor-integration loop:
//
//	id=$(curl -s -X POST localhost:7947/v1/episodes | jq .episodeId)
//	curl -s localhost:7947/v1/episodes/$id/decision
//	curl -s -X POST localhost:7947/v1/episodes/$id/observations \
//	     -d '{"actionName":"observe","observationName":"obs:HPathMon","stepIndex":0}'
//
// The observation's answer is the next decision, so each later step is one
// round trip.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"bpomdp/internal/client"
	"bpomdp/internal/controller"
	"bpomdp/internal/core"
	"bpomdp/internal/fleet"
	"bpomdp/internal/modelload"
	"bpomdp/internal/obs"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/server"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "recoverd:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("recoverd", flag.ContinueOnError)
	offline := modelload.Flags{SaveBootstrap: true}
	offline.Register(fs)
	var (
		addr        = fs.String("addr", ":7947", "listen address")
		depth       = fs.Int("depth", 1, "online tree depth")
		improve     = fs.Bool("improve-online", true, "keep improving the bound during real recovery")
		fscPath     = fs.String("fsc", "", "load a compiled finite-state controller (see cmd/fsccompile) and serve table hits from it, falling back to the tree")
		fscGap      = fs.Float64("fsc-gap-threshold", 1e-6, "serve an FSC node only when its compile-time bound gap is at most this; larger nodes fall back to the tree")
		refine      = fs.Bool("refine-bounds", false, "run HSVI-style offline bound refinement (paired upper/lower bounds) after bootstrap, before serving")
		refineGap   = fs.Float64("refine-gap", 1e-6, "with -refine-bounds, the root bound gap refinement converges to")
		maxEpisodes = fs.Int("max-episodes", 0, "cap on concurrently open episodes (0 = default)")

		checkpointDir = fs.String("checkpoint-dir", "", "persist per-episode checkpoints here, one fsynced JSON file per episode; a restarted daemon resumes all open episodes")
		episodeTTL    = fs.Duration("episode-ttl", 30*time.Minute, "evict episodes idle longer than this (0 disables abandoned-monitor GC)")
		tombstoneTTL  = fs.Duration("tombstone-ttl", 10*time.Minute, "keep terminal-decision tombstones at least this long (0 = -episode-ttl); must be >= -client-retry-budget")
		retryBudget   = fs.Duration("client-retry-budget", client.DefaultRetryBudget, "longest cumulative retry backoff clients are configured with; tombstones must outlive it")
		maxBodyBytes  = fs.Int64("max-body-bytes", 1<<20, "cap on request body size")

		fleetSelf   = fs.String("fleet-self", "", "this member's id within -fleet-peers; enables fleet mode")
		fleetPeers  = fs.String("fleet-peers", "", `static fleet membership as comma-separated id=addr pairs, e.g. "n1=http://10.0.0.1:7947,n2=http://10.0.0.2:7947"`)
		fleetVnodes = fs.Int("fleet-vnodes", 0, "virtual nodes per member on the hash ring (0 = default; must match on every member and client)")

		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, the pprof endpoints and expvar's /debug/vars on this separate address, keeping scrapers off the API port (empty = off)")
		logRequests = fs.Bool("log-requests", false, "log every API request (method, path, status, duration) via slog")
		spanPath    = fs.String("span-trace", "", "append one bpomdp.span/v1 JSONL span per traced operation to this file, each freshly computed decision explained on its handler span (enables per-decision stats collection); stitch files from every node with cmd/tracestats")

		readHeaderTimeout = fs.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout")
		readTimeout       = fs.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout (bounds slow-loris request bodies)")
		writeTimeout      = fs.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout")
		idleTimeout       = fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	prep, err := offline.Prepare()
	if err != nil {
		return err
	}

	metrics := obs.NewRegistry()

	// Offline HSVI refinement: pair the (possibly bootstrapped) lower set
	// with a sawtooth upper bound and tighten both until the root gap drops
	// to -refine-gap. The refined planes land in prep.Set in place, so every
	// controller below consumes them through the unchanged Set interface.
	if *refine {
		rep, err := prep.RefineBounds(core.RefineConfig{Epsilon: *refineGap})
		if err != nil {
			return fmt.Errorf("refine bounds: %w", err)
		}
		log.Printf("refined bounds in %v: root gap %.3g -> %.3g (%d trials, %d backups, +%d planes, +%d points, converged=%v)",
			rep.Wall.Round(time.Millisecond), rep.InitialGap, rep.FinalGap,
			rep.Trials, rep.Backups, rep.PlanesAdded, rep.PointsAdded, rep.Converged)
		if offline.Bounds != "" {
			if err := prep.SaveBounds(offline.Bounds); err != nil {
				return err
			}
			log.Printf("saved refined bound set to %s", offline.Bounds)
		}
		r := rep
		metrics.GaugeFunc("recoverd_refine_root_gap",
			"Root bound gap after offline HSVI refinement.",
			func() float64 { return r.FinalGap })
		metrics.CounterFunc("recoverd_refine_backups_total",
			"Belief points backed up (lower and upper) by offline refinement.",
			func() float64 { return float64(r.Backups) })
		metrics.GaugeFunc("recoverd_refine_wall_seconds",
			"Wall-clock time of the offline refinement run.",
			func() float64 { return r.Wall.Seconds() })
	}

	// One exact decision store serves every controller below: the loaded
	// compiled FSC, or else the prepared store with no compiled nodes. Its
	// online region answers the tree decisions of read-only controllers
	// (pooled batch deciders, episodes without online improvement) over the
	// final bound set. Its counters are scraped straight off the store via
	// the metrics registry, so serving pays nothing beyond the atomic
	// increments the store keeps anyway.
	store := prep.DecisionStore(*depth)
	if *fscPath != "" {
		f, err := os.Open(*fscPath)
		if err != nil {
			return fmt.Errorf("open fsc: %w", err)
		}
		fsc, err := controller.DecodeFSC(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load fsc %s: %w", *fscPath, err)
		}
		log.Printf("loaded fsc from %s: %d nodes, %d edges, max gap %.3g (serving gap <= %.3g)",
			*fscPath, fsc.NumNodes(), fsc.NumEdges(), fsc.MaxGap(), *fscGap)
		metrics.CounterFunc("recoverd_fsc_hits_total",
			"Decisions served from the compiled FSC table.",
			func() float64 { return float64(fsc.Hits()) })
		metrics.CounterFunc("recoverd_fsc_fallbacks_total",
			"Decisions the compiled FSC table did not serve.",
			func() float64 { return float64(fsc.Fallbacks()) })
		metrics.GaugeFunc("recoverd_fsc_nodes",
			"Nodes in the loaded compiled FSC.",
			func() float64 { return float64(fsc.NumNodes()) })
		store = fsc
	}
	// Building one decider up front makes every check the factories below
	// make, so an artifact compiled for another model, depth, discount or
	// terminate action fails startup instead of the first request.
	if _, err := prep.NewFSCDecider(store, core.ControllerConfig{Depth: *depth}, *fscGap); err != nil {
		return fmt.Errorf("decision store: %w", err)
	}
	metrics.CounterFunc("recoverd_decision_table_hits_total",
		"Tree decisions answered from the shared decision table.",
		func() float64 { return float64(store.OnlineHits()) })
	metrics.CounterFunc("recoverd_decision_table_misses_total",
		"Tree decisions that missed the shared decision table and expanded the Max-Avg tree.",
		func() float64 { return float64(store.OnlineMisses()) })

	var spanFile *os.File
	if *spanPath != "" {
		f, err := os.OpenFile(*spanPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open span trace file: %w", err)
		}
		spanFile = f
		defer spanFile.Close()
		log.Printf("tracing episode spans to %s (schema %s)", *spanPath, obs.SpanSchema)
	}

	if (*fleetSelf == "") != (*fleetPeers == "") {
		return fmt.Errorf("-fleet-self and -fleet-peers must be set together")
	}
	fleetOn := *fleetSelf != ""
	if fleetOn && *checkpointDir == "" {
		return fmt.Errorf("fleet mode needs -checkpoint-dir: episode handoff replays the dead member's checkpoints")
	}

	var checkpointer server.Checkpointer
	if *checkpointDir != "" {
		dir := *checkpointDir
		if fleetOn {
			// Per-member stores under a shared root: survivors open a dead
			// member's store at <root>/<memberID> to adopt its episodes.
			dir = filepath.Join(dir, *fleetSelf)
		}
		cp, err := server.NewDirCheckpointer(dir)
		if err != nil {
			return err
		}
		checkpointer = cp
	}

	var fleetCfg *server.FleetConfig
	if fleetOn {
		members, err := fleet.ParsePeers(*fleetPeers)
		if err != nil {
			return err
		}
		view, err := fleet.NewMembership(members, *fleetVnodes)
		if err != nil {
			return err
		}
		root := *checkpointDir
		fleetCfg = &server.FleetConfig{
			Self:       *fleetSelf,
			Membership: view,
			StoreFor: func(memberID string) (server.Checkpointer, error) {
				return server.NewDirCheckpointer(filepath.Join(root, memberID))
			},
		}
		log.Printf("fleet mode: member %q of %d peers", *fleetSelf, len(members))
	}

	// Decide spans explain decisions from the controllers' per-decision
	// stats; without -span-trace collection stays off and the hot path is
	// bare.
	collectStats := spanFile != nil
	var spanTrace io.Writer
	if spanFile != nil {
		spanTrace = spanFile
	}
	srv, err := server.New(server.Config{
		Model:             prep.Model,
		MaxEpisodes:       *maxEpisodes,
		Checkpointer:      checkpointer,
		Fleet:             fleetCfg,
		SpanTrace:         spanTrace,
		EpisodeTTL:        *episodeTTL,
		TombstoneTTL:      *tombstoneTTL,
		ClientRetryBudget: *retryBudget,
		MaxBodyBytes:      *maxBodyBytes,
		Metrics:           metrics,
		NewController: func() (controller.Controller, pomdp.Belief, error) {
			cfg := core.ControllerConfig{Depth: *depth, ImproveOnline: *improve, CollectStats: collectStats}
			ctrl, err := prep.NewFSCDecider(store, cfg, *fscGap)
			if err != nil {
				return nil, nil, err
			}
			initial, err := prep.InitialBelief()
			return ctrl, initial, err
		},
		// Batch deciders are pooled across concurrent requests and share the
		// bound set, so they are always built with online improvement off —
		// concurrent set mutation from pooled deciders would race. (The
		// store's compiled nodes are immutable and its online slots atomic,
		// so it is safe to share.)
		NewBatchDecider: func() (controller.BatchDecider, error) {
			return prep.NewFSCDecider(store, core.ControllerConfig{Depth: *depth}, *fscGap)
		},
	})
	if err != nil {
		return err
	}
	if checkpointer != nil {
		rep := srv.Restored()
		if rep.LoadErr != nil {
			log.Printf("checkpoint load: %v", rep.LoadErr)
		}
		if rep.Resumed > 0 || len(rep.Failed) > 0 {
			log.Printf("resumed %d checkpointed episode(s), %d failed", rep.Resumed, len(rep.Failed))
			for _, f := range rep.Failed {
				log.Printf("episode %d not resumed: %v", f.EpisodeID, f.Err)
			}
		}
	}

	var handler http.Handler = srv
	if *logRequests {
		handler = requestLogger(slog.Default(), handler)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		// A dedicated observability listener: scrapers and profilers reach
		// /metrics, pprof and expvar without touching the API port's
		// request path, timeouts, or access logs.
		metricsSrv = &http.Server{
			Addr:              *metricsAddr,
			Handler:           metricsMux(metrics),
			ReadHeaderTimeout: *readHeaderTimeout,
		}
		go func() {
			log.Printf("metrics listener (/metrics, pprof, expvar) on %s", *metricsAddr)
			if err := metricsSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("metrics listener: %v", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		log.Printf("serving on %s", *addr)
		errCh <- hs.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		if metricsSrv != nil {
			_ = metricsSrv.Close()
		}
		srv.Close()
		return err
	case <-ctx.Done():
		log.Printf("shutting down")
		// Flip /healthz to 503 first so load balancers stop routing new
		// work here while the in-flight requests drain.
		srv.BeginShutdown()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		// Drain in-flight requests first, then checkpoint every still-open
		// episode so a restart resumes them.
		shutdownErr := hs.Shutdown(shutdownCtx)
		if metricsSrv != nil {
			_ = metricsSrv.Close()
		}
		if err := srv.Close(); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
		return shutdownErr
	}
}

// metricsMux serves reg's /metrics page, the pprof profiling endpoints and
// expvar's /debug/vars without relying on http.DefaultServeMux, so nothing
// else registered there leaks onto the metrics listener.
func metricsMux(reg *obs.Registry) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())
	return mux
}

// statusRecorder captures the status code a handler writes.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// requestLogger logs one structured line per request.
func requestLogger(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(rec, r)
		logger.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.code,
			"duration", time.Since(t0))
	})
}
