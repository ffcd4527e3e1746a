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
//	     -d '{"actionName":"observe","observationName":"obs:HPathMon","stepIndex":0,"decide":true}'
//
// With "decide": true the observation's answer is the next decision, so
// each later step is one round trip; without it the answer is 204 and the
// next decision is a separate GET.
package main

import (
	"context"
	"encoding/json"
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
	"bpomdp/internal/emn"
	"bpomdp/internal/fleet"
	"bpomdp/internal/modelload"
	"bpomdp/internal/obs"
	"bpomdp/internal/pomdp"
	"bpomdp/internal/rng"
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
	var (
		addr        = fs.String("addr", ":7947", "listen address")
		modelName   = fs.String("model", "emn", `model: "emn", "twoserver", or a path to a model JSON`)
		top         = fs.Float64("top", emn.OperatorResponseTime, "operator response time t_op in seconds")
		bootstrap   = fs.Int("bootstrap", 10, "bootstrap episodes before serving")
		bootDepth   = fs.Int("bootstrap-depth", 2, "tree depth during bootstrap")
		depth       = fs.Int("depth", 1, "online tree depth")
		improve     = fs.Bool("improve-online", true, "keep improving the bound during real recovery")
		seed        = fs.Uint64("seed", 1, "bootstrap RNG seed")
		boundsPath  = fs.String("bounds", "", "load the bound set from this JSON file if it exists, and save it back after bootstrap")
		fscPath     = fs.String("fsc", "", "load a compiled finite-state controller (see cmd/fsccompile) and serve table hits from it, falling back to the tree")
		fscGap      = fs.Float64("fsc-gap-threshold", 1e-6, "serve an FSC node only when its compile-time bound gap is at most this; larger nodes fall back to the tree")
		refine      = fs.Bool("refine-bounds", false, "run HSVI-style offline bound refinement (paired upper/lower bounds) after bootstrap, before serving")
		refineGap   = fs.Float64("refine-gap", 1e-6, "with -refine-bounds, the root bound gap refinement converges to")
		maxEpisodes = fs.Int("max-episodes", 0, "cap on concurrently open episodes (0 = default)")

		checkpointDir   = fs.String("checkpoint-dir", "", "persist per-episode checkpoints here; a restarted daemon resumes all open episodes")
		checkpointStore = fs.String("checkpoint-store", "dir", `checkpoint store layout: "dir" (one JSON file per episode) or "log" (append-only log with compaction)`)
		episodeTTL      = fs.Duration("episode-ttl", 30*time.Minute, "evict episodes idle longer than this (0 disables abandoned-monitor GC)")
		tombstoneTTL    = fs.Duration("tombstone-ttl", 10*time.Minute, "keep terminal-decision tombstones at least this long (0 = -episode-ttl); must be >= -client-retry-budget")
		retryBudget     = fs.Duration("client-retry-budget", client.DefaultRetryBudget, "longest cumulative retry backoff clients are configured with; tombstones must outlive it")
		maxBodyBytes    = fs.Int64("max-body-bytes", 1<<20, "cap on request body size")

		fleetSelf   = fs.String("fleet-self", "", "this member's id within -fleet-peers; enables fleet mode")
		fleetPeers  = fs.String("fleet-peers", "", `static fleet membership as comma-separated id=addr pairs, e.g. "n1=http://10.0.0.1:7947,n2=http://10.0.0.2:7947"`)
		fleetVnodes = fs.Int("fleet-vnodes", 0, "virtual nodes per member on the hash ring (0 = default; must match on every member and client)")

		pprofAddr   = fs.String("pprof", "", "serve net/http/pprof on this separate address (empty = off)")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics plus the pprof endpoints on this separate address, keeping scrapers off the API port (empty = off)")
		expvarOn    = fs.Bool("expvar", false, "also serve expvar under /debug/vars on the -pprof and -metrics-addr listeners")
		logRequests = fs.Bool("log-requests", false, "log every API request (method, path, status, duration) via slog")
		tracePath   = fs.String("trace", "", "append one structured JSONL decision record per computed decision to this file (enables per-decision stats collection)")
		spanPath    = fs.String("span-trace", "", "append one bpomdp.span/v1 JSONL span per traced operation to this file; stitch files from every node with cmd/tracestats")

		readHeaderTimeout = fs.Duration("read-header-timeout", 5*time.Second, "http.Server ReadHeaderTimeout")
		readTimeout       = fs.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout (bounds slow-loris request bodies)")
		writeTimeout      = fs.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout")
		idleTimeout       = fs.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	rm, err := modelload.Load(*modelName)
	if err != nil {
		return err
	}
	prep, err := core.Prepare(rm, core.PrepareOptions{OperatorResponseTime: *top})
	if err != nil {
		return err
	}
	log.Printf("model %q: %d states, %d actions, %d observations; regime %s",
		*modelName, prep.Model.NumStates(), prep.Model.NumActions(), prep.Model.NumObservations(), prep.Regime)

	loaded := false
	if *boundsPath != "" {
		if data, err := os.ReadFile(*boundsPath); err == nil {
			if err := json.Unmarshal(data, prep.Set); err != nil {
				return fmt.Errorf("load bounds %s: %w", *boundsPath, err)
			}
			if prep.Set.NumStates() != prep.Model.NumStates() {
				return fmt.Errorf("bounds %s are over %d states, model has %d",
					*boundsPath, prep.Set.NumStates(), prep.Model.NumStates())
			}
			log.Printf("loaded %d bound vectors from %s", prep.Set.Size(), *boundsPath)
			loaded = true
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	if !loaded && *bootstrap > 0 {
		start := time.Now()
		stats, err := prep.Bootstrap(*bootstrap, controller.VariantAverage, *bootDepth, rng.New(*seed))
		if err != nil {
			return err
		}
		last := stats[len(stats)-1]
		log.Printf("bootstrapped %d episodes in %v: bound at uniform %.2f, %d vectors",
			*bootstrap, time.Since(start).Round(time.Millisecond), last.BoundAtUniform, last.Vectors)
		if *boundsPath != "" {
			data, err := json.Marshal(prep.Set)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*boundsPath, data, 0o644); err != nil {
				return err
			}
			log.Printf("saved bound set to %s", *boundsPath)
		}
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
		if *boundsPath != "" {
			data, err := json.Marshal(prep.Set)
			if err != nil {
				return err
			}
			if err := os.WriteFile(*boundsPath, data, 0o644); err != nil {
				return err
			}
			log.Printf("saved refined bound set to %s", *boundsPath)
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

	// The compiled FSC fast path: one shared immutable table, per-episode
	// FSCDecider wrappers around the usual tree controllers. Its hit/fallback
	// counters are scraped straight off the shared table via the metrics
	// registry, so serving pays nothing beyond the atomic increments the
	// table keeps anyway.
	var fsc *controller.FSC
	if *fscPath != "" {
		f, err := os.Open(*fscPath)
		if err != nil {
			return fmt.Errorf("open fsc: %w", err)
		}
		fsc, err = controller.DecodeFSC(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("load fsc %s: %w", *fscPath, err)
		}
		if fsc.NumStates() != prep.Model.NumStates() ||
			fsc.NumActions() != prep.Model.NumActions() ||
			fsc.NumObservations() != prep.Model.NumObservations() {
			return fmt.Errorf("fsc %s compiled for a %d-state/%d-action/%d-observation model; loaded model has %d/%d/%d",
				*fscPath, fsc.NumStates(), fsc.NumActions(), fsc.NumObservations(),
				prep.Model.NumStates(), prep.Model.NumActions(), prep.Model.NumObservations())
		}
		log.Printf("loaded fsc from %s: %d nodes, %d edges, max gap %.3g (serving gap <= %.3g)",
			*fscPath, fsc.NumNodes(), fsc.NumEdges(), fsc.MaxGap(), *fscGap)
		t := fsc
		metrics.CounterFunc("recoverd_fsc_hits_total",
			"Decisions served from the compiled FSC table.",
			func() float64 { return float64(t.Hits()) })
		metrics.CounterFunc("recoverd_fsc_fallbacks_total",
			"Decisions that fell back to the Max-Avg tree.",
			func() float64 { return float64(t.Fallbacks()) })
		metrics.GaugeFunc("recoverd_fsc_nodes",
			"Nodes in the loaded compiled FSC.",
			func() float64 { return float64(t.NumNodes()) })
	}

	if *expvarOn && *pprofAddr == "" && *metricsAddr == "" {
		return fmt.Errorf("-expvar needs a -pprof or -metrics-addr listener address")
	}
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.OpenFile(*tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("open trace file: %w", err)
		}
		traceFile = f
		defer traceFile.Close()
		log.Printf("tracing decisions to %s (schema %s)", *tracePath, obs.TraceSchema)
	}
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
		cp, err := server.OpenCheckpointStore(*checkpointStore, dir)
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
		root, store := *checkpointDir, *checkpointStore
		fleetCfg = &server.FleetConfig{
			Self:       *fleetSelf,
			Membership: view,
			StoreFor: func(memberID string) (server.Checkpointer, error) {
				return server.OpenCheckpointStore(store, filepath.Join(root, memberID))
			},
		}
		log.Printf("fleet mode: member %q of %d peers", *fleetSelf, len(members))
	}

	// Structured tracing needs the controllers to collect per-decision
	// stats; without -trace the flag stays off and the hot path is bare.
	collectStats := traceFile != nil
	var decisionTrace io.Writer
	if traceFile != nil {
		decisionTrace = traceFile
	}
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
		DecisionTrace:     decisionTrace,
		Metrics:           metrics,
		NewController: func() (controller.Controller, pomdp.Belief, error) {
			cfg := core.ControllerConfig{Depth: *depth, ImproveOnline: *improve, CollectStats: collectStats}
			var ctrl controller.Controller
			var err error
			if fsc != nil {
				ctrl, err = prep.NewFSCDecider(fsc, cfg, *fscGap)
			} else {
				ctrl, err = prep.NewController(cfg)
			}
			if err != nil {
				return nil, nil, err
			}
			initial, err := prep.InitialBelief()
			return ctrl, initial, err
		},
		// Batch deciders are pooled across concurrent requests and share the
		// bound set, so they are always built with online improvement off —
		// concurrent set mutation from pooled deciders would race. (The FSC
		// table itself is immutable and safe to share.)
		NewBatchDecider: func() (controller.BatchDecider, error) {
			if fsc != nil {
				return prep.NewFSCDecider(fsc, core.ControllerConfig{Depth: *depth}, *fscGap)
			}
			return prep.NewController(core.ControllerConfig{Depth: *depth})
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

	var debugSrv *http.Server
	if *pprofAddr != "" {
		// The profiling endpoints live on their own listener so they are
		// never exposed on the API port.
		debugSrv = &http.Server{
			Addr:              *pprofAddr,
			Handler:           debugMux(*expvarOn),
			ReadHeaderTimeout: *readHeaderTimeout,
		}
		go func() {
			log.Printf("debug listener (pprof%s) on %s", map[bool]string{true: "+expvar"}[*expvarOn], *pprofAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	var metricsSrv *http.Server
	if *metricsAddr != "" {
		// A dedicated observability listener: scrapers and profilers reach
		// /metrics and the pprof endpoints without touching the API port's
		// request path, timeouts, or access logs.
		mux := debugMux(*expvarOn)
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			_ = metrics.WritePrometheus(w)
		})
		metricsSrv = &http.Server{
			Addr:              *metricsAddr,
			Handler:           mux,
			ReadHeaderTimeout: *readHeaderTimeout,
		}
		go func() {
			log.Printf("metrics listener (/metrics+pprof%s) on %s", map[bool]string{true: "+expvar"}[*expvarOn], *metricsAddr)
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
		if debugSrv != nil {
			_ = debugSrv.Close()
		}
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
		if debugSrv != nil {
			_ = debugSrv.Close()
		}
		if metricsSrv != nil {
			_ = metricsSrv.Close()
		}
		if err := srv.Close(); err != nil {
			log.Printf("final checkpoint: %v", err)
		}
		return shutdownErr
	}
}

// debugMux serves the pprof profiling endpoints (and optionally expvar)
// without relying on http.DefaultServeMux, so nothing else registered there
// leaks onto the debug listener.
func debugMux(withExpvar bool) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if withExpvar {
		mux.Handle("/debug/vars", expvar.Handler())
	}
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
