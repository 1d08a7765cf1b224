// mocha-qpc runs the Query Processing Coordinator: it loads the catalog
// (sites, tables, statistics), serves SQL clients, and deploys plan
// fragments and operator code to the catalog's DAPs over TCP.
//
// Usage:
//
//	mocha-qpc -catalog catalog.xml -listen :7700 [-strategy auto]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"mocha/internal/catalog"
	"mocha/internal/core"
	"mocha/internal/exec"
	"mocha/internal/netsim"
	"mocha/internal/obs"
	"mocha/internal/ops"
	"mocha/internal/qpc"
)

func main() {
	catalogPath := flag.String("catalog", "catalog.xml", "catalog XML file (see mocha-datagen -catalog)")
	listen := flag.String("listen", ":7700", "TCP listen address for clients")
	strategy := flag.String("strategy", "auto", "operator placement: auto, code-ship or data-ship")
	bandwidth := flag.Float64("bandwidth", 0, "model DAP links at this bandwidth in bits/sec (0 = unshaped)")
	queryTimeout := flag.Duration("query-timeout", 0, "abort a query after this long (0 = unbounded)")
	frameTimeout := flag.Duration("frame-timeout", 30*time.Second, "per-frame DAP I/O bound; a stalled site fails instead of hanging (0 = unbounded)")
	retryAttempts := flag.Int("retry-attempts", 4, "attempts per idempotent DAP operation (1 = no retries)")
	retryBase := flag.Duration("retry-base-delay", 50*time.Millisecond, "first retry backoff delay (doubles per attempt, jittered)")
	retryBudget := flag.Int("retry-budget", 8, "total retries allowed across one query")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive transient failures that trip a site's circuit breaker open")
	breakerOpenFor := flag.Duration("breaker-open-for", 3*time.Second, "how long an open breaker fails fast before allowing a half-open probe")
	heartbeat := flag.Duration("heartbeat-interval", 0, "probe every catalog site this often to demote dead replicas ahead of queries (0 = disabled)")
	memBudget := flag.Int64("mem-budget", 0, "query-memory budget in bytes shared by all queries; joins and aggregates spill past it (0 = ungoverned)")
	classesDir := flag.String("classes-dir", "", "load operator releases from this directory (manifest.xml + .mvmc blobs; re-verified on load)")
	rolloutMinSamples := flag.Int("rollout-min-samples", 0, "canary/active comparisons before the latency check may abort a rollout (0 = default)")
	rolloutLatencyFactor := flag.Float64("rollout-latency-factor", 0, "abort a rollout when canary op self-time exceeds this multiple of active (0 = default)")
	rolloutPromoteAfter := flag.Int("rollout-promote-after", 0, "clean comparisons that auto-promote a canary (-1 = never, 0 = default)")
	rolloutMaxErrors := flag.Int("rollout-max-canary-errors", 0, "canary-only failures tolerated before auto-rollback")
	maxConcurrent := flag.Int("max-concurrent", 0, "queries admitted to execute at once (0 = unbounded)")
	queueDepth := flag.Int("queue-depth", 0, "queries allowed to wait for an admission slot, drained round-robin per tenant (0 = reject when saturated)")
	pprofAddr := flag.String("pprof-addr", "", "serve /metrics and /debug/pprof on this address (empty = disabled)")
	quiet := flag.Bool("quiet", false, "suppress per-query logging")
	flag.Parse()

	var strat core.Strategy
	switch *strategy {
	case "auto":
		strat = core.StrategyAuto
	case "code-ship":
		strat = core.StrategyCodeShip
	case "data-ship":
		strat = core.StrategyDataShip
	default:
		log.Fatalf("unknown strategy %q", *strategy)
	}

	reg := ops.Builtins()
	cat := catalog.New(reg, catalog.NewRepositoryFromRegistry(reg))
	if err := cat.Load(*catalogPath); err != nil {
		log.Fatalf("load catalog: %v", err)
	}
	if *classesDir != "" {
		if err := cat.Repo().LoadDir(*classesDir); err != nil {
			log.Fatalf("load classes: %v", err)
		}
	}
	fmt.Printf("mocha-qpc: %d tables, %d operators, strategy=%v\n",
		len(cat.TableNames()), len(reg.Names()), strat)

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	var shaper *netsim.Shaper
	if *bandwidth > 0 {
		shaper = &netsim.Shaper{BitsPerSec: *bandwidth}
	}
	var dialer net.Dialer
	srv := qpc.New(qpc.Config{
		Cat: cat,
		DialContext: func(ctx context.Context, addr string) (net.Conn, error) {
			nc, err := dialer.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return netsim.Shape(nc, shaper), nil
		},
		Strategy:     strat,
		QueryTimeout: *queryTimeout,
		FrameTimeout: *frameTimeout,
		Retry: qpc.RetryPolicy{
			MaxAttempts: *retryAttempts,
			BaseDelay:   *retryBase,
			Budget:      *retryBudget,
		},
		Breaker: qpc.BreakerPolicy{
			FailureThreshold: *breakerThreshold,
			OpenFor:          *breakerOpenFor,
		},
		HeartbeatInterval: *heartbeat,
		Rollout: qpc.RolloutPolicy{
			MinSamples:      *rolloutMinSamples,
			LatencyFactor:   *rolloutLatencyFactor,
			PromoteAfter:    *rolloutPromoteAfter,
			MaxCanaryErrors: *rolloutMaxErrors,
		},
		Exec:          exec.Tuning{MemBudgetBytes: *memBudget},
		MaxConcurrent: *maxConcurrent,
		QueueDepth:    *queueDepth,
		Logf:          logf,
	})
	obs.ServeDebug(*pprofAddr, srv.Metrics(), logf)
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mocha-qpc: listening on %s\n", l.Addr())
	if err := srv.Serve(l); err != nil {
		log.Fatal(err)
	}
}
