// Command mtmrd is the long-running, content-addressed sweep service: it
// accepts Scenario/sweep specs over HTTP/JSON, canonicalizes and hashes
// them, and serves repeats from an in-memory LRU backed by an append-only
// on-disk result store. Misses are scheduled on a bounded worker pool of
// pre-warmed session pools, with singleflight deduplication of concurrent
// identical submissions and NDJSON progress streaming.
//
//	mtmrd -addr :8080 -store mtmrd.store -warm-pools 2
//
//	# submit a Figure-5 sweep (first time computes, repeats hit the cache)
//	curl -s -X POST localhost:8080/v1/sweep -d '{"topo":"grid","runs":100}'
//
// With -fanout, the instance becomes a multi-instance coordinator instead:
// full sweeps are split into per-axis-point sub-jobs, routed to the -peers
// instance owning each sub-key's range (421 redirects honored), executed
// with timeouts, retries under jittered exponential backoff and per-peer
// circuit breakers, then composed and cached under the full sweep's key —
// byte-identical to a single-instance run, with dead owners' ranges
// recomputed locally.
//
//	mtmrd -addr :8090 -fanout -peers http://shard0:8080,http://shard1:8080
//
// SIGTERM/SIGINT drains gracefully: cached results keep being served, new
// computations get 503, in-flight requests finish (up to -drain-timeout),
// then the store is synced and closed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mtmrp/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		storePath    = flag.String("store", "mtmrd.store", "result store file (empty = memory-only)")
		cacheEntries = flag.Int("cache", 256, "in-memory LRU capacity (entries)")
		maxJobs      = flag.Int("jobs", 2, "max concurrently executing computations")
		sweepWorkers = flag.Int("sweep-workers", 0, "sweep engine workers per computation (0 = all cores)")
		warmPools    = flag.Int("warm-pools", 1, "session pools to pre-warm at startup")
		shardIndex   = flag.Int("shard-index", 0, "this instance's shard index")
		shardCount   = flag.Int("shard-count", 1, "total shards splitting the keyspace")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight requests on shutdown")

		fanout        = flag.Bool("fanout", false, "run as a fan-out coordinator over -peers")
		peers         = flag.String("peers", "", "comma-separated peer base URLs, in shard order (fanout mode)")
		fanoutTimeout = flag.Duration("fanout-timeout", 10*time.Minute, "per-attempt timeout for peer requests")
		fanoutRetries = flag.Int("fanout-retries", 2, "retry budget per sub-job after the first attempt")
		fanoutProbe   = flag.Duration("fanout-probe", 5*time.Second, "peer health-probe interval")
	)
	flag.Parse()

	if *shardIndex < 0 || *shardCount < 1 || *shardIndex >= *shardCount {
		log.Fatalf("mtmrd: invalid shard %d/%d", *shardIndex, *shardCount)
	}
	if *fanout && *shardCount != 1 {
		log.Fatalf("mtmrd: -fanout requires an unsharded local instance (got -shard-count %d)", *shardCount)
	}

	svc, err := service.New(service.Config{
		StorePath:    *storePath,
		CacheEntries: *cacheEntries,
		MaxJobs:      *maxJobs,
		SweepWorkers: *sweepWorkers,
		WarmPools:    *warmPools,
		Shard:        service.Shard{Index: *shardIndex, Count: *shardCount},
	})
	if err != nil {
		log.Fatalf("mtmrd: %v", err)
	}

	handler := svc.Handler()
	if *fanout {
		fan, err := service.NewFanout(svc, service.FanoutConfig{
			Peers:   splitPeers(*peers),
			Timeout: *fanoutTimeout,
			Retries: *fanoutRetries,
		})
		if err != nil {
			svc.Close()
			log.Fatalf("mtmrd: %v", err)
		}
		handler = fan.Handler()
		if *fanoutProbe > 0 {
			stop := fan.StartProbing(*fanoutProbe)
			defer stop()
		}
		log.Printf("mtmrd: fan-out coordinator over %d peers: %s", len(splitPeers(*peers)), *peers)
	}

	srv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("mtmrd: serving on %s (store %q, shard %d/%d, %d warm pools)",
		*addr, *storePath, *shardIndex, *shardCount, *warmPools)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("mtmrd: %v: draining", sig)
		svc.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("mtmrd: shutdown: %v", err)
		}
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			svc.Close()
			log.Fatalf("mtmrd: serve: %v", err)
		}
	}
	if err := svc.Close(); err != nil {
		log.Printf("mtmrd: closing store: %v", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "mtmrd: drained cleanly")
}

// splitPeers parses the comma-separated -peers list, dropping empties so
// trailing commas don't manufacture phantom shards.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
