// Command wbserved runs the Wishbone multi-tenant partition service: an
// HTTP/JSON API serving profile, partition, and simulate requests over
// cached compiled Programs (see internal/server). It also serves the
// /v1/shard endpoints, so an instance can act as one shard host of a
// distributed simulation — a coordinator (internal/dist, or
// `wishbone -simulate -hosts ...`) opens a session for an origin subset
// and drives it window by window.
//
// Usage:
//
//	wbserved [-addr :9090] [-cache 256] [-jobs N] [-sim-workers N]
//	         [-shard-sessions N] [-replan-max N] [-pprof 127.0.0.1:6060]
//
// Try it:
//
//	curl -s localhost:9090/v1/partition -d \
//	  '{"graph":{"app":"speech"},"platform":"TMoteSky"}'
//	curl -s localhost:9090/v1/stats
//
// SIGINT/SIGTERM drain in-flight requests before exiting (open shard
// sessions are aborted).
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // registers on http.DefaultServeMux, which only the -pprof listener serves
	"os"
	"os/signal"
	"syscall"
	"time"

	"wishbone/internal/server"
)

func main() {
	addr := flag.String("addr", ":9090", "listen address")
	cache := flag.Int("cache", 256, "program/graph cache entries (LRU)")
	jobs := flag.Int("jobs", 0, "max concurrent heavy jobs (0 = GOMAXPROCS)")
	simWorkers := flag.Int("sim-workers", 0, "per-simulation node worker bound (0 = GOMAXPROCS)")
	streamBuffer := flag.Int("stream-buffer", 0, "per-session window-buffer bound for /v1/simulate/stream; exceeding it returns 429 code=backpressure (0 = default)")
	shardSessions := flag.Int("shard-sessions", 0, "max concurrently open /v1/shard sessions (0 = default 256)")
	replanMax := flag.Int("replan-max", 0, "server-side cap on mid-stream re-partitions per controlled session, overriding larger tenant requests (0 = uncapped)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown timeout")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address, on its own listener (empty = off; the API listener never serves /debug/pprof/)")
	flag.Parse()

	svc := server.New(server.Config{
		CacheEntries:      *cache,
		MaxJobs:           *jobs,
		SimWorkers:        *simWorkers,
		StreamMaxBuffered: *streamBuffer,
		MaxShardSessions:  *shardSessions,

		ReplanMaxPerSession: *replanMax,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	if *pprofAddr != "" {
		go func() { log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, http.DefaultServeMux)) }()
		log.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	log.Printf("wbserved listening on %s (cache %d entries, %d jobs)", *addr, *cache, *jobs)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		log.Fatal(err)
	case sig := <-sigCh:
		log.Printf("%v: draining (up to %v)...", sig, *drain)
		svc.Close()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("shutdown: %v", err)
			os.Exit(1)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
		snap := svc.Stats()
		log.Printf("drained; served %d cache hits / %d misses (hit rate %.2f)",
			snap.CacheHits, snap.CacheMisses, snap.CacheHitRate)
	}
}
