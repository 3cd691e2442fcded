// Command snapd serves SNAP-1 marker-propagation queries over HTTP: a
// resident knowledge base, a pool of simulated array replicas behind
// sharded work-stealing run queues, and a result-caching query engine
// behind a JSON API.
//
// Usage:
//
//	snapd -gen 4000 -domain -addr :8080
//	snapd -kb network.kb -replicas 8 -max-inflight 512
//
// Endpoints:
//
//	POST /v1/query   {"program": "<SNAP assembly>", "timeout_ms": 1000}
//	                 (or Content-Type: text/plain with raw assembly)
//	POST /v1/mutate  topology-mutating programs (requires -writes);
//	                 commits through the serialized writer and publishes
//	                 a new KB epoch before answering
//	GET  /v1/stats   serving counters, batch/steal/shed stats, cache
//	                 hit rates, per-stage latency, write/delta counters
//	GET  /v1/health  per-replica quarantine state and overall status
//
// Every non-2xx response carries the typed error envelope
// {"error":{"code":...,"message":...,"retryable":...}} (see
// docs/RESILIENCE.md). Overloaded submissions (full queue or in-flight
// ceiling) answer 503 with a Retry-After header estimated from the
// live queue depth and drain rate. SIGINT/SIGTERM drains in-flight
// queries before exit.
//
// A fault plan (-fault-plan plan.json) arms seeded fault injection in
// the simulated hardware for resilience drills; pair it with
// -query-timeout and -retries to exercise degraded serving.
//
// Example:
//
//	curl -s localhost:8080/v1/query -d '{"program":
//	  "search-node node=dog marker=c1 value=0\n
//	   propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n
//	   collect-node marker=c2"}'
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
	"syscall"
	"time"

	"snap1/internal/engine"
	"snap1/internal/fault"
	"snap1/internal/kbfile"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/perfmon"
	"snap1/internal/semnet"
)

// HTTP connection timeouts (docs/ENGINE.md). A client has
// readHeaderTimeout to send its request line and headers, and a
// keep-alive connection may sit idle between requests for idleTimeout,
// so stalled or abandoned connections cannot pin the daemon's sockets
// forever. Neither bounds a query's run time; that is -query-timeout.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("snapd: ")

	addr := flag.String("addr", ":8080", "listen address")
	kbPath := flag.String("kb", "", "knowledge-base file (kbfile format)")
	gen := flag.Int("gen", 0, "generate a synthetic knowledge base of N nodes instead")
	domain := flag.Bool("domain", false, "embed the newswire micro-domain in the generated network")
	seed := flag.Int64("seed", 42, "generation seed")
	replicas := flag.Int("replicas", 4, "machine-pool size (one run-queue shard per replica)")
	maxBatch := flag.Int("max-batch", 8, "max queries one replica drains or steals per round")
	queueCap := flag.Int("queue-cap", 256, "submit-queue capacity; beyond it queries shed with 503")
	cacheCap := flag.Int("cache-cap", 128, "compile-cache entry bound")
	resultCache := flag.Int("result-cache", 1024, "result-cache entry bound (0 disables result caching)")
	maxInFlight := flag.Int("max-inflight", 0, "in-flight query ceiling, 0 = no ceiling beyond -queue-cap")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight queries")
	clusters := flag.Int("clusters", 16, "cluster count per replica")
	part := flag.String("partition", "semantic", "partitioning: sequential, round-robin, semantic, or refined")
	place := flag.Bool("place", false, "follow partitioning with hop-aware hypercube placement")
	monCap := flag.Int("monitor", 4096, "perfmon FIFO capacity (0 disables)")
	faultPlan := flag.String("fault-plan", "", "seeded fault-injection plan (JSON file; see docs/RESILIENCE.md)")
	queryTimeout := flag.Duration("query-timeout", 10*time.Second, "per-attempt query deadline (0 disables)")
	retries := flag.Int("retries", 3, "total execution attempts per query (1 disables retries)")
	fusion := flag.Int("fusion", 8, "max queries coalesced into one fused run (1 disables query fusion)")
	optLevel := flag.Int("opt", 2, "program optimizer level: 0 runs queries as written, 1 folds and eliminates dead planes, 2 adds plane renaming and overlap scheduling")
	writes := flag.Bool("writes", false, "accept topology-mutating programs on POST /v1/mutate (epoch-versioned online KB writes)")
	flag.Parse()

	loadStart := time.Now()
	kb, err := loadKB(*kbPath, *gen, *domain, *seed)
	if err != nil {
		log.Fatal(err)
	}
	loadTook := time.Since(loadStart)

	opts := []engine.Option{
		engine.WithReplicas(*replicas),
		engine.WithMaxBatch(*maxBatch),
		engine.WithQueueCap(*queueCap),
		engine.WithCacheCap(*cacheCap),
		engine.WithResultCache(*resultCache),
		engine.WithMaxInFlight(*maxInFlight),
		engine.WithQueryTimeout(*queryTimeout),
		engine.WithRetryPolicy(engine.RetryPolicy{MaxAttempts: *retries}),
		engine.WithFusion(*fusion),
		engine.WithOptLevel(*optLevel),
		engine.WithWrites(*writes),
		engine.WithMachineOptions(
			machine.WithClusters(*clusters),
			machine.WithMarkerUnits(2, 0),
			machine.WithPartition(*part),
			machine.WithPlacement(*place),
			machine.WithDeterministic(true),
		),
	}
	if *monCap > 0 {
		opts = append(opts, engine.WithMonitor(perfmon.NewCollector(*monCap)))
	}
	if *faultPlan != "" {
		plan, err := fault.Load(*faultPlan)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("fault plan armed: seed %d, %d rule(s)", plan.Seed, len(plan.Rules))
		opts = append(opts, engine.WithFaultPlan(plan))
	}
	start := time.Now()
	eng, err := engine.New(kb, opts...)
	if err != nil {
		log.Fatal(err)
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           engine.NewServer(eng),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("serving %d-node knowledge base on %d replicas at %s (KB loaded in %v, pool up in %v)",
		kb.NumNodes(), *replicas, *addr, loadTook.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))

	// Graceful shutdown: stop accepting, let in-flight queries drain
	// within the deadline, then retire the replica pool.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down, draining for up to %v", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	eng.Close()
	log.Printf("bye")
}

func loadKB(path string, gen int, domain bool, seed int64) (*semnet.KB, error) {
	switch {
	case path != "" && gen != 0:
		return nil, fmt.Errorf("-kb and -gen are mutually exclusive")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return kbfile.Parse(f)
	case gen != 0:
		g, err := kbgen.Generate(kbgen.Params{Nodes: gen, Seed: seed, WithDomain: domain})
		if err != nil {
			return nil, err
		}
		return g.KB, nil
	default:
		return nil, fmt.Errorf("need -kb file or -gen N")
	}
}
