// Command udpserved runs the UDP streaming transform service: an HTTP node
// that compiles, caches, and executes UDP programs over streamed request
// bodies (see docs/SERVER.md).
//
// Usage:
//
//	udpserved                          # serve :8080 with defaults
//	udpserved -addr 127.0.0.1:0        # random port (printed on stdout)
//	udpserved -max-inflight 16 -timeout 5m -cache 128
//
// SIGINT/SIGTERM trigger a graceful shutdown that drains in-flight
// transforms (bounded by -drain).
//
// Fault handling (see docs/FAULTS.md): the per-shard cycle budget, shard
// retry policy and per-program circuit breaker are tunable with
// -cycles-per-byte, -retries/-retry-backoff and -breaker-*/; the
// UDP_FAULT_INJECT environment variable (or -fault-inject) enables
// deterministic chaos injection, e.g. UDP_FAULT_INJECT="seed=42,panic=0.1".
//
// Observability (see docs/OBSERVABILITY.md): -log sets the structured-log
// level and format; -trace-max sizes the /debug/traces span-tree ring
// (negative disables tracing); -slow-ms/-slow-max configure the
// slow-request flight recorder behind /debug/slow; -profile-sample enables
// the per-lane automaton profiler behind /v1/profile/{program};
// /debug/pprof/* serves Go profiling and /metrics includes Go runtime
// health gauges plus per-stage latency histograms.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"udp"
	"udp/internal/memsys"
	"udp/internal/obs"
	"udp/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address (host:port; port 0 picks one)")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes (pre-decompression)")
	timeout := flag.Duration("timeout", server.DefaultRequestTimeout, "per-transform deadline")
	inflight := flag.Int("max-inflight", server.DefaultMaxInflight, "concurrent transforms before 429")
	cache := flag.Int("cache", server.DefaultCachePrograms, "posted-program LRU capacity")
	lanes := flag.Int("lanes", 0, "simulated-lane cap per transform (0 = image limit)")
	chunk := flag.Int("chunk", 0, "shard size target in bytes (0 = executor default)")
	engineName := flag.String("engine", "auto",
		"default lane execution tier: auto, interp, decoded or compiled (X-Udp-Engine overrides per request)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	drainGrace := flag.Duration("drain-grace", 0,
		"keep answering 503 on new transforms for this long after SIGTERM before closing the listener")
	cyclesPerByte := flag.Int64("cycles-per-byte", server.DefaultCyclesPerByte,
		"per-shard cycle budget multiplier (negative = unbounded)")
	retries := flag.Int("retries", 2, "shard retry attempts for retryable traps (0 = no retries)")
	retryBackoff := flag.Duration("retry-backoff", time.Millisecond, "base retry backoff (decorrelated jitter)")
	breakerN := flag.Int("breaker-threshold", server.DefaultBreakerThreshold,
		"consecutive fault-failed transforms that open a program's circuit breaker (negative = disabled)")
	breakerCool := flag.Duration("breaker-cooldown", server.DefaultBreakerCooldown,
		"open-breaker rejection window before a probe request")
	injectSpec := flag.String("fault-inject", os.Getenv("UDP_FAULT_INJECT"),
		`deterministic fault-injection spec, e.g. "seed=42,panic=0.1" or "all=0.05" (default $UDP_FAULT_INJECT)`)
	logSpec := flag.String("log", "", obs.LogFlagUsage)
	traceMax := flag.Int("trace-max", obs.DefaultMaxTraces,
		"request trace trees retained for /debug/traces (0 = default, negative = tracing off)")
	slowMS := flag.Int("slow-ms", 250,
		"flight-recorder latency threshold in ms: requests at or over it are captured for /debug/slow (0 = capture every request)")
	slowMax := flag.Int("slow-max", obs.DefaultMaxFlightEntries,
		"slow-request flight-recorder ring size (0 = default, negative = recorder off)")
	profileSample := flag.Int("profile-sample", 0,
		"profile one shard in every N into /v1/profile/{program} (0 = profiling off)")
	memSoftMB := flag.Int("mem-soft-mb", 0,
		"soft heap watermark in MiB: above it slab rings shrink and the inflight cap halves (0 = pressure gating off)")
	memCritMB := flag.Int("mem-crit-mb", 0,
		"critical heap watermark in MiB: above it all transforms shed with 429 (0 = 2x the soft watermark)")
	memHousekeep := flag.Duration("mem-housekeep", memsys.DefaultHousekeepInterval,
		"slab-manager housekeeping interval (idle shrink + pressure check)")
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "udpserved:", err)
		os.Exit(2)
	}

	engine, err := udp.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "udpserved:", err)
		os.Exit(2)
	}

	inject, err := udp.ParseInjectSpec(*injectSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "udpserved:", err)
		os.Exit(2)
	}
	if inject != nil {
		fmt.Printf("udpserved: fault injection active: %s\n", inject)
	}

	var tracer *obs.Tracer
	if *traceMax >= 0 {
		tracer = obs.NewTracer(*traceMax)
	}

	var flight *obs.FlightRecorder
	if *slowMax >= 0 {
		flight = obs.NewFlightRecorder(*slowMax, time.Duration(*slowMS)*time.Millisecond)
	}

	// The slab manager is process-wide (the executor and server share it);
	// a dedicated instance here would split the rings. The default manager's
	// housekeeper ticks at DefaultHousekeepInterval — a custom interval gets
	// its own manager so the flag takes effect.
	mem := memsys.Default()
	if *memHousekeep != memsys.DefaultHousekeepInterval && *memHousekeep > 0 {
		mem = memsys.New(memsys.Config{Name: "udpserved", HousekeepInterval: *memHousekeep})
	}
	mem.SetWatermarks(uint64(*memSoftMB)<<20, uint64(*memCritMB)<<20)
	if *memSoftMB > 0 {
		soft, crit := mem.Watermarks()
		fmt.Printf("udpserved: memory watermarks armed: soft=%dMiB crit=%dMiB\n", soft>>20, crit>>20)
	}

	srv := server.New(server.Options{
		MaxBodyBytes:     *maxBody,
		RequestTimeout:   *timeout,
		MaxInflight:      *inflight,
		DrainGrace:       *drainGrace,
		CachePrograms:    *cache,
		MaxLanes:         *lanes,
		Engine:           engine,
		ChunkBytes:       *chunk,
		CyclesPerByte:    *cyclesPerByte,
		Retry:            udp.RetryPolicy{Max: *retries, Backoff: *retryBackoff},
		Inject:           inject,
		BreakerThreshold: *breakerN,
		BreakerCooldown:  *breakerCool,
		Logger:           logger,
		Tracer:           tracer,
		Flight:           flight,
		ProfileSample:    *profileSample,
		Mem:              mem,
	})

	ready := make(chan net.Addr, 1)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe(*addr, ready) }()

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "udpserved:", err)
		os.Exit(1)
	case a := <-ready:
		// The parseable line scripts/smoke and operators key off.
		fmt.Printf("udpserved: listening on %s\n", a)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-serveErr:
		if err != nil {
			fmt.Fprintln(os.Stderr, "udpserved:", err)
			os.Exit(1)
		}
	case s := <-sig:
		fmt.Printf("udpserved: %s, draining in-flight transforms (up to %s)\n", s, *drain)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "udpserved: shutdown:", err)
			os.Exit(1)
		}
		<-serveErr
		fmt.Println("udpserved: drained, bye")
	}
}
