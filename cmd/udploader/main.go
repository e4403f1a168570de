// Command udploader is the load generator and soak harness for udpserved
// (see docs/SOAK.md).
//
// Load mode drives a running server and reports latency percentiles,
// throughput and an error taxonomy, optionally gated on SLOs:
//
//	udploader -addr http://127.0.0.1:8080 -workers 16 -duration 30s \
//	    -programs csvpipe=3,echo=1 -gzip 0.25 -retries 2
//	udploader -addr ... -rps 200 -slo-p99 250 -slo-error-budget 0.01
//	udploader -addr ... -stages -slo-stage-share 0.9
//
// -stages asks the server for per-stage timing trailers on every request
// and prints a stage attribution table (p50/p99 per pipeline stage plus
// each stage's share of p99-cohort time) next to the top-K slowest
// requests with their trace IDs — the starting point for a tail-latency
// hunt (see docs/OBSERVABILITY.md).
//
// Soak mode runs a recipe file: it builds and launches udpserved itself,
// drives the recipe's load shape while injecting chaos (kills, restarts,
// capacity squeezes, engine degrades), then verifies SLOs and leak
// invariants:
//
//	udploader -recipe scripts/soak/recipes/short.json
//	udploader -recipe scripts/soak/recipes/nightly.json -json
//
// Exit status: 0 on pass, 1 on SLO violation or harness failure, 2 on bad
// usage.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"udp/internal/load"
	"udp/internal/memsys"
)

func main() {
	// Soak mode.
	recipe := flag.String("recipe", "", "soak recipe file; when set, every load flag below is ignored")
	bin := flag.String("bin", "", "pre-built udpserved binary for soak mode (default: go build a fresh one)")

	// Load mode.
	addr := flag.String("addr", "http://127.0.0.1:8080", "target udpserved base URL")
	workers := flag.Int("workers", 8, "worker pool size (closed-loop concurrency when -rps is 0)")
	rps := flag.Float64("rps", 0, "open-loop target arrival rate (0 = closed loop)")
	duration := flag.Duration("duration", 10*time.Second, "how long to issue requests")
	requests := flag.Int("requests", 0, "stop after this many requests (0 = until -duration)")
	programs := flag.String("programs", "csvpipe=1", "weighted program mix, e.g. csvpipe=3,echo=2")
	engines := flag.String("engines", "", "weighted X-Udp-Engine mix, e.g. auto=3,interp=1 (empty = server default)")
	sizeMin := flag.Int("size-min", 1<<10, "min uncompressed payload bytes")
	sizeMax := flag.Int("size-max", 64<<10, "max uncompressed payload bytes")
	gzipRatio := flag.Float64("gzip", 0, "fraction of requests sent gzip-compressed, in [0,1]")
	retries := flag.Int("retries", 0, "client retry budget on 429/503 (honors Retry-After)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline")
	seed := flag.Int64("seed", 1, "corpus and mix-draw seed")
	reportEvery := flag.Duration("report", 5*time.Second, "live progress interval (0 = quiet until the end)")
	stages := flag.Bool("stages", false, "request per-stage timing trailers and print the stage attribution table")

	// SLO gates for load mode (soak recipes carry their own).
	sloP99 := flag.Float64("slo-p99", 0, "fail if p99 latency exceeds this many ms (0 = unchecked)")
	sloBudget := flag.Float64("slo-error-budget", 0, "fail if the error fraction exceeds this (0 = unchecked)")
	sloAllow := flag.String("slo-allow", "", "comma-separated failure classes the budget tolerates; any other class is a hard failure")
	sloMin := flag.Int("slo-min-requests", 0, "fail if fewer requests finished (guards vacuous passes)")
	sloStageShare := flag.Float64("slo-stage-share", 0,
		"fail if any stage's share of p99-cohort stage time exceeds this fraction (0 = unchecked; implies -stages)")

	jsonOut := flag.Bool("json", false, "print the final report/result as JSON on stdout")
	memStats := flag.Bool("mem-stats", false, "print slab-manager per-class stats to stderr on exit")
	flag.Parse()
	if *memStats {
		defer memsys.Default().Stats().Format(os.Stderr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *recipe != "" {
		code := runSoak(ctx, *recipe, *bin, *jsonOut)
		if *memStats {
			memsys.Default().Stats().Format(os.Stderr)
		}
		os.Exit(code)
	}

	progMix, err := load.ParseMix(*programs)
	if err == nil {
		err = load.CheckPrograms(progMix)
	}
	if err != nil {
		fatalUsage(err)
	}
	engMix, err := load.ParseMix(*engines)
	if err != nil {
		fatalUsage(err)
	}
	allow, err := load.ParseMix(*sloAllow)
	if err != nil {
		fatalUsage(err)
	}

	cfg := load.Config{
		Target:         *addr,
		Workers:        *workers,
		RPS:            *rps,
		Duration:       *duration,
		Requests:       *requests,
		Programs:       progMix,
		Engines:        engMix,
		SizeMin:        *sizeMin,
		SizeMax:        *sizeMax,
		GzipRatio:      *gzipRatio,
		Retries:        *retries,
		RequestTimeout: *timeout,
		Seed:           *seed,
		ReportEvery:    *reportEvery,
		Stages:         *stages || *sloStageShare > 0,
		ReportTo:       os.Stderr,
	}
	rep, err := load.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "udploader:", err)
		os.Exit(1)
	}

	slo := load.SLO{P99Ms: *sloP99, ErrorBudget: *sloBudget, MinRequests: *sloMin, StageShareMax: *sloStageShare}
	for _, m := range allow {
		slo.Allow = append(slo.Allow, m.Name)
	}
	var violations []string
	if *sloP99 > 0 || *sloBudget > 0 || *sloMin > 0 || *sloStageShare > 0 || len(slo.Allow) > 0 {
		violations = slo.Check(rep)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(rep)
	} else {
		fmt.Println(rep.Summary())
		if t := rep.AttributionTable(); t != "" {
			fmt.Print(t)
		}
		if t := rep.SlowestTable(); t != "" {
			fmt.Print(t)
		}
	}
	for _, v := range violations {
		fmt.Fprintln(os.Stderr, "udploader: SLO violation:", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
}

func runSoak(ctx context.Context, path, bin string, jsonOut bool) int {
	rec, err := load.ReadRecipe(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "udploader:", err)
		return 2
	}
	res, err := load.RunSoak(ctx, rec, bin, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "udploader: soak:", err)
		return 1
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(res)
	} else {
		fmt.Println(res.Load.Summary())
		if t := res.Load.AttributionTable(); t != "" {
			fmt.Print(t)
		}
		if t := res.Load.SlowestTable(); t != "" {
			fmt.Print(t)
		}
		fmt.Printf("soak %s: flight recorder captured %d slow requests across %d process generations\n",
			res.Recipe, res.FlightEntries, res.Restarts+1)
		fmt.Printf("soak %s: %d restarts, goroutines %d -> %d, heap %.1f MB -> %.1f MB\n",
			res.Recipe, res.Restarts,
			res.Before.Goroutines, res.After.Goroutines,
			float64(res.Before.HeapAlloc)/1e6, float64(res.After.HeapAlloc)/1e6)
		if a := res.After; a.HeapInuse > 0 {
			fmt.Printf("soak %s: heap-inuse %.1f MB, gc pause p99 %.2f ms, mem pressure level %d (%d transitions, %d sheds)\n",
				res.Recipe, float64(a.HeapInuse)/1e6, a.GCPauseP99Ms,
				a.PressureLevel, a.PressureTransitions, a.PressureSheds)
		}
	}
	if !res.Passed() {
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "udploader: SLO violation:", v)
		}
		return 1
	}
	fmt.Printf("soak %s: PASS\n", res.Recipe)
	return 0
}

func fatalUsage(err error) {
	fmt.Fprintln(os.Stderr, "udploader:", err)
	os.Exit(2)
}
