// Command udpbench regenerates the paper's tables and figures, and prints
// the builtin kernels' automaton state profiles. Host throughput is measured
// by the repository benchmark, go run ./benchmark.
//
// Usage:
//
//	udpbench -exp fig13            # one experiment
//	udpbench -exp fig21,fig22     # several
//	udpbench -exp all -scale 4    # everything, larger datasets
//	udpbench -list                 # show experiment ids
//	udpbench -stateprofile         # automaton state profiles per kernel
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"

	"udp/internal/experiments"
	"udp/internal/memsys"
	"udp/internal/obs"
)

func main() {
	exp := flag.String("exp", "all", "experiment id(s), comma separated, or 'all'")
	scale := flag.Int("scale", 1, "workload scale multiplier")
	seed := flag.Int64("seed", 20170101, "generator seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	outPath := flag.String("o", "", "also write the tables to this file")
	stateprofile := flag.Bool("stateprofile", false,
		"run every builtin kernel with the automaton profiler and print each state flame profile")
	top := flag.Int("top", 10, "stateprofile: hot-state and action rows per kernel")
	memStats := flag.Bool("mem-stats", false, "print slab-manager per-class stats to stderr on exit")
	logSpec := flag.String("log", "", obs.LogFlagUsage)
	flag.Parse()
	if *memStats {
		defer memsys.Default().Stats().Format(os.Stderr)
	}

	logger, err := obs.NewLogger(os.Stderr, *logSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "udpbench:", err)
		os.Exit(2)
	}
	slog.SetDefault(logger)

	if *stateprofile {
		if err := stateProfile(*scale, *seed, *top, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "udpbench:", err)
			os.Exit(1)
		}
		return
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "udpbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		out = io.MultiWriter(os.Stdout, f)
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed}
	failed := false
	for _, id := range ids {
		tbl, err := experiments.Run(strings.TrimSpace(id), cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "udpbench: %s: %v\n", id, err)
			failed = true
			continue
		}
		tbl.Render(out)
	}
	if failed {
		os.Exit(1)
	}
}
