// Command benchmark is the repo's single benchmark: four workloads with
// byte-verified outputs, the end-to-end metrics a user of the system sees,
// and a separate traced run that times the calls into each layer (machine,
// sched, udp, server, client) from outside. See README.md in this directory
// for the metric glossary and how to read the output.
//
//	go run ./benchmark                       # every workload, both runs
//	go run ./benchmark -repeat 2             # two sets, compared
//	go run ./benchmark --workload serve_small --seed 7 --seconds 20 --trace 0
//
// With -workload and -trace both given it runs one measurement and prints a
// JSON object as its last line; otherwise it re-executes itself once per
// workload and run, so that set-up time, retained heap and the slab manager
// are per workload.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// processStart is as close to process start as a Go program gets to read:
// setup_s counts from here.
var processStart = time.Now()

const (
	defaultSeed         = 20170101
	defaultRounds       = 20
	defaultRoundSeconds = 2.0
	defaultMinSetups    = 3
	defaultMaxSetups    = 200
	// defaultOut is inside the build directory the driver sets aside, which
	// .gitignore names: traces never land among the repo's files.
	defaultOut = ".bench_build/out"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload: serve_small, serve_64k, serve_mixed or bulk_kernels (default all)")
	seed := fs.Int64("seed", defaultSeed, "seed of every input generator")
	rounds := fs.Int("rounds", defaultRounds, "timed rounds per workload; throughput and latency are the better quartile over rounds")
	roundSeconds := fs.Float64("round-seconds", defaultRoundSeconds, "length of one timed round")
	seconds := fs.Float64("seconds", 0, "total timed seconds, split over the rounds (overrides -round-seconds)")
	trace := fs.Int("trace", -1, "0: end-to-end run, spans off; 1: traced per-layer run (default both, in turn)")
	out := fs.String("out", defaultOut, "directory for trace.json and results.json")
	repeat := fs.Int("repeat", 1, "run this many complete sets and compare the first two")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *rounds < 1 || *roundSeconds <= 0 || *seconds < 0 || *repeat < 1 || *trace < -1 || *trace > 1 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "benchmark: bad flag value")
		fs.Usage()
		return 2
	}
	if *seconds > 0 {
		*roundSeconds = *seconds / float64(*rounds)
	}
	cfg := config{
		workload: *workload, seed: *seed, rounds: *rounds, roundSeconds: *roundSeconds,
		trace: *trace == 1, outDir: *out, minSetups: defaultMinSetups, maxSetups: defaultMaxSetups,
		largeRows: defaultLargeRows, kernelRows: defaultKernelRows,
	}
	if *workload != "" && *trace >= 0 {
		res, err := runOne(ctx, cfg, processStart, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return 1
		}
		return 0
	}
	if err := runSets(ctx, cfg, *repeat, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runOne performs one measurement of one workload in this process and
// prints what it measured, metric by metric, to w. started is when set-up
// began counting.
func runOne(ctx context.Context, cfg config, started time.Time, w io.Writer) (*result, error) {
	if _, err := needsFor(cfg); err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "workload %s trace=%v seed=%d rounds=%d round_seconds=%g clients=%d nproc=%d GOMAXPROCS=%d %s\n",
		cfg.workload, cfg.trace, cfg.seed, cfg.rounds, cfg.roundSeconds, clientCount(),
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if cfg.trace {
		return reportTraced(ctx, cfg, w)
	}
	return reportEndToEnd(ctx, cfg, started, w)
}

func reportTraced(ctx context.Context, cfg config, w io.Writer) (*result, error) {
	t, err := runTraced(ctx, cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "corpus_sha256 %s\n", t.e.corpusSHA)
	for _, line := range t.info {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "trace written to %s\n", filepath.Join(cfg.outDir, cfg.workload, "trace.json"))
	printMetrics(w, perLayer, t.values)
	if t.firstErr != nil {
		fmt.Fprintln(w, "first failure:", t.firstErr)
	}
	metrics, err := fill(perLayer, t.values)
	if err != nil {
		return nil, err
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}, nil
}

// setupBudget is how long set-up is repeated for (within the config's
// minSetups and maxSetups): setup_s is the median, and a set-up of ten
// milliseconds is not to be reported from three samples.
const setupBudget = 1500 * time.Millisecond

// reportEndToEnd sets up, runs the timed rounds with span recording off and
// reduces them to the end-to-end metrics.
func reportEndToEnd(ctx context.Context, cfg config, started time.Time, w io.Writer) (*result, error) {
	var e *env
	var setupS []float64
	var spent float64
	for i := 0; i < cfg.minSetups || (i < cfg.maxSetups && spent < setupBudget.Seconds()); i++ {
		if e != nil {
			e.close()
			started = time.Now()
		}
		var err error
		if e, err = setUp(ctx, cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(started).Seconds())
		spent += setupS[i]
	}
	defer e.close()
	fmt.Fprintf(w, "corpus_sha256 %s\n", e.corpusSHA)

	probe, err := newHostProbe(e.clients)
	if err != nil {
		return nil, err
	}
	defer probe.close()
	d := time.Duration(cfg.roundSeconds * float64(time.Second))
	class := latencyClass(e, cfg.workload)
	var rounds []*roundResult
	for i := 0; i < cfg.rounds; i++ {
		if err := probe.sample(); err != nil {
			return nil, err
		}
		r := e.round(ctx, cfg.workload, d, nil, nil)
		rounds = append(rounds, r)
		fmt.Fprintf(w, "round %d: %.3f s, %d ops, %d failed, raw throughput %.6g MB/s, raw p50 %.6g ms; probe before it: hop %.4g ns, round trip %.4g us\n",
			i+1, r.wall.Seconds(), r.ops(), r.failed, r.throughputMBps(), median(r.latMS[class]), probe.hopNS[i], probe.pingUS[i])
	}
	speed := probe.hostSpeed()
	sum := summarize(rounds, class)
	if cfg.workload == wlServeMixed {
		r := e.serveRound(ctx, e.servePlan(wlServeMixed), 0, fixedMix, nil)
		sum.attempted += r.attempted
		sum.failed += r.failed
		if sum.firstErr == nil {
			sum.firstErr = r.firstErr
		}
		if n := r.ops(); n > 0 {
			sum.allocsPerOp = float64(r.mallocs) / float64(n)
			sum.allocKBPerOp = float64(r.allocBytes) / 1024 / float64(n)
		}
		fmt.Fprintf(w, "fixed-mix pass: %d large + %d small ops for allocs_per_op and alloc_kb_per_op\n",
			r.opsByClass["large"], r.opsByClass["small"])
	}
	values := map[string]float64{
		"throughput_mbps":     sum.throughput / speed,
		"latency_p50_ms":      sum.p50 * speed,
		"allocs_per_op":       sum.allocsPerOp,
		"alloc_kb_per_op":     sum.allocKBPerOp,
		"sim_cycles_per_byte": simCyclesPerByte(e.distinct()),
		"setup_s":             median(setupS),
	}
	fmt.Fprintf(w, "host speed %.4g (hop %.4g ns, round trip %.4g us): raw throughput %.6g MB/s and raw p50 %.6g ms are reported at host speed 1\n",
		speed, median(probe.hopNS), median(probe.pingUS), sum.throughput, sum.p50)
	fmt.Fprintf(w, "setup_s is the median of %d set-ups (the first, from process start, took %.4g s)\n", len(setupS), setupS[0])
	printMetrics(w, endToEnd, values)
	// The end-to-end figures the gated list cannot hold (see metrics.go); the
	// traced run reports them to the driver under the same names.
	extra := func(name string, v float64, unit string) {
		fmt.Fprintf(w, "  %-40s %14.6g %-8s lower\n", name, v, unit)
	}
	extra(fmt.Sprintf("latency_p99_ms (p%.4g, %s class)", sum.tailPct*100, class), sum.tail, "ms")
	extra("retained_heap_mb", (float64(heapAfterGC())-float64(e.heapBase))/1e6, "MB")
	extra("error_rate", float64(sum.failed)/float64(max(sum.attempted, 1)), "ratio")
	if sum.firstErr != nil {
		fmt.Fprintln(w, "first failure:", sum.firstErr)
	}
	metrics, err := fill(endToEnd, values)
	if err != nil {
		return nil, err
	}
	return &result{Correct: sum.failed == 0, Attempted: sum.attempted, Failed: sum.failed, Metrics: metrics}, nil
}

// set is one complete pass over the workloads: for each, the end-to-end run
// and the traced run, each in its own child process.
type set map[string]map[string]metricValue // workload -> metric -> value

func runSets(ctx context.Context, cfg config, repeat int, stdout, stderr io.Writer) error {
	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, wl := range workloads {
			names = append(names, wl.Name)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var sets []set
	healthy := true
	for i := 0; i < repeat; i++ {
		s := set{}
		for _, name := range names {
			s[name] = map[string]metricValue{}
			for trace := 0; trace <= 1; trace++ {
				fmt.Fprintf(stdout, "\n== set %d: %s, trace %d ==\n", i+1, name, trace)
				res, err := runChild(ctx, exe, cfg, name, trace, stdout, stderr)
				if err != nil {
					return fmt.Errorf("%s trace %d: %w", name, trace, err)
				}
				healthy = healthy && res.Correct
				for k, v := range res.Metrics {
					s[name][k] = v
				}
			}
		}
		sets = append(sets, s)
	}
	if err := writeResults(cfg, sets); err != nil {
		return err
	}
	if !healthy {
		return fmt.Errorf("error_rate is above 0: see the failures above")
	}
	if repeat >= 2 {
		return compareSets(stdout, names, sets[0], sets[1])
	}
	return nil
}

// runChild re-executes the benchmark for one workload and run, passes its
// report through and decodes the JSON object on its last line.
func runChild(ctx context.Context, exe string, cfg config, name string, trace int, stdout, stderr io.Writer) (*result, error) {
	cmd := exec.CommandContext(ctx, exe,
		"-workload", name, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-rounds", strconv.Itoa(cfg.rounds),
		"-round-seconds", strconv.FormatFloat(cfg.roundSeconds, 'g', -1, 64),
		"-out", cfg.outDir)
	cmd.Stderr = stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		if last != "" {
			fmt.Fprintln(stdout, last)
		}
		last = sc.Text()
	}
	waitErr := cmd.Wait()
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		if waitErr != nil {
			return nil, waitErr
		}
		return nil, fmt.Errorf("no result on the last line: %w", err)
	}
	return &res, nil
}

// resultsFile is the shape of results.json (and of the committed
// baseline.json).
type resultsFile struct {
	Seed         int64   `json:"seed"`
	Rounds       int     `json:"rounds"`
	RoundSeconds float64 `json:"round_seconds"`
	NProc        int     `json:"nproc"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	GoVersion    string  `json:"go_version"`
	Sets         []set   `json:"sets"`
}

func writeResults(cfg config, sets []set) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(resultsFile{
		Seed: cfg.seed, Rounds: cfg.rounds, RoundSeconds: cfg.roundSeconds,
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Sets: sets,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(cfg.outDir, "results.json"), append(data, '\n'), 0o644)
}

// compareSets prints, per metric and workload, how far the second set is
// from the first beside the metric's bound, and fails when an end-to-end
// pair is outside its bound or an exact metric differs at all.
func compareSets(w io.Writer, names []string, a, b set) error {
	bad := 0
	fmt.Fprintf(w, "\n== two sets of the same code ==\n%-14s %-40s %14s %14s %9s  %s\n",
		"workload", "metric", "first", "second", "worse by", "bound")
	for _, name := range names {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, vb := a[name][d.Name].Value, b[name][d.Name].Value
				worse := worseBy(d, va, vb)
				verdict, bound := "", "-"
				switch {
				case d.Exact:
					bound = "exact"
					if va != vb {
						verdict = "  DIFFERS"
						bad++
					}
				case d.Bound > 0:
					bound = fmt.Sprintf("%.4g %%", d.Bound*100)
					if worse > d.Bound && !(d.AbsBound > 0 && math.Abs(va-vb) <= d.AbsBound) {
						verdict = "  OUTSIDE"
						bad++
					}
				}
				fmt.Fprintf(w, "%-14s %-40s %14.6g %14.6g %8.2f%%  %s%s\n", name, d.Name, va, vb, worse*100, bound, verdict)
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d metric pairs disagree beyond their bound", bad)
	}
	return nil
}

// worseBy is how much worse second is than first as a share of first, in
// the metric's own direction (negative when second is better).
func worseBy(d metricDef, first, second float64) float64 {
	if first == 0 {
		return 0
	}
	rel := (second - first) / first
	if first < 0 {
		rel = -rel
	}
	if d.Better == "higher" {
		return -rel
	}
	return rel
}
