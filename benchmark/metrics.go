package main

import (
	"fmt"
	"io"
)

// Workload names are fixed: later issues name their claims with them.
const (
	wlServeSmall  = "serve_small"
	wlServe64k    = "serve_64k"
	wlServeMixed  = "serve_mixed"
	wlBulkKernels = "bulk_kernels"
)

// workloadDef is one benchmark workload and the reason it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{wlServeSmall, "4 KiB csvpipe POSTs over loopback: per-request overhead (client, net/http, server, sched spawn, NewLane) does most of the work, the lane about a fifth; an engine change must not show here"},
	{wlServe64k, "64 KiB csvpipe POSTs (one shard, one lane): the lane does about three quarters of the request, so an engine change shows here and a per-request overhead fix moves it little"},
	{wlServeMixed, "one client streams a gzip'd 8.9 MB lineitem body (64-lane fan-out, framed response) while the others send 4 KiB requests: a change that favours one class by starving the other shows as a loss"},
	{wlBulkKernels, "one caller sweeps udp.Exec over six 1-3 MB corpora, one per builtin automaton, no HTTP: machine+compile do over 90 % of the work, so a dispatch-loop change that helps one shape and hurts another shows"},
}

// kernelNames are the six builtins, in sweep order.
var kernelNames = []string{"echo", "csvparse", "csvpipe", "jsonparse", "xmlparse", "histogram16"}

// engineNames are the three execution tiers of the engine cells.
var engineNames = []string{"compiled", "decoded", "interp"}

// metricDef describes one named metric. BENCHMARK.json carries Name, Unit,
// Better and (end-to-end only) Bound; TestBenchmarkJSONMatchesTables keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	Bound float64
	// AbsBound is an absolute tolerance -repeat accepts as an alternative
	// to Bound, for figures whose median is small next to their noise.
	AbsBound float64
	// Exact marks simulated or structural counts that two runs of the same
	// code must reproduce bit for bit.
	Exact bool
	// Moves says which end-to-end metric this per-layer metric should move
	// and on which workload (written down before measuring).
	Moves string
}

// endToEnd is what a user of the system sees, measured with span recording
// off. It is the list the driver gates on, so every entry is reported on
// every workload, is never zero and repeats within its bound over ten runs;
// the figures of the issue's nine that cannot meet that (latency_p99_ms
// spreads 30-60 %, error_rate is zero on a healthy run, retained_heap_mb is a
// difference that sits near zero) are in perLayer under their own names.
// throughput_mbps and latency_p50_ms are reported at host speed 1 (see
// hostprobe.go).
var endToEnd = []metricDef{
	{Name: "throughput_mbps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.03},
	{Name: "sim_cycles_per_byte", Unit: "cycles/B", Better: "lower", Bound: 0.001, Exact: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, AbsBound: 0.2},
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lower := func(name, unit, moves string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Moves: moves}
	}
	higher := func(name, unit, moves string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "higher", Moves: moves}
	}
	const (
		smallLat    = "latency_p50_ms on serve_small"
		smallAllocs = "allocs_per_op on serve_small"
		smallKB     = "alloc_kb_per_op on serve_small"
		attribution = "attribution of server.added_us"
		mixedTput   = "throughput_mbps on serve_mixed"
		serveHeap   = "alloc_kb_per_op, retained_heap_mb on serve_*"
		serveTail   = "latency_p99_ms on serve_*"
	)
	defs := []metricDef{
		// End-to-end figures of the issue that the driver's list cannot hold.
		{Name: "latency_p99_ms", Unit: "ms", Better: "lower",
			Moves: "end-to-end figure; does not repeat within a quarter on a shared host, so not in the gated list"},
		{Name: "retained_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10, AbsBound: 1,
			Moves: "end-to-end figure; a difference near zero, so not in the gated list"},
		{Name: "error_rate", Unit: "ratio", Better: "lower", Exact: true,
			Moves: "end-to-end figure, bound 0; zero on a healthy run, carried to the driver as failed/attempted"},

		// The ladder: one 4 KiB or 64 KiB csvpipe payload through each layer.
		lower("machine.run_us", "us", "latency_p50_ms, throughput_mbps on serve_64k and bulk_kernels; at most a fifth of serve_small"),
		lower("machine.newlane_us", "us", "latency_p50_ms on serve_small (paid per worker per request today)"),
		lower("machine.newlane_kb", "KiB", "alloc_kb_per_op on serve_* and bulk_kernels"),
		lower("sched.added_us", "us", smallLat+"; no move on bulk_kernels throughput"),
		lower("sched.added_allocs", "count", smallAllocs),
		lower("sched.added_kb", "KiB", smallKB),
		lower("udp.added_us", "us", smallLat),
		lower("udp.added_allocs", "count", smallAllocs),
		lower("udp.added_kb", "KiB", smallKB+" (a 64 KiB chunk buffer for a 4 KiB body)"),
		lower("server.added_us", "us", smallLat),
		lower("server.added_allocs", "count", smallAllocs),
		lower("server.added_kb", "KiB", smallKB),
		lower("obs.added_us", "us", smallLat),
		lower("obs.added_allocs", "count", smallAllocs),
		lower("client.added_us", "us", smallLat+", throughput_mbps on serve_small"),
		lower("client.added_allocs", "count", smallAllocs),
		lower("client.added_kb", "KiB", smallKB),
		lower("client.http_us", "us", "the top rung: equals the sum of the rungs beneath within 10 %"),
		lower("server.stage_admission_us", "us", attribution),
		lower("server.stage_decode_us", "us", attribution),
		lower("server.stage_chunk_us", "us", attribution),
		lower("server.stage_queue_wait_us", "us", attribution),
		lower("server.stage_lane_run_us", "us", attribution),
		lower("server.stage_sink_wait_us", "us", attribution),
		lower("server.stage_write_us", "us", attribution),
		lower("server.stage_other_us", "us", attribution+"; the residue the telemetry item must shrink"),
		lower("server.stage_lane_vs_machine_pct", "%", "cross-check only: outside 90-110 the ladder or the stage clock is wrong"),
	}
	// Engine cells: one warm lane per builtin and tier.
	for _, k := range kernelNames {
		for _, e := range engineNames {
			moves := "no end-to-end metric except through slow-chain fallback (histogram16)"
			if e == "compiled" {
				moves = "throughput_mbps on bulk_kernels"
				if k == "csvpipe" {
					moves += " and serve_64k"
				}
			}
			defs = append(defs, higher("machine."+k+"_"+e+"_mbps", "MB/s", moves))
		}
	}
	for _, k := range kernelNames {
		d := lower("machine."+k+"_sim_cycles_per_byte", "cycles/B", "sim_cycles_per_byte on every workload using "+k)
		d.Exact = true
		defs = append(defs, d)
	}
	exact := func(d metricDef) metricDef { d.Exact = true; return d }
	defs = append(defs,
		exact(higher("compile.fused_chains", "count", "explains the compiled cells; setup_s")),
		exact(lower("compile.slow_chains", "count", "explains compiled = decoded cells (histogram16)")),
		lower("compile.lower_ms", "ms", "setup_s"),
		lower("effclip.layout_ms", "ms", "setup_s"),
		exact(lower("effclip.image_words", "count", "setup_s; machine.newlane_kb")),

		higher("sched.chunk_mbps", "MB/s", "throughput_mbps on bulk_kernels and serve_mixed"),
		higher("sched.lane_scaling", "ratio", "throughput_mbps on bulk_kernels"),
		lower("sched.exec_alloc_kb_per_mb", "KiB/MB", "alloc_kb_per_op on bulk_kernels"),
		lower("udp.sweep_tail_ms", "ms", "tail of bulk_kernels"),

		// serve_mixed, per class, and the large stream alone.
		higher("server.large_mbps", "MB/s", mixedTput),
		higher("server.small_rps", "1/s", "latency_p50_ms on serve_mixed"),
		lower("server.small_p99_inflation", "ratio", "fairness: latency_p99_ms against throughput_mbps on serve_mixed"),
		lower("server.large_decode_us_per_mb", "us/MB", mixedTput),
		lower("server.large_chunk_us_per_mb", "us/MB", mixedTput),
		lower("server.large_queue_wait_us_per_mb", "us/MB", mixedTput),
		lower("server.large_lane_run_us_per_mb", "us/MB", mixedTput),
		lower("server.large_sink_wait_us_per_mb", "us/MB", mixedTput),
		lower("server.large_write_us_per_mb", "us/MB", mixedTput),
		lower("server.large_alloc_kb_per_mb", "KiB/MB", "alloc_kb_per_op on serve_mixed"),

		higher("memsys.hit_ratio", "ratio", serveHeap),
		lower("memsys.gets_per_op", "count", serveHeap),
		lower("memsys.free_mb", "MB", serveHeap),
		lower("runtime.gc_pause_p99_ms", "ms", serveTail),
		lower("runtime.gc_cycles_per_s", "1/s", serveTail),
		lower("runtime.peak_rss_mb", "MB", serveTail+" (per-layer because it does not repeat within a tenth)"),

		lower("bench.trace_overhead_pct", "%", "harness health: cost of recording spans"),
		lower("bench.round_spread_pct", "%", "harness health: how noisy the host was"),
		higher("bench.host_speed", "ratio", "harness health: the host probe's reading over the traced run, 1 at nominal"),
	)
	return defs
}

// stageMetricNames maps obs.Stage order to the stage metric suffixes.
var stageMetricNames = []string{"admission", "decode", "chunk", "queue_wait", "lane_run", "sink_wait", "write"}

// metricValue is one reported figure, in the driver's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the reported metric set from measured values: exactly the
// names in defs, each with its unit. A name the run did not measure is a bug
// in the benchmark, reported as an error rather than as a silent zero.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}

// printMetrics writes one line per metric: name, value, unit, direction and
// either its regression bound or what it should move.
func printMetrics(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			continue
		}
		note := d.Moves
		if d.Bound > 0 {
			note = fmt.Sprintf("bound %.4g %%", d.Bound*100)
			if d.AbsBound > 0 {
				note += fmt.Sprintf(" or %.4g %s", d.AbsBound, d.Unit)
			}
		}
		if d.Exact {
			note += " [exact]"
		}
		fmt.Fprintf(w, "  %-40s %14.6g %-8s %-6s %s\n", d.Name, v, d.Unit, d.Better, note)
	}
}
