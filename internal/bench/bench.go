// Package bench produces machine-readable benchmark reports for the bench
// trajectory: an in-process executor benchmark (BENCH_exec.json) and an
// HTTP load benchmark against an in-process udpserved (BENCH_server.json).
// Both stream TPC-H lineitem-like CSV through the pipe-separated CSV
// kernel — the paper's Figure 1 ETL workload — and report host throughput
// plus latency percentiles.
package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"udp"
	"udp/internal/core"
	"udp/internal/etl"
	"udp/internal/kernels/csvparse"
	"udp/internal/kernels/histogram"
	"udp/internal/kernels/jsonparse"
	"udp/internal/kernels/xmlparse"
	"udp/internal/load"
	"udp/internal/memsys"
	"udp/internal/server"
	"udp/internal/workload"
)

// RowsPerScale is the lineitem row count at scale 1.
const RowsPerScale = 20000

// Report is one benchmark result, serialized to BENCH_<name>.json.
type Report struct {
	// Name is "exec" or "server".
	Name string `json:"name"`
	// Scale is the workload multiplier (RowsPerScale rows each).
	Scale int `json:"scale"`
	// Rows is the generated lineitem row count.
	Rows int `json:"rows"`
	// InputBytes is the uncompressed CSV size per pass.
	InputBytes int `json:"input_bytes"`
	// Passes is how many times the input was streamed (server: requests).
	Passes int `json:"passes"`
	// Concurrency is the number of load-generating clients (server only).
	Concurrency int `json:"concurrency,omitempty"`
	// Errors counts failed passes.
	Errors int `json:"errors"`
	// WallSeconds is the host wall-clock for the whole run.
	WallSeconds float64 `json:"wall_seconds"`
	// ThroughputMBps is host-side input MB/s (1e6 bytes) over the run.
	ThroughputMBps float64 `json:"throughput_mbps"`
	// SimulatedMBps is the lane-pool rate at the ASIC clock (exec only).
	SimulatedMBps float64 `json:"simulated_mbps,omitempty"`
	// P50/P90/P99/Max are latency percentiles in milliseconds: per shard
	// for exec, per request for server.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
	// Samples is the latency sample count behind the percentiles.
	Samples int `json:"samples"`
	// AllocsPerRequest is the whole-process heap-allocation count divided
	// by the request count over the run window (server only) — the number
	// the memsys slab path is meant to hold down. Compare gates on it.
	AllocsPerRequest float64 `json:"allocs_per_request,omitempty"`
	// BytesPerRequest is the heap bytes allocated over the same window per
	// request. An object count cannot tell a 16 KiB bank window from a
	// 16-byte header, so Compare gates on both.
	BytesPerRequest float64 `json:"bytes_per_request,omitempty"`
	// GCPauseP99Ms is the p99 stop-the-world GC pause over the run window
	// in milliseconds (server only).
	GCPauseP99Ms float64 `json:"gc_pause_p99_ms,omitempty"`
	// Engine is the execution tier the overall pass actually ran on
	// ("compiled" unless degraded; empty in reports predating the tiered
	// engine).
	Engine string `json:"engine,omitempty"`
	// Kernels breaks the exec benchmark down per builtin kernel (the
	// inputs `make bench-compare` diffs).
	Kernels []KernelReport `json:"kernels,omitempty"`
	// GoVersion and Timestamp pin the environment.
	GoVersion string `json:"go_version"`
	Timestamp string `json:"timestamp"`
}

// KernelReport is one builtin kernel's throughput sample within an exec
// report.
type KernelReport struct {
	// Kernel is the builtin name (echo, csvparse, ...).
	Kernel string `json:"kernel"`
	// Engine is the execution tier the row ran on ("compiled", "decoded",
	// "interp"). Empty in reports predating the tiered engine, whose rows
	// were measured on the then-default decoded path — Compare matches
	// them against new compiled rows, so the diff reads as "production
	// tier now vs production tier then".
	Engine string `json:"engine,omitempty"`
	// InputBytes is the input size streamed through the executor.
	InputBytes int `json:"input_bytes"`
	// WallSeconds is the host wall-clock for the kernel's pass.
	WallSeconds float64 `json:"wall_seconds"`
	// ThroughputMBps is host-side input MB/s (1e6 bytes).
	ThroughputMBps float64 `json:"throughput_mbps"`
	// SimulatedMBps is the lane-pool rate at the ASIC clock.
	SimulatedMBps float64 `json:"simulated_mbps"`
	// P50Ms / P99Ms are per-shard latency percentiles in milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P99Ms float64 `json:"p99_ms"`
}

func newReport(name string, scale int) *Report {
	return &Report{
		Name:      name,
		Scale:     scale,
		GoVersion: runtime.Version(),
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
}

// percentile reads the p-quantile (0..1) from sorted samples.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(p * float64(len(sorted)-1))
	return float64(sorted[idx]) / float64(time.Millisecond)
}

func fillLatencies(r *Report, samples []time.Duration) {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	r.Samples = len(samples)
	r.P50Ms = percentile(samples, 0.50)
	r.P90Ms = percentile(samples, 0.90)
	r.P99Ms = percentile(samples, 0.99)
	if n := len(samples); n > 0 {
		r.MaxMs = float64(samples[n-1]) / float64(time.Millisecond)
	}
}

// Exec benchmarks the in-process streaming executor: lineitem CSV through
// the pipe-CSV kernel with record-aligned shards, on the given engine
// (udp.EngineAuto measures the production default and additionally runs the
// kernel suite on every tier; a specific engine restricts the suite to that
// tier). Latency samples are per-shard wall times from the stats hook.
func Exec(scale int, seed int64, engine udp.Engine) (*Report, error) {
	if scale < 1 {
		scale = 1
	}
	r := newReport("exec", scale)
	r.Rows = RowsPerScale * scale
	data := etl.LineitemCSV(r.Rows, seed)
	r.InputBytes = len(data)

	im, err := udp.Compile(csvparse.BuildProgramSep('|'))
	if err != nil {
		return nil, err
	}
	var samples []time.Duration
	ranOn := engine
	t0 := time.Now()
	res, err := udp.Exec(context.Background(), im, bytes.NewReader(data),
		udp.WithChunker('\n'),
		udp.WithEngine(engine),
		udp.WithStatsHook(func(e udp.ShardEvent) {
			ranOn = e.Engine
			samples = append(samples, e.Wall)
		}),
	)
	if err != nil {
		return nil, err
	}
	r.WallSeconds = time.Since(t0).Seconds()
	r.Passes = 1
	r.ThroughputMBps = float64(r.InputBytes) / 1e6 / r.WallSeconds
	r.SimulatedMBps = res.Rate()
	r.Engine = ranOn.String()
	fillLatencies(r, samples)
	r.Kernels, err = kernelSuite(scale, seed, engine)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// kernelCase is one builtin kernel plus a representative workload — the
// shared unit behind the kernelSuite throughput rows and StateProfile.
type kernelCase struct {
	name   string
	prog   *core.Program
	input  []byte
	sep    byte
	hasSep bool
}

// kernelCases builds the builtin-kernel workload suite at the given scale.
func kernelCases(scale int, seed int64) ([]kernelCase, error) {
	crimes := workload.CrimesCSV(workload.CSVSpec{Name: "crimes", Rows: 10000 * scale, Seed: seed})
	edges := histogram.UniformEdges(16, 0, 1)
	histProg, err := histogram.BuildProgramEmit(edges)
	if err != nil {
		return nil, err
	}
	return []kernelCase{
		{"echo", echoProgram(), workload.Text(workload.TextEnglish, scale<<20, seed), 0, false},
		{"csvparse", csvparse.BuildProgram(), crimes, '\n', true},
		{"csvpipe", csvparse.BuildProgramSep('|'),
			bytes.ReplaceAll(crimes, []byte{','}, []byte{'|'}), '\n', true},
		{"jsonparse", jsonparse.BuildProgram(), workload.JSONRecords(10000*scale, seed), '\n', true},
		{"xmlparse", xmlparse.BuildProgram(),
			bytes.Repeat([]byte(`<row a="1" b='x>y'><v>text &amp; more</v></row>`+"\n"), 10000*scale), '\n', true},
		// The histogram's 8-byte keys need aligned shards; the default
		// fixed-size chunk is a multiple of 8.
		{"histogram16", histProg, histogram.KeyBytes(
			workload.FloatColumn(200000*scale, workload.DistUniform, 0, 1, seed)), 0, false},
	}, nil
}

// kernelEngines are the tiers the suite measures per kernel, fastest first.
var kernelEngines = []udp.Engine{udp.EngineCompiled, udp.EngineDecoded, udp.EngineInterp}

// kernelPasses is how many timed runs back each kernel row; the row reports
// the best pass so scheduler noise doesn't flap the engine gate.
const kernelPasses = 7

// engineGateSlack is the noise band of the compiled-vs-decoded gate: a
// kernel only counts as slower on the compiled tier when it trails decoded
// by more than this factor on BOTH median per-shard latency and best-pass
// throughput. The two metrics fail for different reasons on a shared
// machine (sample-distribution skew vs window luck), so requiring both
// filters jitter; a compiled tier that genuinely regressed or silently
// fell back to a slower path fails both consistently.
const engineGateSlack = 0.9

// kernelSuite streams a representative workload through each builtin server
// kernel on the executor and samples its throughput — one KernelReport per
// kernel per execution tier (or per kernel on just the requested tier when
// only is not udp.EngineAuto). These rows are what `make bench-compare`
// diffs between two BENCH_exec.json files, and what the compiled-vs-decoded
// engine gate checks.
func kernelSuite(scale int, seed int64, only udp.Engine) ([]KernelReport, error) {
	cases, err := kernelCases(scale, seed)
	if err != nil {
		return nil, err
	}
	engines := kernelEngines
	if only != udp.EngineAuto {
		engines = []udp.Engine{only}
	}
	reports := make([]KernelReport, 0, len(cases)*len(engines))
	for _, c := range cases {
		im, err := udp.Compile(c.prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.name, err)
		}
		type engRun struct {
			eng     udp.Engine
			ranOn   udp.Engine
			samples []time.Duration
			wall    float64
			res     *udp.ExecResult
		}
		runs := make([]*engRun, len(engines))
		for i, eng := range engines {
			runs[i] = &engRun{eng: eng, ranOn: eng}
		}
		// Untimed warmup pass per engine: the first run of a kernel pays
		// one-off costs (page faults, predecode/compile caches, pool
		// spin-up) that would otherwise bias whichever engine runs first.
		for _, er := range runs {
			if _, err := udp.Exec(context.Background(), im, bytes.NewReader(c.input), udp.WithEngine(er.eng)); err != nil {
				return nil, fmt.Errorf("%s (%s) warmup: %w", c.name, er.eng, err)
			}
		}
		// Best of kernelPasses timed runs per engine, with the engines
		// interleaved in time: the inputs are small enough (tens of ms)
		// that a run is at the mercy of machine noise, and a load spike
		// lasting longer than one engine's back-to-back passes would
		// penalize that engine alone. Round-robin spreads the spike over
		// every tier; best-of then picks each tier's calm window.
		for pass := 0; pass < kernelPasses; pass++ {
			for _, er := range runs {
				er := er
				opts := []udp.ExecOption{
					udp.WithEngine(er.eng),
					udp.WithStatsHook(func(e udp.ShardEvent) {
						er.ranOn = e.Engine
						er.samples = append(er.samples, e.Wall)
					}),
				}
				if c.hasSep {
					opts = append(opts, udp.WithChunker(c.sep))
				}
				t0 := time.Now()
				pr, err := udp.Exec(context.Background(), im, bytes.NewReader(c.input), opts...)
				if err != nil {
					return nil, fmt.Errorf("%s (%s): %w", c.name, er.eng, err)
				}
				if d := time.Since(t0).Seconds(); er.wall == 0 || d < er.wall {
					er.wall = d
					er.res = pr
				}
			}
		}
		for _, er := range runs {
			sort.Slice(er.samples, func(i, j int) bool { return er.samples[i] < er.samples[j] })
			reports = append(reports, KernelReport{
				Kernel:         c.name,
				Engine:         er.ranOn.String(),
				InputBytes:     len(c.input),
				WallSeconds:    er.wall,
				ThroughputMBps: float64(len(c.input)) / 1e6 / er.wall,
				SimulatedMBps:  er.res.Rate(),
				P50Ms:          percentile(er.samples, 0.50),
				P99Ms:          percentile(er.samples, 0.99),
			})
		}
	}
	return reports, nil
}

// StateProfile runs every builtin kernel once on the executor with the
// automaton profiler attached and renders each kernel's state flame profile
// — ranked hot states, dispatch and action mixes — to w. This is udpbench
// -stateprofile; CI greps the per-kernel summary lines
// ("kernel csvparse: states=N dispatches=M ...").
func StateProfile(scale int, seed int64, top int, w io.Writer) error {
	if scale < 1 {
		scale = 1
	}
	cases, err := kernelCases(scale, seed)
	if err != nil {
		return err
	}
	for _, c := range cases {
		im, err := udp.Compile(c.prog)
		if err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		prof := udp.NewProfile(c.name, im)
		opts := []udp.ExecOption{udp.WithProfile(prof)}
		if c.hasSep {
			opts = append(opts, udp.WithChunker(c.sep))
		}
		if _, err := udp.Exec(context.Background(), im, bytes.NewReader(c.input), opts...); err != nil {
			return fmt.Errorf("%s: %w", c.name, err)
		}
		prof.Snapshot().Render(w, top)
	}
	return nil
}

func echoProgram() *core.Program {
	p := core.NewProgram("echo", 8)
	s := p.AddState("s", core.ModeStream)
	s.Majority(s, core.AOut8(core.RSym))
	return p
}

// Server benchmarks the network path: an in-process udpserved on a loopback
// listener, driven by the internal/load generator (the same engine behind
// cmd/udploader) with concurrency closed-loop workers issuing
// concurrency*passes POST /v1/transform/csvpipe requests. Every response is
// byte-checked against the reference parser, so the reported rate is
// verified-output throughput. reqBytes bounds the per-request body (cut on a
// record boundary; 0 = the full scale-sized corpus per request, the
// pre-loader behavior). Latency samples are per-request wall times.
func Server(scale, concurrency, passes, reqBytes int, seed int64) (*Report, error) {
	if scale < 1 {
		scale = 1
	}
	if concurrency < 1 {
		concurrency = 4
	}
	if passes < 1 {
		passes = 8
	}
	r := newReport("server", scale)
	r.Concurrency = concurrency
	data := etl.LineitemCSV(RowsPerScale*scale, seed)
	body := data
	if reqBytes > 0 && reqBytes < len(data) {
		if idx := bytes.LastIndexByte(data[:reqBytes], '\n'); idx > 0 {
			body = data[:idx+1]
		} else {
			body = data[:reqBytes]
		}
	}
	r.Rows = bytes.Count(body, []byte{'\n'})
	r.InputBytes = len(body)

	srv := server.New(server.Options{MaxInflight: concurrency})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-serveDone
	}()

	want := csvparse.ParseSep(body, '|')
	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	rtBefore := memsys.ReadRuntime()
	rep, err := load.Run(context.Background(), load.Config{
		Target:   "http://" + l.Addr().String(),
		Workers:  concurrency,
		Requests: concurrency * passes,
		Programs: []load.Mix{{Name: "csvpipe", Weight: 1}},
		Seed:     seed,
		Payload:  func(string, int, *rand.Rand) []byte { return body },
		Validate: func(_ string, got []byte) error {
			if !bytes.Equal(got, want) {
				return fmt.Errorf("csvpipe output mismatch: %d bytes, want %d", len(got), len(want))
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	rtAfter := memsys.ReadRuntime()
	if rep.Requests > 0 {
		r.AllocsPerRequest = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(rep.Requests)
		r.BytesPerRequest = float64(msAfter.TotalAlloc-msBefore.TotalAlloc) / float64(rep.Requests)
	}
	r.GCPauseP99Ms = memsys.PauseDeltaQuantile(rtBefore.GCPauses, rtAfter.GCPauses, 0.99) * 1e3
	r.Passes = rep.Requests
	r.Errors = rep.Errors
	r.WallSeconds = rep.DurationSeconds
	r.ThroughputMBps = rep.ThroughputMBps
	r.Samples = rep.Samples
	r.P50Ms = rep.P50Ms
	r.P90Ms = rep.P90Ms
	r.P99Ms = rep.P99Ms
	r.MaxMs = rep.MaxMs
	return r, nil
}

// WriteJSON writes the report to path (pretty-printed, trailing newline).
func WriteJSON(path string, r *Report) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Summary is the one-line human rendering of a report.
func (r *Report) Summary() string {
	s := fmt.Sprintf("%s: scale %d (%d rows, %.1f MB) x %d passes: %.1f MB/s, p50 %.2f ms, p99 %.2f ms, %d errors",
		r.Name, r.Scale, r.Rows, float64(r.InputBytes)/1e6, r.Passes,
		r.ThroughputMBps, r.P50Ms, r.P99Ms, r.Errors)
	if r.AllocsPerRequest > 0 {
		s += fmt.Sprintf(", %.1f allocs/req, %.0f B/req", r.AllocsPerRequest, r.BytesPerRequest)
	}
	return s
}

// ReadJSON loads a report previously written by WriteJSON.
func ReadJSON(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// kernelKey names a row for comparison across reports: the production
// tier ("compiled", or "" in reports predating the tiered engine, which
// measured the then-default path) keys by bare kernel name so the
// production-tier-now vs production-tier-then diff lines up; other tiers
// key as kernel@engine.
func kernelKey(k KernelReport) string {
	if k.Engine == "" || k.Engine == "compiled" {
		return k.Kernel
	}
	return k.Kernel + "@" + k.Engine
}

// Compare renders the per-kernel throughput deltas between two reports
// (typically a committed BENCH_exec.json and a fresh run). Kernels present
// in only one report are shown with a dash; reports predating the kernel
// suite still diff on the overall row. It also enforces the engine gate:
// if the new report carries per-engine rows and any kernel runs slower on
// the compiled tier than on the decoded tier, Compare returns an error
// after printing the table.
func Compare(oldPath, newPath string, w io.Writer) error {
	oldR, err := ReadJSON(oldPath)
	if err != nil {
		return err
	}
	newR, err := ReadJSON(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %12s %12s %9s\n", "kernel", "old MB/s", "new MB/s", "delta")
	row := func(name string, old, new float64) {
		switch {
		case old == 0 && new == 0:
			return
		case old == 0:
			fmt.Fprintf(w, "%-20s %12s %12.1f %9s\n", name, "-", new, "-")
		case new == 0:
			fmt.Fprintf(w, "%-20s %12.1f %12s %9s\n", name, old, "-", "-")
		default:
			fmt.Fprintf(w, "%-20s %12.1f %12.1f %+8.1f%%\n", name, old, new, (new/old-1)*100)
		}
	}
	row("overall", oldR.ThroughputMBps, newR.ThroughputMBps)
	oldK := make(map[string]KernelReport, len(oldR.Kernels))
	for _, k := range oldR.Kernels {
		oldK[kernelKey(k)] = k
	}
	seen := make(map[string]bool, len(newR.Kernels))
	for _, k := range newR.Kernels {
		key := kernelKey(k)
		seen[key] = true
		row(key, oldK[key].ThroughputMBps, k.ThroughputMBps)
	}
	for _, k := range oldR.Kernels {
		if key := kernelKey(k); !seen[key] {
			row(key, k.ThroughputMBps, 0)
		}
	}
	if err := allocGate(oldR, newR, w); err != nil {
		return err
	}
	return engineGate(newR, w)
}

// allocGateSlack is the tolerated growth of allocations per request, by
// count and by bytes, between two server reports: more than +10% fails the
// comparison. Both are near-deterministic (unlike throughput), so the band
// only needs to absorb code-path jitter like pool warmup and GC-triggered
// assists.
const allocGateSlack = 1.10

// allocGate fails the comparison when the new report allocates more than
// allocGateSlack times the old report's objects or bytes per request. A
// field missing from either report (exec reports, or server reports
// predating it) passes vacuously.
func allocGate(oldR, newR *Report, w io.Writer) error {
	for _, g := range []struct {
		unit     string
		old, new float64
	}{
		{"allocs/request", oldR.AllocsPerRequest, newR.AllocsPerRequest},
		{"B/request", oldR.BytesPerRequest, newR.BytesPerRequest},
	} {
		if g.old <= 0 || g.new <= 0 {
			continue
		}
		fmt.Fprintf(w, "%-20s %12.1f %12.1f %+8.1f%%\n", g.unit, g.old, g.new, (g.new/g.old-1)*100)
		if g.new > g.old*allocGateSlack {
			return fmt.Errorf("alloc gate failed: %.1f %s, was %.1f (>%+.0f%%)",
				g.new, g.unit, g.old, (allocGateSlack-1)*100)
		}
	}
	return nil
}

// engineGate fails the comparison when the compiled tier loses to the
// decoded tier on any kernel of the new report — the production default
// must never be the slower choice. A kernel fails only when compiled
// trails decoded beyond engineGateSlack on both median per-shard latency
// and throughput. Reports without per-engine rows (older formats, or runs
// restricted to one engine) pass vacuously.
func engineGate(r *Report, w io.Writer) error {
	byEngine := make(map[string]map[string]KernelReport)
	for _, k := range r.Kernels {
		if k.Engine == "" {
			continue
		}
		m := byEngine[k.Engine]
		if m == nil {
			m = make(map[string]KernelReport)
			byEngine[k.Engine] = m
		}
		m[k.Kernel] = k
	}
	var slow []string
	for kernel, ck := range byEngine["compiled"] {
		dk, ok := byEngine["decoded"][kernel]
		if ok && ck.P50Ms > dk.P50Ms/engineGateSlack && ck.ThroughputMBps < dk.ThroughputMBps*engineGateSlack {
			slow = append(slow, fmt.Sprintf("%s (compiled p50 %.2f ms > decoded %.2f ms, %.1f < %.1f MB/s)",
				kernel, ck.P50Ms, dk.P50Ms, ck.ThroughputMBps, dk.ThroughputMBps))
		}
	}
	if len(slow) == 0 {
		return nil
	}
	sort.Strings(slow)
	fmt.Fprintf(w, "engine gate: compiled tier slower than decoded on: %s\n", strings.Join(slow, ", "))
	return fmt.Errorf("engine gate failed: compiled slower than decoded on %d kernel(s)", len(slow))
}
