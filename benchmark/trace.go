package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"udp"
	"udp/internal/client"
	"udp/internal/machine"
	"udp/internal/memsys"
	"udp/internal/obs"
	"udp/internal/sched"
	"udp/internal/server"
)

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, which is how the end-to-end rounds run with tracing off.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	next  int
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// newTrace returns an identifier for the spans of one op.
func (l *spanLog) newTrace() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) add(trace int, name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{
		Trace: trace, Name: name, Parent: parent,
		Start: int64(start.Sub(l.epoch)), End: int64(end.Sub(l.epoch)),
	})
	l.mu.Unlock()
}

// op records a one-span trace: a whole client op or sweep.
func (l *spanLog) op(name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.add(l.newTrace(), name, "", start, end)
}

// The shares of the traced run's time budget. They sum to a little under
// one; the allocation batches and set-up come on top.
const (
	shareWindow = 0.15 // the workload itself, spans on
	shareSmall  = 0.04 // serve_small clients alone (p99 base of the inflation)
	shareMixed  = 0.10 // serve_mixed clients, per class
	shareLarge  = 0.05 // the gzip stream alone, stage trailers on
	shareSweeps = 0.10 // udp.Exec sweeps (skipped when they are the window)
	shareBare   = 0.02 // untraced concurrency-1 client ops (span overhead base)
	shareLadder = 0.25
	shareCells  = 0.25
	shareChunk  = 0.02
)

// Ladder iteration floors and batch sizes at a full-length (40 s) traced
// run; shorter budgets scale them down.
const (
	fullBudgetSeconds = 40
	minIter4k         = 3000
	minIter64k        = 1500
	allocBatchOps     = 200
	newLaneOps        = 200
	execAllocOps      = 5
	minSweeps         = 12
)

// traced is one traced run: span recording on, every layer timed from
// outside through its public functions. End-to-end figures never come from
// here.
type traced struct {
	e      *env
	cfg    config
	spans  *spanLog
	values map[string]float64
	info   []string
	scale  float64

	attempted, failed int
	firstErr          error
}

func (t *traced) share(s float64) time.Duration {
	return time.Duration(s * t.cfg.seconds() * float64(time.Second))
}

func (t *traced) scaled(n int) int {
	if v := int(float64(n) * t.scale); v > 1 {
		return v
	}
	return 1
}

func (t *traced) notef(format string, args ...any) {
	t.info = append(t.info, fmt.Sprintf(format, args...))
}

func (t *traced) count(r *roundResult) {
	t.attempted += r.attempted
	t.failed += r.failed
	if t.firstErr == nil {
		t.firstErr = r.firstErr
	}
}

// runTraced measures the per-layer metrics for cfg.workload.
func runTraced(ctx context.Context, cfg config) (*traced, error) {
	e, err := setUp(ctx, cfg)
	if err != nil {
		return nil, err
	}
	defer e.close()
	t := &traced{e: e, cfg: cfg, spans: newSpanLog(), values: map[string]float64{}}
	t.scale = cfg.seconds() / fullBudgetSeconds
	if t.scale > 1 {
		t.scale = 1
	}

	execMS := map[string][]float64{}
	sweepMS, err := t.window(ctx, execMS)
	if err != nil {
		return nil, err
	}
	if err := t.classes(ctx); err != nil {
		return nil, err
	}
	if cfg.workload != wlBulkKernels {
		// Sweeps from one caller, as in bulk_kernels, for the sweep tail
		// and the csvpipe Exec rate behind sched.lane_scaling.
		r := e.bulkRound(ctx, t.share(shareSweeps), minSweeps, execMS, t.spans)
		t.count(r)
		sweepMS = r.latMS["sweep"]
	}
	tail, pct, _ := tailPercentile(sortedCopy(sweepMS), 0.99)
	t.values["udp.sweep_tail_ms"] = tail
	t.notef("udp.sweep_tail_ms is p%.1f of %d sweeps", pct*100, len(sweepMS))

	ladderPayload := e.lineitem["small"]
	minIter := minIter4k
	if cfg.workload == wlServe64k || cfg.workload == wlBulkKernels {
		// bulk_kernels has no request; its ladder runs one default-size
		// shard, the unit its lanes execute.
		ladderPayload, minIter = e.lineitem["64k"], minIter64k
	}
	if err := t.ladder(ctx, ladderPayload, t.share(shareLadder), t.scaled(minIter)); err != nil {
		return nil, err
	}
	if err := t.cells(t.share(shareCells)); err != nil {
		return nil, err
	}
	t.compileAndChunk(ctx, execMS)

	t.values["runtime.peak_rss_mb"] = peakRSSMB()
	t.values["error_rate"] = float64(t.failed) / float64(t.attempted)
	if err := t.writeTrace(); err != nil {
		return nil, err
	}
	return t, nil
}

// window runs the workload itself with span recording on and reads the
// slab manager and the runtime around it. It returns the sweep latencies
// when the workload is bulk_kernels.
func (t *traced) window(ctx context.Context, execMS map[string][]float64) ([]float64, error) {
	e, cfg := t.e, t.cfg
	d := t.share(shareWindow) / time.Duration(cfg.rounds)
	probe, err := newHostProbe(e.clients)
	if err != nil {
		return nil, err
	}
	defer probe.close()
	memBefore, rtBefore := memsys.Default().Stats(), memsys.ReadRuntime()
	var wall time.Duration
	var rounds []*roundResult
	for i := 0; i < cfg.rounds; i++ {
		if err := probe.sample(); err != nil {
			return nil, err
		}
		r := e.round(ctx, cfg.workload, d, execMS, t.spans)
		t.count(r)
		rounds = append(rounds, r)
		wall += r.wall
	}
	memAfter, rtAfter := memsys.Default().Stats(), memsys.ReadRuntime()
	t.values["bench.host_speed"] = probe.hostSpeed()

	sum := summarize(rounds, latencyClass(e, cfg.workload))
	var gets, hits uint64
	var free int64
	for i := range memAfter.Classes {
		gets += memAfter.Classes[i].Gets - memBefore.Classes[i].Gets
		hits += memAfter.Classes[i].Hits - memBefore.Classes[i].Hits
		free += memAfter.Classes[i].FreeBytes
	}
	ops := sum.attempted - sum.failed
	if gets > 0 {
		t.values["memsys.hit_ratio"] = float64(hits) / float64(gets)
	} else {
		t.values["memsys.hit_ratio"] = 0
	}
	if ops > 0 {
		t.values["memsys.gets_per_op"] = float64(gets) / float64(ops)
	} else {
		t.values["memsys.gets_per_op"] = 0
	}
	t.values["memsys.free_mb"] = float64(free) / 1e6
	t.values["runtime.gc_pause_p99_ms"] = memsys.PauseDeltaQuantile(rtBefore.GCPauses, rtAfter.GCPauses, 0.99) * 1e3
	t.values["runtime.gc_cycles_per_s"] = float64(rtAfter.GCCycles-rtBefore.GCCycles) / wall.Seconds()
	t.values["bench.round_spread_pct"] = 100 * spreadOverMedian(sum.perRoundThroughput)
	t.values["latency_p99_ms"] = sum.tail
	t.values["retained_heap_mb"] = (float64(heapAfterGC()) - float64(e.heapBase)) / 1e6
	t.notef("window: %d rounds of %.2f s, %d ops, throughput_mbps %.4g, latency_p50_ms %.4g",
		cfg.rounds, d.Seconds(), ops, sum.throughput, sum.p50)

	var sweepMS []float64
	for _, r := range rounds {
		sweepMS = append(sweepMS, r.latMS["sweep"]...)
	}
	return sweepMS, nil
}

// classes measures serve_mixed per class (against serve_small's clients
// alone) and the large gzip stream alone with the server's stage clock.
func (t *traced) classes(ctx context.Context) error {
	e := t.e
	p99 := func(r *roundResult, class string) float64 {
		v, _, _ := tailPercentile(sortedCopy(r.latMS[class]), 0.99)
		return v
	}
	alone := e.serveRound(ctx, e.servePlan(wlServeSmall), t.share(shareSmall), nil, t.spans)
	t.count(alone)
	mixed := e.serveRound(ctx, e.servePlan(wlServeMixed), t.share(shareMixed), nil, t.spans)
	t.count(mixed)
	large := e.lineitem["large"]
	t.values["server.large_mbps"] = float64(mixed.opsByClass["large"]) * float64(len(large.data)) / 1e6 / mixed.wall.Seconds()
	t.values["server.small_rps"] = float64(mixed.opsByClass["small"]) / mixed.wall.Seconds()
	if base := p99(alone, "small"); base > 0 {
		t.values["server.small_p99_inflation"] = p99(mixed, "small") / base
	} else {
		t.values["server.small_p99_inflation"] = 0
	}

	// The stream alone: one client, stage trailers on.
	mb := float64(len(large.data)) / 1e6
	var stages client.Stages
	opts := []client.TransformOption{client.WithGzippedBody(), client.WithStages(&stages)}
	perMB := make([][]float64, obs.NumStages)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(t.share(shareLarge))
	ops := 0
	for ops < 2 || time.Now().Before(deadline) {
		t0 := time.Now()
		out, err := e.streamCl.TransformBytes(ctx, large.program, large.gz, opts...)
		t.attempted++
		if err == nil && !bytes.Equal(out, large.ref) {
			err = errWrongOutput
		}
		if err == nil && !stages.OK {
			err = fmt.Errorf("no stage trailers")
		}
		if err != nil {
			t.failed++
			return fmt.Errorf("large stream alone: %w", err)
		}
		t.spans.op("client:large", t0, time.Now())
		for st := range perMB {
			perMB[st] = append(perMB[st], float64(stages.NS[st])/1e3/mb)
		}
		ops++
	}
	runtime.ReadMemStats(&after)
	for st, name := range stageMetricNames {
		if name == "admission" {
			continue // a per-request cost, not a per-megabyte one
		}
		t.values["server.large_"+name+"_us_per_mb"] = median(perMB[st])
	}
	t.values["server.large_alloc_kb_per_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / (mb * float64(ops))
	return nil
}

// rungOp is the private state of one call of one rung: what must exist
// before the timed call and what the check reads after it.
type rungOp struct {
	req  *http.Request
	rec  *httptest.ResponseRecorder
	out  []byte
	outs [][]byte
}

// rung is one layer of the ladder. prep and check run outside the timed
// span; call is the call into the layer's public function.
type rung struct {
	name, parent string
	prep         func() *rungOp
	call         func(*rungOp) error
	check        func(*rungOp) error
}

// Span names of the ladder. rungBare is the handler without tracer and
// flight recorder; it has no parent, so it takes no part in the self times.
const (
	rungMachine = "machine"
	rungSched   = "sched"
	rungUDP     = "udp"
	rungBare    = "server.bare"
	rungServer  = "server"
	rungClient  = "client"
)

func (t *traced) rungs(ctx context.Context, p *payload) ([]rung, error) {
	lane, err := machine.NewLane(p.img, 0)
	if err != nil {
		return nil, err
	}
	lane.SetEngine(machine.EngineCompiled)
	opts, err := productionOptions()
	if err != nil {
		return nil, err
	}
	opts.Tracer, opts.Flight = nil, nil
	bare := server.New(opts).Handler()
	prod := t.e.srv.Handler()

	plain := func() *rungOp { return &rungOp{} }
	wantOut := func(o *rungOp) error {
		if !bytes.Equal(o.out, p.ref) {
			return errWrongOutput
		}
		return nil
	}
	wantOuts := func(o *rungOp) error {
		if !outputsEqual(o.outs, p.ref) {
			return errWrongOutput
		}
		return nil
	}
	httpPrep := func() *rungOp {
		req := httptest.NewRequest(http.MethodPost, "/v1/transform/"+p.program, bytes.NewReader(p.data))
		req.Header.Set(obs.StagesHeader, "1")
		rec := httptest.NewRecorder()
		// Room for the whole reply, so the recorder (the stand-in for the
		// network) does not grow its buffer inside the span.
		rec.Body = bytes.NewBuffer(make([]byte, 0, len(p.ref)+1024))
		return &rungOp{req: req, rec: rec}
	}
	httpCheck := func(o *rungOp) error {
		if o.rec.Code != http.StatusOK {
			return fmt.Errorf("status %d", o.rec.Code)
		}
		o.out = o.rec.Body.Bytes()
		return wantOut(o)
	}
	return []rung{
		{rungMachine, rungSched, plain, func(o *rungOp) error {
			lane.Reset()
			lane.SetInput(p.data)
			err := lane.Run(0)
			o.out = lane.Output()
			return err
		}, wantOut},
		{rungSched, rungUDP, plain, func(o *rungOp) error {
			res, err := sched.Run(ctx, p.img, sched.Slice([][]byte{p.data}), sched.Config{})
			if err == nil {
				o.outs = res.Outputs
			}
			return err
		}, wantOuts},
		{rungUDP, rungServer, plain, func(o *rungOp) error {
			res, err := udp.Exec(ctx, p.img, bytes.NewReader(p.data), udp.WithChunker(p.sep))
			if err == nil {
				o.outs = res.Outputs
			}
			return err
		}, wantOuts},
		{rungBare, "", httpPrep, func(o *rungOp) error { bare.ServeHTTP(o.rec, o.req); return nil }, httpCheck},
		{rungServer, rungClient, httpPrep, func(o *rungOp) error { prod.ServeHTTP(o.rec, o.req); return nil }, httpCheck},
		{rungClient, "", plain, func(o *rungOp) error {
			var err error
			o.out, err = t.e.cl.TransformBytes(ctx, p.program, p.data)
			return err
		}, wantOut},
	}, nil
}

// ladder calls the rungs back to back on one payload, iteration after
// iteration at concurrency 1, and derives each layer's self time from the
// paired differences.
func (t *traced) ladder(ctx context.Context, p *payload, budget time.Duration, minIter int) error {
	rungs, err := t.rungs(ctx, p)
	if err != nil {
		return err
	}
	fail := func(r rung, err error) error {
		t.failed++
		return fmt.Errorf("ladder rung %s: %w", r.name, err)
	}

	// Untraced base for the span overhead: the top rung alone.
	var bareUS []float64
	top := rungs[len(rungs)-1]
	for deadline := time.Now().Add(t.share(shareBare)); len(bareUS) < 10 || time.Now().Before(deadline); {
		o := top.prep()
		t0 := time.Now()
		err := top.call(o)
		dt := time.Since(t0)
		t.attempted++
		if err == nil {
			err = top.check(o)
		}
		if err != nil {
			return fail(top, err)
		}
		bareUS = append(bareUS, float64(dt)/1e3)
	}

	var spans []span
	dur := map[string][]float64{}
	stageUS := make([][]float64, obs.NumStages)
	var otherUS []float64
	deadline := time.Now().Add(budget)
	for k := 0; k < minIter || time.Now().Before(deadline); k++ {
		trace := t.spans.newTrace()
		for _, r := range rungs {
			o := r.prep()
			t0 := time.Now()
			err := r.call(o)
			t1 := time.Now()
			t.attempted++
			if err == nil {
				err = r.check(o)
			}
			if err != nil {
				return fail(r, err)
			}
			spans = append(spans, span{Trace: trace, Name: r.name, Parent: r.parent,
				Start: int64(t0.Sub(t.spans.epoch)), End: int64(t1.Sub(t.spans.epoch))})
			dur[r.name] = append(dur[r.name], float64(t1.Sub(t0)))
			if r.name != rungServer {
				continue
			}
			// The server's own stage clock, read through the trailers it
			// sets on the response header map.
			var sum float64
			for st := obs.Stage(0); st < obs.NumStages; st++ {
				ns, err := strconv.ParseInt(o.rec.Header().Get(obs.StageTrailer(st)), 10, 64)
				if err != nil {
					return fail(r, fmt.Errorf("stage trailer %s: %w", st, err))
				}
				stageUS[st] = append(stageUS[st], float64(ns)/1e3)
				sum += float64(ns)
			}
			otherUS = append(otherUS, (float64(t1.Sub(t0))-sum)/1e3)
		}
	}
	t.spans.mu.Lock()
	t.spans.spans = append(t.spans.spans, spans...)
	t.spans.mu.Unlock()

	self := selfTimes(spans)
	us := func(ns []float64) float64 { return median(ns) / 1e3 }
	v := t.values
	v["machine.run_us"] = us(self[rungMachine])
	v["sched.added_us"] = us(self[rungSched])
	v["udp.added_us"] = us(self[rungUDP])
	v["server.added_us"] = us(self[rungServer])
	v["client.added_us"] = us(self[rungClient])
	v["client.http_us"] = us(dur[rungClient])
	v["obs.added_us"] = pairedDiffMedian(dur[rungServer], dur[rungBare]) / 1e3
	for st, name := range stageMetricNames {
		v["server.stage_"+name+"_us"] = median(stageUS[st])
	}
	v["server.stage_other_us"] = median(otherUS)
	if v["machine.run_us"] > 0 {
		v["server.stage_lane_vs_machine_pct"] = 100 * v["server.stage_lane_run_us"] / v["machine.run_us"]
	}
	if base := median(bareUS); base > 0 {
		v["bench.trace_overhead_pct"] = 100 * (v["client.http_us"] - base) / base
	}
	sum := v["machine.run_us"] + v["sched.added_us"] + v["udp.added_us"] + v["server.added_us"] + v["client.added_us"]
	t.notef("ladder: %d iterations on the %s payload (%d bytes); rungs sum to %.1f us, client.http_us is %.1f us (%.1f %% apart)",
		len(dur[rungClient]), p.name, len(p.data), sum, v["client.http_us"], 100*(sum-v["client.http_us"])/v["client.http_us"])

	// Allocation counts come from a separate batch per rung: ReadMemStats
	// stops the world and must never sit inside a timed span.
	n := t.scaled(allocBatchOps)
	allocs, kb := map[string]float64{}, map[string]float64{}
	for _, r := range rungs {
		ops := make([]*rungOp, n)
		for i := range ops {
			ops[i] = r.prep()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, o := range ops {
			if err := r.call(o); err != nil {
				return fail(r, err)
			}
		}
		runtime.ReadMemStats(&after)
		t.attempted += n
		if err := r.check(ops[n-1]); err != nil {
			return fail(r, err)
		}
		allocs[r.name] = float64(after.Mallocs-before.Mallocs) / float64(n)
		kb[r.name] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(n)
	}
	for _, step := range []struct{ layer, rung, below string }{
		{"sched", rungSched, rungMachine},
		{"udp", rungUDP, rungSched},
		{"server", rungServer, rungUDP},
		{"client", rungClient, rungServer},
	} {
		v[step.layer+".added_allocs"] = allocs[step.rung] - allocs[step.below]
		v[step.layer+".added_kb"] = kb[step.rung] - kb[step.below]
	}
	v["obs.added_allocs"] = allocs[rungServer] - allocs[rungBare]

	// A fresh lane: what every pool worker pays per request today.
	newLaneUS := make([]float64, t.scaled(newLaneOps))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range newLaneUS {
		t0 := time.Now()
		if _, err := machine.NewLane(p.img, 0); err != nil {
			return err
		}
		newLaneUS[i] = float64(time.Since(t0)) / 1e3
	}
	runtime.ReadMemStats(&after)
	v["machine.newlane_us"] = median(newLaneUS)
	v["machine.newlane_kb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(newLaneUS))
	return nil
}

// cutShards cuts p the way udp.Exec does: record-aligned where the builtin
// has a separator, fixed-size otherwise.
func cutShards(p *payload) ([][]byte, error) {
	var src sched.Source
	if p.hasSep {
		src = sched.Records(bytes.NewReader(p.data), 0, p.sep)
	} else {
		src = sched.Chunks(bytes.NewReader(p.data), 0)
	}
	var shards [][]byte
	for {
		buf, err := src.Next()
		if err == io.EOF {
			return shards, nil
		}
		if err != nil {
			return nil, err
		}
		shards = append(shards, append([]byte(nil), buf...))
		src.(sched.Recycler).Recycle(buf)
	}
}

// cellTurns is how many times the engine cells take turns: interleaving
// spreads a noisy stretch of the host over every cell instead of one.
// cellShards caps a cell's input at the first shards of its corpus (512 KiB
// at the default shard size), so that one pass of the memory interpreter
// fits the slice of a short traced run.
const (
	cellTurns  = 5
	cellShards = 8
)

// cells measures host MB/s of one warm lane per builtin and tier. In each
// turn a cell runs whole passes over its corpus until its slice of the
// budget is used; a cell's figure is the median over its passes.
func (t *traced) cells(budget time.Duration) error {
	type cell struct {
		p      *payload
		engine string
		lane   *machine.Lane
		shards [][]byte
		bytes  int
		mbps   []float64
	}
	tiers := map[string]machine.Engine{
		"compiled": machine.EngineCompiled, "decoded": machine.EngineDecoded, "interp": machine.EngineInterp,
	}
	var cells []*cell
	for _, p := range t.e.kernels {
		shards, err := cutShards(p)
		if err != nil {
			return fmt.Errorf("cut %s: %w", p.name, err)
		}
		if len(shards) > cellShards {
			shards = shards[:cellShards]
		}
		for _, name := range engineNames {
			lane, err := machine.NewLane(p.img, 0)
			if err != nil {
				return err
			}
			lane.SetEngine(tiers[name])
			c := &cell{p: p, engine: name, lane: lane, shards: shards}
			for _, sh := range shards {
				c.bytes += len(sh)
			}
			cells = append(cells, c)
		}
	}
	pass := func(c *cell, verify bool) error {
		var out []byte
		t0 := time.Now()
		for _, sh := range c.shards {
			c.lane.Reset()
			c.lane.SetInput(sh)
			if err := c.lane.Run(0); err != nil {
				return err
			}
			if verify {
				out = append(out, c.lane.Output()...)
			}
		}
		dt := time.Since(t0)
		if verify {
			// Shard outputs in order spell a prefix of the reference.
			if !bytes.HasPrefix(c.p.ref, out) {
				return errWrongOutput
			}
			return nil // the checking pass copies outputs; it is not timed
		}
		c.mbps = append(c.mbps, float64(c.bytes)/1e6/dt.Seconds())
		return nil
	}
	slice := budget / time.Duration(len(cells)*cellTurns)
	for turn := 0; turn < cellTurns; turn++ {
		for _, c := range cells {
			if turn == 0 {
				t.attempted++
				if err := pass(c, true); err != nil {
					t.failed++
					return fmt.Errorf("cell %s/%s: %w", c.p.name, c.engine, err)
				}
			}
			for deadline, n := time.Now().Add(slice), 0; n == 0 || time.Now().Before(deadline); n++ {
				if err := pass(c, false); err != nil {
					return fmt.Errorf("cell %s/%s: %w", c.p.name, c.engine, err)
				}
			}
		}
	}
	for _, c := range cells {
		t.values["machine."+c.p.name+"_"+c.engine+"_mbps"] = median(c.mbps)
	}
	t.notef("cells: %d turns of %.0f ms per cell; passes per cell between %d and %d",
		cellTurns, slice.Seconds()*1e3, len(cells[len(cells)-1].mbps), len(cells[0].mbps))
	return nil
}

// compileAndChunk reports what set-up's compiles cost, the exact simulated
// cycles per kernel, the chunker alone, and how udp.Exec scales over lanes
// and allocates on the csvpipe corpus.
func (t *traced) compileAndChunk(ctx context.Context, execMS map[string][]float64) {
	e, v := t.e, t.values
	for _, p := range e.kernels {
		v["machine."+p.name+"_sim_cycles_per_byte"] = float64(p.cycles) / float64(len(p.data))
	}
	// Sums over the six builtins; the lineitem image is the csvpipe builtin
	// compiled a second time and is left out.
	ks := e.kernelCompile
	v["compile.fused_chains"] = float64(ks.fused)
	v["compile.slow_chains"] = float64(ks.slow)
	v["compile.lower_ms"] = float64(ks.lower) / 1e6
	v["effclip.layout_ms"] = float64(ks.layout) / 1e6
	v["effclip.image_words"] = float64(ks.imageWords)

	var csvpipe *payload
	for _, p := range e.kernels {
		if p.name == "csvpipe" {
			csvpipe = p
		}
	}
	mb := float64(len(csvpipe.data)) / 1e6

	var chunkMBps []float64
	for deadline := time.Now().Add(t.share(shareChunk)); len(chunkMBps) < 3 || time.Now().Before(deadline); {
		t0 := time.Now()
		src := sched.Records(bytes.NewReader(csvpipe.data), 0, csvpipe.sep)
		for {
			buf, err := src.Next()
			if err != nil {
				break // io.EOF: a bytes.Reader has no other error
			}
			src.(sched.Recycler).Recycle(buf)
		}
		chunkMBps = append(chunkMBps, mb/time.Since(t0).Seconds())
	}
	v["sched.chunk_mbps"] = median(chunkMBps)

	execMBps := mb / (median(execMS["csvpipe"]) / 1e3)
	lanes := udp.MaxLanes(csvpipe.img)
	if n := runtime.NumCPU(); n < lanes {
		lanes = n
	}
	if one := v["machine.csvpipe_compiled_mbps"]; one > 0 {
		v["sched.lane_scaling"] = execMBps / (one * float64(lanes))
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < execAllocOps; i++ {
		if _, err := udp.Exec(ctx, csvpipe.img, bytes.NewReader(csvpipe.data), csvpipe.execOpts()...); err != nil {
			t.failed++
			if t.firstErr == nil {
				t.firstErr = fmt.Errorf("exec alloc batch: %w", err)
			}
		}
	}
	runtime.ReadMemStats(&after)
	t.attempted += execAllocOps
	v["sched.exec_alloc_kb_per_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1024 / (mb * execAllocOps)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0 where
// /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// traceFile is the shape of trace.json.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	// Spans are in nanoseconds since the traced run began. Spans of one op
	// share "trace"; "parent" names the rung above in the ladder.
	Spans []span `json:"spans"`
}

func (t *traced) writeTrace() error {
	dir := filepath.Join(t.cfg.outDir, t.cfg.workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(traceFile{Workload: t.cfg.workload, Seed: t.cfg.seed, Spans: t.spans.spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
