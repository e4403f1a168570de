// Hand-rolled Prometheus text-format metrics (the module is stdlib-only).
// The executor's WithStatsHook shard events feed the per-program byte,
// cycle, shard and queue/lane gauges; the HTTP layer feeds request
// counters and a latency histogram.
package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"udp"
	"udp/internal/memsys"
	"udp/internal/obs"
)

// latencyBuckets are the latency histogram bounds in seconds, shared by the
// request-duration and per-stage histogram families.
var latencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// exemplar is the last trace that landed in a histogram bucket — rendered in
// OpenMetrics exposition so a spike in a bucket links straight to a
// /debug/traces span tree.
type exemplar struct {
	traceID string
	value   float64
	ts      time.Time
}

// hist is one cumulative latency histogram with per-bucket trace exemplars
// (the +Inf overflow keeps the last slot of ex). Not self-locking; callers
// hold the Metrics mutex.
type hist struct {
	counts []uint64 // one per finite bucket, non-cumulative
	sum    float64
	count  uint64
	ex     []exemplar // len(latencyBuckets)+1: finite buckets then +Inf
}

func newHist() *hist {
	return &hist{
		counts: make([]uint64, len(latencyBuckets)),
		ex:     make([]exemplar, len(latencyBuckets)+1),
	}
}

func (h *hist) observe(seconds float64, traceID string) {
	slot := len(latencyBuckets) // +Inf
	for i, le := range latencyBuckets {
		if seconds <= le {
			h.counts[i]++
			slot = i
			break
		}
	}
	if traceID != "" {
		h.ex[slot] = exemplar{traceID: traceID, value: seconds, ts: time.Now()}
	}
	h.sum += seconds
	h.count++
}

// render writes the histogram's bucket/sum/count lines for one label set
// (labels is the rendered `name="value"` list without braces, may be empty).
// With exemplars on, each bucket whose slot holds a trace gets the
// OpenMetrics ` # {trace_id="..."} value ts` suffix.
func (h *hist) render(w io.Writer, family, labels string, exemplars bool) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum uint64
	for i, le := range latencyBuckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d", family, labels, sep, le, cum)
		h.renderExemplar(w, i, exemplars)
	}
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d", family, labels, sep, h.count)
	h.renderExemplar(w, len(latencyBuckets), exemplars)
	fmt.Fprintf(w, "%s_sum{%s} %.6f\n", family, labels, h.sum)
	fmt.Fprintf(w, "%s_count{%s} %d\n", family, labels, h.count)
}

func (h *hist) renderExemplar(w io.Writer, slot int, exemplars bool) {
	if e := h.ex[slot]; exemplars && e.traceID != "" {
		fmt.Fprintf(w, " # {trace_id=%q} %g %.3f", e.traceID, e.value,
			float64(e.ts.UnixMilli())/1e3)
	}
	fmt.Fprintln(w)
}

// stageKey labels one stage-histogram series: engine is "" for every stage
// except lane_run, which is split by the execution tier that ran.
type stageKey struct {
	stage  obs.Stage
	engine string
}

type reqKey struct {
	program string
	code    int
}

// Metrics aggregates the operations surface. All methods are safe for
// concurrent use.
type Metrics struct {
	mu         sync.Mutex
	start      time.Time
	requests   map[reqKey]uint64
	latency    map[string]*hist
	stages     map[stageKey]*hist
	bytesIn    map[string]uint64
	bytesOut   map[string]uint64
	shards     map[string]uint64
	shardErrs  map[string]uint64
	cycles     map[string]uint64
	faults     map[string]uint64 // typed lane faults by trap kind
	retries    uint64            // shard re-enqueues by the retry policy
	queueDepth map[string]int    // last observed per program
	lanesBusy  map[string]int    // last observed per program
	breakerOpn map[string]int    // circuit-breaker state per program (1 = open)
	inflight   int
	memSheds   uint64 // requests rejected by the memory-pressure gate
}

// NewMetrics returns an empty metrics sink.
func NewMetrics() *Metrics {
	return &Metrics{
		start:      time.Now(),
		requests:   make(map[reqKey]uint64),
		latency:    make(map[string]*hist),
		stages:     make(map[stageKey]*hist),
		bytesIn:    make(map[string]uint64),
		bytesOut:   make(map[string]uint64),
		shards:     make(map[string]uint64),
		shardErrs:  make(map[string]uint64),
		cycles:     make(map[string]uint64),
		faults:     make(map[string]uint64),
		queueDepth: make(map[string]int),
		lanesBusy:  make(map[string]int),
		breakerOpn: make(map[string]int),
	}
}

// RequestDone records one finished transform request. traceID (may be "")
// becomes the bucket exemplar linking the histogram to /debug/traces.
func (m *Metrics) RequestDone(program string, code int, d time.Duration, traceID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{program, code}]++
	h := m.latency[program]
	if h == nil {
		h = newHist()
		m.latency[program] = h
	}
	h.observe(d.Seconds(), traceID)
}

// StageObserve folds one finished request's stage clock into the per-stage
// histograms. Only stages the request actually passed through (non-zero
// time) are observed, so e.g. uncompressed requests don't drag the decode
// histogram toward zero. The lane_run series is split by the engine tier
// that ran.
func (m *Metrics) StageObserve(clk *obs.StageClock, engine, traceID string) {
	if clk == nil {
		return
	}
	snap := clk.Snapshot()
	m.mu.Lock()
	defer m.mu.Unlock()
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if snap[s] <= 0 {
			continue
		}
		k := stageKey{stage: s}
		if s == obs.StageLane {
			k.engine = engine
		}
		h := m.stages[k]
		if h == nil {
			h = newHist()
			m.stages[k] = h
		}
		h.observe(float64(snap[s])/1e9, traceID)
	}
}

// ShardEvent folds one executor shard event into the per-program counters.
func (m *Metrics) ShardEvent(program string, e udp.ShardEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shards[program]++
	m.bytesIn[program] += uint64(e.Bytes)
	m.cycles[program] += e.Cycles
	m.queueDepth[program] = e.QueueDepth
	m.lanesBusy[program] = e.Busy
	if e.Err != nil {
		m.shardErrs[program]++
	}
	if e.Trap != nil {
		m.faults[e.Trap.Kind.String()]++
	}
	if e.Retried {
		m.retries++
	}
}

// SetBreakerOpen records a program's circuit-breaker state.
func (m *Metrics) SetBreakerOpen(program string, open bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := 0
	if open {
		v = 1
	}
	m.breakerOpn[program] = v
}

// AddBytesOut records transformed bytes streamed back to a client.
func (m *Metrics) AddBytesOut(program string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.bytesOut[program] += uint64(n)
}

// IncInflight/DecInflight track concurrently executing transforms.
func (m *Metrics) IncInflight() {
	m.mu.Lock()
	m.inflight++
	m.mu.Unlock()
}

// DecInflight is the release half of IncInflight.
func (m *Metrics) DecInflight() {
	m.mu.Lock()
	m.inflight--
	m.mu.Unlock()
}

// Inflight reads the gauge (test hook).
func (m *Metrics) Inflight() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inflight
}

// MemShed records one request rejected by the memory-pressure gate.
func (m *Metrics) MemShed() {
	m.mu.Lock()
	m.memSheds++
	m.mu.Unlock()
}

func sortedKeys[V any](mm map[string]V) []string {
	keys := make([]string, 0, len(mm))
	for k := range mm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Render writes the Prometheus text exposition. Lines are sorted so the
// output is deterministic. mem, when non-nil, contributes the slab-manager
// per-class gauges and the pressure state. openMetrics switches to the
// OpenMetrics flavor: histogram buckets carry trace-ID exemplars and the
// exposition ends with "# EOF" — classic text-format scrapers keep getting
// the plain output they parse today.
func (m *Metrics) Render(w io.Writer, reg *Registry, mem *memsys.Manager, openMetrics bool) {
	m.mu.Lock()
	defer m.mu.Unlock()

	fmt.Fprintf(w, "# HELP udpserved_uptime_seconds Seconds since the server started.\n")
	fmt.Fprintf(w, "# TYPE udpserved_uptime_seconds gauge\n")
	fmt.Fprintf(w, "udpserved_uptime_seconds %.3f\n", time.Since(m.start).Seconds())

	fmt.Fprintf(w, "# HELP udpserved_inflight_transforms Transform requests currently executing.\n")
	fmt.Fprintf(w, "# TYPE udpserved_inflight_transforms gauge\n")
	fmt.Fprintf(w, "udpserved_inflight_transforms %d\n", m.inflight)

	fmt.Fprintf(w, "# HELP udpserved_requests_total Finished HTTP transform requests by program and status code.\n")
	fmt.Fprintf(w, "# TYPE udpserved_requests_total counter\n")
	rk := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		rk = append(rk, k)
	}
	sort.Slice(rk, func(i, j int) bool {
		if rk[i].program != rk[j].program {
			return rk[i].program < rk[j].program
		}
		return rk[i].code < rk[j].code
	})
	for _, k := range rk {
		fmt.Fprintf(w, "udpserved_requests_total{program=%q,code=\"%d\"} %d\n",
			k.program, k.code, m.requests[k])
	}

	counter := func(name, help string, mm map[string]uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, p := range sortedKeys(mm) {
			fmt.Fprintf(w, "%s{program=%q} %d\n", name, p, mm[p])
		}
	}
	counter("udpserved_input_bytes_total", "Input bytes streamed through the lane pools (post-decompression).", m.bytesIn)
	counter("udpserved_output_bytes_total", "Transformed bytes streamed back to clients.", m.bytesOut)
	counter("udpserved_shards_total", "Input shards executed on a lane.", m.shards)
	counter("udpserved_shard_errors_total", "Shards that failed lane execution.", m.shardErrs)
	counter("udpserved_lane_cycles_total", "Simulated lane cycles consumed.", m.cycles)

	fmt.Fprintf(w, "# HELP udp_faults_total Typed lane faults observed by the executor, by trap kind.\n")
	fmt.Fprintf(w, "# TYPE udp_faults_total counter\n")
	for _, k := range sortedKeys(m.faults) {
		fmt.Fprintf(w, "udp_faults_total{trap=%q} %d\n", k, m.faults[k])
	}
	fmt.Fprintf(w, "# HELP udp_retries_total Shard re-enqueues performed by the retry policy.\n")
	fmt.Fprintf(w, "# TYPE udp_retries_total counter\n")
	fmt.Fprintf(w, "udp_retries_total %d\n", m.retries)

	gauge := func(name, help string, mm map[string]int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, p := range sortedKeys(mm) {
			fmt.Fprintf(w, "%s{program=%q} %d\n", name, p, mm[p])
		}
	}
	gauge("udpserved_queue_depth", "Shard-queue depth at the last dequeue (backpressure signal).", m.queueDepth)
	gauge("udpserved_lanes_busy", "Pool lanes executing at the last dequeue.", m.lanesBusy)
	gauge("udpserved_breaker_open", "Per-program circuit-breaker state (1 = open, rejecting with 503).", m.breakerOpn)

	fmt.Fprintf(w, "# HELP udpserved_request_seconds Transform request latency.\n")
	fmt.Fprintf(w, "# TYPE udpserved_request_seconds histogram\n")
	for _, p := range sortedKeys(m.latency) {
		m.latency[p].render(w, "udpserved_request_seconds",
			fmt.Sprintf("program=%q", p), openMetrics)
	}

	fmt.Fprintf(w, "# HELP udpserved_stage_seconds Per-stage request time (resource time for fan-out stages; lane_run split by engine tier).\n")
	fmt.Fprintf(w, "# TYPE udpserved_stage_seconds histogram\n")
	sk := make([]stageKey, 0, len(m.stages))
	for k := range m.stages {
		sk = append(sk, k)
	}
	sort.Slice(sk, func(i, j int) bool {
		if sk[i].stage != sk[j].stage {
			return sk[i].stage < sk[j].stage
		}
		return sk[i].engine < sk[j].engine
	})
	for _, k := range sk {
		labels := fmt.Sprintf("stage=%q", k.stage.String())
		if k.engine != "" {
			labels += fmt.Sprintf(",engine=%q", k.engine)
		}
		m.stages[k].render(w, "udpserved_stage_seconds", labels, openMetrics)
	}

	// Go runtime health: enough to spot a leak or GC churn from the same
	// scrape that carries the transform counters.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	fmt.Fprintf(w, "# HELP go_goroutines Goroutines that currently exist.\n")
	fmt.Fprintf(w, "# TYPE go_goroutines gauge\n")
	fmt.Fprintf(w, "go_goroutines %d\n", runtime.NumGoroutine())
	fmt.Fprintf(w, "# HELP go_heap_alloc_bytes Heap bytes allocated and still in use.\n")
	fmt.Fprintf(w, "# TYPE go_heap_alloc_bytes gauge\n")
	fmt.Fprintf(w, "go_heap_alloc_bytes %d\n", ms.HeapAlloc)
	fmt.Fprintf(w, "# HELP go_heap_sys_bytes Heap bytes obtained from the OS.\n")
	fmt.Fprintf(w, "# TYPE go_heap_sys_bytes gauge\n")
	fmt.Fprintf(w, "go_heap_sys_bytes %d\n", ms.HeapSys)
	fmt.Fprintf(w, "# HELP go_gc_cycles_total Completed GC cycles.\n")
	fmt.Fprintf(w, "# TYPE go_gc_cycles_total counter\n")
	fmt.Fprintf(w, "go_gc_cycles_total %d\n", ms.NumGC)
	fmt.Fprintf(w, "# HELP go_gc_pause_seconds_total Cumulative stop-the-world GC pause.\n")
	fmt.Fprintf(w, "# TYPE go_gc_pause_seconds_total counter\n")
	fmt.Fprintf(w, "go_gc_pause_seconds_total %.6f\n", float64(ms.PauseTotalNs)/1e9)

	// runtime/metrics gauges: the heap watermark input, the allocation-rate
	// counter, and GC pause percentiles over the process lifetime — the
	// numbers that attribute tail latency to the collector.
	rt := memsys.ReadRuntime()
	fmt.Fprintf(w, "# HELP go_heap_inuse_bytes Heap bytes in use (objects + unused span tails); the pressure-watermark input.\n")
	fmt.Fprintf(w, "# TYPE go_heap_inuse_bytes gauge\n")
	fmt.Fprintf(w, "go_heap_inuse_bytes %d\n", rt.HeapInuse)
	fmt.Fprintf(w, "# HELP go_alloc_bytes_total Cumulative heap bytes allocated (alloc rate = delta over scrape interval).\n")
	fmt.Fprintf(w, "# TYPE go_alloc_bytes_total counter\n")
	fmt.Fprintf(w, "go_alloc_bytes_total %d\n", rt.AllocBytes)
	fmt.Fprintf(w, "# HELP go_gc_pause_seconds Stop-the-world GC pause percentiles since process start.\n")
	fmt.Fprintf(w, "# TYPE go_gc_pause_seconds gauge\n")
	fmt.Fprintf(w, "go_gc_pause_seconds{quantile=\"0.5\"} %.9f\n", memsys.PauseQuantile(rt.GCPauses, 0.5))
	fmt.Fprintf(w, "go_gc_pause_seconds{quantile=\"0.99\"} %.9f\n", memsys.PauseQuantile(rt.GCPauses, 0.99))

	if mem != nil {
		st := mem.Stats()
		fmt.Fprintf(w, "# HELP udpserved_mem_pressure_level Memory-pressure level from the heap watermarks (0=ok 1=soft 2=critical).\n")
		fmt.Fprintf(w, "# TYPE udpserved_mem_pressure_level gauge\n")
		fmt.Fprintf(w, "udpserved_mem_pressure_level %d\n", int(st.Pressure))
		fmt.Fprintf(w, "# HELP udpserved_mem_pressure_transitions_total Upward pressure-level crossings.\n")
		fmt.Fprintf(w, "# TYPE udpserved_mem_pressure_transitions_total counter\n")
		fmt.Fprintf(w, "udpserved_mem_pressure_transitions_total %d\n", st.Transitions)
		fmt.Fprintf(w, "# HELP udpserved_mem_pressure_sheds_total Requests rejected (429) by the memory-pressure admission gate.\n")
		fmt.Fprintf(w, "# TYPE udpserved_mem_pressure_sheds_total counter\n")
		fmt.Fprintf(w, "udpserved_mem_pressure_sheds_total %d\n", m.memSheds)

		slabCounter := func(name, help string, v func(memsys.ClassStats) uint64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, c := range st.Classes {
				if c.Gets == 0 && c.Puts == 0 {
					continue
				}
				fmt.Fprintf(w, "%s{class=\"%d\"} %d\n", name, c.Size, v(c))
			}
		}
		slabCounter("memsys_slab_gets_total", "Slab allocations served, by size class.",
			func(c memsys.ClassStats) uint64 { return c.Gets })
		slabCounter("memsys_slab_hits_total", "Slab allocations served from the free ring (no heap work), by size class.",
			func(c memsys.ClassStats) uint64 { return c.Hits })
		slabCounter("memsys_slab_shrinks_total", "Slabs released back to the heap by housekeeping or pressure shrink, by size class.",
			func(c memsys.ClassStats) uint64 { return c.Shrinks })
		fmt.Fprintf(w, "# HELP memsys_slab_free_bytes Bytes parked in the free rings, by size class.\n")
		fmt.Fprintf(w, "# TYPE memsys_slab_free_bytes gauge\n")
		for _, c := range st.Classes {
			if c.Gets == 0 && c.Puts == 0 {
				continue
			}
			fmt.Fprintf(w, "memsys_slab_free_bytes{class=\"%d\"} %d\n", c.Size, c.FreeBytes)
		}
	}

	if reg != nil {
		builtins, posted, evictions := reg.Counts()
		fmt.Fprintf(w, "# HELP udpserved_programs_cached Programs resident in the registry.\n")
		fmt.Fprintf(w, "# TYPE udpserved_programs_cached gauge\n")
		fmt.Fprintf(w, "udpserved_programs_cached{kind=\"builtin\"} %d\n", builtins)
		fmt.Fprintf(w, "udpserved_programs_cached{kind=\"posted\"} %d\n", posted)
		fmt.Fprintf(w, "# HELP udpserved_program_evictions_total Posted programs evicted from the LRU cache.\n")
		fmt.Fprintf(w, "# TYPE udpserved_program_evictions_total counter\n")
		fmt.Fprintf(w, "udpserved_program_evictions_total %d\n", evictions)
	}

	if openMetrics {
		fmt.Fprintf(w, "# EOF\n")
	}
}
