package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"udp"
	"udp/internal/client"
	"udp/internal/memsys"
	"udp/internal/obs"
	"udp/internal/server"
)

// config is one run of one workload.
type config struct {
	workload     string
	seed         int64
	rounds       int
	roundSeconds float64
	trace        bool
	outDir       string
	// minSetups and maxSetups bound how many times set-up runs; setup_s is
	// the median (see setupBudget).
	minSetups, maxSetups int
	// largeRows and kernelRows size the corpora; only tests shrink them.
	largeRows  int
	kernelRows int
}

func (c config) seconds() float64 { return float64(c.rounds) * c.roundSeconds }

// clientCount is the closed-loop client count: callers that wait for each
// reply, no more of them than cores, or the benchmark measures the Go
// scheduler's run queue instead of the program.
func clientCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// needs says which inputs and services a set-up must build.
type needs struct {
	small, k64, large, kernels, server bool
}

func needsFor(cfg config) (needs, error) {
	if cfg.trace {
		// The traced run measures every layer, whatever the workload.
		return needs{small: true, k64: true, large: true, kernels: true, server: true}, nil
	}
	switch cfg.workload {
	case wlServeSmall:
		return needs{small: true, server: true}, nil
	case wlServe64k:
		return needs{k64: true, server: true}, nil
	case wlServeMixed:
		return needs{small: true, large: true, server: true}, nil
	case wlBulkKernels:
		return needs{kernels: true}, nil
	}
	return needs{}, fmt.Errorf("unknown workload %q (want %s, %s, %s or %s)",
		cfg.workload, wlServeSmall, wlServe64k, wlServeMixed, wlBulkKernels)
}

// env is one completed set-up: inputs with verified references and, for the
// serve workloads, a server on a loopback listener with a client.
type env struct {
	cfg       config
	clients   int
	lineitem  map[string]*payload
	kernels   []*payload
	corpusSHA string
	// lineitemCompile and kernelCompile are what udp.Compile and lowering
	// cost for the csvpipe image of the serve payloads and for the six
	// builtin images.
	lineitemCompile, kernelCompile compileStats

	srv       *server.Server
	serveDone chan error
	httpc     *http.Client
	cl        *client.Client
	// streamCl sends the multi-shard body, one connection per request (see
	// startServer).
	streamCl *client.Client

	// heapBase is HeapAlloc after corpus build and two GCs, before warm-up.
	heapBase uint64
}

// productionOptions are the options cmd/udpserved derives from its flag
// defaults, because that is what operators run: tracer on, flight recorder
// at 250 ms, two shard retries. Log records are formatted and then
// discarded.
func productionOptions() (server.Options, error) {
	logger, err := obs.NewLogger(io.Discard, "")
	if err != nil {
		return server.Options{}, err
	}
	return server.Options{
		Retry:  udp.RetryPolicy{Max: 2, Backoff: time.Millisecond},
		Logger: logger,
		Tracer: obs.NewTracer(obs.DefaultMaxTraces),
		Flight: obs.NewFlightRecorder(obs.DefaultMaxFlightEntries, 250*time.Millisecond),
		Mem:    memsys.Default(),
	}, nil
}

// distinct lists every payload of the set-up in a fixed order.
func (e *env) distinct() []*payload {
	var ps []*payload
	for _, name := range []string{"small", "64k", "large"} {
		if p := e.lineitem[name]; p != nil {
			ps = append(ps, p)
		}
	}
	return append(ps, e.kernels...)
}

// setUp does everything between process start and the first timed op:
// corpus generation, udp.Compile and lowering, the three-tier reference
// pass, server start and one untimed warm-up op per client.
func setUp(ctx context.Context, cfg config) (*env, error) {
	need, err := needsFor(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{cfg: cfg, clients: clientCount()}
	if need.small || need.k64 || need.large {
		e.lineitem, err = lineitemPayloads(cfg.seed, cfg.largeRows, need.small, need.k64, need.large, &e.lineitemCompile)
		if err != nil {
			return nil, err
		}
	}
	if need.kernels {
		if e.kernels, err = kernelPayloads(cfg.seed, cfg.kernelRows, &e.kernelCompile); err != nil {
			return nil, err
		}
	}
	for _, p := range e.distinct() {
		if err := reference(ctx, p); err != nil {
			return nil, err
		}
	}
	e.corpusSHA = corpusSHA256(e.distinct())

	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	e.heapBase = ms.HeapAlloc

	if need.server {
		if err := e.startServer(); err != nil {
			return nil, err
		}
	}
	if err := e.warmUp(ctx); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *env) startServer() error {
	opts, err := productionOptions()
	if err != nil {
		return err
	}
	e.srv = server.New(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.serveDone = make(chan error, 1)
	go func() { e.serveDone <- e.srv.Serve(ln) }()
	// At most one connection per client, kept alive across ops (serve_mixed
	// has two clients even on one core).
	conns := max(e.clients, 2)
	tr := &http.Transport{MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}
	e.httpc = &http.Client{Transport: tr}
	e.cl = client.New("http://"+ln.Addr().String(), e.httpc)
	// The handler flushes its first response frame while it is still reading
	// the body, and net/http then throws away up to 256 KiB of unread body
	// unless the connection is to close after the reply (README.md,
	// "Findings"). A stream this long nearly always has more than that unread,
	// which makes the server answer "Connection: close" itself; asking for it
	// up front changes nothing about such a request and rules out the one in
	// two thousand that would otherwise fail with an unexpected EOF.
	e.streamCl = client.New("http://"+ln.Addr().String(), &http.Client{Transport: &http.Transport{DisableKeepAlives: true}})
	return nil
}

// close stops the server and waits for its accept loop to end.
func (e *env) close() {
	if e.srv == nil {
		return
	}
	e.httpc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.srv.Shutdown(ctx) // a drain that times out still closes the listener
	<-e.serveDone
	e.srv = nil
}

// opClass is one kind of op a serve workload issues.
type opClass struct {
	name string
	p    *payload
	cl   *client.Client
	opts []client.TransformOption
}

func (c *opClass) body() []byte {
	if c.p.gz != nil {
		return c.p.gz
	}
	return c.p.data
}

// do issues one op and checks the reply against the reference. A refused,
// failed or wrong reply is an error; none is retried.
func (c *opClass) do(ctx context.Context) error {
	out, err := c.cl.TransformBytes(ctx, c.p.program, c.body(), c.opts...)
	if err != nil {
		return err
	}
	if !bytes.Equal(out, c.p.ref) {
		return errWrongOutput
	}
	return nil
}

var errWrongOutput = errors.New("output differs from the reference")

func (e *env) classOf(p *payload) *opClass {
	c := &opClass{name: p.name, p: p, cl: e.cl}
	if p.gz != nil {
		c.cl = e.streamCl
		c.opts = []client.TransformOption{client.WithGzippedBody()}
	}
	return c
}

// plan is the closed-loop client set of a serve workload: anchors run until
// the round's deadline, the others until every anchor has finished, so that
// in serve_mixed the small requests overlap the whole of the last stream.
type plan struct {
	anchors []*opClass
	others  []*opClass
	// latency names the class whose per-op latency the workload reports.
	latency string
}

func (e *env) servePlan(workload string) plan {
	repeat := func(c *opClass, n int) []*opClass {
		out := make([]*opClass, n)
		for i := range out {
			out[i] = c
		}
		return out
	}
	switch workload {
	case wlServeSmall:
		return plan{anchors: repeat(e.classOf(e.lineitem["small"]), e.clients), latency: "small"}
	case wlServe64k:
		return plan{anchors: repeat(e.classOf(e.lineitem["64k"]), e.clients), latency: "64k"}
	default: // serve_mixed
		small := e.clients - 1
		if small < 1 {
			small = 1
		}
		return plan{
			anchors: []*opClass{e.classOf(e.lineitem["large"])},
			others:  repeat(e.classOf(e.lineitem["small"]), small),
			latency: "small",
		}
	}
}

// warmUp issues one untimed op per client (or one untimed sweep), so the
// first timed op finds the images compiled, the connections open and the
// slab rings stocked.
func (e *env) warmUp(ctx context.Context) error {
	if e.cfg.workload == wlBulkKernels || e.cfg.trace {
		if _, err := e.sweep(ctx, nil); err != nil {
			return fmt.Errorf("warm-up sweep: %w", err)
		}
	}
	if e.srv == nil {
		return nil
	}
	pl := e.servePlan(e.cfg.workload)
	if e.cfg.workload == wlBulkKernels {
		pl = e.servePlan(wlServe64k) // the traced run's ladder payload
	}
	once := map[string]int{}
	for _, c := range append(append([]*opClass(nil), pl.anchors...), pl.others...) {
		once[c.name]++
	}
	if r := e.serveRound(ctx, pl, 0, once, nil); r.failed > 0 {
		return fmt.Errorf("warm-up: %w", r.firstErr)
	}
	return nil
}

// roundResult is what one timed round measured.
type roundResult struct {
	wall      time.Duration
	bytes     int64 // verified uncompressed input bytes
	attempted int
	failed    int
	// latMS holds per-op latencies in milliseconds per class; a failed op
	// has no sample.
	latMS map[string][]float64
	// opsByClass counts verified ops per class.
	opsByClass map[string]int
	// mallocs and allocBytes are whole-process deltas over the round.
	mallocs, allocBytes uint64
	firstErr            error
}

func (r *roundResult) ops() int { return r.attempted - r.failed }

func (r *roundResult) throughputMBps() float64 {
	return float64(r.bytes) / 1e6 / r.wall.Seconds()
}

// clientLog collects one client goroutine's samples; merged after the round.
type clientLog struct {
	class     string
	latMS     []float64
	bytes     int64
	attempted int
	failed    int
	firstErr  error
}

// timedRound runs body between two MemStats readings (never inside a timed
// span) and fills in the whole-process allocation deltas.
func timedRound(body func() *roundResult) *roundResult {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := body()
	runtime.ReadMemStats(&after)
	r.mallocs = after.Mallocs - before.Mallocs
	r.allocBytes = after.TotalAlloc - before.TotalAlloc
	return r
}

func merge(logs []*clientLog, wall time.Duration) *roundResult {
	r := &roundResult{wall: wall, latMS: map[string][]float64{}, opsByClass: map[string]int{}}
	for _, l := range logs {
		r.bytes += l.bytes
		r.attempted += l.attempted
		r.failed += l.failed
		r.latMS[l.class] = append(r.latMS[l.class], l.latMS...)
		r.opsByClass[l.class] += l.attempted - l.failed
		if r.firstErr == nil {
			r.firstErr = l.firstErr
		}
	}
	return r
}

// serveRound runs the plan's clients closed-loop for d. Every client stops
// after maxOps ops when maxOps is positive (the fixed-mix pass). spans, when
// not nil, receives one span per op.
func (e *env) serveRound(ctx context.Context, pl plan, d time.Duration, maxOps map[string]int, spans *spanLog) *roundResult {
	return timedRound(func() *roundResult {
		var anchorsDone atomic.Bool
		var anchorWG, allWG sync.WaitGroup
		logs := make([]*clientLog, 0, len(pl.anchors)+len(pl.others))
		start := time.Now()
		deadline := start.Add(d)
		run := func(c *opClass, anchor bool, quota int) {
			l := &clientLog{class: c.name}
			logs = append(logs, l)
			allWG.Add(1)
			if anchor {
				anchorWG.Add(1)
			}
			go func() {
				defer allWG.Done()
				if anchor {
					defer anchorWG.Done()
				}
				for n := 0; quota <= 0 || n < quota; n++ {
					if quota <= 0 {
						if anchor && !time.Now().Before(deadline) {
							return
						}
						if !anchor && anchorsDone.Load() {
							return
						}
					}
					t0 := time.Now()
					err := c.do(ctx)
					t1 := time.Now()
					l.attempted++
					if err != nil {
						l.failed++
						if l.firstErr == nil {
							l.firstErr = fmt.Errorf("%s op: %w", c.name, err)
						}
						continue
					}
					l.latMS = append(l.latMS, float64(t1.Sub(t0))/1e6)
					l.bytes += int64(len(c.p.data))
					spans.op("client:"+c.name, t0, t1)
				}
			}()
		}
		quotaOf := func(c *opClass, n int) int {
			if maxOps == nil {
				return 0
			}
			return maxOps[c.name] / n
		}
		for _, c := range pl.anchors {
			run(c, true, quotaOf(c, len(pl.anchors)))
		}
		for _, c := range pl.others {
			run(c, false, quotaOf(c, len(pl.others)))
		}
		anchorWG.Wait()
		anchorsDone.Store(true)
		allWG.Wait()
		return merge(logs, time.Since(start))
	})
}

// sweep runs udp.Exec once over each kernel corpus (default lanes,
// EngineAuto, the record chunker where the builtin has one) and checks every
// output. It returns the time spent inside the Exec calls in milliseconds.
// execMS, when not nil, collects the per-kernel Exec times.
func (e *env) sweep(ctx context.Context, execMS map[string][]float64) (float64, error) {
	var total time.Duration
	for _, p := range e.kernels {
		t0 := time.Now()
		res, err := udp.Exec(ctx, p.img, bytes.NewReader(p.data), p.execOpts()...)
		dt := time.Since(t0)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", p.name, err)
		}
		if !outputsEqual(res.Outputs, p.ref) {
			return 0, fmt.Errorf("%s: %w", p.name, errWrongOutput)
		}
		total += dt
		if execMS != nil {
			execMS[p.name] = append(execMS[p.name], float64(dt)/1e6)
		}
	}
	return float64(total) / 1e6, nil
}

func (e *env) sweepBytes() int64 {
	var n int64
	for _, p := range e.kernels {
		n += int64(len(p.data))
	}
	return n
}

// bulkRound runs sweeps from one caller for d, and at least minSweeps.
func (e *env) bulkRound(ctx context.Context, d time.Duration, minSweeps int, execMS map[string][]float64, spans *spanLog) *roundResult {
	return timedRound(func() *roundResult {
		l := &clientLog{class: "sweep"}
		start := time.Now()
		deadline := start.Add(d)
		for n := 0; n < minSweeps || time.Now().Before(deadline); n++ {
			t0 := time.Now()
			ms, err := e.sweep(ctx, execMS)
			l.attempted++
			if err != nil {
				l.failed++
				if l.firstErr == nil {
					l.firstErr = fmt.Errorf("sweep: %w", err)
				}
				continue
			}
			l.latMS = append(l.latMS, ms)
			l.bytes += e.sweepBytes()
			spans.op("udp.sweep", t0, time.Now())
		}
		return merge([]*clientLog{l}, time.Since(start))
	})
}

// round runs one timed round of workload. execMS, when not nil, collects
// the per-kernel Exec times of bulk_kernels sweeps.
func (e *env) round(ctx context.Context, workload string, d time.Duration, execMS map[string][]float64, spans *spanLog) *roundResult {
	if workload == wlBulkKernels {
		return e.bulkRound(ctx, d, 1, execMS, spans)
	}
	return e.serveRound(ctx, e.servePlan(workload), d, nil, spans)
}

func latencyClass(e *env, workload string) string {
	if workload == wlBulkKernels {
		return "sweep"
	}
	return e.servePlan(workload).latency
}

// Fixed-mix pass of serve_mixed: its allocation figures cannot come from the
// timed rounds, where how many small ops fit beside one stream depends on
// timing, so they are taken over this fixed number of ops of each class,
// issued by the same concurrent clients.
var fixedMix = map[string]int{"large": 4, "small": 800}

// roundsSummary reduces the rounds of one workload to the end-to-end
// figures.
type roundsSummary struct {
	throughput, p50, tail, tailPct float64
	allocsPerOp, allocKBPerOp      float64
	attempted, failed              int
	perRoundThroughput             []float64
	firstErr                       error
}

// summarize reduces throughput and median latency by the better quartile
// over rounds (see betterQuartile) and the allocation figures, which the
// host cannot disturb, by the median. The tail is taken over the ops of all
// rounds together: p99 where a thousand samples support it, otherwise (the
// sweeps of bulk_kernels) the highest percentile with ten samples beyond.
func summarize(rounds []*roundResult, class string) roundsSummary {
	var s roundsSummary
	var p50s, allocs, kbs, pooled []float64
	for _, r := range rounds {
		s.attempted += r.attempted
		s.failed += r.failed
		if s.firstErr == nil {
			s.firstErr = r.firstErr
		}
		s.perRoundThroughput = append(s.perRoundThroughput, r.throughputMBps())
		pooled = append(pooled, r.latMS[class]...)
		if len(r.latMS[class]) > 0 {
			p50s = append(p50s, median(r.latMS[class]))
		}
		if n := r.ops(); n > 0 {
			allocs = append(allocs, float64(r.mallocs)/float64(n))
			kbs = append(kbs, float64(r.allocBytes)/1024/float64(n))
		}
	}
	s.throughput = betterQuartile(s.perRoundThroughput, true)
	s.p50 = betterQuartile(p50s, false)
	s.tail, s.tailPct, _ = tailPercentile(sortedCopy(pooled), 0.99)
	s.allocsPerOp = median(allocs)
	s.allocKBPerOp = median(kbs)
	return s
}

// heapAfterGC is HeapAlloc after two collections.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
