// Package load is udploader's engine: an aisloader-style HTTP load
// generator for udpserved plus the soak/chaos harness that drives it for
// minutes at a time while killing and degrading the server under test.
//
// The generator runs a pool of workers against POST /v1/transform/{program}
// through internal/client. Each worker draws a program from a weighted mix,
// a pre-generated payload from a size distribution, optionally gzips it,
// optionally pins an execution engine, and reports per-request wall time
// and outcome into a shared collector. The run is either closed-loop
// (Workers in-flight requests at all times) or open-loop (a target arrival
// rate in RPS paced across workers). Outcomes are bucketed into an error
// taxonomy (report.go) that SLO gates consume.
package load

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udp/internal/builtins"
	"udp/internal/client"
	"udp/internal/memsys"
	"udp/internal/obs"
)

// Mix is one weighted choice in a program or engine mix.
type Mix struct {
	Name   string
	Weight int
}

// ParseMix parses "csvpipe=3,echo=2" (weights default to 1 when omitted:
// "csvpipe,echo").
func ParseMix(s string) ([]Mix, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Mix
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, has := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		w := 1
		if has {
			n, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil || n < 1 {
				return nil, fmt.Errorf("load: mix %q: weight must be a positive integer", part)
			}
			w = n
		}
		if name == "" {
			return nil, fmt.Errorf("load: mix %q: empty name", part)
		}
		out = append(out, Mix{Name: name, Weight: w})
	}
	return out, nil
}

// pickMix draws one weighted name.
func pickMix(m []Mix, rng *rand.Rand) string {
	total := 0
	for _, x := range m {
		total += x.Weight
	}
	n := rng.IntN(total)
	for _, x := range m {
		n -= x.Weight
		if n < 0 {
			return x.Name
		}
	}
	return m[len(m)-1].Name
}

// Config tunes one load run. Target and Programs are required; everything
// else has serviceable defaults (see defaults()).
type Config struct {
	// Target is the udpserved base URL, e.g. "http://127.0.0.1:8080".
	Target string
	// Workers is the worker-pool size: closed-loop concurrency when RPS is
	// 0. Default 8.
	Workers int
	// RPS switches to open-loop load: workers pace request starts to this
	// aggregate arrival rate. 0 = closed loop.
	RPS float64
	// Duration stops issuing new requests after this long (in-flight ones
	// finish). Default 10s when Requests is 0.
	Duration time.Duration
	// Requests stops after this many total requests (0 = until Duration).
	Requests int
	// Programs is the weighted mix of builtin programs, e.g. csvpipe=3,echo=1.
	Programs []Mix
	// Engines optionally pins a weighted X-Udp-Engine mix ("auto",
	// "interp", "decoded", "compiled"). Empty = server default.
	Engines []Mix
	// SizeMin/SizeMax bound the per-payload uncompressed size; each corpus
	// payload draws uniformly from the range. Defaults 1 KiB / 64 KiB.
	SizeMin, SizeMax int
	// GzipRatio is the fraction of requests sent gzip-compressed, in [0,1].
	GzipRatio float64
	// Retries is the per-request client retry budget on 429/503 (honoring
	// Retry-After with jittered exponential backoff). 0 = fail fast.
	Retries int
	// Stages opts every request into the server's X-Udp-Stage-* timing
	// trailers; the Report then carries the per-stage p50/p99 attribution
	// table (Report.Stages).
	Stages bool
	// RequestTimeout bounds one request end to end. Default 30s.
	RequestTimeout time.Duration
	// Seed makes corpus generation and mix draws deterministic.
	Seed int64
	// ReportEvery emits a live progress line to ReportTo at this interval
	// (0 = no live reporting).
	ReportEvery time.Duration
	// ReportTo receives live progress lines (nil = none).
	ReportTo io.Writer
	// HTTP overrides the pooled transport (nil = a transport sized to
	// Workers).
	HTTP *http.Client
}

// corpusVariants is how many pre-generated payloads back each program; the
// loader cycles through them so request sizes vary without per-request
// generation cost.
const corpusVariants = 4

func (cfg *Config) defaults() error {
	if cfg.Target == "" {
		return fmt.Errorf("load: Config.Target required")
	}
	if len(cfg.Programs) == 0 {
		return fmt.Errorf("load: Config.Programs required (e.g. csvpipe=1)")
	}
	if err := CheckPrograms(cfg.Programs); err != nil {
		return err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Duration <= 0 && cfg.Requests <= 0 {
		cfg.Duration = 10 * time.Second
	}
	if cfg.SizeMin <= 0 {
		cfg.SizeMin = 1 << 10
	}
	if cfg.SizeMax < cfg.SizeMin {
		cfg.SizeMax = cfg.SizeMin
	}
	if cfg.GzipRatio < 0 || cfg.GzipRatio > 1 {
		return fmt.Errorf("load: GzipRatio %v outside [0,1]", cfg.GzipRatio)
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 30 * time.Second
	}
	return nil
}

// CheckPrograms rejects a program mix naming anything but a builtin kernel:
// the loader generates payloads only for the builtins.
func CheckPrograms(m []Mix) error {
	for _, x := range m {
		if _, ok := builtins.Lookup(x.Name); !ok {
			return fmt.Errorf("load: no builtin payload for program %q (builtins: %s)", x.Name, builtins.Names())
		}
	}
	return nil
}

// mem is the shared slab manager staging the payload corpus.
var mem = memsys.Default()

// corpusEntry is one pre-generated payload (raw plus its gzip twin when the
// run sends compressed bodies).
type corpusEntry struct {
	raw []byte
	gz  []byte
}

// buildCorpus pre-generates corpusVariants payloads per program at sizes
// drawn from the configured range.
func buildCorpus(cfg *Config) (map[string][]corpusEntry, error) {
	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), 0x10ad))
	out := make(map[string][]corpusEntry, len(cfg.Programs))
	for _, m := range cfg.Programs {
		if _, done := out[m.Name]; done {
			continue
		}
		entries := make([]corpusEntry, corpusVariants)
		for i := range entries {
			size := cfg.SizeMin
			if cfg.SizeMax > cfg.SizeMin {
				size += rng.IntN(cfg.SizeMax - cfg.SizeMin + 1)
			}
			b, _ := builtins.Lookup(m.Name) // defaults checked the name
			raw := b.Corpus(size, cfg.Seed+int64(i))
			// Corpus payloads live in slabs from the shared manager, so
			// successive Run invocations in one process (bench passes, soak
			// phases) recycle the same arrays; freeCorpus returns them.
			entries[i].raw = append(mem.Get(len(raw)), raw...)
			if cfg.GzipRatio > 0 {
				gz, err := client.GzipBytes(raw)
				if err != nil {
					return nil, err
				}
				entries[i].gz = append(mem.Get(len(gz)), gz...)
			}
		}
		out[m.Name] = entries
	}
	return out, nil
}

// freeCorpus parks every corpus slab back in the manager once a run's
// workers have all exited.
func freeCorpus(corpus map[string][]corpusEntry) {
	for _, entries := range corpus {
		for _, e := range entries {
			mem.Put(e.raw)
			mem.Put(e.gz)
		}
	}
}

// slowestK is how many slowest requests the collector retains with their
// trace IDs, so a soak failure names concrete traces to pull from the
// server's /debug/slow.
const slowestK = 5

// stageSample is one successful request's stage breakdown (from the
// X-Udp-Stage-* trailers) plus its wall time, for the attribution table.
type stageSample struct {
	total time.Duration
	ns    [obs.NumStages]int64
}

// collector aggregates per-request outcomes across workers.
type collector struct {
	mu       sync.Mutex
	lat      []time.Duration // successful requests only
	classes  map[string]int
	statuses map[string]int
	programs map[string]int
	requests int
	errors   int
	bytesIn  int64
	bytesOut int64
	attempts int
	backoffs int
	backoff  time.Duration
	stages   []stageSample // successful requests that returned stage trailers
	slowest  []SlowRequest // top-slowestK by wall time, slowest first
}

func newCollector() *collector {
	return &collector{
		classes:  make(map[string]int),
		statuses: make(map[string]int),
		programs: make(map[string]int),
	}
}

// reqResult is one finished request's identity and measurements beyond the
// class/status/latency basics: what the attribution features record.
type reqResult struct {
	traceID string
	engine  string // requested tier ("" = server default)
	stages  *client.Stages
}

func (c *collector) add(program, class string, status int, d time.Duration, in, out int64, tm client.Timing, rr reqResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests++
	c.classes[class]++
	c.statuses[statusLabel(status)]++
	c.programs[program]++
	if tm.Attempts > 0 {
		c.attempts += tm.Attempts
	} else {
		c.attempts++
	}
	if tm.Backoff > 0 {
		c.backoffs++
		c.backoff += tm.Backoff
	}
	if class == Class2xx {
		c.lat = append(c.lat, d)
		c.bytesIn += in
		c.bytesOut += out
		if rr.stages != nil && rr.stages.OK {
			c.stages = append(c.stages, stageSample{total: d, ns: rr.stages.NS})
		}
	} else {
		c.errors++
	}
	c.noteSlowest(SlowRequest{
		TraceID: rr.traceID, Program: program, Engine: rr.engine,
		Status: status, Class: class, Ms: float64(d) / float64(time.Millisecond),
	})
}

// noteSlowest insert-sorts one finished request into the top-K slowest list
// (called with mu held).
func (c *collector) noteSlowest(s SlowRequest) {
	if len(c.slowest) == slowestK && s.Ms <= c.slowest[slowestK-1].Ms {
		return
	}
	i := sort.Search(len(c.slowest), func(i int) bool { return c.slowest[i].Ms < s.Ms })
	if len(c.slowest) < slowestK {
		c.slowest = append(c.slowest, SlowRequest{})
	}
	copy(c.slowest[i+1:], c.slowest[i:])
	c.slowest[i] = s
}

// snapshotLine renders the live progress line.
func (c *collector) snapshotLine(elapsed time.Duration) string {
	c.mu.Lock()
	lat := make([]time.Duration, len(c.lat))
	copy(lat, c.lat)
	requests, errors, bytesIn := c.requests, c.errors, c.bytesIn
	classes := make(map[string]int, len(c.classes))
	for k, v := range c.classes {
		classes[k] = v
	}
	c.mu.Unlock()
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	secs := elapsed.Seconds()
	return fmt.Sprintf("[%6.1fs] %6d reqs %7.1f rps %7.2f MB/s p50 %.1f ms p90 %.1f ms p99 %.1f ms errs %d %s",
		secs, requests, float64(requests)/secs, float64(bytesIn)/1e6/secs,
		percentile(lat, 0.50), percentile(lat, 0.90), percentile(lat, 0.99),
		errors, formatClasses(classes))
}

// report folds the collector into a final Report.
func (c *collector) report(cfg *Config, wall time.Duration) *Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := newReport(cfg.Target)
	r.Workers = cfg.Workers
	r.TargetRPS = cfg.RPS
	r.DurationSeconds = wall.Seconds()
	r.Requests = c.requests
	r.Errors = c.errors
	r.BytesIn = c.bytesIn
	r.BytesOut = c.bytesOut
	r.Attempts = c.attempts
	r.Backoffs = c.backoffs
	r.BackoffSeconds = c.backoff.Seconds()
	if r.DurationSeconds > 0 {
		r.AchievedRPS = float64(c.requests) / r.DurationSeconds
		r.ThroughputMBps = float64(c.bytesIn) / 1e6 / r.DurationSeconds
	}
	for k, v := range c.classes {
		r.Classes[k] = v
	}
	for k, v := range c.statuses {
		r.Statuses[k] = v
	}
	for k, v := range c.programs {
		r.Programs[k] = v
	}
	sort.Slice(c.lat, func(i, j int) bool { return c.lat[i] < c.lat[j] })
	r.Samples = len(c.lat)
	r.P50Ms = percentile(c.lat, 0.50)
	r.P90Ms = percentile(c.lat, 0.90)
	r.P99Ms = percentile(c.lat, 0.99)
	if n := len(c.lat); n > 0 {
		r.MaxMs = float64(c.lat[n-1]) / float64(time.Millisecond)
	}
	r.Slowest = append([]SlowRequest(nil), c.slowest...)
	r.Stages = stageStats(c.stages)
	return r
}

// stageStats folds the per-request stage samples into the attribution
// table: per-stage p50/p99 (over requests that passed through the stage)
// and each stage's share of the p99 cohort's total stage time — the
// "p99 is 71% sink-wait" number. The cohort is the stage-sampled requests
// at or above their own p99 wall time (at least the slowest one).
func stageStats(samples []stageSample) []StageStat {
	if len(samples) == 0 {
		return nil
	}
	totals := make([]time.Duration, len(samples))
	for i, s := range samples {
		totals[i] = s.total
	}
	sort.Slice(totals, func(i, j int) bool { return totals[i] < totals[j] })
	cut := totals[int(0.99*float64(len(totals)-1))]

	var cohortNS [obs.NumStages]int64
	var cohortTotal int64
	perStage := make([][]time.Duration, obs.NumStages)
	for _, s := range samples {
		inCohort := s.total >= cut
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			ns := s.ns[st]
			if ns <= 0 {
				continue
			}
			perStage[st] = append(perStage[st], time.Duration(ns))
			if inCohort {
				cohortNS[st] += ns
				cohortTotal += ns
			}
		}
	}

	out := make([]StageStat, 0, obs.NumStages)
	for st := obs.Stage(0); st < obs.NumStages; st++ {
		lat := perStage[st]
		if len(lat) == 0 {
			continue
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		stat := StageStat{
			Stage:   st.String(),
			Samples: len(lat),
			P50Ms:   percentile(lat, 0.50),
			P99Ms:   percentile(lat, 0.99),
		}
		if cohortTotal > 0 {
			stat.P99Share = float64(cohortNS[st]) / float64(cohortTotal)
		}
		out = append(out, stat)
	}
	return out
}

// runner is one Run invocation's shared state.
type runner struct {
	cfg      *Config
	cli      *client.Client
	corpus   map[string][]corpusEntry
	col      *collector
	ctx      context.Context
	start    time.Time
	deadline time.Time // zero = unbounded (Requests-limited)
	issued   atomic.Int64
}

// Run drives the configured load and returns the final report. It stops
// issuing new requests at cfg.Duration / cfg.Requests (in-flight ones
// finish) or when ctx is canceled (in-flight ones are aborted and counted
// as "canceled").
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	corpus, err := buildCorpus(&cfg)
	if err != nil {
		return nil, err
	}
	defer freeCorpus(corpus)
	httpc := cfg.HTTP
	if httpc == nil {
		httpc = &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.Workers + 8,
			MaxIdleConnsPerHost: cfg.Workers + 8,
		}}
		defer httpc.CloseIdleConnections()
	}
	r := &runner{
		cfg:    &cfg,
		cli:    client.New(cfg.Target, httpc),
		corpus: corpus,
		col:    newCollector(),
		ctx:    ctx,
		start:  time.Now(),
	}
	if cfg.Duration > 0 {
		r.deadline = r.start.Add(cfg.Duration)
	}

	// reportDone stops the progress goroutine; reportExited tells Run it has
	// returned, so the final line below never overlaps its last tick.
	reportDone, reportExited := make(chan struct{}), make(chan struct{})
	if cfg.ReportEvery > 0 && cfg.ReportTo != nil {
		go func() {
			defer close(reportExited)
			t := time.NewTicker(cfg.ReportEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					fmt.Fprintln(cfg.ReportTo, r.col.snapshotLine(time.Since(r.start)))
				case <-reportDone:
					return
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r.worker(id)
		}(w)
	}
	wg.Wait()
	close(reportDone)
	if cfg.ReportEvery > 0 && cfg.ReportTo != nil {
		<-reportExited
		// Close the live stream with the end state, so short runs that beat
		// the first tick still show progress.
		fmt.Fprintln(cfg.ReportTo, r.col.snapshotLine(time.Since(r.start)))
	}
	return r.col.report(&cfg, time.Since(r.start)), nil
}

// sleepUntil sleeps until t or ctx cancellation; false = canceled.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

func (r *runner) worker(id int) {
	cfg := r.cfg
	rng := rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(id)+1))
	for {
		if r.ctx.Err() != nil {
			return
		}
		n := r.issued.Add(1) - 1
		if cfg.Requests > 0 && n >= int64(cfg.Requests) {
			return
		}
		if cfg.RPS > 0 {
			// Open loop: the n-th request fires at start + n/RPS across the
			// pool, regardless of which worker drew it.
			at := r.start.Add(time.Duration(float64(n) / cfg.RPS * float64(time.Second)))
			if !sleepUntil(r.ctx, at) {
				return
			}
		}
		if !r.deadline.IsZero() && time.Now().After(r.deadline) {
			return
		}
		class := r.one(rng)
		if class == ClassNet {
			// A dead/restarting server fails connections in microseconds; a
			// tight retry loop would turn one chaos kill into thousands of
			// errors. Pause like a real client with connection backoff.
			sleepUntil(r.ctx, time.Now().Add(50*time.Millisecond+time.Duration(rng.IntN(50))*time.Millisecond))
		}
	}
}

// one issues a single request and records its outcome, returning the class.
func (r *runner) one(rng *rand.Rand) string {
	cfg := r.cfg
	program := pickMix(cfg.Programs, rng)
	entries := r.corpus[program]
	ent := entries[rng.IntN(len(entries))]

	body := ent.raw
	var opts []client.TransformOption
	if ent.gz != nil && rng.Float64() < cfg.GzipRatio {
		body = ent.gz
		opts = append(opts, client.WithGzippedBody())
	}
	var rr reqResult
	if len(cfg.Engines) > 0 {
		if e := pickMix(cfg.Engines, rng); e != "" {
			rr.engine = e
			opts = append(opts, client.WithEngine(e))
		}
	}
	if cfg.Retries > 0 {
		opts = append(opts, client.WithRetry(cfg.Retries))
	}
	var tm client.Timing
	opts = append(opts, client.WithTiming(&tm), client.WithTraceID(&rr.traceID))
	if cfg.Stages {
		rr.stages = &client.Stages{}
		opts = append(opts, client.WithStages(rr.stages))
	}

	reqCtx, cancel := context.WithTimeout(r.ctx, cfg.RequestTimeout)
	defer cancel()

	t0 := time.Now()
	var (
		readErr  error
		bytesOut int64
	)
	rc, err := r.cli.Transform(reqCtx, program, bytes.NewReader(body), opts...)
	if err == nil {
		bytesOut, readErr = io.Copy(io.Discard, rc)
		rc.Close()
	}
	d := time.Since(t0)
	status, class := Classify(err, readErr)
	var in int64
	if class == Class2xx {
		in = int64(len(ent.raw)) // uncompressed size either way
	}
	r.col.add(program, class, status, d, in, bytesOut, tm, rr)
	return class
}
