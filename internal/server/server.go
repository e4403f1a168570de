// Package server is udpserved's HTTP core: a data-local streaming transform
// service over the udp.Exec lane-pool executor, in the spirit of AIStore's
// ETL targets — the transformer runs beside the data and request bodies
// stream through it with backpressure end to end.
//
// Endpoints:
//
//	POST /v1/transform/{program}  stream a request body through a program
//	POST /v1/programs             compile + cache UDP assembly (content hash)
//	GET  /v1/programs             list built-ins and cached programs
//	GET  /v1/profile/{program}    aggregated automaton profile (opt-in)
//	GET  /healthz                 liveness
//	GET  /metrics                 Prometheus text format + Go runtime health
//	GET  /debug/traces            retained request trace trees (span JSON)
//	GET  /debug/slow              slow-request flight recorder (stage-attributed)
//	GET  /debug/pprof/*           Go pprof profiling endpoints
//
// The transform path pipes the (optionally gzip-compressed) request body
// through the record-aware chunker into a pool of reusable lanes, and
// streams per-shard outputs back in shard order with chunked transfer
// encoding: a slow client backpressures the lane pool, which backpressures
// the body reader. Per-request limits (max body bytes, a deadline, and a
// concurrent-transform semaphore answering 429 when saturated) keep one
// client from starving the node; Shutdown drains in-flight transforms.
package server

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"udp"
	"udp/internal/builtins"
	"udp/internal/memsys"
	"udp/internal/obs"
)

// DefaultFrameBytes is the response-framing window: per-shard outputs
// coalesce in a scatter-gather buffer and go to the connection in frames
// of about this size, so a many-small-shards transform does not translate
// into many small chunked-encoding writes.
const DefaultFrameBytes = 32 << 10

// gzReaders pools gzip inflate state across requests; a gzip.Reader's
// window and Huffman tables are ~40 KiB that Reset reuses wholesale.
var gzReaders = sync.Pool{}

func getGzipReader(r io.Reader) (*gzip.Reader, error) {
	if gz, ok := gzReaders.Get().(*gzip.Reader); ok {
		if err := gz.Reset(r); err != nil {
			gzReaders.Put(gz)
			return nil, err
		}
		return gz, nil
	}
	return gzip.NewReader(r)
}

func putGzipReader(gz *gzip.Reader) {
	gz.Close()
	gzReaders.Put(gz)
}

// Option defaults.
const (
	DefaultMaxBodyBytes   = int64(1) << 30
	DefaultRequestTimeout = 2 * time.Minute
	DefaultMaxInflight    = 8
	// DefaultCyclesPerByte is the per-shard cycle budget multiplier: honest
	// kernels run at one-to-a-few cycles per input byte, so 1024 is a
	// generous margin that still faults a runaway program in milliseconds of
	// simulated time instead of the machine's 2^33-cycle wall.
	DefaultCyclesPerByte = 1024
	// DefaultCycleFloor is the minimum per-shard budget (covers empty
	// shards and fixed startup work).
	DefaultCycleFloor = uint64(1) << 20
	// DefaultBreakerThreshold is the consecutive fault-failed transforms of
	// one program that open its circuit breaker.
	DefaultBreakerThreshold = 5
	// DefaultBreakerCooldown is how long an open breaker rejects before
	// letting a probe through.
	DefaultBreakerCooldown = 10 * time.Second
)

// StatusClientClosedRequest is the nginx-convention status recorded when
// the client goes away mid-transform (never seen on the wire).
const StatusClientClosedRequest = 499

// Options tunes a Server. The zero value gets sane defaults.
type Options struct {
	// MaxBodyBytes caps one request body (pre-decompression); beyond it
	// the transform fails with 413. Default 1 GiB.
	MaxBodyBytes int64
	// RequestTimeout bounds one transform end to end. Default 2 minutes.
	RequestTimeout time.Duration
	// MaxInflight caps concurrent transforms; excess requests get 429
	// with Retry-After. Default 8.
	MaxInflight int
	// DrainGrace holds the listener open for this long after Shutdown is
	// called: new transforms (and health checks) are answered 503 with
	// Retry-After while a load balancer notices the node is leaving, then
	// the listener closes and in-flight transforms drain. 0 skips the
	// grace window and closes the listener immediately.
	DrainGrace time.Duration
	// CachePrograms bounds the POSTed-program LRU. Default 64.
	CachePrograms int
	// MaxLanes caps the simulated lanes per transform (0 = the image's
	// limit); the host runs each transform on at most GOMAXPROCS workers.
	MaxLanes int
	// Engine is the default lane execution tier for transforms (the zero
	// value, udp.EngineAuto, compiles whenever the image lowers). A request
	// overrides it per transform with the X-Udp-Engine header; the tier
	// that actually ran comes back in the X-Udp-Engine response trailer.
	Engine udp.Engine
	// ChunkBytes is the shard-size target (0 = the executor default).
	ChunkBytes int
	// CyclesPerByte is the per-shard cycle budget multiplier (0 =
	// DefaultCyclesPerByte; negative = unbounded, the machine default).
	CyclesPerByte int64
	// CycleFloor is the minimum per-shard cycle budget (0 =
	// DefaultCycleFloor).
	CycleFloor uint64
	// Retry re-enqueues shards that fail with retryable traps (the zero
	// policy disables retries; see udp.RetryPolicy).
	Retry udp.RetryPolicy
	// Inject, when non-nil, injects deterministic faults per shard attempt
	// (chaos testing; parse UDP_FAULT_INJECT with udp.ParseInjectSpec).
	Inject *udp.FaultInjector
	// BreakerThreshold is the consecutive fault-failed transforms that open
	// a program's circuit breaker (0 = DefaultBreakerThreshold; negative
	// disables the breaker).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects before a probe
	// (0 = DefaultBreakerCooldown).
	BreakerCooldown time.Duration
	// Tracer, when non-nil, records one span tree per transform request
	// (request → shard attempts → lane runs), joins a client-supplied W3C
	// traceparent header, and serves the retained trees on /debug/traces.
	Tracer *obs.Tracer
	// Flight, when non-nil, captures a stage-attributed flight-recorder
	// entry (stage breakdown, span tree, engine, pressure level, fault
	// taxonomy) for every request at or over its threshold, served on
	// /debug/slow and mirrored as a greppable warn log line.
	Flight *obs.FlightRecorder
	// Logger receives the server's structured log records (nil =
	// slog.Default()). Every transform record carries a request_id — the
	// trace ID when tracing is on — and the program ID.
	Logger *slog.Logger
	// ProfileSample turns on the per-lane automaton profiler: one shard in
	// every ProfileSample is histogrammed into the program's aggregate
	// profile, served on /v1/profile/{program}. 0 disables profiling.
	ProfileSample int
	// Mem is the slab manager backing request staging, response framing and
	// the pressure-tightened admission gate (nil = memsys.Default(), the
	// manager the executor already draws from). Arm its watermarks with
	// memsys.Manager.SetWatermarks to enable pressure shedding.
	Mem *memsys.Manager
	// FrameBytes is the response-framing window (0 = DefaultFrameBytes).
	FrameBytes int
}

// Server is the udpserved HTTP core. Create with New, mount Handler, or use
// Serve/ListenAndServe + Shutdown for a managed listener.
type Server struct {
	opts Options
	reg  *Registry
	met  *Metrics
	mux  *http.ServeMux
	sem  chan struct{}
	log  *slog.Logger
	mem  *memsys.Manager

	bmu      sync.Mutex
	breakers map[string]*breaker // per-program; nil when the breaker is disabled

	pmu      sync.Mutex
	profiles map[string]*udp.Profile // per-program; nil when profiling is disabled

	mu      sync.Mutex
	httpSrv *http.Server

	draining atomic.Bool
}

// New builds a Server with the built-in kernels registered.
func New(opts Options) *Server {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = DefaultRequestTimeout
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = DefaultMaxInflight
	}
	if opts.CyclesPerByte == 0 {
		opts.CyclesPerByte = DefaultCyclesPerByte
	}
	if opts.CycleFloor == 0 {
		opts.CycleFloor = DefaultCycleFloor
	}
	if opts.BreakerThreshold == 0 {
		opts.BreakerThreshold = DefaultBreakerThreshold
	}
	if opts.BreakerCooldown <= 0 {
		opts.BreakerCooldown = DefaultBreakerCooldown
	}
	if opts.Mem == nil {
		opts.Mem = memsys.Default()
	}
	if opts.FrameBytes <= 0 {
		opts.FrameBytes = DefaultFrameBytes
	}
	s := &Server{
		opts: opts,
		reg:  NewRegistry(opts.CachePrograms),
		met:  NewMetrics(),
		mux:  http.NewServeMux(),
		sem:  make(chan struct{}, opts.MaxInflight),
		log:  opts.Logger,
		mem:  opts.Mem,
	}
	if s.log == nil {
		s.log = slog.Default()
	}
	if opts.BreakerThreshold > 0 {
		s.breakers = make(map[string]*breaker)
	}
	if opts.ProfileSample > 0 {
		s.profiles = make(map[string]*udp.Profile)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/programs", s.handlePrograms)
	s.mux.HandleFunc("POST /v1/programs", s.handleRegister)
	s.mux.HandleFunc("POST /v1/transform/{program}", s.handleTransform)
	s.mux.HandleFunc("GET /v1/profile/{program}", s.handleProfile)
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/slow", s.handleSlow)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler exposes the route table (httptest-friendly).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the program registry (for pre-registering programs).
func (s *Server) Registry() *Registry { return s.reg }

// Metrics exposes the metrics sink (test hook).
func (s *Server) Metrics() *Metrics { return s.met }

// Serve accepts connections on l until Shutdown.
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.mux}
	s.mu.Lock()
	s.httpSrv = srv
	s.mu.Unlock()
	err := srv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// ListenAndServe binds addr and serves; the bound address is reported
// through ready (buffered; may be nil) before accepting, so callers can
// bind port 0.
func (s *Server) ListenAndServe(addr string, ready chan<- net.Addr) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- l.Addr()
	}
	return s.Serve(l)
}

// Shutdown drains the server: it flips the node into draining mode (new
// transforms and health checks answer 503 with Retry-After), waits out
// Options.DrainGrace so load balancers can route away, then stops accepting
// connections and waits for in-flight transforms to finish (bounded by ctx).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	srv := s.httpSrv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	if g := s.opts.DrainGrace; g > 0 {
		t := time.NewTimer(g)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	return srv.Shutdown(ctx)
}

// Draining reports whether Shutdown has been called — the window where new
// transforms are rejected with 503 while in-flight ones finish.
func (s *Server) Draining() bool { return s.draining.Load() }

// allowedInflight is the semaphore capacity on offer right now: the full
// MaxInflight at LevelOK, half (rounded up) at the soft watermark, zero at
// the critical watermark.
func (s *Server) allowedInflight() (int, memsys.Level) {
	lvl := s.mem.Pressure()
	switch lvl {
	case memsys.LevelSoft:
		return (s.opts.MaxInflight + 1) / 2, lvl
	case memsys.LevelCritical:
		return 0, lvl
	default:
		return s.opts.MaxInflight, lvl
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		// Fail the health check first so load balancers stop routing here
		// before the listener closes.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Exemplars ride the OpenMetrics flavor only: classic text-format
	// scrapers (and the soak harness's regexes) keep the plain exposition
	// unless the client negotiates OpenMetrics or asks with ?exemplars=1.
	om := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") ||
		r.URL.Query().Get("exemplars") == "1"
	if om {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	s.met.Render(w, s.reg, s.mem, om)
}

func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.List())
}

// RegisterResponse is the JSON reply to POST /v1/programs.
type RegisterResponse struct {
	Info
	Cached bool `json:"cached"`
}

// chunkSpecFromQuery parses ?sep= (single byte, decimal byte value, or
// "none") and ?align= into a ChunkSpec. The default is newline-separated
// records.
func chunkSpecFromQuery(q map[string][]string) (builtins.ChunkSpec, error) {
	spec := builtins.ChunkSpec{Sep: '\n', HasSep: true}
	if vs := q["sep"]; len(vs) > 0 {
		v := vs[0]
		switch {
		case v == "none":
			spec = builtins.ChunkSpec{}
		case len(v) == 1:
			spec = builtins.ChunkSpec{Sep: v[0], HasSep: true}
		default:
			n, err := strconv.ParseUint(v, 10, 8)
			if err != nil {
				return spec, fmt.Errorf("sep must be one byte, a decimal byte value, or \"none\"")
			}
			spec = builtins.ChunkSpec{Sep: byte(n), HasSep: true}
		}
	}
	if vs := q["align"]; len(vs) > 0 {
		n, err := strconv.Atoi(vs[0])
		if err != nil || n < 0 {
			return spec, fmt.Errorf("align must be a non-negative integer")
		}
		spec.Align = n
	}
	return spec, nil
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	// Stage the body through a scatter-gather buffer: the upload streams
	// into recycled slabs and lands in exactly one right-sized allocation,
	// instead of io.ReadAll's doubling reallocations.
	sgl := s.mem.NewSGL(r.ContentLength)
	defer sgl.Free()
	if _, err := sgl.ReadFrom(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)); err != nil {
		writeErr(w, statusFor(err), "reading assembly: %v", err)
		return
	}
	body := sgl.AppendTo(nil)
	if len(body) == 0 {
		writeErr(w, http.StatusBadRequest, "empty assembly body")
		return
	}
	spec, err := chunkSpecFromQuery(r.URL.Query())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	p, cached, err := s.reg.Register(body, r.URL.Query().Get("name"), spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, RegisterResponse{Info: infoOf(p), Cached: cached})
}

// statusFor maps a transform failure to an HTTP status (only meaningful
// before the first output byte is written).
func statusFor(err error) int {
	var mbe *http.MaxBytesError
	var tr *udp.Trap
	var se udp.ShardError
	switch {
	case errors.As(err, &mbe):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest
	case errors.As(err, &tr):
		// Typed lane fault. A sandboxed panic is our bug (500); every other
		// trap means the program rejected or mangled the data — the
		// client's problem (422).
		if tr.Kind == udp.TrapPanic {
			return http.StatusInternalServerError
		}
		return http.StatusUnprocessableEntity
	case errors.As(err, &se):
		// The program rejected the data (dispatch error): client problem.
		return http.StatusUnprocessableEntity
	case strings.Contains(err.Error(), "sched: source:"):
		// Reading/decompressing the request body failed mid-stream.
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleTransform(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	id := r.PathValue("program")

	// Drain gate: once Shutdown has been called, keep-alive connections can
	// still deliver new requests during the grace window — reject them with
	// a retryable 503 so the client moves to another node, while transforms
	// accepted before the drain keep streaming.
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		s.met.RequestDone("_drain", http.StatusServiceUnavailable, time.Since(t0), "")
		writeErr(w, http.StatusServiceUnavailable, "node draining; retry on another node")
		return
	}

	// Open the request's root span, joining the client's trace when it sent
	// a well-formed traceparent header (a malformed one is ignored per the
	// W3C spec — the request proceeds on a fresh trace). The trace ID doubles
	// as the request ID in log records and is echoed to the client in
	// X-Udp-Trace-Id even on error responses.
	parent, _ := obs.ParseTraceparent(r.Header.Get("traceparent"))
	sp := s.opts.Tracer.StartRoot("transform", parent)
	reqID := sp.TraceID()
	if reqID == "" {
		reqID = obs.NewRequestID()
	}
	w.Header().Set("X-Udp-Trace-Id", reqID)

	// The stage clock rides the request context next to the span; the
	// executor's producer, workers and sink drain add into it lock-free, and
	// the deferred epilogue below reads one consistent snapshot for the
	// stage histograms, the flight recorder and the slow-request log.
	clk := &obs.StageClock{}
	ctx := obs.ContextWithStages(r.Context(), clk)
	if sp != nil {
		sp.SetAttr("program", id)
		ctx = obs.ContextWithSpan(ctx, sp)
	}
	r = r.WithContext(ctx)

	status := 0
	progID := id
	ranEngine := ""
	trapKind := ""
	defer func() {
		sp.SetAttr("status", status)
		sp.End()
		d := time.Since(t0)
		s.met.StageObserve(clk, ranEngine, reqID)
		if s.opts.Flight.Slow(d) {
			s.opts.Flight.Record(&obs.FlightEntry{
				TraceID:    reqID,
				Program:    progID,
				Engine:     ranEngine,
				Status:     status,
				Pressure:   s.mem.Pressure().String(),
				Trap:       trapKind,
				Start:      t0,
				DurationMs: float64(d) / float64(time.Millisecond),
				StagesMs:   obs.StagesMs(clk.Snapshot()),
				Trace:      sp.Export(),
			})
			s.log.Warn("slow transform",
				"request_id", reqID, "program", progID, "status", status,
				"dur_ms", float64(d)/float64(time.Millisecond),
				"engine", ranEngine, "pressure", s.mem.Pressure().String(),
				"trap", trapKind, "stages", clk.String())
		}
	}()

	prog, ok := s.reg.Lookup(id)
	if !ok {
		// One shared label keeps arbitrary ids out of the metric space.
		status = http.StatusNotFound
		progID = "_unknown"
		s.met.RequestDone("_unknown", http.StatusNotFound, time.Since(t0), reqID)
		writeErr(w, http.StatusNotFound, "unknown program %q (GET /v1/programs lists them)", id)
		return
	}
	progID = prog.ID

	// Degraded-mode gate: a program whose breaker is open is rejected
	// before it can take a semaphore slot, so a poisoned program cannot
	// starve healthy ones of transform capacity.
	var brk *breaker
	if s.breakers != nil {
		brk = s.breakerFor(prog.ID)
		if ok, wait := brk.allow(time.Now()); !ok {
			secs := int(wait.Round(time.Second) / time.Second)
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			status = http.StatusServiceUnavailable
			s.met.SetBreakerOpen(prog.ID, true)
			s.met.RequestDone(prog.ID, http.StatusServiceUnavailable, time.Since(t0), reqID)
			s.log.Warn("transform rejected: circuit breaker open",
				"request_id", reqID, "program", prog.ID, "retry_after_s", secs)
			writeErr(w, http.StatusServiceUnavailable,
				"program %s is degraded (circuit breaker open); retry in %ds", prog.ID, secs)
			return
		}
	}

	// Saturation gate, tightened under memory pressure: at the soft
	// watermark only half the configured slots are offered, at the critical
	// watermark none — shedding with a retryable 429 beats letting the heap
	// grow into an OOM kill. Answer immediately instead of queueing; the
	// caller's load balancer can retry on a less busy node.
	allowed, lvl := s.allowedInflight()
	acquired := false
	if len(s.sem) < allowed {
		select {
		case s.sem <- struct{}{}:
			acquired = true
		default:
		}
	}
	if !acquired {
		if brk != nil {
			brk.release()
		}
		status = http.StatusTooManyRequests
		s.met.RequestDone(prog.ID, http.StatusTooManyRequests, time.Since(t0), reqID)
		if lvl != memsys.LevelOK {
			s.met.MemShed()
			w.Header().Set("Retry-After", "2")
			s.log.Warn("transform rejected: memory pressure",
				"request_id", reqID, "program", prog.ID, "pressure", lvl.String(),
				"heap_inuse", s.mem.HeapInuse(), "allowed_inflight", allowed)
			writeErr(w, http.StatusTooManyRequests,
				"memory pressure (%s): transform capacity reduced to %d", lvl, allowed)
			return
		}
		w.Header().Set("Retry-After", "1")
		s.log.Warn("transform rejected: capacity saturated",
			"request_id", reqID, "program", prog.ID, "inflight", s.opts.MaxInflight)
		writeErr(w, http.StatusTooManyRequests, "transform capacity saturated (%d in flight)", s.opts.MaxInflight)
		return
	}
	defer func() { <-s.sem }()
	s.met.IncInflight()
	defer s.met.DecInflight()

	// A mid-stream failure aborts the handler with a panic (see
	// runTransform); a half-open probe must not stay stuck in that case.
	settled := false
	if brk != nil {
		defer func() {
			if !settled {
				brk.release()
			}
		}()
	}

	// Everything before the transform body — drain gate, span setup,
	// registry lookup, breaker, semaphore — is the admission stage.
	clk.Add(obs.StageAdmission, time.Since(t0))

	code, ranOn, err := s.runTransform(w, r, prog, clk)
	status = code
	ranEngine = ranOn.String()
	var reqTrap *udp.Trap
	if errors.As(err, &reqTrap) {
		trapKind = reqTrap.Kind.String()
	}
	if brk != nil {
		settled = true
		var tr *udp.Trap
		switch {
		case code == http.StatusOK:
			brk.success()
		case err != nil && errors.As(err, &tr):
			brk.failure(time.Now())
		default:
			// Not a lane-fault verdict (client error, timeout, ...): a
			// half-open probe ends without closing or reopening.
			brk.release()
		}
		s.met.SetBreakerOpen(prog.ID, brk.isOpen())
	}
	d := time.Since(t0)
	s.met.RequestDone(prog.ID, code, d, reqID)
	if err != nil && code == http.StatusInternalServerError {
		// Surface genuinely unexpected failures in the server log.
		s.log.Error("transform failed unexpectedly",
			"request_id", reqID, "program", prog.ID, "status", code, "err", err)
	} else {
		s.log.Debug("transform done",
			"request_id", reqID, "program", prog.ID, "status", code,
			"dur_ms", float64(d)/float64(time.Millisecond))
	}
}

// handleTraces serves the tracer's retained span trees ({"enabled": false}
// when the server runs without a tracer).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.opts.Tracer.WriteJSON(w)
}

// handleSlow serves the flight recorder's retained slow-request entries
// ({"enabled": false} when the server runs without one).
func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.opts.Flight.WriteJSON(w)
}

// handleProfile serves a program's aggregated automaton profile.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("program")
	if s.profiles == nil {
		writeErr(w, http.StatusNotFound, "profiling disabled (start udpserved with -profile-sample)")
		return
	}
	s.pmu.Lock()
	p := s.profiles[id]
	s.pmu.Unlock()
	if p == nil {
		writeErr(w, http.StatusNotFound, "no profile recorded for %q yet (run a transform first)", id)
		return
	}
	writeJSON(w, http.StatusOK, p.Snapshot())
}

// profileFor returns (lazily creating) the program's profile aggregate.
func (s *Server) profileFor(prog *Program, img *udp.Image) *udp.Profile {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	p := s.profiles[prog.ID]
	if p == nil {
		p = udp.NewProfile(prog.ID, img)
		s.profiles[prog.ID] = p
	}
	return p
}

// runTransform streams one request body through prog. It returns the status
// code recorded for metrics and the engine tier shards ran on; when output
// has already been streamed a mid-transform failure aborts the connection
// (the client sees a truncated chunked body) since the 200 header is long
// gone. clk receives the decode and write stages here (the executor adds
// chunk/queue/lane/sink through the request context).
func (s *Server) runTransform(w http.ResponseWriter, r *http.Request, prog *Program, clk *obs.StageClock) (int, udp.Engine, error) {
	engine := s.opts.Engine
	img, err := prog.Image()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "compiling %s: %v", prog.ID, err)
		return http.StatusInternalServerError, engine, err
	}

	if h := r.Header.Get("X-Udp-Engine"); h != "" {
		e, err := udp.ParseEngine(h)
		if err != nil {
			writeErr(w, http.StatusUnprocessableEntity, "X-Udp-Engine: %v", err)
			return http.StatusUnprocessableEntity, engine, nil
		}
		engine = e
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()

	var body io.Reader = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	if strings.Contains(r.Header.Get("Content-Encoding"), "gzip") {
		gz, err := getGzipReader(body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "gzip body: %v", err)
			return http.StatusBadRequest, engine, nil
		}
		defer putGzipReader(gz)
		// Time spent inside inflate is the decode stage; the chunker's
		// producer subtracts it from its own Next() wall time so decode and
		// chunk never double-count.
		body = obs.StageReader(gz, clk, obs.StageDecode)
	}

	chunk := s.opts.ChunkBytes
	if v := r.URL.Query().Get("chunk"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 512 || n > 16<<20 {
			writeErr(w, http.StatusBadRequest, "chunk must be in [512, %d]", 16<<20)
			return http.StatusBadRequest, engine, nil
		}
		chunk = n
	}
	if a := prog.Chunk.Align; a > 0 {
		if chunk <= 0 {
			chunk = udp.DefaultChunkBytes
		}
		if chunk < a {
			chunk = a
		}
		chunk -= chunk % a
	}

	flusher, _ := w.(http.Flusher)
	// Per-shard outputs coalesce in a scatter-gather frame and hit the
	// connection in FrameBytes-sized writes; the 200 commits on the first
	// frame flush, so a transform that fails before filling one frame still
	// gets an honest error status instead of a truncated 200.
	fw := &frameWriter{
		w: w, flusher: flusher, progID: prog.ID,
		sgl: s.mem.NewSGL(int64(s.opts.FrameBytes)), frame: int64(s.opts.FrameBytes),
		clk:    clk,
		stages: r.Header.Get(obs.StagesHeader) != "",
	}
	defer fw.sgl.Free()
	sink := func(shard int, out []byte) error {
		s.met.AddBytesOut(prog.ID, len(out))
		return fw.write(out)
	}

	// ranEngine tracks the tier shards actually executed on (it can sit
	// below the requested engine when the image is ineligible). Events are
	// delivered serially and read only after Exec returns.
	ranEngine := engine
	opts := make([]udp.ExecOption, 0, 12)
	opts = append(opts,
		udp.WithSink(sink),
		udp.WithEngine(engine),
		udp.WithStatsHook(func(e udp.ShardEvent) {
			ranEngine = e.Engine
			s.met.ShardEvent(prog.ID, e)
		}),
		udp.WithRetryPolicy(s.opts.Retry),
	)
	if s.opts.CyclesPerByte > 0 {
		opts = append(opts, udp.WithCycleBudget(uint64(s.opts.CyclesPerByte), s.opts.CycleFloor))
	}
	if s.opts.Inject != nil {
		opts = append(opts, udp.WithFaultInjection(s.opts.Inject))
	}
	if s.opts.MaxLanes > 0 {
		opts = append(opts, udp.WithMaxLanes(s.opts.MaxLanes))
	}
	if chunk > 0 {
		opts = append(opts, udp.WithChunkBytes(chunk))
	}
	if prog.Chunk.HasSep {
		opts = append(opts, udp.WithChunker(prog.Chunk.Sep))
	}
	if s.profiles != nil {
		opts = append(opts,
			udp.WithProfile(s.profileFor(prog, img)),
			udp.WithProfileSample(s.opts.ProfileSample))
	}

	res, err := udp.Exec(ctx, img, body, opts...)
	if err != nil {
		if fw.netWrote > 0 {
			// Mid-stream failure: the only honest signal left is killing
			// the connection so the client sees a truncated chunked body.
			panic(http.ErrAbortHandler)
		}
		code := statusFor(err)
		writeErr(w, code, "transform failed: %v", err)
		return code, ranEngine, err
	}

	if err := fw.flush(); err != nil {
		// The final frame failed to reach the client: the 200 is committed,
		// so the only honest signal left is the aborted connection.
		panic(http.ErrAbortHandler)
	}
	if fw.netWrote == 0 {
		// Valid empty result (e.g. all input out of histogram range).
		fw.commit()
	}
	w.Header().Set("X-Udp-Shards", strconv.Itoa(res.Shards))
	w.Header().Set("X-Udp-Input-Bytes", strconv.Itoa(res.InputBytes))
	w.Header().Set("X-Udp-Cycles", strconv.FormatUint(res.Cycles, 10))
	w.Header().Set("X-Udp-Engine", ranEngine.String())
	if fw.stages {
		// Every stage is final here: the executor returned, and the write
		// stage's last add came from the flush above. Values are integer
		// nanoseconds.
		snap := clk.Snapshot()
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			w.Header().Set(obs.StageTrailer(st), strconv.FormatInt(snap[st], 10))
		}
	}
	return http.StatusOK, ranEngine, nil
}

// frameWriter coalesces per-shard outputs into frame-sized network writes
// through a scatter-gather buffer. The first flush runs commit (the 200 +
// stream headers), so nothing is promised to the client until a full
// frame — or the end of the run — forces real bytes onto the wire.
type frameWriter struct {
	w        http.ResponseWriter
	flusher  http.Flusher
	progID   string
	sgl      *memsys.SGL
	frame    int64
	netWrote int64 // bytes actually written to the connection
	clk      *obs.StageClock
	stages   bool // client opted into X-Udp-Stage-* trailers
}

// commit sends the 200 and the stream headers; stats arrive as HTTP
// trailers once the run finishes (chunked encoding carries them).
func (fw *frameWriter) commit() {
	// Frames go out while the executor is still reading the body. Without
	// full duplex net/http discards the unread body (up to 256 KiB) on the
	// first write of a keep-alive connection and the chunker sees an
	// unexpected EOF. HTTP/2 and test recorders report ErrNotSupported:
	// they have no such restriction.
	_ = http.NewResponseController(fw.w).EnableFullDuplex()
	fw.w.Header().Set("Content-Type", "application/octet-stream")
	fw.w.Header().Set("X-Udp-Program", fw.progID)
	trailers := "X-Udp-Shards, X-Udp-Input-Bytes, X-Udp-Cycles, X-Udp-Engine"
	if fw.stages {
		trailers += ", " + obs.StageTrailerList
	}
	fw.w.Header().Set("Trailer", trailers)
	fw.w.WriteHeader(http.StatusOK)
}

func (fw *frameWriter) write(p []byte) error {
	if _, err := fw.sgl.Write(p); err != nil {
		return err
	}
	if fw.sgl.Len() >= fw.frame {
		return fw.flush()
	}
	return nil
}

func (fw *frameWriter) flush() error {
	if fw.sgl.Len() == 0 {
		return nil
	}
	if fw.netWrote == 0 {
		fw.commit()
	}
	t0 := time.Now()
	n, err := fw.sgl.WriteTo(fw.w)
	fw.netWrote += n
	fw.sgl.Reset()
	if err == nil && fw.flusher != nil {
		fw.flusher.Flush()
	}
	// Frame write + flush is where a slow client shows up.
	fw.clk.Add(obs.StageWrite, time.Since(t0))
	return err
}
