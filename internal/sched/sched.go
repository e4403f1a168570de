// Package sched is the streaming lane-pool executor: it time-multiplexes an
// unbounded stream of input shards over a fixed pool of reusable UDP lanes,
// in the spirit of the paper's ETL serving scenario (Section 5.3) — the
// machine keeps at most MaxLanes(img) lanes resident and streams work
// through them, instead of requiring one lane per shard and the whole input
// in memory.
//
// The lanes a run simulates are separate from the host goroutines that
// execute it. A run simulates up to MaxLanes(img) lanes but executes on at
// most min(lanes, GOMAXPROCS) workers, each owning one reusable lane. The
// simulated makespan is the list schedule the hardware would run (shards in
// stream order, each to the least-loaded simulated lane), so it depends on
// the image, the shards and the lane count, never on the host.
//
// The executor pulls shards from a Source through a bounded queue (the
// backpressure point: a slow lane pool stalls the producer instead of
// buffering the world), resets and reuses each lane between shards
// (machine.Lane.Reset restores the load-time memory image), honors
// context.Context cancellation at shard granularity, supports fail-fast and
// collect-and-continue error policies, and reports per-shard events to an
// observability hook so callers can surface live throughput.
package sched

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/fault"
	"udp/internal/machine"
	"udp/internal/memsys"
	"udp/internal/obs"
)

// Typed argument errors, so callers can distinguish a misuse from an
// execution failure with errors.Is instead of recovering a panic raised deep
// in the machine.
var (
	// ErrNilImage is returned when a run is started with a nil image.
	ErrNilImage = errors.New("sched: nil image")
	// ErrNilSource is returned when a run is started with a nil source.
	ErrNilSource = errors.New("sched: nil shard source")
)

// ErrorPolicy selects how per-shard execution errors end (or don't end) a
// run.
type ErrorPolicy int

const (
	// FailFast cancels the run on the first shard error; Run returns that
	// error.
	FailFast ErrorPolicy = iota
	// CollectErrors records each failing shard in Result.Errors (its
	// output slot stays nil) and keeps going.
	CollectErrors
)

// ShardError ties an execution error to the shard it occurred on.
type ShardError struct {
	// Shard is the shard index in stream order.
	Shard int
	// Err is the underlying lane or setup error.
	Err error
}

func (e ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e ShardError) Unwrap() error { return e.Err }

// Event is one observability record, emitted after a shard attempt
// finishes (successfully or not). Events are delivered serially — the hook
// needs no locking — but not necessarily in shard order. A shard that is
// retried emits one Event per attempt.
type Event struct {
	// Shard is the shard index in stream order.
	Shard int
	// Lane is the host worker (0..workers-1, workers = min(Lanes,
	// GOMAXPROCS)) that ran the shard. It is not a simulated lane: the
	// makespan's lane assignment follows from shard order alone.
	Lane int
	// Bytes is the shard's input size.
	Bytes int
	// Cycles is the lane cycle count for this shard.
	Cycles uint64
	// Wall is the host wall-clock time the shard took (Reset through Run).
	Wall time.Duration
	// QueueDepth is the number of shards waiting in the queue at the
	// moment this shard was dequeued (backpressure signal).
	QueueDepth int
	// Busy is the number of host workers executing a shard at the moment
	// this shard was dequeued, this one included (utilization signal).
	Busy int
	// Attempt is which execution of the shard this was (0 = first).
	Attempt int
	// Engine is the execution tier the shard actually ran on (which can
	// be lower than the configured engine when the image is ineligible or
	// the program self-modifies; see machine.Lane.EngineInUse).
	Engine machine.Engine
	// Trap is the typed fault behind Err, when there is one.
	Trap *fault.Trap
	// Retried reports that this failed attempt was re-enqueued per the
	// retry policy (a later Event for the same Shard will follow).
	Retried bool
	// Err is the shard's error, nil on success.
	Err error
}

// Rate is the shard's simulated throughput in MB/s at the ASIC clock.
func (e Event) Rate() float64 { return machine.RateMBps(e.Bytes, e.Cycles) }

// FaultRecord is one shard attempt that ended in a typed trap — the
// per-shard fault log Result accumulates and the Event hook mirrors.
type FaultRecord struct {
	// Shard is the shard index in stream order.
	Shard int
	// Lane is the host worker the faulting attempt ran on (see Event.Lane).
	Lane int
	// Attempt is which execution of the shard faulted (0 = first).
	Attempt int
	// Trap is the typed fault.
	Trap *fault.Trap
	// Retried reports the shard was re-enqueued after this fault.
	Retried bool
	// Backoff is the delay before the re-enqueue (zero when not retried).
	Backoff time.Duration
}

// CycleBudget derives a per-shard cycle cap from the shard's input size,
// so a runaway program faults in milliseconds of simulated time instead of
// grinding to machine.DefaultMaxCycles (2^33). The zero value means
// "no budget" (the machine default applies).
type CycleBudget struct {
	// PerByte is the allowed cycles per input byte. Honest kernels run at
	// one-to-a-few cycles per byte, so even 64 is a generous margin.
	PerByte uint64
	// Floor is the minimum budget regardless of shard size (covers empty
	// shards and fixed startup work such as table builds).
	Floor uint64
}

// For returns the cycle cap for a shard of the given size (0 = unbounded
// up to the machine default).
func (b CycleBudget) For(bytes int) uint64 {
	if b.PerByte == 0 && b.Floor == 0 {
		return 0
	}
	c := b.PerByte * uint64(bytes)
	if c < b.Floor {
		c = b.Floor
	}
	return c
}

// RetryPolicy re-enqueues shards that fail with a retryable trap, with
// decorrelated-jitter backoff, onto the pool (any idle lane picks the
// retry up — by the time the backoff expires it is almost never the lane
// that faulted, and a panicking lane has been quarantined and replaced
// regardless). The zero value disables retries.
type RetryPolicy struct {
	// Max is the retry attempts per shard beyond the first execution
	// (0 = no retries).
	Max int
	// Backoff is the base backoff (default 1ms when Max > 0). Successive
	// retries follow decorrelated jitter: sleep = min(cap, base +
	// rand*(3*prev - base)).
	Backoff time.Duration
	// MaxBackoff caps the backoff (default 32× Backoff).
	MaxBackoff time.Duration
	// RetryableTraps lists the trap kinds worth re-running. Nil means
	// only fault.TrapPanic (the one kind that is plausibly transient
	// without fault injection).
	RetryableTraps []fault.Kind
	// Rand overrides the jitter source (tests); nil uses math/rand.
	Rand func() float64
}

// retryable reports whether a trap of kind k is worth re-running under p.
func (p RetryPolicy) retryable(k fault.Kind) bool {
	if p.Max <= 0 {
		return false
	}
	if len(p.RetryableTraps) == 0 {
		return k == fault.TrapPanic
	}
	for _, r := range p.RetryableTraps {
		if r == k {
			return true
		}
	}
	return false
}

// next picks the decorrelated-jitter delay following prev (0 for the first
// retry).
func (p RetryPolicy) next(prev time.Duration) time.Duration {
	base := p.Backoff
	if base <= 0 {
		base = time.Millisecond
	}
	limit := p.MaxBackoff
	if limit <= 0 {
		limit = 32 * base
	}
	if prev <= 0 {
		prev = base
	}
	r := p.Rand
	if r == nil {
		r = rand.Float64
	}
	span := 3*prev - base
	if span < 0 {
		span = 0
	}
	d := base + time.Duration(r()*float64(span))
	if d > limit {
		d = limit
	}
	return d
}

// Config tunes a run. The zero value is usable: MaxLanes(img) simulated
// lanes, fail-fast errors, no setup, no hook.
type Config struct {
	// Lanes caps the simulated lanes the makespan is scheduled over; 0 or
	// anything above MaxLanes(img) means MaxLanes(img). The run executes on
	// min(Lanes, GOMAXPROCS) host workers through a queue of 2× workers.
	Lanes int
	// Engine selects the lane execution tier for the pool
	// (machine.EngineAuto, the zero value, picks the fastest eligible
	// tier; see machine.Engine). Every pool lane runs the same engine.
	Engine machine.Engine
	// Setup, when non-nil, customizes a lane before each shard runs
	// (stage memory, preset registers). It runs after Reset and SetInput,
	// with the shard's stream-order index.
	Setup machine.LaneSetup
	// Policy is the error policy (default FailFast).
	Policy ErrorPolicy
	// Hook, when non-nil, receives one Event per finished shard.
	Hook func(Event)
	// Budget caps each shard's lane cycles as a function of its input
	// size; the zero value leaves the machine default (2^33) in place.
	Budget CycleBudget
	// Retry re-enqueues shards failing with retryable traps (see
	// RetryPolicy); the zero value disables retries. Retries take
	// precedence over Policy: only a shard whose retries are exhausted
	// (or whose trap is not retryable) reaches FailFast/CollectErrors
	// handling.
	Retry RetryPolicy
	// Inject, when non-nil, is the deterministic fault injector rolled
	// once per shard attempt (chaos testing; see fault.Injector).
	Inject *fault.Injector
	// Profile, when non-nil, aggregates the automaton profiler across the
	// run: each worker attaches a per-lane histogram to sampled shards and
	// merges it into Profile when the worker exits. The machine's
	// zero-allocation dispatch path is untouched when Profile is nil.
	Profile *obs.Profile
	// ProfileSample profiles one shard in every ProfileSample (by stream
	// index); values <= 1 profile every shard. Ignored when Profile is nil.
	ProfileSample int
	// Sink, when non-nil, receives each successful shard's output in
	// shard order as soon as it and all its predecessors have finished.
	// Outputs handed to the sink are NOT accumulated in Result.Outputs,
	// so a run over an unbounded input holds only the reorder window in
	// memory. Deliveries are serial (no locking needed in the sink) and a
	// slow sink backpressures the whole pool, which in turn stalls the
	// producer through the bounded queue — backpressure end to end. A
	// sink error fails the run regardless of Policy; under CollectErrors
	// a failed shard is skipped and the cursor advances past it.
	//
	// The out slice is only valid for the duration of the call: the
	// executor recycles the buffer for a later shard's output. A sink
	// that needs the bytes past its return must copy them.
	Sink func(shard int, out []byte) error
}

// Result aggregates a streaming run.
type Result struct {
	// Lanes is the number of simulated lanes the makespan is scheduled
	// over.
	Lanes int
	// BanksPerLane is each lane's local-memory allotment.
	BanksPerLane int
	// Cycles is the makespan of the list schedule over Lanes simulated
	// lanes — shards in stream order, each to the lane with the fewest
	// accumulated cycles, only successful attempts charged — so it, and
	// Rate(), are the same on every host.
	Cycles uint64
	// Total accumulates every shard's lane counters.
	Total machine.Stats
	// InputBytes is the total bytes streamed across shards.
	InputBytes int
	// Outputs are the per-shard outputs in shard order (nil for shards
	// handed to a Sink or skipped under CollectErrors).
	Outputs [][]byte
	// Matches are the per-shard accept logs in shard order.
	Matches [][]machine.Match
	// Shards is the number of shards pulled from the source.
	Shards int
	// Errors holds per-shard failures under CollectErrors (empty under
	// FailFast, which returns the error instead).
	Errors []ShardError
	// Faults logs every shard attempt that ended in a typed trap,
	// including attempts that were subsequently retried to success.
	Faults []FaultRecord
	// Retries counts shard re-enqueues performed by the retry policy.
	Retries int
	// LanesQuarantined counts lanes replaced after a panic trap.
	LanesQuarantined int
	// QueueHighWater is the deepest the shard queue got (≤ 2× workers).
	QueueHighWater int
	// Wall is the host wall-clock duration of the whole run.
	Wall time.Duration
}

// Rate returns the aggregate throughput in MB/s (total input bytes over the
// makespan).
func (r *Result) Rate() float64 { return machine.RateMBps(r.InputBytes, r.Cycles) }

// Output concatenates the per-shard outputs in shard order.
func (r *Result) Output() []byte {
	var n int
	for _, o := range r.Outputs {
		n += len(o)
	}
	out := make([]byte, 0, n)
	for _, o := range r.Outputs {
		out = append(out, o...)
	}
	return out
}

type workItem struct {
	idx     int
	data    []byte
	attempt int           // 0 = first execution
	prev    time.Duration // last backoff (decorrelated jitter state)
	enq     time.Time     // when the item was offered to the queue (StageQueue)
}

// parked is one finished shard waiting in the reorder window for a slower
// predecessor (out is nil for a shard skipped under CollectErrors).
type parked struct {
	out []byte
	at  time.Time
}

// reorderWindow bounds, in multiples of the worker count, how far the
// producer may run ahead of the sink cursor.
const reorderWindow = 4

// mem is the shared slab manager backing the sink output windows here and
// the chunker buffers in source.go. The Sink contract forbids retaining
// out past the call, so a delivered buffer's slab can back a later
// shard's output; Recycler does the same for input shards.
var mem = memsys.Default()

// Run streams shards from src through a pool of reusable lanes executing
// img, and aggregates outputs, matches and counters in shard order. It
// returns when the source is drained, ctx is cancelled (the context error
// is returned), or — under FailFast — a shard fails with no retries left.
//
// Fault containment: every shard attempt runs sandboxed — a panic in lane
// code becomes a fault.TrapPanic and the lane is quarantined and replaced,
// never taking the pool down. Cancellation interrupts in-flight lanes
// (machine.Lane.BindStop) and Run does not return until every lane
// goroutine has exited, so no lane still holds its memory banks when the
// caller moves on — Lane.Reset can never race a still-running lane.
func Run(ctx context.Context, img *effclip.Image, src Source, cfg Config) (*Result, error) {
	if img == nil {
		return nil, ErrNilImage
	}
	if src == nil {
		return nil, ErrNilSource
	}
	limit := machine.MaxLanes(img)
	if limit == 0 {
		return nil, fault.New(fault.TrapMemOutOfWindow, img.Name, "image does not fit local memory")
	}
	lanes := cfg.Lanes
	if lanes <= 0 || lanes > limit {
		lanes = limit
	}
	workers := min(lanes, runtime.GOMAXPROCS(0))

	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// All shared mutable state lives in one runState allocation: spreading
	// it over local variables captured by the orchestration closures made
	// each variable escape to the heap on its own — ~26 one-object
	// allocations per request on the serving path.
	s := &runState{
		ctx: ctx, cancel: cancel, img: img, src: src, cfg: cfg,
		res: &Result{},
		// Two queued shards per worker keep every worker fed while the
		// run's in-flight slabs stay a few per core.
		queue:   make(chan workItem, 2*workers),
		workers: workers,
		// The request span carried by ctx (if any) parents one "shard"
		// span per attempt, each wrapping a "lane.run" span — the
		// request → shards → lane-runs trace tree. A nil span makes every
		// span call in the workers a no-op.
		reqSpan: obs.SpanFromContext(ctx),
		// The request stage clock rides the context the same way; a nil
		// clock makes every Add a no-op, so unserved runs pay one branch.
		clock: obs.StagesFromContext(ctx),
	}
	s.res.Lanes = lanes
	s.res.BanksPerLane = img.Banks()
	s.sinkMoved.L = &s.mu

	// Shard buffers flow back to a recycling source once finally resolved
	// (the lane pool only reads a shard between SetInput and the end of its
	// Run, and outputs are copied, so resolution is the last touch).
	s.recycle, _ = src.(Recycler)

	// Reorder window for Config.Sink: finished outputs park here (nil for a
	// shard skipped under CollectErrors) until every predecessor has been
	// delivered, so the sink sees outputs in shard order.
	if cfg.Sink != nil {
		s.pending = make(map[int]parked)
	}

	// The cooperative stop flag interrupts lanes mid-shard on cancellation,
	// so a fail-fast or cancelled run drains in dispatches, not in up to
	// 2^33 cycles of leftover work per in-flight lane.
	go s.watchStop()

	s.wg.Add(1)
	go s.produce()
	s.wg.Wait()

	// A run that dies early leaves shards queued that never ran, outputs
	// parked that were never delivered, and the source's carry-over.
	// Everything that sends on the queue is counted in wg, so the queue is
	// quiet now.
	for len(s.queue) > 0 {
		s.recycleShard((<-s.queue).data)
	}
	for _, p := range s.pending {
		mem.Put(p.out)
	}
	if r, ok := src.(releaser); ok {
		r.release()
	}

	if s.runErr != nil {
		return nil, s.runErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := s.res
	res.Outputs = s.outputs
	res.Matches = s.matches
	res.Total = s.total
	res.InputBytes = s.inputBytes
	res.Cycles = makespan(s.shardCycles, lanes)
	res.Errors = s.shardErrs
	res.QueueHighWater = s.highWater
	res.Wall = time.Since(start)
	return res, nil
}

// makespan list-schedules shards over lanes simulated lanes: in stream
// order, each shard goes to the lane with the fewest accumulated cycles
// (the lowest index on a tie). It returns the most any lane accumulated.
func makespan(shardCycles []uint64, lanes int) uint64 {
	var load [core.NumLanes]uint64
	var span uint64
	for _, c := range shardCycles {
		least := 0
		for l := 1; l < lanes; l++ {
			if load[l] < load[least] {
				least = l
			}
		}
		load[least] += c
		span = max(span, load[least])
	}
	return span
}

// runState is one Run's shared orchestration state. The producer, the lane
// workers and the retry timers all hold the same *runState, so the whole
// run costs a single heap allocation for its bookkeeping.
type runState struct {
	ctx     context.Context
	cancel  context.CancelFunc
	img     *effclip.Image
	src     Source
	cfg     Config
	res     *Result
	queue   chan workItem
	recycle Recycler
	reqSpan *obs.Span
	clock   *obs.StageClock
	workers int

	mu          sync.Mutex // guards everything below, and serializes Hook and Sink
	outputs     [][]byte
	matches     [][]machine.Match
	shardCycles []uint64 // the successful attempt's cycles; 0 for a failed shard
	inputBytes  int
	total       machine.Stats
	shardErrs   []ShardError
	runErr      error // first fatal error (FailFast shard error or source error)
	highWater   int
	inflight    int  // shards enqueued but not finally resolved (retries keep it held)
	prodDone    bool // producer has stopped enqueuing new shards
	pending     map[int]parked
	sinkNext    int
	sinkMoved   sync.Cond // on mu: the sink cursor advanced or the run ended
	spawned     int

	busy      atomic.Int32
	stop      atomic.Bool
	closeOnce sync.Once
	wg        sync.WaitGroup
}

func (s *runState) watchStop() {
	<-s.ctx.Done()
	s.stop.Store(true)
	s.mu.Lock()
	s.sinkMoved.Broadcast()
	s.mu.Unlock()
}

// recycleShard hands a shard buffer that no lane will read again back to a
// recycling source.
func (s *runState) recycleShard(data []byte) {
	if s.recycle != nil {
		s.recycle.Recycle(data)
	}
}

// retryLater re-enqueues next after its backoff d. The waiting goroutine
// counts in wg and gives up on cancellation, so Run neither outlives it nor
// misses a shard it queued. The shard's inflight hold carries over to the
// re-enqueue, so the queue stays open until it is delivered or the run
// dies.
func (s *runState) retryLater(next workItem, d time.Duration) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
			next.enq = time.Now()
			select {
			case s.queue <- next:
				return
			case <-s.ctx.Done():
			}
		case <-s.ctx.Done():
		}
		s.recycleShard(next.data)
		s.mu.Lock()
		s.inflight--
		s.maybeClose()
		s.mu.Unlock()
	}()
}

// maybeClose runs with mu held. The queue closes only when the producer is
// done AND no shard is still in flight: a retry re-enqueues through this
// same queue (possibly from a backoff timer firing after the producer
// exits), and holding inflight above zero until a shard's final resolution
// is what makes that send race-free against the close.
func (s *runState) maybeClose() {
	if s.prodDone && s.inflight == 0 {
		s.closeOnce.Do(func() { close(s.queue) })
	}
}

func (s *runState) setSlot(idx int, out []byte, m []machine.Match, bytes int, cycles uint64) {
	for len(s.outputs) <= idx {
		s.outputs = append(s.outputs, nil)
		s.matches = append(s.matches, nil)
		s.shardCycles = append(s.shardCycles, 0)
	}
	s.outputs[idx] = out
	s.matches[idx] = m
	s.shardCycles[idx] = cycles
	s.inputBytes += bytes
}

func (s *runState) fail(err error) {
	if s.runErr == nil {
		s.runErr = err
	}
	s.cancel()
}

// drainSink runs with mu held; it delivers every ready output in shard
// order and parks the rest in the reorder window.
func (s *runState) drainSink() {
	for {
		p, ok := s.pending[s.sinkNext]
		if !ok {
			return
		}
		delete(s.pending, s.sinkNext)
		s.sinkNext++
		s.sinkMoved.Signal()
		// Reorder-window dwell: how long this finished shard waited for a
		// slower predecessor before the sink could take it.
		s.clock.Add(obs.StageSink, time.Since(p.at))
		if p.out == nil { // failed shard under CollectErrors
			continue
		}
		err := s.cfg.Sink(s.sinkNext-1, p.out)
		mem.Put(p.out)
		if err != nil {
			s.fail(fmt.Errorf("sched: sink: %w", err))
			return
		}
	}
}

// spawnWorkers runs with mu held. Lane workers spawn on demand: worker w
// starts only once the producer has seen at least w+1 shards (capped at
// workers), so a one-shard request pays for one goroutine instead of
// MaxLanes — previously the serving path's single largest per-request
// allocation.
func (s *runState) spawnWorkers(want int) {
	for s.spawned < s.workers && s.spawned < want {
		s.wg.Add(1)
		go s.worker(s.spawned)
		s.spawned++
	}
}

// produce pulls shards from the source into the bounded queue. Each shard
// raises inflight before the send so the queue cannot close underneath it;
// whoever finally resolves the shard lowers it. With a Sink, the producer
// holds each shard while it is reorderWindow × workers shards ahead of the
// sink cursor, so one stalled shard cannot park the rest of the body.
func (s *runState) produce() {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		s.prodDone = true
		s.maybeClose()
		s.mu.Unlock()
	}()
	for idx := 0; ; idx++ {
		// Chunking time is Next() wall time minus whatever the underlying
		// body reads spent inside gzip inflate (already attributed to
		// StageDecode by the server's reader wrapper). The producer is the
		// only goroutine pulling the source, so the decode delta is exact.
		t0 := time.Now()
		dec0 := s.clock.NS(obs.StageDecode)
		shard, err := s.src.Next()
		s.clock.Add(obs.StageChunk,
			time.Since(t0)-time.Duration(s.clock.NS(obs.StageDecode)-dec0))
		if err == io.EOF {
			return
		}
		if err != nil {
			s.mu.Lock()
			s.fail(fmt.Errorf("sched: source: %w", err))
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		for s.cfg.Sink != nil && idx-s.sinkNext >= reorderWindow*s.workers && s.ctx.Err() == nil {
			s.sinkMoved.Wait()
		}
		s.inflight++
		s.res.Shards = idx + 1
		s.spawnWorkers(idx + 1)
		s.mu.Unlock()
		select {
		case s.queue <- workItem{idx: idx, data: shard, enq: time.Now()}:
			s.mu.Lock()
			if d := len(s.queue); d > s.highWater {
				s.highWater = d
			}
			s.mu.Unlock()
		case <-s.ctx.Done():
			s.recycleShard(shard)
			s.mu.Lock()
			s.inflight--
			s.mu.Unlock()
			return
		}
	}
}

// worker is one lane of the pool: it owns a single lane, resets it between
// shards and closes it on exit — before wg.Done, so every lane's slabs are
// back with the manager when Run returns. The lane is created lazily so a
// panic quarantine (lane = nil) transparently replaces it on the next
// shard; the quarantined lane is left to the GC, so nothing a panicked lane
// touched is ever reused.
func (s *runState) worker(w int) {
	defer s.wg.Done()
	cfg := &s.cfg
	var lane *machine.Lane
	defer func() {
		if lane != nil {
			lane.Close()
		}
	}()
	// One reusable histogram per worker: attached to the lane for
	// sampled shards, merged into the shared aggregate on exit.
	var lp *obs.LaneProfile
	if cfg.Profile != nil {
		lp = obs.NewLaneProfile(len(s.img.Words))
		defer func() { cfg.Profile.Merge(lp) }()
	}
	for {
		select {
		case <-s.ctx.Done():
			return
		case it, ok := <-s.queue:
			if !ok {
				return
			}
			// A cancelled run drops still-queued shards so the
			// cancel is observed within one shard boundary.
			if s.ctx.Err() != nil {
				s.recycleShard(it.data)
				return
			}
			if lane == nil {
				var err error
				lane, err = machine.NewLane(s.img, 0)
				if err != nil {
					s.recycleShard(it.data)
					s.mu.Lock()
					s.fail(err)
					s.mu.Unlock()
					return
				}
				lane.SetEngine(cfg.Engine)
				lane.BindStop(&s.stop)
			}
			if lp != nil {
				if cfg.ProfileSample <= 1 || it.idx%cfg.ProfileSample == 0 {
					lane.SetProfiler(lp)
					lp.Shard()
				} else {
					lane.SetProfiler(nil)
				}
			}
			// Queue dwell: enqueue offer (including any producer block on
			// a full queue) to this dequeue. Summed over shards.
			if !it.enq.IsZero() {
				s.clock.Add(obs.StageQueue, time.Since(it.enq))
			}
			qd := len(s.queue)
			nb := int(s.busy.Add(1))
			t0 := time.Now()
			sp := s.reqSpan.StartChild("shard")
			// The nil-span guard lives here, not in SetAttr: boxing the
			// int attrs into `any` allocates at the call site before the
			// method's own nil check could skip them.
			if sp != nil {
				sp.SetAttr("shard", it.idx)
				sp.SetAttr("attempt", it.attempt)
				sp.SetAttr("lane", w)
				sp.SetAttr("bytes", len(it.data))
			}
			laneSpan := sp.StartChild("lane.run")
			out, m, st, err := runShard(lane, it, s.img, s.cfg)
			ranOn := lane.EngineInUse()
			laneSpan.End()
			s.busy.Add(-1)
			if errors.Is(err, machine.ErrInterrupted) {
				// Interruption only fires on cancellation: the shard
				// is abandoned and Run reports the context error.
				sp.SetAttr("interrupted", true)
				sp.End()
				s.recycleShard(it.data)
				return
			}
			tr := fault.AsTrap(err)
			if sp != nil { // same boxing-at-call-site rule as above
				sp.SetAttr("cycles", st.Cycles)
				if tr != nil {
					sp.SetAttr("trap", tr.Kind.String())
				}
			}
			sp.End()
			quarantine := tr != nil && tr.Kind == fault.TrapPanic
			if quarantine {
				lane = nil // replaced lazily on the next shard
			}
			ev := Event{
				Shard: it.idx, Lane: w, Bytes: len(it.data),
				Cycles: st.Cycles, Wall: time.Since(t0),
				QueueDepth: qd, Busy: nb,
				Attempt: it.attempt, Engine: ranOn,
				Trap: tr, Err: err,
			}
			// Lane execution is resource time summed over shards; with
			// several lanes busy it can exceed the request's wall clock.
			s.clock.Add(obs.StageLane, ev.Wall)
			s.mu.Lock()
			if quarantine {
				s.res.LanesQuarantined++
			}
			if err != nil {
				retry := tr != nil && cfg.Retry.retryable(tr.Kind) &&
					it.attempt < cfg.Retry.Max && s.runErr == nil && s.ctx.Err() == nil
				ev.Retried = retry
				if tr != nil {
					rec := FaultRecord{
						Shard: it.idx, Lane: w, Attempt: it.attempt,
						Trap: tr, Retried: retry,
					}
					if retry {
						rec.Backoff = cfg.Retry.next(it.prev)
					}
					s.res.Faults = append(s.res.Faults, rec)
					if retry {
						s.res.Retries++
						s.retryLater(workItem{
							idx: it.idx, data: it.data,
							attempt: it.attempt + 1, prev: rec.Backoff,
						}, rec.Backoff)
					}
				}
				if !ev.Retried {
					if cfg.Policy == CollectErrors {
						s.shardErrs = append(s.shardErrs, ShardError{Shard: it.idx, Err: err})
						s.setSlot(it.idx, nil, nil, len(it.data), 0)
						if cfg.Sink != nil {
							s.pending[it.idx] = parked{at: time.Now()}
							s.drainSink()
						}
					} else {
						s.fail(ShardError{Shard: it.idx, Err: err})
					}
					s.recycleShard(it.data)
					s.inflight--
					s.maybeClose()
				}
			} else {
				if cfg.Sink != nil {
					s.setSlot(it.idx, nil, m, len(it.data), st.Cycles)
					s.pending[it.idx] = parked{out: out, at: time.Now()}
					s.drainSink()
				} else {
					s.setSlot(it.idx, out, m, len(it.data), st.Cycles)
				}
				s.total.Add(st)
				s.recycleShard(it.data)
				s.inflight--
				s.maybeClose()
			}
			if cfg.Hook != nil {
				cfg.Hook(ev)
			}
			s.mu.Unlock()
		}
	}
}

// runShard executes one shard attempt on a reused lane: reset, attach
// input, apply setup, run under the cycle budget, and copy out the results
// (the lane's buffers are recycled on the next Reset). The attempt is
// sandboxed — a panic anywhere in lane or setup code becomes a
// fault.TrapPanic instead of unwinding the pool — and a configured injector
// may pre-empt the lane with a synthesized trap (or, for TrapPanic, a real
// panic, so injection exercises the recover path itself).
func runShard(lane *machine.Lane, it workItem, img *effclip.Image, cfg Config) (out []byte, m []machine.Match, st machine.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, m, st = nil, nil, machine.Stats{}
			err = fault.New(fault.TrapPanic, img.Name, "shard %d attempt %d: %v\n%s",
				it.idx, it.attempt, r, trimStack(debug.Stack()))
		}
	}()
	if k := cfg.Inject.Draw(it.idx, it.attempt); k != fault.TrapNone {
		if k == fault.TrapPanic {
			panic(fmt.Sprintf("fault injection: shard %d attempt %d (seed %d)", it.idx, it.attempt, cfg.Inject.Seed))
		}
		return nil, nil, machine.Stats{}, cfg.Inject.Synthesize(k, img.Name, it.idx, it.attempt)
	}
	lane.Reset()
	lane.SetInput(it.data)
	if cfg.Setup != nil {
		if err := cfg.Setup(lane, it.idx); err != nil {
			return nil, nil, machine.Stats{}, err
		}
	}
	if err := lane.Run(cfg.Budget.For(len(it.data))); err != nil {
		return nil, nil, lane.Stats(), err
	}
	if cfg.Sink != nil {
		// Sink deliveries may not retain the slice, so the copy can come
		// from (and return to) the slab manager's output rings.
		out = append(mem.Get(len(lane.Output())), lane.Output()...)
	} else {
		out = append([]byte(nil), lane.Output()...)
	}
	m = append([]machine.Match(nil), lane.Matches()...)
	return out, m, lane.Stats(), nil
}

// trimStack bounds a panic stack so Trap.Detail stays readable in logs and
// error responses.
func trimStack(s []byte) []byte {
	const max = 2048
	if len(s) > max {
		return s[:max]
	}
	return s
}
