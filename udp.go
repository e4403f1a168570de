// Package udp is the public API of the UDP (Unstructured Data Processor)
// reproduction — "UDP: A Programmable Accelerator for Extract-Transform-Load
// Workloads and More" (MICRO-50, 2017) — implemented entirely in Go.
//
// The flow mirrors the paper's software stack (Figure 12):
//
//  1. Build a Program with the builder API (states, the seven multi-way
//     dispatch transition kinds, action chains), or compile one from a
//     domain front end (regular expressions, Huffman tables, histogram
//     edges, dictionaries, CSV, Snappy, waveform FSMs).
//  2. Compile lays the program out with the EffCLiP coupled-linear packing
//     algorithm into an executable machine image (32-bit transition and
//     action words, Figure 6 formats).
//  3. Run it on the cycle-level machine: Exec streams any amount of input
//     through a pool of reusable lanes (at most MaxLanes, the local-memory
//     footprint limiting parallelism), on the execution tier WithEngine
//     selects — the compiled production tier by default, with the decoded
//     and memory-word interpreters behind it (see Engine). NewLane executes
//     one lane for inspection.
//
// Everything the paper's evaluation needs sits underneath: the kernels in
// internal/kernels, CPU baselines, workload synthesizers, the branch-model
// CPU (Figure 5), the energy model (Table 3), and the experiment harness
// that regenerates every table and figure (internal/experiments, driven by
// cmd/udpbench).
package udp

import (
	"context"
	"io"

	"udp/internal/asm"
	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/fault"
	"udp/internal/machine"
	"udp/internal/obs"
	"udp/internal/sched"
)

// Core program-construction types (see internal/core for full docs).
type (
	// Program is a UDP lane program: states, transitions, actions.
	Program = core.Program
	// State is one multi-way dispatch point.
	State = core.State
	// Transition is one dispatch arc.
	Transition = core.Transition
	// Action is one executable action word.
	Action = core.Action
	// Reg names a scalar register (R0..R13, RSym, RIdx).
	Reg = core.Reg
	// Opcode is an action opcode.
	Opcode = core.Opcode
	// DispatchMode selects stream, common or flagged dispatch.
	DispatchMode = core.DispatchMode
)

// Machine-level types.
type (
	// Image is an EffCLiP-laid-out executable program.
	Image = effclip.Image
	// Lane is one UDP lane (cycle-level).
	Lane = machine.Lane
	// Stats are a lane's event counters.
	Stats = machine.Stats
	// Match is an accept event.
	Match = machine.Match
	// Engine selects a lane execution tier (see the Engine* constants).
	Engine = machine.Engine
)

// Execution engines for WithEngine and Lane.SetEngine. All three tiers are
// bit-identical — same output, exit code, stats, traps and matches — and
// differ only in speed; the differential harness in internal/machine holds
// them to that.
const (
	// EngineAuto picks the fastest eligible tier per image: compiled when
	// the image lowers (single-segment deterministic automata — the common
	// case), else decoded, else the memory interpreter. The default.
	EngineAuto = machine.EngineAuto
	// EngineInterp forces the memory-word interpreter, the reference
	// semantics (the differential oracle).
	EngineInterp = machine.EngineInterp
	// EngineDecoded forces the predecoded-cache interpreter.
	EngineDecoded = machine.EngineDecoded
	// EngineCompiled asks for the compiled direct-threaded tier; an
	// ineligible image degrades to decoded (ShardEvent.Engine reports what
	// actually ran).
	EngineCompiled = machine.EngineCompiled
)

// ParseEngine resolves an engine name ("auto", "interp", "decoded",
// "compiled"; "" means auto) — the form CLI flags and the server's
// X-Udp-Engine header use.
func ParseEngine(s string) (Engine, error) { return machine.ParseEngine(s) }

// Executor types (see internal/sched for full docs).
type (
	// ExecResult aggregates a streaming Exec run: the makespan, counters
	// and per-shard outputs, plus shard count, fault records and queue
	// telemetry.
	ExecResult = sched.Result
	// ShardEvent is one per-shard observability record delivered to the
	// WithStatsHook callback.
	ShardEvent = sched.Event
	// ShardError ties an execution error to the shard it occurred on: the
	// first shard to fail with no retries left ends the run, and Exec
	// returns its error as a ShardError.
	ShardError = sched.ShardError
	// ShardSource yields successive input shards for ExecSource.
	ShardSource = sched.Source
)

// Observability types (see internal/obs for full docs).
type (
	// Profile aggregates the sampled per-lane automaton profiler across an
	// Exec run — the program's "state flame profile". Install one with
	// WithProfile and freeze it with Profile.Snapshot.
	Profile = obs.Profile
	// ProfileSnapshot is a frozen profile: totals, the ranked hot-state
	// table and the dispatch/action mixes, renderable as JSON or text.
	ProfileSnapshot = obs.Snapshot
	// Tracer collects finished span trees in a bounded ring (see
	// internal/obs; udpserved exposes one at /debug/traces).
	Tracer = obs.Tracer
	// Span is one timed operation in a trace tree. Put a request span in
	// the Exec context with obs.ContextWithSpan and the executor parents
	// per-shard spans under it.
	Span = obs.Span
)

// Fault-model types (see internal/fault and internal/sched for full docs).
type (
	// Trap is a typed machine fault: kind, program, state base, cycle and a
	// bounded dispatch-trace tail. Recover it from any execution error with
	// errors.As, or test the kind with errors.Is(err, udp.TrapCycleBudget).
	Trap = fault.Trap
	// TrapKind enumerates the fault taxonomy.
	TrapKind = fault.Kind
	// FaultRecord is one shard attempt that ended in a trap (per-shard
	// fault log in ExecResult.Faults).
	FaultRecord = sched.FaultRecord
	// CycleBudget derives a per-shard cycle cap from shard size.
	CycleBudget = sched.CycleBudget
	// RetryPolicy re-enqueues shards failing with retryable traps.
	RetryPolicy = sched.RetryPolicy
	// FaultInjector deterministically injects traps per shard attempt
	// (chaos testing; see WithFaultInjection and fault.ParseInjectSpec).
	FaultInjector = fault.Injector
)

// Trap kinds, mirroring a hardware UDP's fault-status register.
const (
	// TrapCycleBudget: the lane exceeded its cycle budget.
	TrapCycleBudget = fault.TrapCycleBudget
	// TrapMemOutOfWindow: a memory reference left the lane's window.
	TrapMemOutOfWindow = fault.TrapMemOutOfWindow
	// TrapBadSignature: a dispatch hit a word owned by another state.
	TrapBadSignature = fault.TrapBadSignature
	// TrapBadSymbolSize: an unsupported symbol size was selected.
	TrapBadSymbolSize = fault.TrapBadSymbolSize
	// TrapEpsilonLoop: a dispatch loop stopped consuming input (livelock).
	TrapEpsilonLoop = fault.TrapEpsilonLoop
	// TrapPanic: host-level panic sandboxed during lane execution.
	TrapPanic = fault.TrapPanic
)

// ParseInjectSpec parses the UDP_FAULT_INJECT spec format (e.g.
// "seed=42,once=1,panic=0.5" or "all=0.05") into a FaultInjector; an empty
// spec yields (nil, nil) — injection disabled.
func ParseInjectSpec(spec string) (*FaultInjector, error) { return fault.ParseInjectSpec(spec) }

// Typed argument errors. Exec, ExecShards and ExecSource return these (test with errors.Is) instead of panicking deep in the
// machine when handed a nil image or source.
var (
	// ErrNilImage reports a nil *Image argument.
	ErrNilImage = sched.ErrNilImage
	// ErrNilSource reports a nil input source.
	ErrNilSource = sched.ErrNilSource
)

// Dispatch modes.
const (
	ModeStream  = core.ModeStream
	ModeCommon  = core.ModeCommon
	ModeFlagged = core.ModeFlagged
)

// Architectural constants.
const (
	// NumLanes is the UDP's lane count.
	NumLanes = core.NumLanes
	// BankBytes is one local-memory bank.
	BankBytes = core.BankBytes
	// LocalMemBytes is the total local memory (1 MB).
	LocalMemBytes = core.LocalMemBytes
	// ClockHz is the ASIC clock (1/0.97 ns).
	ClockHz = machine.ClockHz
)

// NewProgram starts an empty program with the given initial symbol size in
// bits (1..8, 16, 32).
func NewProgram(name string, symbolBits uint8) *Program {
	return core.NewProgram(name, symbolBits)
}

// AttachPolicy selects the action-addressing architecture Compile lays out
// (the paper's design versus the UAP baseline of Figure 5c).
type AttachPolicy = effclip.AttachPolicy

// Attach policies for WithAttachPolicy.
const (
	// PolicyUDP is the UDP's direct + scaled-offset attach with global
	// chain sharing (the default).
	PolicyUDP = effclip.PolicyUDP
	// PolicyUAPOffset models the UAP's transition-relative offset attach.
	PolicyUAPOffset = effclip.PolicyUAPOffset
)

// CompileOption customizes EffCLiP layout.
type CompileOption func(*effclip.Options)

// WithAttachPolicy selects the action-addressing policy (default PolicyUDP).
func WithAttachPolicy(p AttachPolicy) CompileOption {
	return func(o *effclip.Options) { o.Policy = p }
}

// WithMaxWords caps the image size in words (0 = the lane window limit
// implied by the program's declared DataBase, or the full local memory).
func WithMaxWords(n int) CompileOption {
	return func(o *effclip.Options) { o.MaxWords = n }
}

// WithWideAttach lays the image out with full-width action pointers per
// transition instead of the 8-bit attach field.
func WithWideAttach() CompileOption {
	return func(o *effclip.Options) { o.WideAttach = true }
}

// Compile validates the program and runs EffCLiP layout, producing an
// executable image. Options tune the layout; the zero configuration is the
// paper's design point.
func Compile(p *Program, opts ...CompileOption) (*Image, error) {
	var o effclip.Options
	for _, opt := range opts {
		opt(&o)
	}
	return effclip.Layout(p, o)
}

// NewLane loads an image into a fresh lane (banks = 0 uses the image's own
// footprint). Close the lane when done with it to hand its memory back for
// reuse.
func NewLane(im *Image, banks int) (*Lane, error) {
	return machine.NewLane(im, banks)
}

// ExecOption customizes a streaming Exec run (functional options over the
// internal/sched executor configuration).
type ExecOption func(*execOpts)

type execOpts struct {
	cfg        sched.Config
	chunkBytes int
	sep        byte
	recordSep  bool
}

// WithMaxLanes caps the simulated lanes the run's makespan is scheduled
// over (0 or anything above MaxLanes(img) means MaxLanes(img)). The host
// executes on at most min(lanes, GOMAXPROCS) goroutines either way.
func WithMaxLanes(n int) ExecOption {
	return func(o *execOpts) { o.cfg.Lanes = n }
}

// WithEngine selects the execution tier for every lane of the run (default
// EngineAuto — the compiled tier whenever the image lowers). The tier a
// shard actually ran on is surfaced in ShardEvent.Engine: a run can degrade
// below the requested tier when the image is ineligible (a multi-active NFA
// image always runs on the interpreter, a multi-segment layout on the
// decoded tier) or the program self-modifies mid-run.
func WithEngine(e Engine) ExecOption {
	return func(o *execOpts) { o.cfg.Engine = e }
}

// WithChunker cuts the input into record-aligned shards: each shard ends
// just after sep (e.g. '\n'), so no record straddles two lanes. Without it,
// Exec cuts fixed-size shards.
func WithChunker(sep byte) ExecOption {
	return func(o *execOpts) { o.sep, o.recordSep = sep, true }
}

// DefaultChunkBytes is the shard size Exec's chunkers aim for when
// WithChunkBytes is not given (64 KiB).
const DefaultChunkBytes = sched.DefaultChunkBytes

// WithChunkBytes sets the shard size target for Exec's chunkers (default
// DefaultChunkBytes, 64 KiB).
func WithChunkBytes(n int) ExecOption {
	return func(o *execOpts) { o.chunkBytes = n }
}

// WithStatsHook installs an observability callback receiving one ShardEvent
// per finished shard (per-shard cycles, wall time, queue depth, MB/s).
// Events are delivered serially; the hook needs no locking.
func WithStatsHook(hook func(ShardEvent)) ExecOption {
	return func(o *execOpts) { o.cfg.Hook = hook }
}

// WithCycleBudget caps each shard's lane cycles at perByte×len(shard), but
// no lower than floor — so a runaway or adversarial program traps with
// TrapCycleBudget in proportion to its input instead of grinding to the
// machine's 2^33-cycle wall. Zero values leave the machine default in place.
// Honest kernels run at one-to-a-few cycles per byte, so even a perByte of
// 64 is a generous margin.
func WithCycleBudget(perByte, floor uint64) ExecOption {
	return func(o *execOpts) { o.cfg.Budget = sched.CycleBudget{PerByte: perByte, Floor: floor} }
}

// WithRetryPolicy re-enqueues shards that fail with a retryable trap onto a
// different lane, with decorrelated-jitter backoff. See RetryPolicy for the
// knobs; the zero policy disables retries.
func WithRetryPolicy(p RetryPolicy) ExecOption {
	return func(o *execOpts) { o.cfg.Retry = p }
}

// WithFaultInjection installs a deterministic fault injector rolled once
// per shard attempt — the chaos-testing hook. nil disables injection.
func WithFaultInjection(in *FaultInjector) ExecOption {
	return func(o *execOpts) { o.cfg.Inject = in }
}

// NewProfile builds an empty automaton-profile aggregate for im, labeling
// hot states with im's state names. name overrides the profiled program's
// display name ("" uses the image name).
func NewProfile(name string, im *Image) *Profile {
	var names map[int]string
	if im != nil {
		if name == "" {
			name = im.Name
		}
		names = obs.InvertStateBase(im.StateBase)
	}
	return obs.NewProfile(name, names)
}

// WithProfile merges the sampled per-lane automaton profiler into p: state
// visits, dispatch kinds, action opcodes and stream refill/put-back events,
// aggregated across every lane of the run. Profiling costs one predictable
// branch per dispatch and action on the sampled shards and nothing at all
// when absent — the machine's zero-allocation dispatch guarantee holds
// either way.
func WithProfile(p *Profile) ExecOption {
	return func(o *execOpts) { o.cfg.Profile = p }
}

// WithProfileSample profiles one shard in every n (by stream index); n <= 1
// profiles every shard. No effect without WithProfile.
func WithProfileSample(n int) ExecOption {
	return func(o *execOpts) { o.cfg.ProfileSample = n }
}

// WithSink streams each shard's output, in shard order, to sink as soon as
// it (and every earlier shard) finishes, instead of accumulating outputs in
// ExecResult.Outputs — so a run over an unbounded input holds only a small
// reorder window in memory. Deliveries are serial; a slow sink
// backpressures the lane pool and, through the bounded shard queue, the
// input reader. A sink error fails the run. The out slice is only valid for
// the duration of the call (the executor recycles output buffers); copy it
// to retain the bytes. This is the building block for streaming transforms
// (see internal/server).
func WithSink(sink func(shard int, out []byte) error) ExecOption {
	return func(o *execOpts) { o.cfg.Sink = sink }
}

// Exec streams source through a pool of reusable lanes executing im — the
// context-aware entry point for inputs of any size. Shards are cut by a
// fixed-size chunker, or a record-aligned one under WithChunker; an
// unbounded number of shards is time-multiplexed over at most MaxLanes(im)
// simulated lanes, executed by at most GOMAXPROCS host goroutines.
// Cancelling ctx stops the run at the next shard boundary.
func Exec(ctx context.Context, im *Image, source io.Reader, opts ...ExecOption) (*ExecResult, error) {
	if source == nil {
		return nil, ErrNilSource
	}
	o := applyExecOpts(opts)
	var src sched.Source
	if o.recordSep {
		src = sched.Records(source, o.chunkBytes, o.sep)
	} else {
		src = sched.Chunks(source, o.chunkBytes)
	}
	return sched.Run(ctx, im, src, o.cfg)
}

// ExecShards is Exec over a pre-sharded in-memory input (chunker options are
// ignored).
func ExecShards(ctx context.Context, im *Image, shards [][]byte, opts ...ExecOption) (*ExecResult, error) {
	o := applyExecOpts(opts)
	return sched.Run(ctx, im, sched.Slice(shards), o.cfg)
}

// ExecSource is Exec over a caller-supplied shard source (custom chunking,
// network feeds, generated workloads).
func ExecSource(ctx context.Context, im *Image, src ShardSource, opts ...ExecOption) (*ExecResult, error) {
	o := applyExecOpts(opts)
	return sched.Run(ctx, im, src, o.cfg)
}

func applyExecOpts(opts []ExecOption) execOpts {
	var o execOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// RunLane executes an image over input on one fresh lane and returns the
// lane for inspection (output, matches, stats, memory) — the debugging
// counterpart of Exec. It is equivalent to NewLane + SetInput + Run with
// the default engine. The caller may Close the lane once done inspecting it,
// which hands its memory back for reuse; an unclosed lane is simply
// collected.
func RunLane(im *Image, input []byte) (*Lane, error) {
	if im == nil {
		return nil, ErrNilImage
	}
	return machine.RunSingle(im, input)
}

// MaxLanes is the lane-parallelism limit for an image's memory footprint
// (code size competes with parallelism, paper Section 3.2.2).
func MaxLanes(im *Image) int { return machine.MaxLanes(im) }

// SplitBytes shards an in-memory input into n equal pieces for ExecShards.
func SplitBytes(data []byte, n int) [][]byte { return machine.SplitBytes(data, n) }

// SplitRecords shards on record boundaries (e.g. '\n').
func SplitRecords(data []byte, n int, sep byte) [][]byte {
	return machine.SplitRecords(data, n, sep)
}

// RateMBps converts bytes over cycles to MB/s at the ASIC clock.
func RateMBps(bytes int, cycles uint64) float64 { return machine.RateMBps(bytes, cycles) }

// ParseAssembly assembles UDP assembly text (the Figure 12 software stack's
// textual form; grammar documented in internal/asm) into a Program.
func ParseAssembly(src string) (*Program, error) { return asm.Parse(src) }

// FormatAssembly renders a program back to canonical assembly text.
func FormatAssembly(p *Program) string { return asm.Format(p) }
