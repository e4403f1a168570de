package machine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync/atomic"

	"udp/internal/compile"
	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/encode"
	"udp/internal/fault"
	"udp/internal/memsys"
	"udp/internal/obs"
)

// DefaultMaxCycles bounds a single Run as a guard against non-terminating
// programs (flagged-dispatch loops must end with an explicit Halt).
const DefaultMaxCycles = 1 << 33

// DefaultLivelockWindow is how many consecutive dispatches with zero
// forward progress (no stream bits consumed, no output, no memory traffic)
// the lane tolerates before raising TrapEpsilonLoop. A genuine
// self-dispatch or putback/take livelock trips it in about a millisecond of
// simulated time instead of grinding to the 2^33-cycle wall; real programs
// always touch the stream, the output buffer, or memory well inside the
// window.
const DefaultLivelockWindow = 1 << 20

// ErrInterrupted is returned by Run when the lane was stopped through
// BindStop — a cooperative cancellation, not a fault. The executor maps it
// back to its context error.
var ErrInterrupted = errors.New("machine: lane interrupted")

// interruptStride is how many dispatches pass between checks of the stop
// flag (a power of two; the check is one atomic load every stride).
const interruptStride = 4096

// Lane is one UDP lane: a 32-bit execution engine with sixteen scalar
// registers, a stream buffer, a symbol-size register and a window of the
// multi-bank local memory, executing one EffCLiP image.
type Lane struct {
	img  *effclip.Image
	mem  []byte // bank window: a slab, handed back by Close
	load []byte // img.LoadWindow(): the load-time window, shared and read-only

	// Predecoded code cache (shared read-only across every lane running
	// the image). decOn is the user switch (SetEngine); decOK is the live
	// gate: it drops to false when a store touches the code window, so a
	// self-modifying program falls back to the memory-word interpreter for
	// the rest of the run and stays bit-identical. Reset re-arms it (the
	// memory image is restored to the pristine code the cache was decoded
	// from).
	dec     *effclip.Decoded
	decOn   bool
	decOK   bool
	codeEnd int // byte offset one past the code words; stores below dirty the cache

	// comp is the compiled-tier program (nil when the engine selection or
	// image eligibility rules it out); engine is the requested tier and
	// ranEngine the tier the current/last Run selected (see engine.go).
	comp      *compile.Program
	engine    Engine
	ranEngine Engine

	// baseSig caches effclip.Sig(base) so the per-dispatch signature check
	// is a byte compare instead of a modulo.
	baseSig uint8

	// Dirty-range store tracking: Reset restores only [dirtyLo, dirtyHi)
	// from the load-time snapshot instead of copying the whole bank window.
	dirtyLo, dirtyHi int

	regs    [core.NumRegs]uint32
	ss      uint8
	cb      uint32
	memBase uint32

	base int
	mode core.DispatchMode

	stream *BitStream
	out    []byte
	bitAcc uint64
	bitN   uint

	matches []Match
	stats   Stats

	traceBanks bool
	bankTrace  []uint64

	// prof, when non-nil, histograms state visits, transition kinds, action
	// opcodes and refill/put-back events into the automaton profiler. Every
	// hot-path touch is guarded by a nil check, so the disabled cost is one
	// predictable branch per dispatch/action and zero allocations.
	prof *obs.LaneProfile

	halted bool
	exit   int32

	// nfa holds the active and next frontiers of a multi-active run,
	// allocated on the lane's first one (see runNFA).
	nfa *[2]frontier

	// Dispatch-trace ring: the last TraceTail dispatches, materialized
	// into a Trap when the lane faults.
	ring  [fault.TraceTail]fault.TraceEntry
	ringN uint64

	// Livelock watermark: dispatches since the last forward progress.
	progressMark   uint64
	stall          uint64
	livelockWindow uint64

	stop      *atomic.Bool
	stopCheck uint64
}

// slabs backs every lane's bank window and output buffer: lanes are
// resident hardware in the paper, so building one draws banks that already
// exist instead of allocating them per request.
var slabs = memsys.Default()

// NewLane loads an image into a lane with the given number of local memory
// banks (the image's own Banks() if banks is 0). The bank window is a slab:
// Close hands it back once the lane's last result has been copied out.
func NewLane(img *effclip.Image, banks int) (*Lane, error) {
	if !img.Executable {
		return nil, fault.New(fault.TrapBadSignature, img.Name, "image is size-accounting only")
	}
	if banks == 0 {
		banks = img.Banks()
	}
	if banks > core.NumBanks {
		return nil, fault.New(fault.TrapMemOutOfWindow, img.Name,
			"%d banks exceed the %d-bank local memory", banks, core.NumBanks)
	}
	window := banks * core.BankBytes
	if need := img.FootprintBytes(); need > window {
		return nil, fault.New(fault.TrapMemOutOfWindow, img.Name,
			"footprint (%d B) exceeds %d-bank window", need, banks)
	}
	for off, b := range img.DataInit {
		if at := img.DataBase + off; at < 0 || at+len(b) > window {
			return nil, fault.New(fault.TrapMemOutOfWindow, img.Name,
				"data init at %d overflows window", at)
		}
	}
	l := &Lane{img: img, load: img.LoadWindow(), mem: slabs.Get(window)[:window]}
	// The whole window is rewritten, so nothing a recycled slab held
	// survives into this lane.
	l.restore(0, window)
	l.dec = img.Decoded()
	l.SetEngine(EngineAuto)
	if l.dec != nil {
		l.codeEnd = l.dec.CodeEnd
	}
	l.dirtyLo, l.dirtyHi = len(l.mem), 0
	l.Reset()
	return l, nil
}

// Decoding reports whether the lane is currently executing from the
// predecoded cache (false after a store into the code window invalidated it
// for this run).
func (l *Lane) Decoding() bool { return l.decOK }

// setBase moves the lane to state base b, keeping the cached signature in
// sync (every probe validates against it).
func (l *Lane) setBase(b int) {
	l.base = b
	l.baseSig = effclip.Sig(b)
}

// noteStore records a memory write for the dirty-range Reset and drops the
// decoded fast path when the write lands in the code window
// (self-modifying code keeps its memory-interpreter semantics).
func (l *Lane) noteStore(addr, n int) {
	if addr < l.dirtyLo {
		l.dirtyLo = addr
	}
	if addr+n > l.dirtyHi {
		l.dirtyHi = addr + n
	}
	if addr < l.codeEnd {
		l.decOK = false
	}
}

// restore rewrites mem[lo:hi) with its load-time contents.
func (l *Lane) restore(lo, hi int) {
	n := 0
	if lo < len(l.load) {
		n = copy(l.mem[lo:hi], l.load[lo:])
	}
	clear(l.mem[lo+n : hi])
}

// Close hands the lane's bank window and output buffer back to the slab
// manager. The lane, and every slice Mem or Output returned, must not be
// used afterwards; closing twice is harmless.
func (l *Lane) Close() {
	slabs.Put(l.mem)
	slabs.Put(l.out)
	l.mem, l.out = nil, nil
}

// Reset returns the lane to its load-time state: registers, stream position,
// output, counters, and the lane memory window (code, data init and scratch
// are restored from the image's shared load-time window), so a lane can be
// reused across shards with no state leaking from the prior run. The
// executor in internal/sched relies on this to time-multiplex shards over a
// lane pool.
func (l *Lane) Reset() {
	// Only the store-dirtied range differs from the load-time window:
	// actions and WriteMem funnel through noteStore, so restoring
	// [dirtyLo, dirtyHi) is exact and a read-only shard costs no copy at all.
	if l.dirtyHi > l.dirtyLo {
		l.restore(l.dirtyLo, l.dirtyHi)
	}
	l.dirtyLo, l.dirtyHi = len(l.mem), 0
	l.decOK = l.decOn && l.dec != nil
	l.regs = [core.NumRegs]uint32{}
	for r, v := range l.img.InitRegs {
		l.regs[r] = v
	}
	l.ss = l.img.EntrySymbolBits
	l.cb = uint32(l.img.EntryBase / effclip.SegmentWords * effclip.SegmentWords)
	l.memBase = 0
	l.setBase(l.img.EntryBase)
	l.mode = l.img.EntryMode
	l.out = l.out[:0]
	l.bitAcc, l.bitN = 0, 0
	l.matches = l.matches[:0]
	l.stats = Stats{}
	l.halted = false
	l.exit = 0
	l.ringN = 0
	l.progressMark = 0
	l.stall = 0
	l.stopCheck = 0
	if l.stream != nil {
		l.stream.SeekBit(0)
	}
}

// SetProfiler attaches (or, with nil, detaches) a per-lane automaton
// profiler. The profiler accumulates across Reset, so one LaneProfile can
// histogram every sampled shard a pooled lane executes; the executor merges
// it into the program-wide obs.Profile when the lane's worker exits.
func (l *Lane) SetProfiler(p *obs.LaneProfile) { l.prof = p }

// BindStop attaches a cooperative stop flag: when it reads true, Run
// returns ErrInterrupted within interruptStride dispatches. The executor
// binds one flag per run so cancelling the run's context drains every
// in-flight lane promptly instead of waiting out the shard.
func (l *Lane) BindStop(stop *atomic.Bool) { l.stop = stop }

// SetLivelockWindow overrides the no-progress dispatch window for
// TrapEpsilonLoop detection (0 restores DefaultLivelockWindow).
func (l *Lane) SetLivelockWindow(n uint64) { l.livelockWindow = n }

// trapf builds a Trap carrying the lane's position and the dispatch-trace
// tail — every runtime fault in the machine goes through here.
func (l *Lane) trapf(kind fault.Kind, format string, args ...any) *fault.Trap {
	return &fault.Trap{
		Kind:      kind,
		Program:   l.img.Name,
		StateBase: l.base,
		Cycle:     l.stats.Cycles,
		Detail:    fmt.Sprintf(format, args...),
		Trace:     l.traceTail(),
	}
}

// traceRecord pushes one dispatch into the trace ring.
func (l *Lane) traceRecord(base int, sym uint32) {
	l.ring[l.ringN%fault.TraceTail] = fault.TraceEntry{Cycle: l.stats.Cycles, Base: base, Sym: sym}
	l.ringN++
}

// traceTail materializes the ring oldest-first.
func (l *Lane) traceTail() []fault.TraceEntry {
	n := l.ringN
	if n == 0 {
		return nil
	}
	k := uint64(fault.TraceTail)
	if n < k {
		k = n
	}
	out := make([]fault.TraceEntry, 0, k)
	for i := n - k; i < n; i++ {
		out = append(out, l.ring[i%fault.TraceTail])
	}
	return out
}

// checkProgress is the livelock watermark: called once per dispatch
// iteration, it traps when the lane has gone a full window of dispatches
// without advancing the stream past its high-water position, emitting
// output, or touching memory. The high-water mark (not net bits consumed)
// is what catches a take/put-back loop that re-reads the same symbol
// forever.
func (l *Lane) checkProgress() error {
	p := uint64(l.stream.Pos()) + l.stats.OutBytes + l.stats.MemRefs
	if p > l.progressMark {
		l.progressMark = p
		l.stall = 0
		return nil
	}
	l.stall++
	window := l.livelockWindow
	if window == 0 {
		window = DefaultLivelockWindow
	}
	if l.stall > window {
		return l.trapf(fault.TrapEpsilonLoop,
			"no forward progress across %d dispatches (self-dispatch or putback livelock)", window)
	}
	return nil
}

// interrupted polls the stop flag every interruptStride dispatches.
func (l *Lane) interrupted() bool {
	if l.stop == nil {
		return false
	}
	l.stopCheck++
	return l.stopCheck%interruptStride == 0 && l.stop.Load()
}

// SetInput attaches the input stream, reusing the lane's BitStream so the
// per-shard steady state allocates nothing. The output buffer is a slab
// sized to the input: stream kernels emit roughly one byte per input byte,
// and one up-front reservation replaces the append-doubling ladder a fresh
// lane would otherwise climb on its first shard.
func (l *Lane) SetInput(data []byte) {
	if cap(l.out) < len(data) {
		slabs.Put(l.out)
		l.out = slabs.Get(len(data))
	}
	if l.stream == nil {
		l.stream = NewBitStream(data)
		return
	}
	l.stream.Reset(data)
}

// SetReg presets a scalar register before Run.
func (l *Lane) SetReg(r core.Reg, v uint32) { l.regs[r] = v }

// Reg reads a scalar register.
func (l *Lane) Reg(r core.Reg) uint32 { return l.getReg(r) }

// WriteMem stages bytes into the lane window (e.g. an input block for
// memory-based kernels).
func (l *Lane) WriteMem(off int, b []byte) error {
	if off < 0 || off+len(b) > len(l.mem) {
		return fault.New(fault.TrapMemOutOfWindow, l.img.Name,
			"WriteMem [%d,%d) outside window", off, off+len(b))
	}
	if len(b) > 0 {
		l.noteStore(off, len(b))
	}
	copy(l.mem[off:], b)
	return nil
}

// Mem exposes the lane window (read-only use expected).
func (l *Lane) Mem() []byte { return l.mem }

// Output returns the bytes the program emitted.
func (l *Lane) Output() []byte { return l.out }

// FlushBits pads any pending bit-packed output to a byte boundary, modeling
// the DLT engine's drain at end of stream.
func (l *Lane) FlushBits() {
	if l.bitN > 0 {
		l.emitBits(0, 8-l.bitN%8)
	}
}

// Matches returns the accept events recorded by the program.
func (l *Lane) Matches() []Match { return l.matches }

// Stats returns the accumulated counters.
func (l *Lane) Stats() Stats { return l.stats }

// Exit returns the Halt exit code (0 when the stream simply ended).
func (l *Lane) Exit() int32 { return l.exit }

// Run executes until the stream is exhausted, a Halt action executes, the
// frontier empties (multi-active mode), or maxCycles elapse (DefaultMaxCycles
// when 0). It returns the first execution error.
func (l *Lane) Run(maxCycles uint64) error {
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}
	if l.stream == nil {
		l.stream = NewBitStream(nil)
	}
	if l.img.MultiActive {
		l.ranEngine = EngineInterp
		return l.runNFA(maxCycles)
	}
	l.ranEngine = l.selectEngine()
	if l.ranEngine == EngineCompiled {
		return l.runCompiled(maxCycles)
	}
	return l.runSingle(maxCycles)
}

func (l *Lane) fetch(wordAddr int) (uint32, error) {
	byteAddr := wordAddr * core.WordBytes
	if wordAddr < 0 || byteAddr+4 > len(l.mem) {
		return 0, l.trapf(fault.TrapMemOutOfWindow, "dispatch probe at word %d outside window", wordAddr)
	}
	return binary.LittleEndian.Uint32(l.mem[byteAddr:]), nil
}

func (l *Lane) runSingle(maxCycles uint64) error {
	for !l.halted {
		if l.stats.Cycles >= maxCycles {
			return l.trapf(fault.TrapCycleBudget, "exceeded %d-cycle budget", maxCycles)
		}
		if err := l.checkProgress(); err != nil {
			return err
		}
		if l.interrupted() {
			return ErrInterrupted
		}
		var sym uint32
		switch l.mode {
		case core.ModeStream, core.ModeCommon:
			if !l.stream.Has(l.ss) {
				return nil // input consumed
			}
			if l.ss == 8 {
				sym = l.stream.TakeByteFast()
			} else {
				sym = l.stream.Take(l.ss)
			}
			l.stats.StreamBits += uint64(l.ss)
		case core.ModeFlagged:
			sym = l.regs[core.R0]
		}
		var err error
		if l.decOK {
			err = l.dispatchDecoded(sym)
		} else {
			err = l.dispatchMem(sym, 0)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// dispatchMem performs one multi-way dispatch (plus any default-retry hops)
// for symbol sym at the current state, interpreting transition words straight
// out of lane memory. This is the reference path: the decoded fast path must
// match it bit for bit, and delegates to it (carrying the hop count) whenever
// a probe leaves the decoded image or a store has invalidated the cache.
func (l *Lane) dispatchMem(sym uint32, hop int) error {
	for ; ; hop++ {
		if hop > 256 {
			return l.trapf(fault.TrapEpsilonLoop, "default-transition loop at base %d", l.base)
		}
		slot := l.base + int(sym)
		if l.mode == core.ModeCommon {
			slot = l.base
		}
		l.stats.Cycles++
		l.stats.Dispatches++
		l.traceRecord(l.base, sym)
		if l.prof != nil {
			l.prof.Dispatch(l.base)
		}
		takenAt := slot
		t, ok, err := l.probe(slot)
		if err != nil {
			return err
		}
		if !ok {
			// Signature miss: read the fallback word at base-1.
			l.stats.Cycles++
			l.stats.FallbackProbes++
			if l.prof != nil {
				l.prof.Fallback()
			}
			takenAt = l.base - 1
			t, ok, err = l.probe(l.base - 1)
			if err != nil {
				return err
			}
			if !ok || (t.Kind != core.KindMajority && t.Kind != core.KindDefault) {
				return l.trapf(fault.TrapBadSignature, "no transition at base %d for symbol %d", l.base, sym)
			}
		}
		l.regs[core.RSym] = sym
		if l.prof != nil {
			l.prof.Take(t.Kind)
		}
		if t.Kind == core.KindRefill {
			pb := l.ss - (t.Attach&(1<<core.RefillLenBits-1) + 1)
			if l.prof != nil {
				l.prof.Refill(pb)
			}
			if pb > 0 {
				l.stream.PutBack(pb)
				l.stats.StreamBits -= uint64(pb)
			}
		}
		if err := l.execAttach(t, takenAt); err != nil {
			return err
		}
		l.setBase(int(l.cb) + int(t.Target))
		l.mode = t.NextMode
		if t.Kind != core.KindDefault {
			return nil
		}
		// Default: re-dispatch the same symbol at the target state.
		l.stats.DefaultHops++
		if l.prof != nil {
			l.prof.DefaultHop()
		}
		if l.mode != core.ModeStream {
			return l.trapf(fault.TrapBadSignature, "default transition into non-stream state at base %d", l.base)
		}
		if l.halted {
			return nil
		}
	}
}

// probe fetches and validates the word at slot against the current base's
// signature.
func (l *Lane) probe(slot int) (encode.Transition, bool, error) {
	w, err := l.fetch(slot)
	if err != nil {
		return encode.Transition{}, false, err
	}
	if encode.EmptySlot(w) {
		return encode.Transition{}, false, nil
	}
	t := encode.GetTransition(w)
	if t.Sig != l.baseSig {
		return t, false, nil
	}
	return t, true, nil
}

// dispatchDecoded is dispatchMem on the predecoded cache: same hop loop, same
// stats and trace effects, but transitions come from shared DecodedSlots and
// action chains from memoized []core.Action slices — no lane-memory fetch, no
// bit unpacking, no per-dispatch allocation. Any probe outside the decoded
// image (flagged dispatch into the data region, runaway base) delegates to
// dispatchMem mid-loop, before any stats are charged for that hop, so the two
// paths stay bit-identical.
func (l *Lane) dispatchDecoded(sym uint32) error {
	d := l.dec
	for hop := 0; ; hop++ {
		if hop > 256 {
			return l.trapf(fault.TrapEpsilonLoop, "default-transition loop at base %d", l.base)
		}
		slot := l.base + int(sym)
		if l.mode == core.ModeCommon {
			slot = l.base
		}
		if uint(slot) >= uint(len(d.Slots)) || !l.decOK {
			// The probe leaves the decoded image (it may still be a legal
			// read of the lane's data region) or a store just invalidated
			// the cache: finish this dispatch on the memory path.
			return l.dispatchMem(sym, hop)
		}
		l.stats.Cycles++
		l.stats.Dispatches++
		l.traceRecord(l.base, sym)
		if l.prof != nil {
			l.prof.Dispatch(l.base)
		}
		ds := &d.Slots[slot]
		if ds.Sig != l.baseSig {
			// Signature miss: read the fallback word at base-1 (in range on
			// the high side since base ≤ slot < len; base 0 traps exactly
			// like the memory path's out-of-window fetch of word -1).
			l.stats.Cycles++
			l.stats.FallbackProbes++
			if l.prof != nil {
				l.prof.Fallback()
			}
			if l.base == 0 {
				return l.trapf(fault.TrapMemOutOfWindow, "dispatch probe at word %d outside window", -1)
			}
			ds = &d.Slots[l.base-1]
			if ds.Sig != l.baseSig || (ds.Kind != core.KindMajority && ds.Kind != core.KindDefault) {
				return l.trapf(fault.TrapBadSignature, "no transition at base %d for symbol %d", l.base, sym)
			}
		}
		l.regs[core.RSym] = sym
		if l.prof != nil {
			l.prof.Take(ds.Kind)
		}
		if ds.Kind == core.KindRefill {
			pb := l.ss - (ds.Attach&(1<<core.RefillLenBits-1) + 1)
			if l.prof != nil {
				l.prof.Refill(pb)
			}
			if pb > 0 {
				l.stream.PutBack(pb)
				l.stats.StreamBits -= uint64(pb)
			}
		}
		if err := l.execAttachDecoded(ds); err != nil {
			return err
		}
		l.setBase(int(l.cb) + int(ds.Target))
		l.mode = ds.NextMode
		if ds.Kind != core.KindDefault {
			return nil
		}
		// Default: re-dispatch the same symbol at the target state.
		l.stats.DefaultHops++
		if l.prof != nil {
			l.prof.DefaultHop()
		}
		if l.mode != core.ModeStream {
			return l.trapf(fault.TrapBadSignature, "default transition into non-stream state at base %d", l.base)
		}
		if l.halted {
			return nil
		}
	}
}

// execAttachDecoded runs a decoded slot's resolved action chain: the
// memoized slice when one exists, the memory walk at ChainAddr when the
// chain was not memoizable (it leaves the image words), nothing when the
// transition carries no actions.
func (l *Lane) execAttachDecoded(ds *effclip.DecodedSlot) error {
	if ds.ChainAddr < 0 {
		return nil
	}
	if ds.ChainIdx >= 0 {
		return l.execChainDecoded(int(ds.ChainAddr), l.dec.Chains[ds.ChainIdx])
	}
	return l.execChain(int(ds.ChainAddr))
}

// execChainDecoded executes a memoized action chain. If an action stores into
// the code window mid-chain (dropping decOK), the remaining actions are
// re-fetched through the memory interpreter so a chain that rewrites its own
// tail executes the rewritten words, exactly as the reference path would.
func (l *Lane) execChainDecoded(addr int, chain []core.Action) error {
	for i, n := 0, len(chain); i < n; i++ {
		if err := l.execAction(chain[i]); err != nil {
			return err
		}
		if l.halted || i == n-1 {
			return nil
		}
		if !l.decOK {
			return l.execChain(addr + i + 1)
		}
	}
	return nil
}

// execAttach resolves a taken transition's action chain and executes it.
// slot is the word address the transition was fetched from (wide-attach
// images map it to the chain address directly).
func (l *Lane) execAttach(t encode.Transition, slot int) error {
	if l.img.WideAttach != nil {
		if addr, ok := l.img.WideAttach[slot]; ok {
			return l.execChain(addr)
		}
		return nil
	}
	var addr int
	switch {
	case t.Kind == core.KindRefill:
		ref := int(t.Attach >> core.RefillLenBits)
		if ref == 0 {
			return nil
		}
		addr = l.img.ActionBase + ref*core.ScaledStride
	case t.Attach == 0 && t.AttachMode == core.AttachDirect:
		return nil
	case t.AttachMode == core.AttachDirect:
		addr = l.img.ActionBase + int(t.Attach)
	default:
		addr = l.img.ActionBase + int(t.Attach)*core.ScaledStride
	}
	return l.execChain(addr)
}

// execChain executes an encoded action chain starting at word addr.
func (l *Lane) execChain(addr int) error {
	for {
		w, err := l.fetch(addr)
		if err != nil {
			return err
		}
		a, last := encode.GetAction(w)
		if err := l.execAction(a); err != nil {
			return err
		}
		if last || l.halted {
			return nil
		}
		addr++
	}
}

func (l *Lane) getReg(r core.Reg) uint32 {
	if r == core.RIdx {
		return uint32(l.stream.Pos())
	}
	return l.regs[r]
}

func (l *Lane) setReg(r core.Reg, v uint32) {
	if r == core.RIdx {
		l.stream.SeekBit(int64(v))
		return
	}
	l.regs[r] = v
}

func (l *Lane) memAddr(a uint32, n int) (int, error) {
	addr := int(l.memBase + a)
	if addr < 0 || addr+n > len(l.mem) {
		return 0, l.trapf(fault.TrapMemOutOfWindow, "memory access [%d,%d) outside window", addr, addr+n)
	}
	if l.traceBanks {
		l.bankTrace = append(l.bankTrace, l.stats.Cycles<<8|uint64(addr/core.BankBytes))
	}
	return addr, nil
}

// EnableBankTrace records a (cycle, bank) event for every memory access,
// feeding the global-addressing conflict study. One entry is recorded per
// access (loop operations count once at their starting bank).
func (l *Lane) EnableBankTrace() { l.traceBanks = true }

// BankTrace returns the recorded events, packed cycle<<8|bank.
func (l *Lane) BankTrace() []uint64 { return l.bankTrace }

// beats is the cycle/reference cost of an n-byte loop operation on the
// 4-byte loop datapath.
func beats(n uint32) uint64 { return uint64(n+3) / 4 }

// execAction interprets one action, charging its cycle and memory-reference
// costs.
func (l *Lane) execAction(a core.Action) error {
	l.stats.Cycles++
	l.stats.Actions++
	if l.prof != nil {
		l.prof.Action(a.Op)
	}
	src := l.getReg(a.Src)
	ref := l.getReg(a.Ref)
	imm := uint32(a.Imm)
	switch a.Op {
	case core.OpNop:
	case core.OpAdd:
		l.setReg(a.Dst, ref+src)
	case core.OpAddi:
		l.setReg(a.Dst, src+imm)
	case core.OpSub:
		l.setReg(a.Dst, ref-src)
	case core.OpSubi:
		l.setReg(a.Dst, src-imm)
	case core.OpMul:
		l.setReg(a.Dst, ref*src)
	case core.OpMuli:
		l.setReg(a.Dst, src*imm)
	case core.OpAnd:
		l.setReg(a.Dst, ref&src)
	case core.OpAndi:
		l.setReg(a.Dst, src&imm)
	case core.OpOr:
		l.setReg(a.Dst, ref|src)
	case core.OpOri:
		l.setReg(a.Dst, src|imm)
	case core.OpXor:
		l.setReg(a.Dst, ref^src)
	case core.OpXori:
		l.setReg(a.Dst, src^imm)
	case core.OpNot:
		l.setReg(a.Dst, ^src)
	case core.OpShl:
		l.setReg(a.Dst, ref<<(src&31))
	case core.OpShli:
		l.setReg(a.Dst, src<<(imm&31))
	case core.OpShr:
		l.setReg(a.Dst, ref>>(src&31))
	case core.OpShri:
		l.setReg(a.Dst, src>>(imm&31))
	case core.OpMov:
		l.setReg(a.Dst, src)
	case core.OpMovi:
		l.setReg(a.Dst, imm)
	case core.OpLui:
		l.setReg(a.Dst, src&0xFFFF|imm<<16)
	case core.OpSeq:
		l.setReg(a.Dst, b2u(ref == src))
	case core.OpSeqi:
		l.setReg(a.Dst, b2u(src == imm))
	case core.OpSne:
		l.setReg(a.Dst, b2u(ref != src))
	case core.OpSnei:
		l.setReg(a.Dst, b2u(src != imm))
	case core.OpSlt:
		l.setReg(a.Dst, b2u(ref < src))
	case core.OpSlti:
		l.setReg(a.Dst, b2u(src < imm))
	case core.OpSge:
		l.setReg(a.Dst, b2u(ref >= src))
	case core.OpMin:
		l.setReg(a.Dst, min(ref, src))
	case core.OpMax:
		l.setReg(a.Dst, max(ref, src))

	case core.OpLd8:
		addr, err := l.memAddr(src+imm, 1)
		if err != nil {
			return err
		}
		l.stats.MemRefs++
		l.setReg(a.Dst, uint32(l.mem[addr]))
	case core.OpLd16:
		addr, err := l.memAddr(src+imm, 2)
		if err != nil {
			return err
		}
		l.stats.MemRefs++
		l.setReg(a.Dst, uint32(binary.LittleEndian.Uint16(l.mem[addr:])))
	case core.OpLd32:
		addr, err := l.memAddr(src+imm, 4)
		if err != nil {
			return err
		}
		l.stats.MemRefs++
		l.setReg(a.Dst, binary.LittleEndian.Uint32(l.mem[addr:]))
	case core.OpSt8:
		addr, err := l.memAddr(l.getReg(a.Dst)+imm, 1)
		if err != nil {
			return err
		}
		l.stats.MemRefs++
		l.noteStore(addr, 1)
		l.mem[addr] = byte(src)
	case core.OpSt16:
		addr, err := l.memAddr(l.getReg(a.Dst)+imm, 2)
		if err != nil {
			return err
		}
		l.stats.MemRefs++
		l.noteStore(addr, 2)
		binary.LittleEndian.PutUint16(l.mem[addr:], uint16(src))
	case core.OpSt32:
		addr, err := l.memAddr(l.getReg(a.Dst)+imm, 4)
		if err != nil {
			return err
		}
		l.stats.MemRefs++
		l.noteStore(addr, 4)
		binary.LittleEndian.PutUint32(l.mem[addr:], src)
	case core.OpLdx:
		addr, err := l.memAddr(ref+src, 1)
		if err != nil {
			return err
		}
		l.stats.MemRefs++
		l.setReg(a.Dst, uint32(l.mem[addr]))
	case core.OpLdx32:
		addr, err := l.memAddr(ref+src, 4)
		if err != nil {
			return err
		}
		l.stats.MemRefs++
		l.setReg(a.Dst, binary.LittleEndian.Uint32(l.mem[addr:]))
	case core.OpStx:
		addr, err := l.memAddr(ref+src, 1)
		if err != nil {
			return err
		}
		l.stats.MemRefs++
		l.noteStore(addr, 1)
		l.mem[addr] = byte(l.getReg(a.Dst))
	case core.OpIncm:
		addr, err := l.memAddr(src+imm, 4)
		if err != nil {
			return err
		}
		l.stats.MemRefs += 2
		l.noteStore(addr, 4)
		binary.LittleEndian.PutUint32(l.mem[addr:], binary.LittleEndian.Uint32(l.mem[addr:])+1)

	case core.OpOut8:
		l.out = append(l.out, byte(src))
		l.stats.OutBytes++
	case core.OpOut16:
		l.out = append(l.out, byte(src), byte(src>>8))
		l.stats.OutBytes += 2
	case core.OpOut32:
		l.out = append(l.out, byte(src), byte(src>>8), byte(src>>16), byte(src>>24))
		l.stats.OutBytes += 4
	case core.OpOutI:
		l.out = append(l.out, byte(imm))
		l.stats.OutBytes++
	case core.OpEmitBits:
		l.emitBits(src, uint(imm&31))
	case core.OpEmitBitsR:
		l.emitBits(src, uint(ref&31))
	case core.OpFlushBits:
		if l.bitN > 0 {
			l.emitBits(0, 8-l.bitN%8)
		}
	case core.OpOutMem:
		n := src
		addr, err := l.memAddr(ref, int(n))
		if err != nil {
			return err
		}
		l.out = append(l.out, l.mem[addr:addr+int(n)]...)
		l.stats.OutBytes += uint64(n)
		l.stats.MemRefs += beats(n)
		l.stats.Cycles += beats(n)

	case core.OpSetSS:
		if imm == 0 || imm > core.MaxSymbolBits {
			return l.trapf(fault.TrapBadSymbolSize, "setss %d out of range", imm)
		}
		l.ss = uint8(imm)
		l.stats.SetSSOps++
	case core.OpSetSSR:
		if src == 0 || src > core.MaxSymbolBits {
			return l.trapf(fault.TrapBadSymbolSize, "setssr %d out of range", src)
		}
		l.ss = uint8(src)
		l.stats.SetSSOps++
	case core.OpPutBack:
		if l.prof != nil {
			l.prof.PutBack(imm)
		}
		l.stream.PutBack(uint8(imm))
		l.stats.StreamBits -= uint64(imm)
	case core.OpPutBackR:
		if l.prof != nil {
			l.prof.PutBack(src)
		}
		l.stream.PutBack(uint8(src))
		l.stats.StreamBits -= uint64(src)
	case core.OpRead:
		if imm > 32 {
			return l.trapf(fault.TrapBadSymbolSize, "read %d bits out of range", imm)
		}
		l.setReg(a.Dst, l.stream.Take(uint8(imm)))
		l.stats.StreamBits += uint64(imm)
	case core.OpSetBase:
		l.memBase = src + imm
	case core.OpSetCB:
		l.cb = imm

	case core.OpHash:
		shift := 32 - imm&31
		l.setReg(a.Dst, src*0x1e35a7bd>>shift)
	case core.OpLoopCmp:
		n, err := l.loopCmp(ref, src)
		if err != nil {
			return err
		}
		l.setReg(a.Dst, n)
		l.stats.Cycles += beats(n)
		l.stats.MemRefs += 2 * beats(n)
	case core.OpLoopCpy:
		n := src
		if err := l.loopCpy(a.Dst, a.Ref, n); err != nil {
			return err
		}
		l.stats.Cycles += beats(n)
		l.stats.MemRefs += 2 * beats(n)

	case core.OpAccept:
		l.matches = append(l.matches, Match{PatternID: int32(imm), BitPos: l.stream.Pos()})
	case core.OpHalt:
		l.halted = true
		l.exit = a.Imm
	default:
		return l.trapf(fault.TrapBadSignature, "unimplemented opcode %s", a.Op)
	}
	return nil
}

func (l *Lane) emitBits(v uint32, n uint) {
	if n == 0 || n > 32 {
		return
	}
	l.bitAcc = l.bitAcc<<n | uint64(v&(1<<n-1))
	l.bitN += n
	for l.bitN >= 8 {
		l.bitN -= 8
		l.out = append(l.out, byte(l.bitAcc>>l.bitN))
		l.stats.OutBytes++
	}
}

func (l *Lane) loopCmp(pa, pb uint32) (uint32, error) {
	a, err := l.memAddr(pa, 1)
	if err != nil {
		return 0, err
	}
	b, err := l.memAddr(pb, 1)
	if err != nil {
		return 0, err
	}
	n := 0
	for n < core.LoopCmpMax && a+n < len(l.mem) && b+n < len(l.mem) && l.mem[a+n] == l.mem[b+n] {
		n++
	}
	return uint32(n), nil
}

func (l *Lane) loopCpy(dstReg, srcReg core.Reg, n uint32) error {
	d, err := l.memAddr(l.getReg(dstReg), int(n))
	if err != nil {
		return err
	}
	s, err := l.memAddr(l.getReg(srcReg), int(n))
	if err != nil {
		return err
	}
	l.noteStore(d, int(n))
	for i := 0; i < int(n); i++ { // byte order: overlapping RLE copies replicate
		l.mem[d+i] = l.mem[s+i]
	}
	l.setReg(dstReg, l.getReg(dstReg)+n)
	l.setReg(srcReg, l.getReg(srcReg)+n)
	return nil
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
