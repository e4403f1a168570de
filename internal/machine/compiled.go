// The compiled execution tier: a single direct-threaded loop over the
// lowered program from internal/compile. It is the production-mode
// counterpart of runSingle + dispatchDecoded + execAction, with the
// per-dispatch interpretation overhead compiled out:
//
//   - dispatch, signature validation, refill put-back and the action chain
//     run fused in one loop body — no per-hop or per-action function calls;
//   - next-state base and signature come precomputed from the compiled
//     slot, eliminating the interpreter's per-transition Sig() modulo;
//   - fused chains charge their cycle and action counts in one static bulk
//     add and execute as flat micro-ops on locally-held registers, with
//     the dominant single-op chains (field-byte echo, separator emission)
//     specialized past the micro-op loop entirely;
//   - the hot counters (cycles, dispatches, actions, stream bits, output
//     bytes, probe and hop counts), the stream cursor, the livelock
//     watermark and the machine position (base, signature, mode) live in
//     locals, synced to the lane only at observation boundaries: traps,
//     slow chains, interpreter hand-offs and run exit;
//   - runs of dispatches that change neither the state nor the cost per
//     symbol — stay runs and action-free common-mode chains, found at
//     lowering (internal/compile/runs.go) — are taken in one step that
//     charges and traces exactly what the single dispatches would.
//
// Everything observable is bit-identical with the reference interpreter:
// the same per-dispatch budget, livelock and interrupt checks, the same
// trace-ring writes, the same stats at every trap, and the same
// degradation ladder — a probe outside the compiled image finishes its
// dispatch on the memory path, and a store into the code window hands the
// rest of the run to the interpreter loop, exactly as the decoded tier
// falls back today. The differential harness (diff_test.go) enforces this
// over every kernel, trap and self-modification case.
package machine

import (
	"udp/internal/compile"
	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/fault"
)

// syncCompiled writes the compiled loop's locally-held state back to the
// lane at an observation boundary: traps (trapf reads l.stats.Cycles and
// l.base), the interpreter's action machinery, and run exit. It is a plain
// method on purpose — a closure over the loop locals would make them
// addressable and push them out of registers.
func (l *Lane) syncCompiled(
	cycles, dispatches, actions, streamBits, outBytes,
	fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN uint64,
	pos int64, out []byte, base int, baseSig uint8, mode core.DispatchMode,
	ring *[fault.TraceTail]fault.TraceEntry,
) {
	l.stats.Cycles = cycles
	l.stats.Dispatches = dispatches
	l.stats.Actions = actions
	l.stats.StreamBits = streamBits
	l.stats.OutBytes = outBytes
	l.stats.FallbackProbes = fallbackProbes
	l.stats.DefaultHops = defaultHops
	l.progressMark = progressMark
	l.stall = stall
	l.stopCheck = stopCheck
	l.stream.pos = pos
	l.out = out
	l.base = base
	l.baseSig = baseSig
	l.mode = mode
	// Flush the loop's stack-resident trace-ring entries written since the
	// last boundary; positions line up because the local ring continues the
	// global entry numbering.
	if k := ringN - l.ringN; k > 0 {
		if k > fault.TraceTail {
			k = fault.TraceTail
		}
		for i := ringN - k; i < ringN; i++ {
			l.ring[i%fault.TraceTail] = ring[i%fault.TraceTail]
		}
		l.ringN = ringN
	}
}

// runCompiled executes the compiled tier until the stream is exhausted, a
// Halt executes, or maxCycles elapse. See the package comment above for the
// contract with the reference interpreter.
func (l *Lane) runCompiled(maxCycles uint64) error {
	cp := l.comp
	slots := cp.Slots
	stream := l.stream
	data := stream.data
	regs := &l.regs

	cycles := l.stats.Cycles
	dispatches := l.stats.Dispatches
	actions := l.stats.Actions
	streamBits := l.stats.StreamBits
	outBytes := l.stats.OutBytes
	fallbackProbes := l.stats.FallbackProbes
	defaultHops := l.stats.DefaultHops
	progressMark := l.progressMark
	stall := l.stall
	stopCheck := l.stopCheck
	ringN := l.ringN
	var lring [fault.TraceTail]fault.TraceEntry
	ss := l.ss
	pos := stream.pos
	out := l.out
	base := l.base
	baseSig := l.baseSig
	mode := l.mode
	window := l.livelockWindow
	if window == 0 {
		window = DefaultLivelockWindow
	}
	// Mirrors of lane state only the interpreter's machinery can change;
	// reloaded after every excursion onto it (fused chains cannot touch
	// them).
	halted := l.halted
	decOK := l.decOK
	memRefs := l.stats.MemRefs

	for !halted {
		if cycles >= maxCycles {
			l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
			return l.trapf(fault.TrapCycleBudget, "exceeded %d-cycle budget", maxCycles)
		}
		// Livelock watermark (checkProgress, on the local counters).
		p := uint64(pos) + outBytes + memRefs
		if p > progressMark {
			progressMark = p
			stall = 0
		} else {
			stall++
			if stall > window {
				l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
				return l.trapf(fault.TrapEpsilonLoop,
					"no forward progress across %d dispatches (self-dispatch or putback livelock)", window)
			}
		}
		// Cooperative interruption (interrupted, inlined).
		if l.stop != nil {
			stopCheck++
			if stopCheck%interruptStride == 0 && l.stop.Load() {
				l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
				return ErrInterrupted
			}
		}

		var sym uint32
		switch mode {
		case core.ModeStream, core.ModeCommon:
			if ss == 8 && pos&7 == 0 {
				// Aligned byte symbols: the overwhelmingly common case.
				idx := pos >> 3
				if idx >= int64(len(data)) {
					l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
					return nil // input consumed
				}
				sym = uint32(data[idx])
				pos += 8
			} else {
				if pos+int64(ss) > int64(len(data))*8 {
					l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
					return nil // input consumed
				}
				if skip := uint8(pos & 7); skip+ss <= 8 && ss != 0 {
					// A sub-byte symbol inside one byte (histogram nibbles;
					// a zero-width read may sit at the very end). This is
					// peekBits' fast path written out: peekBits is over the
					// inlining budget, and the call costs ≈7 % of
					// BenchmarkLaneCompiled/histogram16e.
					sym = uint32(data[pos>>3]>>(8-skip-ss)) & (1<<ss - 1)
				} else {
					sym = peekWide(data, pos, ss)
				}
				pos += int64(ss)
			}
			streamBits += uint64(ss)
		default: // core.ModeFlagged
			sym = regs[core.R0]
		}

		// last is the slot the dispatch below ends on when it resolves
		// through the compiled tables (nil otherwise).
		var last *compile.Slot
	dispatch:
		for hop := 0; ; hop++ {
			if hop > 256 {
				l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
				return l.trapf(fault.TrapEpsilonLoop, "default-transition loop at base %d", base)
			}
			slot := base + int(sym)
			if mode == core.ModeCommon {
				slot = base
			}
			if uint(slot) >= uint(len(slots)) || !decOK {
				// The probe leaves the compiled image, or a store just
				// invalidated the caches: finish this dispatch on the
				// memory path (charging nothing for the hop yet, exactly
				// like the decoded tier's delegation).
				l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
				if err := l.dispatchMem(sym, hop); err != nil {
					return err
				}
				if !l.decOK || l.cb != 0 {
					// Self-modified code, or an out-of-image chain moved
					// the code base: the precomputed tables no longer
					// apply. The interpreter loop finishes the run.
					return l.runSingle(maxCycles)
				}
				cycles, dispatches = l.stats.Cycles, l.stats.Dispatches
				actions, streamBits, outBytes = l.stats.Actions, l.stats.StreamBits, l.stats.OutBytes
				fallbackProbes, defaultHops = l.stats.FallbackProbes, l.stats.DefaultHops
				progressMark, stall, pos = l.progressMark, l.stall, stream.pos
				stopCheck, ringN, ss = l.stopCheck, l.ringN, l.ss
				out = l.out
				base, baseSig, mode = l.base, l.baseSig, l.mode
				halted, decOK, memRefs = l.halted, l.decOK, l.stats.MemRefs
				break dispatch
			}

			cycles++
			dispatches++
			lring[ringN%fault.TraceTail] = fault.TraceEntry{Cycle: cycles, Base: base, Sym: sym}
			ringN++
			cs := &slots[slot]
			if cs.Sig != baseSig {
				// Signature miss: fallback word at base-1 (base 0 traps
				// exactly like the memory path's fetch of word -1).
				cycles++
				fallbackProbes++
				if base == 0 {
					l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
					return l.trapf(fault.TrapMemOutOfWindow, "dispatch probe at word %d outside window", -1)
				}
				cs = &slots[base-1]
				if cs.Sig != baseSig || (cs.Kind != core.KindMajority && cs.Kind != core.KindDefault) {
					l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
					return l.trapf(fault.TrapBadSignature, "no transition at base %d for symbol %d", base, sym)
				}
			}
			regs[core.RSym] = sym
			if cs.Kind == core.KindRefill {
				if pb := ss - cs.TakeLen; pb > 0 {
					// Inlined stream.PutBack (clamped at the origin).
					pos -= int64(pb)
					if pos < 0 {
						pos = 0
					}
					streamBits -= uint64(pb)
				}
			}

			if cs.Flags&compile.FlagFused != 0 {
				// Fused chain: static bulk charge, then the single-op
				// specializations or the flat micro-op loop.
				cycles += uint64(cs.Cost)
				actions += uint64(cs.Cost)
				switch cs.Spec {
				case compile.SpecOut8:
					out = append(out, byte(regs[cs.A&0xF]))
					outBytes++
				case compile.SpecOutI:
					out = append(out, byte(cs.Imm))
					outBytes++
				default:
					for _, op := range cs.Ops {
						switch op.Code {
						case core.OpNop:
						case core.OpAdd:
							regs[op.Dst&0xF] = regs[op.Ref&0xF] + regs[op.Src&0xF]
						case core.OpAddi:
							regs[op.Dst&0xF] = regs[op.Src&0xF] + op.Imm
						case core.OpSub:
							regs[op.Dst&0xF] = regs[op.Ref&0xF] - regs[op.Src&0xF]
						case core.OpSubi:
							regs[op.Dst&0xF] = regs[op.Src&0xF] - op.Imm
						case core.OpMul:
							regs[op.Dst&0xF] = regs[op.Ref&0xF] * regs[op.Src&0xF]
						case core.OpMuli:
							regs[op.Dst&0xF] = regs[op.Src&0xF] * op.Imm
						case core.OpAnd:
							regs[op.Dst&0xF] = regs[op.Ref&0xF] & regs[op.Src&0xF]
						case core.OpAndi:
							regs[op.Dst&0xF] = regs[op.Src&0xF] & op.Imm
						case core.OpOr:
							regs[op.Dst&0xF] = regs[op.Ref&0xF] | regs[op.Src&0xF]
						case core.OpOri:
							regs[op.Dst&0xF] = regs[op.Src&0xF] | op.Imm
						case core.OpXor:
							regs[op.Dst&0xF] = regs[op.Ref&0xF] ^ regs[op.Src&0xF]
						case core.OpXori:
							regs[op.Dst&0xF] = regs[op.Src&0xF] ^ op.Imm
						case core.OpNot:
							regs[op.Dst&0xF] = ^regs[op.Src&0xF]
						case core.OpShl:
							regs[op.Dst&0xF] = regs[op.Ref&0xF] << (regs[op.Src&0xF] & 31)
						case core.OpShli:
							regs[op.Dst&0xF] = regs[op.Src&0xF] << (op.Imm & 31)
						case core.OpShr:
							regs[op.Dst&0xF] = regs[op.Ref&0xF] >> (regs[op.Src&0xF] & 31)
						case core.OpShri:
							regs[op.Dst&0xF] = regs[op.Src&0xF] >> (op.Imm & 31)
						case core.OpMov:
							regs[op.Dst&0xF] = regs[op.Src&0xF]
						case core.OpMovi:
							regs[op.Dst&0xF] = op.Imm
						case core.OpLui:
							regs[op.Dst&0xF] = regs[op.Src&0xF]&0xFFFF | op.Imm<<16
						case core.OpSeq:
							regs[op.Dst&0xF] = b2u(regs[op.Ref&0xF] == regs[op.Src&0xF])
						case core.OpSeqi:
							regs[op.Dst&0xF] = b2u(regs[op.Src&0xF] == op.Imm)
						case core.OpSne:
							regs[op.Dst&0xF] = b2u(regs[op.Ref&0xF] != regs[op.Src&0xF])
						case core.OpSnei:
							regs[op.Dst&0xF] = b2u(regs[op.Src&0xF] != op.Imm)
						case core.OpSlt:
							regs[op.Dst&0xF] = b2u(regs[op.Ref&0xF] < regs[op.Src&0xF])
						case core.OpSlti:
							regs[op.Dst&0xF] = b2u(regs[op.Src&0xF] < op.Imm)
						case core.OpSge:
							regs[op.Dst&0xF] = b2u(regs[op.Ref&0xF] >= regs[op.Src&0xF])
						case core.OpMin:
							regs[op.Dst&0xF] = min(regs[op.Ref&0xF], regs[op.Src&0xF])
						case core.OpMax:
							regs[op.Dst&0xF] = max(regs[op.Ref&0xF], regs[op.Src&0xF])
						case core.OpOut8:
							out = append(out, byte(regs[op.Src&0xF]))
							outBytes++
						case core.OpOut16:
							v := regs[op.Src&0xF]
							out = append(out, byte(v), byte(v>>8))
							outBytes += 2
						case core.OpOut32:
							v := regs[op.Src&0xF]
							out = append(out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
							outBytes += 4
						case core.OpOutI:
							out = append(out, byte(op.Imm))
							outBytes++
						case core.OpEmitBits:
							l.out, l.stats.OutBytes = out, outBytes
							l.emitBits(regs[op.Src&0xF], uint(op.Imm&31))
							out, outBytes = l.out, l.stats.OutBytes
						case core.OpEmitBitsR:
							l.out, l.stats.OutBytes = out, outBytes
							l.emitBits(regs[op.Src&0xF], uint(regs[op.Ref&0xF]&31))
							out, outBytes = l.out, l.stats.OutBytes
						case core.OpFlushBits:
							if l.bitN > 0 {
								l.out, l.stats.OutBytes = out, outBytes
								l.emitBits(0, 8-l.bitN%8)
								out, outBytes = l.out, l.stats.OutBytes
							}
						case core.OpSetSS:
							ss = uint8(op.Imm)
							l.ss = ss
							l.stats.SetSSOps++
						case core.OpPutBack:
							pos -= int64(uint8(op.Imm))
							if pos < 0 {
								pos = 0
							}
							streamBits -= uint64(op.Imm)
						case core.OpPutBackR:
							v := regs[op.Src&0xF]
							pos -= int64(uint8(v))
							if pos < 0 {
								pos = 0
							}
							streamBits -= uint64(v)
						case core.OpRead:
							stream.pos = pos
							regs[op.Dst&0xF] = stream.Take(uint8(op.Imm))
							pos = stream.pos
							streamBits += uint64(op.Imm)
						case core.OpSetBase:
							l.memBase = regs[op.Src&0xF] + op.Imm
						case core.OpHash:
							shift := 32 - op.Imm&31
							regs[op.Dst&0xF] = regs[op.Src&0xF] * 0x1e35a7bd >> shift
						case core.OpAccept:
							l.matches = append(l.matches, Match{PatternID: int32(op.Imm), BitPos: pos})
						case core.OpHalt:
							halted = true
							l.halted = true
							l.exit = int32(op.Imm)
						default:
							// Unreachable: lowerAction admits only the cases
							// above. Mirror the interpreter's diagnostics.
							l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
							return l.trapf(fault.TrapBadSignature, "unimplemented opcode %s", op.Code)
						}
					}
				}
			} else if cs.Flags&compile.FlagSlow != 0 {
				// Slow chain: the interpreter's action machinery keeps
				// traps, dynamic costs and self-modification tracking
				// bit-identical.
				l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
				var err error
				if cs.ChainIdx >= 0 {
					err = l.execChainDecoded(int(cs.ChainAddr), l.dec.Chains[cs.ChainIdx])
				} else {
					err = l.execChain(int(cs.ChainAddr))
				}
				if err != nil {
					return err
				}
				cycles, dispatches = l.stats.Cycles, l.stats.Dispatches
				actions, streamBits, outBytes = l.stats.Actions, l.stats.StreamBits, l.stats.OutBytes
				fallbackProbes, defaultHops = l.stats.FallbackProbes, l.stats.DefaultHops
				progressMark, stall, pos = l.progressMark, l.stall, stream.pos
				stopCheck, ringN, ss = l.stopCheck, l.ringN, l.ss
				out = l.out
				halted, decOK, memRefs = l.halted, l.decOK, l.stats.MemRefs
				if l.cb != 0 {
					// The chain moved the code base: every precomputed
					// NextBase is now stale. Resolve this transition the
					// way the interpreter does, then hand the rest of the
					// run to the interpreter loop (whose dispatch applies
					// cb on every hop).
					nb := int(l.cb) + int(cs.NextBase)
					base, baseSig, mode = nb, effclip.Sig(nb), cs.NextMode
					if cs.Kind != core.KindDefault {
						l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
						return l.runSingle(maxCycles)
					}
					defaultHops++
					if mode != core.ModeStream {
						l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
						return l.trapf(fault.TrapBadSignature, "default transition into non-stream state at base %d", base)
					}
					if halted {
						break dispatch
					}
					// A default re-dispatch reuses the current symbol; the
					// memory dispatcher finishes this hop before the
					// interpreter loop takes over.
					l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
					if err := l.dispatchMem(sym, hop+1); err != nil {
						return err
					}
					return l.runSingle(maxCycles)
				}
			}

			base = int(cs.NextBase)
			baseSig = cs.NextSig
			mode = cs.NextMode
			if cs.Kind != core.KindDefault {
				last = cs
				break dispatch
			}
			// Default: re-dispatch the same symbol at the target state.
			defaultHops++
			if mode != core.ModeStream {
				l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
				return l.trapf(fault.TrapBadSignature, "default transition into non-stream state at base %d", base)
			}
			if halted {
				break dispatch
			}
		}

		// Run-skipping: the dispatches that would follow without changing
		// the state or the per-symbol cost are taken in one step of n
		// dispatches, each charging c cycles, cost actions, probe fallback
		// probes and e output bytes. The first of them must advance the
		// progress watermark (each one after it then does too), runLimit
		// keeps every loop-top check that could fire out of the step, and a
		// slow chain that just stored into the code window (decOK false)
		// leaves the tables stale. A halted dispatch ends the run here.
		if p := uint64(pos) + outBytes + memRefs; p > progressMark && decOK && !halted {
			var n, c, cost, probe, e uint64
			if (last == nil || last.Stay == 0) && mode == core.ModeStream && uint(base-1) < uint(len(slots)) &&
				slots[base-1].Flags&compile.FlagProbe != 0 {
				// The dispatch landed in a state whose majority word is a
				// stay slot (FlagProbe marks it only for the state right
				// after it).
				last = &slots[base-1]
			}
			if last != nil && last.Stay != 0 && ss == 8 && pos&7 == 0 {
				// A stay run: the following bytes in the stay set (the
				// first tested here, so a run that ends at once costs one
				// lookup).
				from, set := int(pos>>3), &cp.Stays[last.Stay-1]
				c, cost = 1+uint64(last.Cost), uint64(last.Cost)
				if last.Flags&compile.FlagProbe != 0 {
					c, probe = c+1, 1
				}
				if from < len(data) && set.Has(data[from]) {
					n = uint64(stayRun(data[from:], set, runLimit(len(data)-from, cycles, maxCycles, c, stopCheck, l.stop != nil)))
				}
				if n > 0 {
					run := data[from : from+int(n)]
					switch last.Spec {
					case compile.SpecOut8:
						if last.A == uint8(core.RSym) {
							out = append(out, run...)
						} else {
							out = appendRepeat(out, byte(regs[last.A&0xF]), len(run))
						}
						e = 1
					case compile.SpecOutI:
						out = appendRepeat(out, byte(last.Imm), len(run))
						e = 1
					}
					traceStay(&lring, ringN, cycles, c, base, run)
				}
			} else if mode == core.ModeCommon && ss != 0 && uint(base) < uint(len(slots)) && slots[base].Hops != 0 {
				// A common chain: action-free hops of ss bits each, never
				// past the last whole symbol. Zero-width symbols make no
				// progress, so their hops stay on the livelock count.
				k := int(slots[base].Hops)
				c = 1
				if end := int64(len(data)) * 8; pos+int64(k)*int64(ss) > end {
					k = int((end - pos) / int64(ss))
				}
				if n = uint64(runLimit(k, cycles, maxCycles, c, stopCheck, l.stop != nil)); n > 0 {
					cs := walkChain(slots, base, int(n), data, pos, ss, cycles, &lring, ringN)
					base, baseSig, mode = int(cs.NextBase), cs.NextSig, cs.NextMode
				}
			}
			if n > 0 {
				regs[core.RSym] = lring[(ringN+n-1)%fault.TraceTail].Sym
				cycles += n * c
				dispatches += n
				actions += n * cost
				fallbackProbes += n * probe
				streamBits += n * uint64(ss)
				outBytes += n * e
				pos += int64(n) * int64(ss)
				progressMark, stall = p+(n-1)*(uint64(ss)+e), 0
				ringN += n
				if l.stop != nil {
					stopCheck += n
				}
			}
		}
	}
	l.syncCompiled(cycles, dispatches, actions, streamBits, outBytes, fallbackProbes, defaultHops, progressMark, stall, stopCheck, ringN, pos, out, base, baseSig, mode, &lring)
	return nil
}

// runLimit caps a step of want dispatches of c cycles each so that every
// one of them would pass the loop-top cycle-budget check and, with a stop
// flag bound, stop short of the next interruptStride poll: the budget trap
// and ErrInterrupted then fire at the same cycle as without run-skipping.
func runLimit(want int, cycles, maxCycles, c, stopCheck uint64, polled bool) int {
	if want <= 0 {
		return 0
	}
	n := uint64(want)
	if cycles+(n-1)*c >= maxCycles {
		if cycles >= maxCycles {
			return 0
		}
		n = (maxCycles-cycles-1)/c + 1
	}
	if polled {
		n = min(n, interruptStride-1-stopCheck%interruptStride)
	}
	return int(n)
}

// stayRun returns the length of the longest prefix of data[:limit] whose
// bytes are all in set.
func stayRun(data []byte, set *compile.StaySet, limit int) int {
	data = data[:limit]
	if set.Full() {
		return limit
	}
	for i, b := range data {
		if !set.Has(b) {
			return i
		}
	}
	return limit
}

// appendRepeat appends n copies of b to out.
func appendRepeat(out []byte, b byte, n int) []byte {
	at := len(out)
	out = append(out, make([]byte, n)...)
	for i := at; i < len(out); i++ {
		out[i] = b
	}
	return out
}

// traceStay writes the trace-ring entries of the last TraceTail dispatches
// of a stay run over run at base, the first starting at cycles and each
// charging c cycles.
func traceStay(ring *[fault.TraceTail]fault.TraceEntry, ringN, cycles, c uint64, base int, run []byte) {
	for j := max(0, len(run)-fault.TraceTail); j < len(run); j++ {
		ring[(ringN+uint64(j))%fault.TraceTail] = fault.TraceEntry{
			Cycle: cycles + uint64(j)*c + 1, Base: base, Sym: uint32(run[j])}
	}
}

// walkChain follows n hops of the common chain starting at base, reading
// ss-bit symbols from bit pos on, writes the trace-ring entries of the last
// TraceTail hops (the first hop starting at cycles), and returns the word
// of the last hop.
func walkChain(slots []compile.Slot, base, n int, data []byte, pos int64, ss uint8,
	cycles uint64, ring *[fault.TraceTail]fault.TraceEntry, ringN uint64) *compile.Slot {
	var cs *compile.Slot
	for j := 0; j < n; j++ {
		if j >= n-fault.TraceTail {
			ring[(ringN+uint64(j))%fault.TraceTail] = fault.TraceEntry{
				Cycle: cycles + uint64(j) + 1, Base: base, Sym: peekBits(data, pos+int64(j)*int64(ss), ss)}
		}
		cs = &slots[base]
		base = int(cs.NextBase)
	}
	return cs
}
