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
//     one loop-local cstate, synced to the lane only at observation
//     boundaries: traps, slow chains, interpreter hand-offs and run exit;
//   - input that drives only pure dispatches — found at lowering and
//     composed per input byte into the image's byte-step table
//     (internal/compile/table.go) — is consumed with one table lookup per
//     byte, charging and tracing exactly what the single dispatches would.
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
	"encoding/binary"
	"math/bits"

	"udp/internal/compile"
	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/fault"
)

// cstate is the lane state the compiled loop holds locally between
// observation boundaries: the hot counters, the livelock watermark, the
// stop-poll count, the trace-ring count, the stream cursor, the output and
// the machine position (base, signature, mode). Its last four fields mirror
// lane state only the interpreter's machinery can change; they are read by
// loadCompiled and never written back (the loop writes l.ss and l.halted
// itself when it changes them).
type cstate struct {
	cycles, dispatches, actions, streamBits, outBytes uint64
	fallbackProbes, defaultHops                       uint64
	progressMark, stall, stopCheck, ringN             uint64
	pos                                               int64
	out                                               []byte
	base                                              int
	baseSig                                           uint8
	mode                                              core.DispatchMode

	ss            uint8
	halted, decOK bool
	memRefs       uint64
}

// loadCompiled reads the loop's state from the lane: it seeds the loop and
// reloads it after every excursion onto the interpreter's machinery.
func (l *Lane) loadCompiled() cstate {
	return cstate{
		cycles: l.stats.Cycles, dispatches: l.stats.Dispatches, actions: l.stats.Actions,
		streamBits: l.stats.StreamBits, outBytes: l.stats.OutBytes,
		fallbackProbes: l.stats.FallbackProbes, defaultHops: l.stats.DefaultHops,
		progressMark: l.progressMark, stall: l.stall, stopCheck: l.stopCheck, ringN: l.ringN,
		pos: l.stream.pos, out: l.out, base: l.base, baseSig: l.baseSig, mode: l.mode,
		ss: l.ss, halted: l.halted, decOK: l.decOK, memRefs: l.stats.MemRefs,
	}
}

// syncCompiled writes the compiled loop's state back to the lane at an
// observation boundary: traps (trapf reads l.stats.Cycles and l.base), the
// interpreter's action machinery, and run exit. ring is the loop's
// stack-resident trace ring.
func (l *Lane) syncCompiled(c *cstate, ring *[fault.TraceTail]fault.TraceEntry) {
	l.stats.Cycles = c.cycles
	l.stats.Dispatches = c.dispatches
	l.stats.Actions = c.actions
	l.stats.StreamBits = c.streamBits
	l.stats.OutBytes = c.outBytes
	l.stats.FallbackProbes = c.fallbackProbes
	l.stats.DefaultHops = c.defaultHops
	l.progressMark = c.progressMark
	l.stall = c.stall
	l.stopCheck = c.stopCheck
	l.stream.pos = c.pos
	l.out = c.out
	l.base = c.base
	l.baseSig = c.baseSig
	l.mode = c.mode
	// Flush the ring entries written since the last boundary; positions
	// line up because the local ring continues the global entry numbering.
	if k := c.ringN - l.ringN; k > 0 {
		if k > fault.TraceTail {
			k = fault.TraceTail
		}
		for i := c.ringN - k; i < c.ringN; i++ {
			l.ring[i%fault.TraceTail] = ring[i%fault.TraceTail]
		}
		l.ringN = c.ringN
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

	c := l.loadCompiled()
	var lring [fault.TraceTail]fault.TraceEntry
	window := l.livelockWindow
	if window == 0 {
		window = DefaultLivelockWindow
	}
	// The byte-step table; tw never matches ss without one.
	tab := cp.Table
	var rowOf []uint16
	tw := uint8(0xFF)
	if tab != nil {
		rowOf, tw = tab.RowOf, tab.W
	}
	// rows holds the row each of the last TraceTail bytes of a table
	// segment started on, for traceTable.
	var rows [fault.TraceTail]uint16

	for !c.halted {
		// Byte-step table: from a tabled state at a byte boundary, consume
		// the bytes whose dispatches are all pure with one lookup each, up
		// to an exit entry. The segment's first dispatch must advance the
		// progress watermark (every later one then does too), tableLimit
		// keeps the budget and stride checks out of it, and a slow chain
		// that just stored into the code window (decOK false) leaves the
		// table stale. The loop-top checks below then run for the next
		// dispatch, as after any other.
		if c.ss == tw && c.pos&7 == 0 && c.decOK && uint(c.base) < uint(len(rowOf)) {
			from := int(c.pos >> 3)
			r := int(rowOf[c.base]) - 1
			if p := uint64(c.pos) + c.outBytes + c.memRefs; r >= 0 && tab.Rows[r].Mode == c.mode && p > c.progressMark &&
				from < len(data) && !tab.Bytes[r<<8|int(data[from])].IsExit() {
				n := tableLimit(tab, len(data)-from, c.cycles, maxCycles, c.stopCheck, l.stop != nil)
				var act, prb uint64
				at := len(c.out)
				copied := tab.Rows[r].Copy
				n, r, act, prb, c.out = tableRun(tab, r, copied, data[from:from+n], c.out, regs, &rows)
				if n > 0 {
					d := uint64(n) * uint64(tab.K)
					c.cycles += d + act + prb
					c.dispatches += d
					c.actions += act
					c.fallbackProbes += prb
					c.streamBits += uint64(n) * 8
					c.outBytes += uint64(len(c.out) - at)
					c.pos += int64(n) * 8
					if l.stop != nil {
						c.stopCheck += d
					}
					sym, lastOut := traceTable(tab, r, copied, &rows, data[from:from+n], c.cycles, &lring, c.ringN)
					c.ringN += d
					regs[core.RSym] = sym
					c.progressMark, c.stall = uint64(c.pos)-uint64(tab.W)+c.outBytes-uint64(lastOut)+c.memRefs, 0
					row := &tab.Rows[r]
					c.base, c.baseSig, c.mode = int(row.Base), row.Sig, row.Mode
				}
			}
		}

		if c.cycles >= maxCycles {
			l.syncCompiled(&c, &lring)
			return l.trapf(fault.TrapCycleBudget, "exceeded %d-cycle budget", maxCycles)
		}
		// Livelock watermark (checkProgress, on the local counters).
		p := uint64(c.pos) + c.outBytes + c.memRefs
		if p > c.progressMark {
			c.progressMark = p
			c.stall = 0
		} else {
			c.stall++
			if c.stall > window {
				l.syncCompiled(&c, &lring)
				return l.trapf(fault.TrapEpsilonLoop,
					"no forward progress across %d dispatches (self-dispatch or putback livelock)", window)
			}
		}
		// Cooperative interruption (interrupted, inlined).
		if l.stop != nil {
			c.stopCheck++
			if c.stopCheck%interruptStride == 0 && l.stop.Load() {
				l.syncCompiled(&c, &lring)
				return ErrInterrupted
			}
		}

		var sym uint32
		switch c.mode {
		case core.ModeStream, core.ModeCommon:
			if c.ss == 8 && c.pos&7 == 0 {
				// Aligned byte symbols: the overwhelmingly common case.
				idx := c.pos >> 3
				if idx >= int64(len(data)) {
					l.syncCompiled(&c, &lring)
					return nil // input consumed
				}
				sym = uint32(data[idx])
				c.pos += 8
			} else {
				if c.pos+int64(c.ss) > int64(len(data))*8 {
					l.syncCompiled(&c, &lring)
					return nil // input consumed
				}
				if skip := uint8(c.pos & 7); skip+c.ss <= 8 && c.ss != 0 {
					// A sub-byte symbol inside one byte (histogram nibbles;
					// a zero-width read may sit at the very end). This is
					// peekBits' fast path written out: peekBits is over the
					// inlining budget, and the call costs ≈7 % of
					// BenchmarkLaneCompiled/histogram16e.
					sym = uint32(data[c.pos>>3]>>(8-skip-c.ss)) & (1<<c.ss - 1)
				} else {
					sym = peekWide(data, c.pos, c.ss)
				}
				c.pos += int64(c.ss)
			}
			c.streamBits += uint64(c.ss)
		default: // core.ModeFlagged
			sym = regs[core.R0]
		}

	dispatch:
		for hop := 0; ; hop++ {
			if hop > 256 {
				l.syncCompiled(&c, &lring)
				return l.trapf(fault.TrapEpsilonLoop, "default-transition loop at base %d", c.base)
			}
			slot := c.base + int(sym)
			if c.mode == core.ModeCommon {
				slot = c.base
			}
			if uint(slot) >= uint(len(slots)) || !c.decOK {
				// The probe leaves the compiled image, or a store just
				// invalidated the caches: finish this dispatch on the
				// memory path (charging nothing for the hop yet, exactly
				// like the decoded tier's delegation).
				l.syncCompiled(&c, &lring)
				if err := l.dispatchMem(sym, hop); err != nil {
					return err
				}
				if !l.decOK || l.cb != 0 {
					// Self-modified code, or an out-of-image chain moved
					// the code base: the precomputed tables no longer
					// apply. The interpreter loop finishes the run.
					return l.runSingle(maxCycles)
				}
				c = l.loadCompiled()
				break dispatch
			}

			c.cycles++
			c.dispatches++
			lring[c.ringN%fault.TraceTail] = fault.TraceEntry{Cycle: c.cycles, Base: c.base, Sym: sym}
			c.ringN++
			cs := &slots[slot]
			if cs.Sig != c.baseSig {
				// Signature miss: fallback word at base-1 (base 0 traps
				// exactly like the memory path's fetch of word -1).
				c.cycles++
				c.fallbackProbes++
				if c.base == 0 {
					l.syncCompiled(&c, &lring)
					return l.trapf(fault.TrapMemOutOfWindow, "dispatch probe at word %d outside window", -1)
				}
				cs = &slots[c.base-1]
				if cs.Sig != c.baseSig || (cs.Kind != core.KindMajority && cs.Kind != core.KindDefault) {
					l.syncCompiled(&c, &lring)
					return l.trapf(fault.TrapBadSignature, "no transition at base %d for symbol %d", c.base, sym)
				}
			}
			regs[core.RSym] = sym
			if cs.Kind == core.KindRefill {
				if pb := c.ss - cs.TakeLen; pb > 0 {
					// Inlined stream.PutBack (clamped at the origin).
					c.pos -= int64(pb)
					if c.pos < 0 {
						c.pos = 0
					}
					c.streamBits -= uint64(pb)
				}
			}

			if cs.Flags&compile.FlagFused != 0 {
				// Fused chain: static bulk charge, then the single-op
				// specializations or the flat micro-op loop.
				c.cycles += uint64(cs.Cost)
				c.actions += uint64(cs.Cost)
				switch cs.Spec {
				case compile.SpecOut8:
					c.out = append(c.out, byte(regs[cs.A&0xF]))
					c.outBytes++
				case compile.SpecOutI:
					c.out = append(c.out, byte(cs.Imm))
					c.outBytes++
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
							c.out = append(c.out, byte(regs[op.Src&0xF]))
							c.outBytes++
						case core.OpOut16:
							v := regs[op.Src&0xF]
							c.out = append(c.out, byte(v), byte(v>>8))
							c.outBytes += 2
						case core.OpOut32:
							v := regs[op.Src&0xF]
							c.out = append(c.out, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
							c.outBytes += 4
						case core.OpOutI:
							c.out = append(c.out, byte(op.Imm))
							c.outBytes++
						case core.OpEmitBits:
							l.out, l.stats.OutBytes = c.out, c.outBytes
							l.emitBits(regs[op.Src&0xF], uint(op.Imm&31))
							c.out, c.outBytes = l.out, l.stats.OutBytes
						case core.OpEmitBitsR:
							l.out, l.stats.OutBytes = c.out, c.outBytes
							l.emitBits(regs[op.Src&0xF], uint(regs[op.Ref&0xF]&31))
							c.out, c.outBytes = l.out, l.stats.OutBytes
						case core.OpFlushBits:
							if l.bitN > 0 {
								l.out, l.stats.OutBytes = c.out, c.outBytes
								l.emitBits(0, 8-l.bitN%8)
								c.out, c.outBytes = l.out, l.stats.OutBytes
							}
						case core.OpSetSS:
							c.ss = uint8(op.Imm)
							l.ss = c.ss
							l.stats.SetSSOps++
						case core.OpPutBack:
							c.pos -= int64(uint8(op.Imm))
							if c.pos < 0 {
								c.pos = 0
							}
							c.streamBits -= uint64(op.Imm)
						case core.OpPutBackR:
							v := regs[op.Src&0xF]
							c.pos -= int64(uint8(v))
							if c.pos < 0 {
								c.pos = 0
							}
							c.streamBits -= uint64(v)
						case core.OpRead:
							stream.pos = c.pos
							regs[op.Dst&0xF] = stream.Take(uint8(op.Imm))
							c.pos = stream.pos
							c.streamBits += uint64(op.Imm)
						case core.OpSetBase:
							l.memBase = regs[op.Src&0xF] + op.Imm
						case core.OpHash:
							shift := 32 - op.Imm&31
							regs[op.Dst&0xF] = regs[op.Src&0xF] * 0x1e35a7bd >> shift
						case core.OpAccept:
							l.matches = append(l.matches, Match{PatternID: int32(op.Imm), BitPos: c.pos})
						case core.OpHalt:
							c.halted = true
							l.halted = true
							l.exit = int32(op.Imm)
						default:
							// Unreachable: lowerAction admits only the cases
							// above. Mirror the interpreter's diagnostics.
							l.syncCompiled(&c, &lring)
							return l.trapf(fault.TrapBadSignature, "unimplemented opcode %s", op.Code)
						}
					}
				}
			} else if cs.Flags&compile.FlagSlow != 0 {
				// Slow chain: the interpreter's action machinery keeps
				// traps, dynamic costs and self-modification tracking
				// bit-identical.
				l.syncCompiled(&c, &lring)
				var err error
				if cs.ChainIdx >= 0 {
					err = l.execChainDecoded(int(cs.ChainAddr), l.dec.Chains[cs.ChainIdx])
				} else {
					err = l.execChain(int(cs.ChainAddr))
				}
				if err != nil {
					return err
				}
				// The chain cannot move base, baseSig or mode.
				c = l.loadCompiled()
				if l.cb != 0 {
					// The chain moved the code base: every precomputed
					// NextBase is now stale. Resolve this transition the
					// way the interpreter does, then hand the rest of the
					// run to the interpreter loop (whose dispatch applies
					// cb on every hop).
					nb := int(l.cb) + int(cs.NextBase)
					c.base, c.baseSig, c.mode = nb, effclip.Sig(nb), cs.NextMode
					if cs.Kind != core.KindDefault {
						l.syncCompiled(&c, &lring)
						return l.runSingle(maxCycles)
					}
					c.defaultHops++
					if c.mode != core.ModeStream {
						l.syncCompiled(&c, &lring)
						return l.trapf(fault.TrapBadSignature, "default transition into non-stream state at base %d", c.base)
					}
					if c.halted {
						break dispatch
					}
					// A default re-dispatch reuses the current symbol; the
					// memory dispatcher finishes this hop before the
					// interpreter loop takes over.
					l.syncCompiled(&c, &lring)
					if err := l.dispatchMem(sym, hop+1); err != nil {
						return err
					}
					return l.runSingle(maxCycles)
				}
			}

			c.base = int(cs.NextBase)
			c.baseSig = cs.NextSig
			c.mode = cs.NextMode
			if cs.Kind != core.KindDefault {
				break dispatch
			}
			// Default: re-dispatch the same symbol at the target state.
			c.defaultHops++
			if c.mode != core.ModeStream {
				l.syncCompiled(&c, &lring)
				return l.trapf(fault.TrapBadSignature, "default transition into non-stream state at base %d", c.base)
			}
			if c.halted {
				break dispatch
			}
		}
	}
	l.syncCompiled(&c, &lring)
	return nil
}

// tableLimit caps a table segment of want bytes so that every dispatch in
// it would pass the loop-top cycle-budget check and, with a stop flag
// bound, stop short of the next interruptStride poll: the budget trap and
// ErrInterrupted then fire at the same cycle as without the table. A
// segment is also kept under 1<<24 bytes, the most tableRun's charge sum
// holds.
func tableLimit(tab *compile.Table, want int, cycles, maxCycles, stopCheck uint64, polled bool) int {
	if cycles >= maxCycles {
		return 0
	}
	n := min(uint64(want), 1<<24-1)
	if rem := maxCycles - cycles; n*tab.MaxCost > rem {
		n = rem / tab.MaxCost
	}
	if polled {
		n = min(n, (interruptStride-1-stopCheck%interruptStride)>>bits.TrailingZeros8(tab.K))
	}
	return int(n)
}

// tableRun steps tab from row r over data until an exit entry, appending
// the output to out and applying register writes to regs. copied says r is
// a copy row, whose bytes are one append. It returns the bytes consumed,
// the row reached, the actions and fallback probes charged and the output;
// off the copy path, rows receives the row each of the last TraceTail
// bytes started on. Output goes two bytes at a time into out's spare
// capacity, so a segment is cut short rather than growing out.
func tableRun(tab *compile.Table, r int, copied bool, data, out []byte, regs *[core.NumRegs]uint32,
	rows *[fault.TraceTail]uint16) (int, int, uint64, uint64, []byte) {
	steps := tab.Bytes
	if copied {
		e, n := steps[r<<8], uint64(len(data))
		return len(data), r, n * e.Act(), n * e.Prb(), append(out, data...)
	}
	if spare := (cap(out) - len(out)) / 2; len(data) > spare {
		data = data[:spare]
	}
	o := out[len(out):cap(out)]
	var charge compile.Step
	// last holds, per register, the Movi index of its last write; writes
	// to the dummy register land in last[NumRegs].
	var last [32]uint8
	ro, j := r<<8, 0
	for i, b := range data {
		e := steps[ro|int(b)]
		if e&compile.NextMask == compile.Exit<<8 {
			data = data[:i]
			break
		}
		rows[uint(i)%fault.TraceTail] = uint16(ro >> 8)
		binary.LittleEndian.PutUint16(o[j:], e.Out())
		j += e.N()
		charge += e & compile.ChargeMask
		last[tab.Movi[e.Movi()].Reg&31] = e.Movi()
		ro = int(e & compile.NextMask)
	}
	for reg, m := range last[:core.NumRegs] {
		if m != 0 {
			regs[reg] = tab.Movi[m].Val
		}
	}
	return len(data), ro >> 8, uint64(uint32(charge)), uint64(charge >> 32), out[:len(out)+j]
}

// traceTable writes the trace-ring entries of the last TraceTail dispatches
// of a table segment over seg that ended at cycle end on row r. A copied
// segment stayed on r throughout; otherwise it walks back over the bytes
// that hold the entries from the rows they started on, re-walking each
// byte's symbol steps. ringN is the ring count before the segment. It
// returns the last symbol and the number of bytes the last dispatch
// emitted.
func traceTable(tab *compile.Table, r int, copied bool, rows *[fault.TraceTail]uint16, seg []byte, end uint64,
	ring *[fault.TraceTail]fault.TraceEntry, ringN uint64) (sym uint32, lastOut int) {
	last := len(seg) - 1
	if copied {
		// Every byte is one dispatch of the same cost at the same base,
		// and the table lines may have left the cache while the bytes
		// were copied: no lookups per byte.
		e := tab.Bytes[r<<8]
		cost, base := 1+e.Act()+e.Prb(), int(tab.Rows[r].Base)
		for j := max(0, len(seg)-fault.TraceTail); j <= last; j++ {
			ring[(ringN+uint64(j))%fault.TraceTail] = fault.TraceEntry{
				Cycle: end - uint64(len(seg)-j)*cost + 1, Base: base, Sym: uint32(seg[j])}
		}
		return uint32(seg[last]), 1
	}
	k := int(tab.K)
	mask := 1<<tab.W - 1
	total := len(seg) * k
	c := end
	for j := last; j >= 0 && (j+1)*k+fault.TraceTail > total; j-- {
		r = int(rows[j%fault.TraceTail])
		e := tab.Bytes[r<<8|int(seg[j])]
		c -= uint64(k) + e.Act() + e.Prb()
		at := c
		for s := 0; s < k; s++ {
			sy := uint32(int(seg[j]) >> (8 - int(tab.W)*(s+1)) & mask)
			se := tab.Syms[r<<tab.W|int(sy)]
			if d := j*k + s; d+fault.TraceTail >= total {
				ring[(ringN+uint64(d))%fault.TraceTail] = fault.TraceEntry{Cycle: at + 1, Base: int(tab.Rows[r].Base), Sym: sy}
			}
			at += 1 + se.Act() + se.Prb()
			r = se.Next()
			if j == last {
				sym, lastOut = sy, se.N()
			}
		}
	}
	return sym, lastOut
}
