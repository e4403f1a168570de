package machine

import (
	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/encode"
	"udp/internal/fault"
)

// maxForkChain bounds one fork-chain walk: a well-formed chain visits each
// continuation at most once, so a walk longer than this is a cycle in a
// corrupt image.
const maxForkChain = 1024

// frontier is one step's set of active state bases: a membership bitset over
// every word a transition target can name, plus the members in ascending
// order, which is the order their actions run in.
type frontier struct {
	bits [1 << core.TargetBits / 64]uint64
	list []int
}

// add activates base b and reports whether it was inactive.
func (f *frontier) add(b int) bool {
	w, m := b>>6, uint64(1)<<(b&63)
	if f.bits[w]&m != 0 {
		return false
	}
	f.bits[w] |= m
	f.list = append(f.list, b)
	i := len(f.list) - 1
	for ; i > 0 && f.list[i-1] > b; i-- {
		f.list[i] = f.list[i-1]
	}
	f.list[i] = b
	return true
}

// clear empties the set, touching only the bitset words its members set.
func (f *frontier) clear() {
	for _, b := range f.list {
		f.bits[b>>6] = 0
	}
	f.list = f.list[:0]
}

// runNFA executes in multi-active mode: the lane keeps a frontier of active
// states (multi-state activation via epsilon transitions, paper Section
// 3.2.1); every active state dispatches on each symbol, a miss silently
// deactivates that state, and fork chains can activate several targets. The
// compiler resolves true epsilon closures statically, so every runtime step
// consumes exactly one symbol. It always walks lane memory (EngineInterp):
// the two frontiers are allocated on the lane's first multi-active run and
// reused after.
func (l *Lane) runNFA(maxCycles uint64) error {
	if len(l.img.Segments) > 1 {
		return l.trapf(fault.TrapBadSignature, "multi-active program spans several segments (unsupported)")
	}
	if l.nfa == nil {
		l.nfa = new([2]frontier)
	}
	active, next := &l.nfa[0], &l.nfa[1]
	active.clear()
	active.add(l.base)
	for !l.halted {
		if l.img.StartAlways {
			active.add(l.img.EntryBase)
		}
		if l.stats.Cycles >= maxCycles {
			return l.trapf(fault.TrapCycleBudget, "exceeded %d-cycle budget", maxCycles)
		}
		if l.interrupted() {
			return ErrInterrupted
		}
		if len(active.list) == 0 {
			return nil
		}
		if !l.stream.Has(l.ss) {
			return nil
		}
		sym := l.stream.Take(l.ss)
		l.stats.StreamBits += uint64(l.ss)
		l.regs[core.RSym] = sym

		next.clear()
		for _, b := range active.list {
			if err := l.nfaProbe(b, sym, next, 0); err != nil {
				return err
			}
			if l.halted {
				break
			}
		}
		active, next = next, active
	}
	return nil
}

// nfaProbe dispatches symbol sym at state base b, activating targets into
// next. depth bounds default-transition retry hops.
func (l *Lane) nfaProbe(b int, sym uint32, next *frontier, depth int) error {
	if depth > 64 {
		return l.trapf(fault.TrapEpsilonLoop, "default-transition loop at base %d", b)
	}
	l.stats.Cycles++
	l.stats.Dispatches++
	l.traceRecord(b, sym)
	if l.prof != nil {
		l.prof.Dispatch(b)
	}
	sig := effclip.Sig(b) // never 0, so an empty slot always misses
	addr := b + int(sym)
	w, err := l.fetch(addr)
	if err != nil {
		return err
	}
	if encode.GetTransition(w).Sig != sig {
		// Fallback probe.
		l.stats.Cycles++
		l.stats.FallbackProbes++
		if l.prof != nil {
			l.prof.Fallback()
		}
		fw, err := l.fetch(b - 1)
		if err != nil {
			return err
		}
		ft := encode.GetTransition(fw)
		if ft.Sig != sig {
			return nil // empty or foreign slot: deactivate silently
		}
		switch ft.Kind {
		case core.KindMajority:
			return l.nfaTake(ft, b-1, next)
		case core.KindDefault:
			l.stats.DefaultHops++
			if l.prof != nil {
				l.prof.DefaultHop()
				l.prof.Take(core.KindDefault)
			}
			if err := l.execAttach(ft, b-1); err != nil {
				return err
			}
			return l.nfaProbe(int(ft.Target), sym, next, depth+1)
		default:
			return nil
		}
	}
	// Walk the fork chain rooted at this slot.
	return l.nfaFork(b, addr, w, next)
}

// nfaFork walks a fork chain from word addr (already fetched as w),
// activating every epsilon target and executing the terminal entry.
func (l *Lane) nfaFork(b, addr int, w uint32, next *frontier) error {
	for hops := 0; ; hops++ {
		if hops > maxForkChain {
			return l.trapf(fault.TrapEpsilonLoop, "fork chain at base %d exceeds %d hops (cycle)", b, maxForkChain)
		}
		t := encode.GetTransition(w)
		if t.Sig != effclip.Sig(b) {
			return l.trapf(fault.TrapBadSignature, "corrupt fork chain at word %d", addr)
		}
		if t.Kind == core.KindEpsilon {
			l.stats.Activations++
			if l.prof != nil {
				l.prof.Take(core.KindEpsilon)
			}
			next.add(int(t.Target))
			if t.Attach == 0 && t.AttachMode == core.AttachDirect {
				return nil
			}
			if t.AttachMode == core.AttachScaled {
				// Spilled continuation in the action region.
				addr = l.img.ActionBase + int(t.Attach)*core.ScaledStride
			} else {
				addr += int(t.Attach)
			}
			l.stats.Cycles++
			var err error
			w, err = l.fetch(addr)
			if err != nil {
				return err
			}
			continue
		}
		return l.nfaTake(t, addr, next)
	}
}

// nfaTake executes a terminal chain entry: run its actions and activate its
// target. Activation is idempotent: a target already activated this step
// skips re-execution (accept actions fire once per step per target).
func (l *Lane) nfaTake(t encode.Transition, at int, next *frontier) error {
	if !next.add(int(t.Target)) {
		return nil
	}
	if l.prof != nil {
		l.prof.Take(t.Kind)
	}
	if err := l.execAttach(t, at); err != nil {
		return err
	}
	l.stats.Activations++
	return nil
}
