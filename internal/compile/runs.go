// Run analysis: the facts the machine's compiled loop needs to consume a run
// of dispatches that change neither the state nor the per-symbol cost in one
// step instead of one dispatch at a time.
//
//   - A stay slot is a slot some ModeStream state resolves a byte symbol to
//     and that returns to that same state in ModeStream, is neither a default
//     nor a refill transition, and carries no chain or a single Out8/OutI
//     (SpecOut8/SpecOutI). Its stay set holds every byte symbol the state
//     resolves to the slot at the same cost: the one labeled symbol of a
//     direct slot, or every symbol whose direct probe misses for a majority
//     word (the fallback probe is one more cycle and one more
//     FallbackProbes, so a direct hit on some other slot never joins).
//   - A common chain starts at the word of a ModeCommon state that matches
//     its own signature and carries no chain (not default, not refill):
//     Hops counts how many such action-free common-mode hops follow one
//     another from there.
//
// Both are computed over every state the compiled tier can enter — the
// entry state and every slot's resolved target — and memoized with the
// Program.
package compile

import (
	"sort"

	"udp/internal/core"
	"udp/internal/effclip"
)

// StaySet is a 256-bit set of byte symbols.
type StaySet [4]uint64

// Has reports whether symbol b is in the set.
func (s *StaySet) Has(b byte) bool { return s[b>>6]&(1<<(b&63)) != 0 }

func (s *StaySet) add(b byte) { s[b>>6] |= 1 << (b & 63) }

// Full reports whether the set holds all 256 symbols.
func (s *StaySet) Full() bool { return s[0]&s[1]&s[2]&s[3] == ^uint64(0) }

// maxHops caps a common chain (a cycle of action-free common states is an
// endless chain; the loop collapses it 0xFFFF hops at a time).
const maxHops = 0xFFFF

type state struct {
	base int32
	mode core.DispatchMode
}

// analyzeRuns marks the stay slots and common chains of p (see the file
// comment).
func analyzeRuns(p *Program, entryBase int, entryMode core.DispatchMode) {
	seen := map[state]bool{{int32(entryBase), entryMode}: true}
	for i := range p.Slots {
		if s := &p.Slots[i]; s.Sig != 0 {
			seen[state{s.NextBase, s.NextMode}] = true
		}
	}
	states := make([]state, 0, len(seen))
	for st := range seen {
		states = append(states, st)
	}
	// A fixed order keeps the Stays indices reproducible.
	sort.Slice(states, func(i, j int) bool {
		if states[i].base != states[j].base {
			return states[i].base < states[j].base
		}
		return states[i].mode < states[j].mode
	})
	var done []uint8 // common-chain walk marks, allocated on first use
	for _, st := range states {
		switch st.mode {
		case core.ModeStream:
			markStays(p, int(st.base))
		case core.ModeCommon:
			if done == nil {
				done = make([]uint8, len(p.Slots))
			}
			markHops(p, int(st.base), done)
		}
	}
}

// markStays finds the stay slots of ModeStream state b.
func markStays(p *Program, b int) {
	sig := effclip.Sig(b)
	for sym := 0; sym < 256; sym++ {
		r, probe := b+sym, false
		if r >= len(p.Slots) {
			// The probe leaves the compiled image (memory path).
			continue
		}
		if p.Slots[r].Sig != sig {
			if b == 0 {
				continue // the fallback probe traps
			}
			r, probe = b-1, true
		}
		cs := &p.Slots[r]
		if cs.Sig != sig || !stays(cs, b) {
			continue
		}
		if cs.Stay == 0 {
			p.Stays = append(p.Stays, StaySet{})
			cs.Stay = int32(len(p.Stays))
			if probe {
				cs.Flags |= FlagProbe
			}
		}
		p.Stays[cs.Stay-1].add(byte(sym))
	}
}

// stays reports whether slot cs, taken from ModeStream state b, leaves the
// state, the symbol size and the per-symbol cost unchanged.
func stays(cs *Slot, b int) bool {
	if cs.NextBase != int32(b) || cs.NextMode != core.ModeStream ||
		cs.Kind == core.KindDefault || cs.Kind == core.KindRefill {
		return false
	}
	if cs.ChainAddr < 0 {
		return true
	}
	return cs.Flags&FlagFused != 0 && (cs.Spec == SpecOut8 || cs.Spec == SpecOutI)
}

// collapsible reports whether the word of ModeCommon state b is an
// action-free hop: it matches b's signature, is neither default nor refill,
// and carries no chain.
func collapsible(p *Program, b int) bool {
	if b >= len(p.Slots) {
		return false
	}
	cs := &p.Slots[b]
	return cs.Sig == effclip.Sig(b) && cs.Kind != core.KindDefault &&
		cs.Kind != core.KindRefill && cs.ChainAddr < 0
}

// markHops sets Hops on the common chain starting at ModeCommon state b and
// on every state the walk passes. done marks each word 1 while on the
// current walk and 2 once its Hops is final.
func markHops(p *Program, b int, done []uint8) {
	var path []int
	tail := 0 // hops that follow the last word on the path
	for x := b; collapsible(p, x); x = int(p.Slots[x].NextBase) {
		if done[x] == 2 {
			tail = int(p.Slots[x].Hops)
			break
		}
		if done[x] == 1 {
			tail = maxHops // a cycle: endless
			break
		}
		done[x] = 1
		path = append(path, x)
		if p.Slots[x].NextMode != core.ModeCommon {
			break
		}
	}
	for i := len(path) - 1; i >= 0; i-- {
		tail = min(tail+1, maxHops)
		p.Slots[path[i]].Hops = uint16(tail)
		done[path[i]] = 2
	}
}
