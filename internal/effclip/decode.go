// Predecoded code cache: the machine's hot loop re-derived every transition
// and action from its 32-bit memory word on each dispatch (fetch, bit
// unpacking, attach-mode resolution). Decoded() compiles an image once into a
// directly-executable form — one DecodedSlot per code word plus memoized
// action chains — that all lanes running the image share read-only, so the
// interpreter walks Go slices instead of re-decoding lane memory words.
//
// The cache reflects the pristine image. Self-modifying programs (a store
// into the code window) are still legal: the lane tracks such stores and
// falls back to the memory-word interpreter for the rest of the run, so
// decoded and interpreted execution stay bit-identical (see
// internal/machine's invalidation guard and the differential tests).
package effclip

import (
	"udp/internal/core"
	"udp/internal/encode"
)

// maxChainWords bounds one decoded action chain. Real chains are a handful
// of words; anything longer is a corrupt image and is left to the memory
// interpreter (which bounds the walk with its own traps).
const maxChainWords = 1 << 12

// ChainNone marks a slot with no resolvable action chain.
const ChainNone int32 = -1

// DecodedSlot is the predecoded form of one code word, carrying everything
// dispatch needs without touching lane memory:
//
//   - Sig is the word's signature field (0 marks an empty slot), compared
//     against the probing state's signature exactly as the memory path does.
//   - Kind, NextMode, Target and Attach mirror encode.Transition.
//   - ChainAddr is the attach resolution — the absolute word address of the
//     transition's action chain (ChainNone when it has none) — computed with
//     the same rules the machine's execAttach applies (direct, scaled,
//     refill-packed and wide-attach addressing).
//   - ChainIdx indexes Decoded.Chains when the chain was memoizable;
//     ChainNone means the chain leaves the image words and must be executed
//     by the memory interpreter at ChainAddr.
type DecodedSlot struct {
	Sig        uint8
	Kind       core.TransKind
	NextMode   core.DispatchMode
	AttachMode core.AttachMode
	Attach     uint8
	Target     uint16
	ChainAddr  int32
	ChainIdx   int32
}

// Decoded is the shared predecoded form of an image. It is immutable after
// construction; every lane in a pool reads the same instance.
type Decoded struct {
	// Slots has one entry per image word (transition region, pad and action
	// region alike — fork continuations and flagged dispatches can probe
	// anywhere in the code window).
	Slots []DecodedSlot
	// Chains holds the memoized action chains referenced by ChainIdx.
	Chains [][]core.Action
	// CodeEnd is the byte offset one past the code image within the lane
	// window: a store below it invalidates the cache for that lane.
	CodeEnd int
}

// Decoded returns the image's predecoded code cache, building it on first
// use (safe for concurrent callers; the result is shared and read-only).
// Size-accounting-only images return nil.
func (im *Image) Decoded() *Decoded {
	if !im.Executable {
		return nil
	}
	im.decodeOnce.Do(func() { im.decoded = decodeImage(im) })
	return im.decoded
}

// decodeImage predecodes every word and memoizes every referenced action
// chain, mirroring the machine's execAttach resolution rules exactly.
func decodeImage(im *Image) *Decoded {
	d := &Decoded{
		Slots:   make([]DecodedSlot, len(im.Words)),
		CodeEnd: len(im.Words) * core.WordBytes,
	}
	chainAt := map[int]int32{}
	for addr, w := range im.Words {
		s := &d.Slots[addr]
		s.ChainAddr, s.ChainIdx = ChainNone, ChainNone
		s.Sig = uint8(w >> 26)
		if s.Sig == 0 {
			continue // empty slot: never matches a probe
		}
		t := encode.GetTransition(w)
		s.Kind, s.NextMode, s.AttachMode = t.Kind, t.NextMode, t.AttachMode
		s.Attach, s.Target = t.Attach, t.Target

		// Attach resolution, one-for-one with machine.(*Lane).execAttach.
		switch {
		case im.WideAttach != nil:
			if ca, ok := im.WideAttach[addr]; ok {
				s.ChainAddr = int32(ca)
			}
		case t.Kind == core.KindRefill:
			if ref := int(t.Attach >> core.RefillLenBits); ref != 0 {
				s.ChainAddr = int32(im.ActionBase + ref*core.ScaledStride)
			}
		case t.Attach == 0 && t.AttachMode == core.AttachDirect:
			// No actions.
		case t.AttachMode == core.AttachDirect:
			s.ChainAddr = int32(im.ActionBase + int(t.Attach))
		default:
			s.ChainAddr = int32(im.ActionBase + int(t.Attach)*core.ScaledStride)
		}

		if s.ChainAddr >= 0 {
			idx, seen := chainAt[int(s.ChainAddr)]
			if !seen {
				idx = ChainNone
				if chain, ok := encode.DecodeChain(im.Words, int(s.ChainAddr), maxChainWords); ok {
					idx = int32(len(d.Chains))
					d.Chains = append(d.Chains, chain)
				}
				chainAt[int(s.ChainAddr)] = idx
			}
			s.ChainIdx = idx
		}
	}
	return d
}
