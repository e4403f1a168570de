// Package compile lowers a decoded EffCLiP image into the compiled
// execution tier ("production mode"): a direct-threaded program the machine
// executes without per-dispatch re-derivation or per-action function calls.
//
// The lowering starts from the predecoded cache (internal/effclip's
// DecodedSlot arrays and memoized action chains) and goes three steps further:
//
//   - Next-state resolution is precomputed per slot. The interpreter
//     recomputes base = cb + target and Sig(base) — a modulo — on every
//     taken transition; the compiled slot carries NextBase and NextSig
//     directly (valid because eligibility pins cb to 0, see below).
//   - Action chains are classified. A chain whose every action is
//     straight-line — no memory traffic, no trap path, no dynamic cycle
//     cost — is fused into a flat micro-op list executed inline by the
//     machine's compiled loop, with its cycle and action counts charged in
//     one static bulk add. Any other chain (stores, loads, loop ops,
//     dynamic symbol-size changes) is marked slow and runs through the
//     interpreter's action machinery, so traps, self-modification tracking
//     and dynamic costs stay bit-identical with the reference semantics.
//   - A byte-step table is built (table.go): for every state the tier can
//     be in and every input byte, the composed effect of the dispatches
//     that byte drives when all of them are pure — next state, cycles,
//     actions, fallback probes, output bytes and register writes as
//     constants of the entry — so the machine's compiled loop can consume
//     such input with one lookup per byte.
//
// Eligibility is conservative: the compiled tier refuses any image whose
// precomputed next-state tables cannot be built at all — multi-active
// (NFA) images, multi-segment images, images entering outside segment 0.
// The machine runs multi-active images on its memory interpreter (their
// frontier walk has no other runner) and degrades the rest to the decoded
// tier. Invalidation at
// run time is the machine's job: a store into the code window or a chain
// that moves the code base (OpSetCB only appears in slow chains — the
// fused set excludes it) hands the rest of the run to the interpreter,
// exactly as the decoded tier falls back today.
package compile

import (
	"fmt"

	"udp/internal/core"
	"udp/internal/effclip"
)

// Slot flags.
const (
	// FlagFused marks a chain lowered to fused micro-ops [OpOff, OpOff+OpLen).
	FlagFused uint8 = 1 << iota
	// FlagSlow marks a chain that must execute through the interpreter's
	// action machinery (ChainIdx / ChainAddr, as in the decoded tier).
	FlagSlow
)

// Single-op chain specializations: the machine's compiled loop executes
// these without entering the generic micro-op loop. They cover the bulk of
// real ETL kernels (field-byte echo and separator emission).
const (
	// SpecNone runs the generic micro-op loop over Ops.
	SpecNone uint8 = iota
	// SpecOut8 is a one-action chain emitting the low byte of register A.
	SpecOut8
	// SpecOutI is a one-action chain emitting the constant byte Imm.
	SpecOutI
)

// Slot is the compiled form of one code word: everything one dispatch hop
// needs, with the next-state probe context (base and signature) resolved at
// compile time.
type Slot struct {
	// Sig is the word's signature (0 marks an empty slot).
	Sig uint8
	// NextSig is Sig(NextBase), precomputed so taken transitions skip the
	// interpreter's per-dispatch modulo.
	NextSig uint8
	// Kind and NextMode mirror the decoded slot.
	Kind     core.TransKind
	NextMode core.DispatchMode
	// TakeLen is the refill consumed-length (Attach low bits + 1); the
	// machine puts back ss - TakeLen bits on a refill dispatch.
	TakeLen uint8
	// Flags classifies the action chain (FlagFused / FlagSlow / neither).
	Flags uint8
	// Spec selects a single-op specialization of a fused chain (with its
	// operand register A and immediate Imm), SpecNone for the generic loop.
	Spec uint8
	// A is the pre-masked operand register of a Spec chain.
	A uint8
	// Imm is the immediate of a Spec chain.
	Imm uint32
	// Cost is the static cycle-and-action charge of a fused chain (one per
	// executed micro-op; fused ops never carry dynamic costs).
	Cost uint16
	// Ops is the fused micro-op list (a shared subslice of Program.Ops;
	// slots sharing a chain share it).
	Ops []Op
	// NextBase is the resolved next state base, valid while the code base
	// register is 0 (the machine leaves the compiled loop when a slow
	// chain moves it; fused chains cannot).
	NextBase int32
	// ChainAddr / ChainIdx address a slow chain exactly as the decoded
	// slot does.
	ChainAddr int32
	ChainIdx  int32
}

// Op is one fused micro-op: the action's operands pre-masked to the
// register file, its immediate pre-converted to the interpreter's uint32
// form, ready for the machine's inline executor.
type Op struct {
	Code          core.Opcode
	Dst, Src, Ref uint8
	Imm           uint32
}

// Program is the compiled form of an image, shared read-only by every lane
// running it.
type Program struct {
	// Slots has one entry per image word, parallel to the decoded cache.
	Slots []Slot
	// Ops is the flat micro-op pool fused chains index into.
	Ops []Op
	// CodeEnd is the byte offset one past the code image (the
	// self-modification watch boundary, as in the decoded cache).
	CodeEnd int
	// Table is the byte-step table (table.go), nil when the image has
	// none.
	Table *Table
	// FusedChains and SlowChains count the chain classification (stats
	// for tooling; SlowChains > 0 does not affect eligibility).
	FusedChains, SlowChains int
}

// result memoizes one compilation outcome (program or ineligibility) on
// the image.
type result struct {
	p   *Program
	err error
}

// For returns the image's compiled program, building it on first use (safe
// for concurrent callers; the result is shared and read-only). An
// ineligible image returns a descriptive error — callers degrade to the
// decoded tier.
func For(im *effclip.Image) (*Program, error) {
	v := im.CompiledForm(func() any {
		p, err := build(im)
		return result{p: p, err: err}
	})
	r := v.(result)
	return r.p, r.err
}

func errf(format string, args ...any) (*Program, error) {
	return nil, fmt.Errorf("compile: %s", fmt.Sprintf(format, args...))
}

// build lowers the image, or explains why it cannot be.
func build(im *effclip.Image) (*Program, error) {
	if !im.Executable {
		return errf("image %q is size-accounting only", im.Name)
	}
	if im.MultiActive {
		return errf("image %q is multi-active (NFA frontier execution)", im.Name)
	}
	if len(im.Segments) > 1 {
		return errf("image %q spans %d segments", im.Name, len(im.Segments))
	}
	if im.EntryBase >= effclip.SegmentWords {
		return errf("image %q enters outside segment 0", im.Name)
	}
	d := im.Decoded()
	if d == nil {
		return errf("image %q has no decoded form", im.Name)
	}

	p := &Program{
		Slots:   make([]Slot, len(d.Slots)),
		CodeEnd: d.CodeEnd,
	}
	// Size the micro-op pool up front: slot Ops views alias its backing
	// array, so it must never reallocate while chains are appended.
	capOps := 0
	for _, chain := range d.Chains {
		capOps += len(chain)
	}
	p.Ops = make([]Op, 0, capOps)
	// Fused op ranges are memoized per decoded chain, so slots sharing a
	// chain share its micro-ops.
	type opRange struct {
		ops  []Op
		ok   bool
		seen bool
	}
	ranges := make([]opRange, len(d.Chains))

	for i := range d.Slots {
		ds := &d.Slots[i]
		cs := &p.Slots[i]
		cs.Sig = ds.Sig
		if ds.Sig == 0 {
			continue
		}
		cs.Kind = ds.Kind
		cs.NextMode = ds.NextMode
		cs.TakeLen = ds.Attach&(1<<core.RefillLenBits-1) + 1
		cs.NextBase = int32(ds.Target)
		cs.NextSig = effclip.Sig(int(ds.Target))
		cs.ChainAddr = ds.ChainAddr
		cs.ChainIdx = ds.ChainIdx
		if ds.ChainAddr < 0 {
			continue
		}
		if ds.ChainIdx < 0 {
			// The chain walks out of the image words (typically into the
			// mutable data region): it must execute on the memory path at
			// ChainAddr, exactly as the decoded tier runs it.
			cs.Flags |= FlagSlow
			p.SlowChains++
			continue
		}
		r := &ranges[ds.ChainIdx]
		if !r.seen {
			r.seen = true
			if ops, ok := lowerChain(d.Chains[ds.ChainIdx]); ok {
				r.ok = true
				off := len(p.Ops)
				p.Ops = append(p.Ops, ops...)
				r.ops = p.Ops[off : off+len(ops)]
				p.FusedChains++
			} else {
				p.SlowChains++
			}
		}
		if r.ok {
			cs.Flags |= FlagFused
			cs.Ops = r.ops
			cs.Cost = uint16(len(r.ops))
			specialize(cs)
		} else {
			cs.Flags |= FlagSlow
		}
	}
	p.Table = buildTable(p, im.EntryBase, im.EntryMode, im.EntrySymbolBits)
	return p, nil
}

// specialize recognizes single-op chains the machine's compiled loop can
// execute without entering the generic micro-op loop.
func specialize(cs *Slot) {
	if len(cs.Ops) != 1 {
		return
	}
	op := cs.Ops[0]
	switch op.Code {
	case core.OpOut8:
		cs.Spec, cs.A = SpecOut8, op.Src
	case core.OpOutI:
		cs.Spec, cs.Imm = SpecOutI, op.Imm
	}
}

// lowerChain fuses a memoized chain into micro-ops, or reports that it must
// stay on the slow path. Ops past an unconditional OpHalt never execute and
// are dropped, so the static Cost equals the executed action count exactly.
func lowerChain(chain []core.Action) ([]Op, bool) {
	if len(chain) > 0xFFFF {
		return nil, false
	}
	ops := make([]Op, 0, len(chain))
	for _, a := range chain {
		op, ok := lowerAction(a)
		if !ok {
			return nil, false
		}
		ops = append(ops, op)
		if a.Op == core.OpHalt {
			break
		}
	}
	return ops, true
}

// lowerAction admits one action to the fused set: straight-line ops with no
// trap path, no memory traffic, no dynamic cycle cost, and no RIdx operand
// (reads of RIdx observe the stream cursor and writes seek it; both stay on
// the interpreter's register accessors).
func lowerAction(a core.Action) (Op, bool) {
	if a.Dst == core.RIdx || a.Src == core.RIdx || a.Ref == core.RIdx {
		return Op{}, false
	}
	imm := uint32(a.Imm)
	switch a.Op {
	case core.OpNop,
		core.OpAdd, core.OpAddi, core.OpSub, core.OpSubi, core.OpMul, core.OpMuli,
		core.OpAnd, core.OpAndi, core.OpOr, core.OpOri, core.OpXor, core.OpXori,
		core.OpNot, core.OpShl, core.OpShli, core.OpShr, core.OpShri,
		core.OpMov, core.OpMovi, core.OpLui,
		core.OpSeq, core.OpSeqi, core.OpSne, core.OpSnei,
		core.OpSlt, core.OpSlti, core.OpSge, core.OpMin, core.OpMax,
		core.OpOut8, core.OpOut16, core.OpOut32, core.OpOutI,
		core.OpEmitBits, core.OpEmitBitsR, core.OpFlushBits,
		core.OpPutBack, core.OpPutBackR, core.OpSetBase,
		core.OpHash, core.OpAccept, core.OpHalt:
		// Always fusable.
	case core.OpSetSS:
		// A valid immediate can never trap; an invalid one must.
		if imm == 0 || imm > core.MaxSymbolBits {
			return Op{}, false
		}
	case core.OpRead:
		if imm > 32 {
			return Op{}, false
		}
	default:
		// Memory ops, loop ops, OpOutMem, OpSetSSR, OpSetCB: trap paths,
		// stores, or dynamic costs — interpreter territory.
		return Op{}, false
	}
	return Op{
		Code: a.Op,
		Dst:  uint8(a.Dst) & 0xF,
		Src:  uint8(a.Src) & 0xF,
		Ref:  uint8(a.Ref) & 0xF,
		Imm:  imm,
	}, true
}
