// Byte-step tables: the facts the machine's compiled loop needs to consume
// input with one lookup per byte instead of one dispatch per symbol.
//
//   - A row is a state the compiled tier can be in: the entry state, or the
//     target of any transition word, in ModeStream or ModeCommon. A base
//     reached in both modes gets no row.
//   - A symbol step from a row is pure when the dispatch resolves directly
//     (every symbol of a ModeCommon row resolves to the word at its base),
//     or through the majority word at base-1 (never at base 0); is neither
//     a default nor a refill transition; lands on a row in the mode the
//     word names; and carries no chain, or a fused one built only from
//     Movi (not to RSym), Out8 of RSym or of the register the chain Movi'd,
//     and OutI, emitting at most 2 bytes and writing at most one register.
//     The symbol is the key, so every effect of a pure step is a constant
//     of the entry.
//   - A byte entry composes the 8/W symbol steps one input byte drives, for
//     an image whose entry symbol width W is 1, 2, 4 or 8. If any of them
//     is not pure, or together they emit more than 2 bytes or write two
//     registers, the entry is an exit: the ordinary dispatch takes that
//     byte.
//
// The table is built once per image, memoized with the Program. An image
// whose table would exceed MaxTableBytes gets none.
package compile

import (
	"sort"

	"udp/internal/core"
	"udp/internal/effclip"
)

const (
	// Exit is the Next of an exit entry.
	Exit = 0xFFFF
	// MaxTableBytes bounds the step entries of one image's table.
	MaxTableBytes = 1 << 20
	// stepBytes is the size of one Step.
	stepBytes = 8
)

// Step is one table entry, packed into a word: the composed effect of one
// input byte (in Table.Bytes) or one symbol (in Table.Syms) from a row. It
// charges dispatches + Prb + Act cycles, where dispatches is Table.K for a
// byte entry and 1 for a symbol entry.
type Step uint64

// Step fields, by bit offset.
const (
	actShift  = 0  // 8 bits: actions executed
	nextShift = 8  // 16 bits: the row the step ends on, Exit for an exit entry
	nShift    = 24 // 8 bits: bytes emitted
	prbShift  = 32 // 8 bits: fallback probes taken
	outShift  = 40 // 16 bits: the emitted bytes, the first in the low byte
	moviShift = 56 // 8 bits: the index in Table.Movi of the last register write

	// ChargeMask selects Act and Prb 32 bits apart, so summing the masked
	// steps of up to 1<<24 bytes counts actions in the low word and probes
	// in the high one.
	ChargeMask = 0xFF<<prbShift | 0xFF<<actShift
	// NextMask selects Next as a row offset into Table.Bytes (Next<<8).
	NextMask = 0xFFFF << nextShift
)

// The field accessors of a Step.

func (s Step) Next() int    { return int(s >> nextShift & 0xFFFF) }
func (s Step) N() int       { return int(s >> nShift & 0xFF) }
func (s Step) Act() uint64  { return uint64(s >> actShift & 0xFF) }
func (s Step) Prb() uint64  { return uint64(s >> prbShift & 0xFF) }
func (s Step) Out() uint16  { return uint16(s >> outShift) }
func (s Step) Movi() uint8  { return uint8(s >> moviShift) }
func (s Step) IsExit() bool { return s.Next() == Exit }

// step packs a Step.
func step(next int, out uint16, n int, act, prb uint64, movi uint8) Step {
	return Step(act)<<actShift | Step(next)<<nextShift | Step(n)<<nShift |
		Step(prb)<<prbShift | Step(out)<<outShift | Step(movi)<<moviShift
}

// Movi is a register write of a pure step: Reg holds Val afterwards.
// Table.Movi[0] writes the dummy register NumRegs, so a step without a
// write can be applied like one with.
type Movi struct {
	Reg uint8
	Val uint32
}

// Row is a state with a table row.
type Row struct {
	Base int32
	Sig  uint8
	Mode core.DispatchMode
	// Copy marks a row where every byte stays on the row and emits itself
	// at one cost: consuming n bytes is appending them.
	Copy bool
}

// Table is an image's byte-step table.
type Table struct {
	// W is the symbol width the table steps (the image's entry symbol
	// width); K = 8/W symbol steps make one byte entry.
	W, K uint8
	Rows []Row
	// RowOf maps an image word to 1 + the index of the row based there, 0
	// for none.
	RowOf []uint16
	// Bytes holds row r's entry for byte b at r<<8|b; Syms holds its entry
	// for symbol s at r<<W|s (the same array when W is 8).
	Bytes, Syms []Step
	Movi        [256]Movi
	moviN       int
	// MaxCost is the largest cycle charge of a byte entry that is not an
	// exit, and Exits counts the byte entries that are.
	MaxCost uint64
	Exits   int
}

// Size is the table's step storage in bytes.
func (t *Table) Size() int {
	n := len(t.Bytes)
	if t.W != 8 {
		n += len(t.Syms)
	}
	return n * stepBytes
}

var exit = step(Exit, 0, 0, 0, 0, 0)

// buildTable builds p's byte-step table, or returns nil when the entry
// symbol width is not 1, 2, 4 or 8 or the table would be too large.
func buildTable(p *Program, entryBase int, entryMode core.DispatchMode, w uint8) *Table {
	if w != 1 && w != 2 && w != 4 && w != 8 {
		return nil
	}
	modes := map[int32]core.DispatchMode{}
	reach := func(b int32, m core.DispatchMode) {
		if b < 0 || int(b) >= len(p.Slots) {
			return
		}
		if old, ok := modes[b]; ok && old != m {
			m = core.ModeFlagged // reached in two modes: no row
		}
		modes[b] = m
	}
	reach(int32(entryBase), entryMode)
	for i := range p.Slots {
		if s := &p.Slots[i]; s.Sig != 0 {
			reach(s.NextBase, s.NextMode)
		}
	}
	t := &Table{W: w, K: 8 / w, RowOf: make([]uint16, len(p.Slots)), moviN: 1}
	t.Movi[0].Reg = core.NumRegs
	for b, m := range modes {
		if m == core.ModeStream || m == core.ModeCommon {
			t.Rows = append(t.Rows, Row{Base: b, Sig: effclip.Sig(int(b)), Mode: m})
		}
	}
	nsym, per := 1<<w, 256
	if w != 8 {
		per += nsym
	}
	if len(t.Rows)*per*stepBytes > MaxTableBytes {
		return nil
	}
	// A fixed order keeps row indices reproducible.
	sort.Slice(t.Rows, func(i, j int) bool { return t.Rows[i].Base < t.Rows[j].Base })
	for r, row := range t.Rows {
		t.RowOf[row.Base] = uint16(r + 1)
	}

	movis := map[Movi]uint8{}
	t.Syms = make([]Step, len(t.Rows)*nsym)
	for r := range t.Rows {
		for s := 0; s < nsym; s++ {
			t.Syms[r*nsym+s] = t.symStep(p, r, s, movis)
		}
	}
	t.Bytes = t.Syms
	if w != 8 {
		t.Bytes = make([]Step, len(t.Rows)*256)
		for r := range t.Rows {
			for b := 0; b < 256; b++ {
				t.Bytes[r<<8|b] = t.compose(r, b)
			}
		}
	}
	for r := range t.Rows {
		row := t.Bytes[r<<8 : r<<8+256]
		t.Rows[r].Copy = w == 8
		for b, e := range row {
			if e.IsExit() {
				t.Exits++
				t.Rows[r].Copy = false
				continue
			}
			t.MaxCost = max(t.MaxCost, uint64(t.K)+e.Prb()+e.Act())
			if e.Next() != r || e.N() != 1 || byte(e.Out()) != byte(b) || e.Movi() != 0 ||
				e&ChargeMask != row[0]&ChargeMask {
				t.Rows[r].Copy = false
			}
		}
	}
	return t
}

// symStep resolves symbol sym from row r exactly as one compiled dispatch
// would, and returns its pure step or exit.
func (t *Table) symStep(p *Program, r, sym int, movis map[Movi]uint8) Step {
	row := &t.Rows[r]
	b := int(row.Base)
	slot := b + sym
	if row.Mode == core.ModeCommon {
		slot = b
	}
	if slot >= len(p.Slots) {
		return exit // the probe leaves the compiled image
	}
	cs := &p.Slots[slot]
	var prb uint64
	if cs.Sig != row.Sig {
		if b == 0 {
			return exit // the fallback probe traps
		}
		cs, prb = &p.Slots[b-1], 1
		if cs.Sig != row.Sig || cs.Kind != core.KindMajority {
			return exit
		}
	}
	if cs.Kind == core.KindDefault || cs.Kind == core.KindRefill {
		return exit
	}
	nb := int(cs.NextBase)
	if nb < 0 || nb >= len(t.RowOf) || t.RowOf[nb] == 0 || t.Rows[t.RowOf[nb]-1].Mode != cs.NextMode {
		return exit
	}
	next := int(t.RowOf[nb]) - 1
	if cs.ChainAddr < 0 {
		return step(next, 0, 0, 0, prb, 0)
	}
	if cs.Flags&FlagFused == 0 || len(cs.Ops) > 0xFF {
		return exit
	}
	var mv Movi
	wrote := false
	var out uint16
	n := 0
	for _, op := range cs.Ops {
		var v byte
		switch {
		case op.Code == core.OpMovi && op.Dst != uint8(core.RSym) && (!wrote || op.Dst == mv.Reg):
			mv, wrote = Movi{Reg: op.Dst, Val: op.Imm}, true
			continue
		case op.Code == core.OpOut8 && op.Src == uint8(core.RSym):
			v = byte(sym)
		case op.Code == core.OpOut8 && wrote && op.Src == mv.Reg:
			v = byte(mv.Val)
		case op.Code == core.OpOutI:
			v = byte(op.Imm)
		default:
			return exit
		}
		if n == 2 {
			return exit
		}
		out |= uint16(v) << (8 * n)
		n++
	}
	var idx uint8
	if wrote {
		i, ok := movis[mv]
		if !ok {
			if t.moviN == len(t.Movi) {
				return exit
			}
			i = uint8(t.moviN)
			t.Movi[i] = mv
			t.moviN++
			movis[mv] = i
		}
		idx = i
	}
	return step(next, out, n, uint64(len(cs.Ops)), prb, idx)
}

// compose chains the K symbol steps byte b drives from row r, most
// significant symbol first, into one byte entry.
func (t *Table) compose(r, b int) Step {
	var out uint16
	var n int
	var movi uint8
	var act, prb uint64
	for j := 1; j <= int(t.K); j++ {
		sym := b >> (8 - int(t.W)*j) & (1<<t.W - 1)
		s := t.Syms[r<<t.W|sym]
		if s.IsExit() || n+s.N() > 2 || act+s.Act() > 0xFF ||
			s.Movi() != 0 && movi != 0 && t.Movi[s.Movi()].Reg != t.Movi[movi].Reg {
			return exit
		}
		out |= s.Out() << (8 * n)
		n += s.N()
		act += s.Act()
		prb += s.Prb()
		if s.Movi() != 0 {
			movi = s.Movi()
		}
		r = s.Next()
	}
	return step(r, out, n, act, prb, movi)
}
