package compile_test

import (
	"fmt"
	"testing"

	"udp/internal/builtins"
	"udp/internal/compile"
	"udp/internal/core"
	"udp/internal/effclip"
	"udp/internal/kernels/csvparse"
	"udp/internal/kernels/histogram"
)

// effect is what a run of dispatches charges and leaves behind.
type effect struct {
	next                    int
	cycles, actions, probes uint64
	out                     []byte
	regs                    map[uint8]uint32 // last value of each register a chain wrote
}

// dispatch runs syms from row r through cp.Slots one dispatch at a time,
// the way the compiled loop's ordinary dispatch resolves and charges them.
// ok is false when some dispatch does not have an effect that is a constant
// of (row, symbols): it leaves the image, traps, takes a default or refill
// transition, runs a slow chain or an op other than Movi/Out8/OutI, reads a
// register its own chain did not write, or lands on a state without a row.
func dispatch(cp *compile.Program, r int, syms []uint32) (e effect, ok bool) {
	t := cp.Table
	base, mode := int(t.Rows[r].Base), t.Rows[r].Mode
	e.regs = map[uint8]uint32{}
	for _, sym := range syms {
		sig := effclip.Sig(base)
		slot := base + int(sym)
		if mode == core.ModeCommon {
			slot = base
		}
		if slot >= len(cp.Slots) {
			return e, false
		}
		cs := &cp.Slots[slot]
		e.cycles++
		if cs.Sig != sig {
			e.cycles++
			e.probes++
			if base == 0 {
				return e, false
			}
			if cs = &cp.Slots[base-1]; cs.Sig != sig || cs.Kind != core.KindMajority {
				return e, false
			}
		}
		if cs.Kind == core.KindDefault || cs.Kind == core.KindRefill {
			return e, false
		}
		if cs.ChainAddr >= 0 {
			if cs.Flags&compile.FlagFused == 0 {
				return e, false
			}
			written := map[uint8]uint32{uint8(core.RSym): sym}
			for _, op := range cs.Ops {
				switch op.Code {
				case core.OpMovi:
					if op.Dst == uint8(core.RSym) {
						return e, false
					}
					written[op.Dst], e.regs[op.Dst] = op.Imm, op.Imm
				case core.OpOut8:
					v, ok := written[op.Src]
					if !ok {
						return e, false
					}
					e.out = append(e.out, byte(v))
				case core.OpOutI:
					e.out = append(e.out, byte(op.Imm))
				default:
					return e, false
				}
			}
			e.cycles += uint64(len(cs.Ops))
			e.actions += uint64(len(cs.Ops))
		}
		base, mode = int(cs.NextBase), cs.NextMode
		if base >= len(t.RowOf) || t.RowOf[base] == 0 || t.Rows[t.RowOf[base]-1].Mode != mode {
			return e, false
		}
		e.next = int(t.RowOf[base]) - 1
	}
	return e, true
}

// symbols splits byte b into the table's symbols, most significant first.
func symbols(t *compile.Table, b int) []uint32 {
	var syms []uint32
	for j := 1; j <= int(t.K); j++ {
		syms = append(syms, uint32(b>>(8-int(t.W)*j)&(1<<t.W-1)))
	}
	return syms
}

// checkStep compares table entry s, covering d dispatches, with the effect
// of running them one at a time: a pure effect with at most 2 output bytes
// and one register write must be the entry, anything else an exit.
func checkStep(t *testing.T, tab *compile.Table, what string, s compile.Step, d uint64, e effect, ok bool) {
	t.Helper()
	if !ok || len(e.out) > 2 || len(e.regs) > 1 || e.actions > 0xFF {
		if !s.IsExit() {
			t.Fatalf("%s: tabled as %#x, but its dispatches are not pure (%+v, ok %v)", what, uint64(s), e, ok)
		}
		return
	}
	if s.IsExit() {
		t.Fatalf("%s: an exit, but its dispatches are pure (%+v)", what, e)
	}
	var out []byte
	for i := 0; i < s.N(); i++ {
		out = append(out, byte(s.Out()>>(8*i)))
	}
	if s.Next() != e.next || d+s.Prb()+s.Act() != e.cycles || s.Act() != e.actions ||
		s.Prb() != e.probes || string(out) != string(e.out) {
		t.Fatalf("%s: entry next %d cycles %d actions %d probes %d out %q; dispatches next %d cycles %d actions %d probes %d out %q",
			what, s.Next(), d+s.Prb()+s.Act(), s.Act(), s.Prb(), out, e.next, e.cycles, e.actions, e.probes, e.out)
	}
	m := tab.Movi[s.Movi()]
	for reg, val := range e.regs {
		if s.Movi() == 0 || m.Reg != reg || m.Val != val {
			t.Fatalf("%s: entry writes %+v (index %d), dispatches write r%d=%d", what, m, s.Movi(), reg, val)
		}
	}
	if len(e.regs) == 0 && s.Movi() != 0 {
		t.Fatalf("%s: entry writes %+v, dispatches write nothing", what, m)
	}
}

func memHistogram() *core.Program {
	p, err := histogram.BuildProgram(histogram.UniformEdges(16, 0, 1))
	if err != nil {
		panic(err)
	}
	return p
}

// TestTableEntries checks every byte entry (and, below 8-bit symbols, every
// symbol entry) of the builtins' tables against the dispatches it stands
// for, run one at a time through Program.Slots: next row, cycles, actions,
// probes, output bytes and register writes.
func TestTableEntries(t *testing.T) {
	progs := []*core.Program{memHistogram()}
	for _, b := range builtins.All() {
		progs = append(progs, b.Build())
	}
	for _, prog := range progs {
		t.Run(prog.Name, func(t *testing.T) {
			_, cp := lower(t, prog)
			tab := cp.Table
			if tab == nil {
				t.Fatal("no table")
			}
			tabled := 0
			for r := range tab.Rows {
				for b := 0; b < 256; b++ {
					s := tab.Bytes[r<<8|b]
					e, ok := dispatch(cp, r, symbols(tab, b))
					checkStep(t, tab, fmt.Sprintf("row %d byte %#x", r, b), s, uint64(tab.K), e, ok)
					if !s.IsExit() {
						tabled++
					}
				}
				for sym := 0; tab.W < 8 && sym < 1<<tab.W; sym++ {
					e, ok := dispatch(cp, r, []uint32{uint32(sym)})
					checkStep(t, tab, fmt.Sprintf("row %d symbol %d", r, sym), tab.Syms[r<<tab.W|sym], 1, e, ok)
				}
			}
			if tabled == 0 {
				t.Fatal("every entry is an exit")
			}
		})
	}
}

// rowOf returns the row of the named state.
func rowOf(t *testing.T, im *effclip.Image, tab *compile.Table, state string) int {
	t.Helper()
	base, ok := im.StateBase[state]
	if !ok || tab.RowOf[base] == 0 {
		t.Fatalf("state %q has no row", state)
	}
	return int(tab.RowOf[base]) - 1
}

func TestEchoCopyRow(t *testing.T) {
	im, cp := lower(t, builtins.Program("echo"))
	tab := cp.Table
	if r := rowOf(t, im, tab, "s"); len(tab.Rows) != 1 || !tab.Rows[r].Copy {
		t.Fatalf("echo rows %+v, want one copy row", tab.Rows)
	}
	if tab.Exits != 0 || tab.MaxCost != 3 {
		t.Fatalf("echo: %d exits, max cost %d; want 0 and 3 (dispatch, probe, Out8)", tab.Exits, tab.MaxCost)
	}
}

// TestCSVFieldBodyStays: the plain and quoted field bodies stay on their
// row through the majority word, charging the probe, and echo the byte;
// the separators leave.
func TestCSVFieldBodyStays(t *testing.T) {
	for _, sep := range []byte{',', '|'} {
		t.Run(string(sep), func(t *testing.T) {
			im, cp := lower(t, csvparse.BuildProgramSep(sep))
			tab := cp.Table
			plain, quote := rowOf(t, im, tab, "plain"), rowOf(t, im, tab, "quote")
			stays := func(r int, b byte) bool {
				s := tab.Bytes[r<<8|int(b)]
				return s.Next() == r && s.Prb() == 1 && s.Act() == 1 && s.N() == 1 && byte(s.Out()) == b
			}
			for _, tc := range []struct {
				row  int
				name string
				want int
				not  []byte
			}{
				{plain, "plain", 253, []byte{sep, '\n', '\r'}},
				{quote, "quote", 255, []byte{'"'}},
			} {
				n := 0
				for b := 0; b < 256; b++ {
					if stays(tc.row, byte(b)) {
						n++
					}
				}
				if n != tc.want {
					t.Errorf("%s: %d bytes stay through the majority word, want %d", tc.name, n, tc.want)
				}
				for _, b := range tc.not {
					if stays(tc.row, b) {
						t.Errorf("%s: %q stays", tc.name, b)
					}
				}
			}
			if s := tab.Bytes[plain<<8|int(sep)]; s.Next() != rowOf(t, im, tab, "field") || s.IsExit() {
				t.Errorf("plain: the separator does not step to field")
			}
		})
	}
}

// TestHistogramSkipRows: a bin resolved after d nibbles skips the rest of
// the key through common states, so a skip row with at least two hops left
// steps the same for every byte.
func TestHistogramSkipRows(t *testing.T) {
	im, cp := lower(t, builtins.Program("histogram16"))
	tab := cp.Table
	if tab.W != 4 || tab.K != 2 || tab.Exits != 0 {
		t.Fatalf("histogram16e table: W %d K %d exits %d, want 4, 2 and 0", tab.W, tab.K, tab.Exits)
	}
	skips := 0
	for name := range im.StateBase {
		var bin, k int
		if _, err := fmt.Sscanf(name, "skip_b%d_k%d", &bin, &k); err != nil || k < 2 {
			continue
		}
		r := rowOf(t, im, tab, name)
		if tab.Rows[r].Mode != core.ModeCommon {
			t.Fatalf("%s: row mode %v", name, tab.Rows[r].Mode)
		}
		for b := 1; b < 256; b++ {
			if tab.Bytes[r<<8|b] != tab.Bytes[r<<8] {
				t.Fatalf("%s: byte %#x steps differently from byte 0", name, b)
			}
		}
		skips++
	}
	if skips == 0 {
		t.Fatal("no skip rows")
	}
}

// TestTableExits: default, refill, slow and SetSS transitions, chains with
// more than 2 output bytes or writes to two registers, and symbol widths the
// table does not step are exits or leave the image untabled.
func TestTableExits(t *testing.T) {
	type exitCase struct {
		name  string
		build func(p *core.Program, s *core.State)
	}
	for _, tc := range []exitCase{
		{"default", func(p *core.Program, s *core.State) {
			d := p.AddState("d", core.ModeStream)
			s.Default(d)
			d.Majority(s, core.AOut8(core.RSym))
		}},
		{"refill", func(p *core.Program, s *core.State) { s.OnRefill('x', 4, s, core.AOut8(core.RSym)) }},
		{"slow", func(p *core.Program, s *core.State) { s.On('x', s, core.ASt8(core.R2, core.RSym, 0)) }},
		{"setss", func(p *core.Program, s *core.State) { s.On('x', s, core.Action{Op: core.OpSetSS, Imm: 8}) }},
		{"three-outputs", func(p *core.Program, s *core.State) {
			s.On('x', s, core.AOut8(core.RSym), core.AOut8(core.RSym), core.Action{Op: core.OpOutI, Imm: '!'})
		}},
		{"two-registers", func(p *core.Program, s *core.State) {
			s.On('x', s, core.AMovi(core.R1, 1), core.AMovi(core.R2, 2), core.AOut8(core.R1))
		}},
		{"foreign-register", func(p *core.Program, s *core.State) { s.On('x', s, core.AOut8(core.R3)) }},
		{"rsym-write", func(p *core.Program, s *core.State) {
			s.On('x', s, core.AMovi(core.RSym, 'y'), core.AOut8(core.RSym))
		}},
		{"halt", func(p *core.Program, s *core.State) { s.On('x', s, core.AHalt(1)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := core.NewProgram(tc.name, 8)
			s := p.AddState("s", core.ModeStream)
			tc.build(p, s)
			if tc.name != "default" {
				s.Majority(s, core.AOut8(core.RSym))
			}
			im, cp := lower(t, p)
			r := rowOf(t, im, cp.Table, "s")
			if !cp.Table.Bytes[r<<8|'x'].IsExit() {
				t.Fatalf("'x' is tabled: %#x", uint64(cp.Table.Bytes[r<<8|'x']))
			}
			if cp.Table.Exits == 256*len(cp.Table.Rows) {
				t.Fatalf("every byte exits; the majority should be tabled")
			}
		})
	}
	t.Run("three-bit-symbols", func(t *testing.T) {
		p := core.NewProgram("w3", 3)
		s := p.AddState("s", core.ModeStream)
		s.Majority(s, core.AOut8(core.RSym))
		if _, cp := lower(t, p); cp.Table != nil {
			t.Fatal("3-bit symbols tabled")
		}
	})
}
