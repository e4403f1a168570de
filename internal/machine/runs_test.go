package machine_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"udp/internal/builtins"
	"udp/internal/core"
	"udp/internal/kernels/histogram"
	"udp/internal/machine"
	"udp/internal/workload"
)

// The compiled tier consumes stay runs and common chains in one step (see
// compiled.go); these cases put every limit of such a step — cycle budget,
// stop stride, end of input, livelock window — inside a run, and diff all
// three tiers, trap trace tail included, on fresh and poisoned slabs.

// chainProgram echoes bytes in a stream state and, on '#', walks a chain of
// common-mode states, one per hop, all action-free but the last, which
// emits '.'.
func chainProgram(hops int) *core.Program {
	p := core.NewProgram("chain", 8)
	s := p.AddState("s", core.ModeStream)
	c := make([]*core.State, hops)
	for i := range c {
		c[i] = p.AddState(fmt.Sprintf("c%d", i), core.ModeCommon)
	}
	s.On('#', c[0])
	s.Majority(s, core.AOut8(core.RSym))
	for i := 0; i+1 < hops; i++ {
		c[i].Common(c[i+1])
	}
	c[hops-1].Common(s, core.Action{Op: core.OpOutI, Imm: '.'})
	return p
}

// mixedProgram has a direct-slot stay ('a', no actions: 1 cycle) and a
// majority stay (Out8 of RSym: 3 cycles) in one state, plus a labeled
// transition that bumps R3 so Out8-of-R3 stays see changing values.
func mixedProgram(majority core.Action) *core.Program {
	p := core.NewProgram("mixed", 8)
	s := p.AddState("s", core.ModeStream)
	s.On('a', s)
	s.On('\n', s, core.AAddi(core.R3, core.R3, 1))
	s.Majority(s, majority)
	return p
}

// haltProgram echoes bytes until a halting transition: '!' halts into a
// state whose majority word is an echo stay, '#' halts into a common chain.
// Nothing after either halt may run.
func haltProgram() *core.Program {
	p := core.NewProgram("halt", 8)
	s := p.AddState("s", core.ModeStream)
	stay := p.AddState("stay", core.ModeStream)
	c := make([]*core.State, 4)
	for i := range c {
		c[i] = p.AddState(fmt.Sprintf("c%d", i), core.ModeCommon)
	}
	s.On('!', stay, core.AHalt(1))
	s.On('#', c[0], core.AHalt(2))
	s.Majority(s, core.AOut8(core.RSym))
	stay.Majority(stay, core.AOut8(core.RSym))
	for i := 0; i+1 < len(c); i++ {
		c[i].Common(c[i+1])
	}
	c[len(c)-1].Common(s)
	return p
}

func TestDifferentialRunHalt(t *testing.T) {
	img := layout(t, haltProgram())
	for _, input := range []string{"!abc", "xy!abcdef", "#12345678", "ab#1234"} {
		t.Run(input, func(t *testing.T) {
			ref, _, _ := diffRun(t, img, []byte(input), nil)
			if ref.stats.Dispatches != uint64(strings.IndexAny(input, "!#")+1) {
				t.Fatalf("reference ran %d dispatches, want a halt at the marker", ref.stats.Dispatches)
			}
		})
	}
}

// TestDifferentialRunZeroWidthChain: with 0 symbol bits a common chain reads
// nothing, so its action-free hops make no progress and must count toward
// the livelock window even right after a dispatch that emitted a byte.
func TestDifferentialRunZeroWidthChain(t *testing.T) {
	p := core.NewProgram("ss0-chain", 0)
	s := p.AddState("s", core.ModeStream)
	s.SymbolBits = 8 // declared per state; the lane reads the program's 0
	c := make([]*core.State, 8)
	for i := range c {
		c[i] = p.AddState(fmt.Sprintf("c%d", i), core.ModeCommon)
		c[i].SymbolBits = 8
	}
	s.Majority(c[0], core.Action{Op: core.OpOutI, Imm: 'o'})
	for i := range c {
		c[i].Common(c[(i+1)%len(c)])
	}
	img := layout(t, p)
	for window := uint64(1); window <= 20; window++ {
		ref, _, _ := diffRunBanks(t, img, 0, []byte("a"), func(l *machine.Lane) { l.SetLivelockWindow(window) }, 0)
		if ref.err == nil {
			t.Fatalf("window %d: reference run succeeded, want a livelock trap", window)
		}
	}
}

func TestDifferentialRunBudgets(t *testing.T) {
	keys := histogram.KeyBytes(workload.FloatColumn(4, workload.DistUniform, 0, 1, 5))
	hist := builtins.Program("histogram16")
	cases := []struct {
		name  string
		prog  *core.Program
		input []byte
		max   uint64
	}{
		// A cycle-budget trap inside a stay run.
		{"echo", echoProgram(), []byte("the quick brown fox jumps over"), 100},
		// ... inside an alternation of direct and majority stays.
		{"direct-majority", mixedProgram(core.AOut8(core.RSym)), []byte("aaaaxyzaaxaaaaaaaaqqqqq\naaa"), 90},
		// ... inside a common chain of byte symbols.
		{"common-chain", chainProgram(6), []byte("ab#123456cd#123456#12345"), 60},
		// ... inside the histogram's nibble chains.
		{"histogram16", hist, keys, 150},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			img := layout(t, tc.prog)
			traps := 0
			for budget := uint64(1); budget <= tc.max; budget++ {
				if ref, _, _ := diffRunBanks(t, img, 0, tc.input, nil, budget); ref.err != nil {
					traps++
				}
			}
			if traps < int(tc.max)/3 {
				t.Fatalf("only %d of %d budgets trapped", traps, tc.max)
			}
		})
	}
}

func TestDifferentialRunShapes(t *testing.T) {
	text := workload.Text(workload.TextEnglish, 3<<12+77, 5) // > 3 interrupt strides
	mixed := bytes.Repeat([]byte("aaaaaaaaaaaxaxaxayyyyy\naaaaaaazzzz\n"), 40)
	cases := []struct {
		name  string
		prog  *core.Program
		input []byte
		setup func(*machine.Lane)
	}{
		{"alternating-stays", mixedProgram(core.AOut8(core.RSym)), mixed, nil},
		{"outi-stay", mixedProgram(core.Action{Op: core.OpOutI, Imm: 'q'}), mixed, nil},
		{"out8-other-register", mixedProgram(core.AOut8(core.R3)), mixed,
			func(l *machine.Lane) { l.SetReg(core.R3, 'A') }},
		{"out8-zero-register", mixedProgram(core.AOut8(core.R4)), mixed, nil},
		// Runs longer than the interrupt stride, with a stop flag bound but
		// never set: the poll count must still match.
		{"long-runs-polled", echoProgram(), text,
			func(l *machine.Lane) { l.BindStop(new(atomic.Bool)) }},
		// Long runs under a tiny livelock window: every skipped dispatch
		// makes progress, so nothing traps.
		{"long-runs-small-window", echoProgram(), text,
			func(l *machine.Lane) { l.SetLivelockWindow(1) }},
		{"chain-small-window", chainProgram(40), bytes.Repeat([]byte("xy#0123456789012345678901234567890123456789"), 20),
			func(l *machine.Lane) { l.SetLivelockWindow(1) }},
	}
	// End of input at every point of a common chain.
	for cut := 1; cut <= 12; cut++ {
		cases = append(cases, struct {
			name  string
			prog  *core.Program
			input []byte
			setup func(*machine.Lane)
		}{fmt.Sprintf("chain-eof-%d", cut), chainProgram(8), []byte("ab#12345678c#1234")[:3+cut], nil})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, comp := diffRun(t, layout(t, tc.prog), tc.input, tc.setup)
			if comp.err != nil {
				t.Fatal(comp.err)
			}
			if comp.engine != machine.EngineCompiled {
				t.Fatalf("compiled run degraded (engine %v)", comp.engine)
			}
		})
	}
}

// TestDifferentialRunStop: a stop flag set before Run interrupts every tier
// at the first stride poll, inside what the compiled tier would otherwise
// consume as one stay run or chain.
func TestDifferentialRunStop(t *testing.T) {
	for _, tc := range []struct {
		name  string
		prog  *core.Program
		input []byte
	}{
		{"stay", echoProgram(), workload.Text(workload.TextEnglish, 3<<12, 6)},
		{"chain", chainProgram(200), bytes.Repeat([]byte("ab#"+string(bytes.Repeat([]byte{'-'}, 200))), 30)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stop := func(l *machine.Lane) {
				var f atomic.Bool
				f.Store(true)
				l.BindStop(&f)
			}
			ref, _, _ := diffRun(t, layout(t, tc.prog), tc.input, stop)
			if ref.err != machine.ErrInterrupted {
				t.Fatalf("reference run returned %v, want ErrInterrupted", ref.err)
			}
		})
	}
}

// TestDifferentialRunLivelock: a put-back leaves the stream below its
// high-water mark, so the stay run that re-reads it makes no progress up to
// and including the byte at the mark ('!', a stay in back); the compiled
// tier must not skip those dispatches past the livelock window.
func TestDifferentialRunLivelock(t *testing.T) {
	p := core.NewProgram("reread", 8)
	s := p.AddState("s", core.ModeStream)
	back := p.AddState("back", core.ModeStream)
	s.On('!', back, core.Action{Op: core.OpPutBack, Imm: 40})
	s.Majority(s)
	back.On('i', s)
	back.Majority(back)
	img := layout(t, p)
	input := []byte("abcdefgh!iklmnopq!iwxyz")
	for window := uint64(1); window <= 8; window++ {
		ref, _, _ := diffRun(t, img, input, func(l *machine.Lane) { l.SetLivelockWindow(window) })
		if trapped := ref.err != nil; trapped != (window <= 4) {
			t.Fatalf("window %d: trap %v, want a trap exactly for windows up to 4", window, ref.err)
		}
	}
}
